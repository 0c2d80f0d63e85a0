"""Slow reference routes used to cross-check the production reductions.

The enumeration here follows the direct recipe for the post-information
value: an extremal POVM needs at most d^2 outcomes, and the optimum is
deterministic, so it suffices to scan every assignment of an answer row to
each of the d^2 outcomes and solve the resulting discrimination problem.
This deliberately ignores the row-merging shortcut that ``p_postinfo``
relies on; agreement between the two is what the test asserts.
"""

from __future__ import annotations

import itertools

import numpy as np

from .discrimination import EffectTarget, SolverSettings, min_error_discrimination_stack
from .discrimination import min_error_discrimination  # noqa: F401  (bound here for perfbench's span tracer)
from .ensembles import PostInfoEnsemble
from .linalg import dyad

# Undamped iterations converge in fewer steps; every inner solve still
# carries its own dual certificate, so speed does not trade against rigor.
_ORACLE_SETTINGS = SolverSettings(gap_tol=1e-8, damping=1.0, check_interval=5)


def enumerate_postinfo(ensemble: PostInfoEnsemble, outcome_count: int | None = None) -> float:
    """Post-information value by exhaustive deterministic-assignment search."""
    d = ensemble.dim
    n_out = outcome_count or d * d
    counts = ensemble.index_sets
    rows = list(itertools.product(*[range(c) for c in counts]))
    projectors = tuple(tuple(dyad(s) for s in group) for group in ensemble.states)
    row_ops = []
    for row in rows:
        acc = np.zeros((d, d), dtype=complex)
        for t, i in enumerate(row):
            acc += ensemble.prior[t][i] * projectors[t][i]
        row_ops.append(acc)
    row_target = EffectTarget(operators=tuple(row_ops), labels=tuple(rows))
    # an assignment's value depends only on the multiset of rows it uses
    keys = dict.fromkeys(tuple(sorted(a)) for a in itertools.product(range(len(rows)), repeat=n_out))
    results = min_error_discrimination_stack([row_target.select(k) for k in keys], _ORACLE_SETTINGS)
    # certified window: the optimum lies within gap above the primal
    return float(max(r.value + r.certificate.gap for r in results))
