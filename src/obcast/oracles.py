"""Slow reference routes used to cross-check the production reductions.

The enumeration here follows the direct recipe for the post-information
value: an extremal POVM needs at most d^2 outcomes, and the optimum is
deterministic, so it suffices to scan every assignment of an answer row to
each of the d^2 outcomes and solve the resulting discrimination problem.
Only the weighted row operators come from ``merged_row_targets``, as for
``p_postinfo``; the closed-form cases (``bb84-postinfo``, ``thm1-postinfo``)
pin them independently.  The search deliberately ignores the row-merging
shortcut that ``p_postinfo`` relies on; agreement between the two is what
the test asserts.  The assignment problems of all the ensembles run as one
fixed-point stream (``solve_stream``), and each result is folded into its
ensemble's optimum as it certifies and then dropped, so the POVMs and duals
of the search are never held at once.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

from .discrimination import SolverSettings, merged_row_targets, solve_stream
from .discrimination import min_error_discrimination  # noqa: F401  (bound here for perfbench's span tracer)
from .ensembles import PostInfoEnsemble

# Undamped iterations converge in fewer steps; every inner solve still
# carries its own dual certificate, so speed does not trade against rigor.
_ORACLE_SETTINGS = SolverSettings(gap_tol=1e-8, damping=1.0, check_interval=5)


def enumerate_postinfo_all(ensembles: Sequence[PostInfoEnsemble]) -> list[float]:
    """Post-information value of each ensemble (all of one dimension) by exhaustive deterministic-assignment search."""
    targets, owner = [], []
    for e, ens in enumerate(ensembles):
        row_target = merged_row_targets(ens)
        rows = range(len(row_target.operators))
        # an assignment's value depends only on the multiset of rows it uses
        keys = dict.fromkeys(tuple(sorted(a)) for a in itertools.product(rows, repeat=ens.dim * ens.dim))
        targets += [row_target.select(k) for k in keys]
        owner += [e] * len(keys)
    best = [-math.inf] * len(ensembles)
    for i, result in solve_stream(targets, _ORACLE_SETTINGS):
        # certified window: the optimum lies within gap above the primal
        best[owner[i]] = max(best[owner[i]], result.value + result.certificate.gap)
    return best
