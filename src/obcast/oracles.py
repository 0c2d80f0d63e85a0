"""Slow reference routes used to cross-check the production reductions.

The enumeration here follows the direct recipe for the post-information
value: an extremal POVM needs at most d^2 outcomes, and the optimum is
deterministic, so it suffices to scan every assignment of an answer row to
each of the d^2 outcomes and solve the resulting discrimination problem.
Only the weighted row operators come from ``merged_row_targets``, as for
``p_postinfo``: the search takes the caller's row targets, so each ensemble's
rows are built once; the closed-form cases (``bb84-postinfo``,
``thm1-postinfo``) pin them independently.  The search deliberately ignores
the row-merging shortcut that ``p_postinfo`` relies on; agreement between the
two is what the test asserts.  ``AssignmentSearch`` holds the assignment
problems of a set of row targets as one (B, d^2, d, d) array; its caller
streams them (``solve_stream``) with any other targets of the same shape,
and folds each primal + gap, Tr Y of a dual raised above every row, into
its target's optimum as it certifies: no POVM is needed, so no result
object is built, and the search's POVMs and duals are never held at once.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

from .discrimination import EffectTarget, SolverSettings
from .discrimination import min_error_discrimination  # noqa: F401  (bound here for perfbench's span tracer)

# Undamped iterations converge in fewer steps; every inner solve still
# carries its own dual certificate, so speed does not trade against rigor.
_ORACLE_SETTINGS = SolverSettings(gap_tol=1e-8, damping=1.0, check_interval=5)


class AssignmentSearch:
    """Exhaustive deterministic-assignment search for the post-information value behind each row target.

    ``row_targets`` are ``merged_row_targets`` of the ensembles, all of one
    dimension.  ``problems`` (B, d^2, d, d) are the distinct assignment
    problems, to be solved at ``settings``; ``fold(k, primal, gap)`` takes
    the certified primal and gap of ``problems[k]`` and keeps its row
    target's running optimum in ``values``.
    """

    settings = _ORACLE_SETTINGS

    def __init__(self, row_targets: Sequence[EffectTarget]):
        problems, self._owner = [], []
        for e, row_target in enumerate(row_targets):
            rows = range(len(row_target.operators))
            # an assignment's value depends only on the multiset of rows it uses: each sorted multiset once
            keys = list(itertools.combinations_with_replacement(rows, row_target.dim**2))
            problems.append(np.array(row_target.operators)[np.array(keys)])
            self._owner += [e] * len(keys)
        self.problems = np.concatenate(problems)
        self.values = [-math.inf] * len(row_targets)

    def fold(self, k: int, primal: float, gap: float) -> None:
        # certified window: the optimum lies within gap above the primal
        e = self._owner[k]
        self.values[e] = max(self.values[e], primal + gap)
