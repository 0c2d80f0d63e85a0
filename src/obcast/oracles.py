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
streams them with any other targets of the same shape (``finished_stream``:
the barrier finishes one still uncertified after ``STREAM_BUDGET``), and
folds its primal + gap, Tr Y of a dual raised above every row, into its
target's optimum: no POVM is needed, so no result object is built, and the
search's POVMs and duals are never held at once.
Before any problem enters the stream, the search bounds every one of them
from one undamped map step off the pretty-good measurement, and keeps only
those whose certified optimum could still reach its target's maximum
(branch and bound; Land and Doig, Econometrica 28, 497, 1960).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

from .discrimination import EffectTarget, SolverSettings, _pretty_good, _screened_gaps
from .discrimination import min_error_discrimination  # noqa: F401  (bound here for perfbench's span tracer)
from .linalg import rounding_floor

# Undamped iterations converge in fewer steps; every inner solve still
# carries its own dual certificate, so speed does not trade against rigor.
_ORACLE_SETTINGS = SolverSettings(gap_tol=1e-8, damping=1.0, check_interval=5)
# rounding floors that hold the search's bounds on each problem's optimum against the rounding of both
_MARGIN_FLOORS = 4.0
# operators (problems times rows) per window of the bound; a wider window costs memory and saves no time
STACK_OPERATORS = 1024


def _bounds(m: np.ndarray) -> np.ndarray:
    """The primal and certified upper bound of each problem of ``m`` (B, n, d, d), from one map step off the PGM."""
    p = _pretty_good(m)
    p = _pretty_good(m @ p @ m)
    primal = np.einsum("brij,brji->b", p, m).real
    return np.stack([primal, primal + _screened_gaps(m, p)])


class AssignmentSearch:
    """Exhaustive deterministic-assignment search for the post-information value behind each row target.

    ``row_targets`` are ``merged_row_targets`` of the ensembles, all of one
    dimension.  ``problems`` (B, d^2, d, d) are the distinct assignment
    problems that can still reach their row target's optimum, to be solved at
    ``settings``; ``kept`` marks them among every sorted multiset of rows, in
    enumeration order.  ``fold(k, primal, gap)`` takes the certified primal
    and gap of ``problems[k]`` and keeps its row target's running optimum in
    ``values``.

    A multiset is dropped by a bound on its target's problems.  From one
    undamped map step off the pretty-good measurement, P = PGM(M PGM(M) M),
    the eigenvalue-shift certificate gives an upper bound U_k = primal + gap
    + margin on the optimum OPT_k of each problem, and the largest primal of
    the target's problems a lower bound L_e = primal_j - margin on the
    target's optimum; the margin, a few of ``DualCertificate.validate``'s
    rounding floors at the problem's own scale, holds both against rounding.
    A problem is kept when U_k + ``gap_tol`` >= L_e of its target.  The
    bound runs one target at a time, in windows of at most
    ``STACK_OPERATORS`` operators, and keeps two floats per multiset; only
    the kept problems are built.  A dropped problem's certified result
    would be primal + gap <= OPT_k + ``gap_tol`` <= U_k +
    ``gap_tol`` < L_e, while L_e <= Tr Y_j for the problem j that gave L_e,
    which is always kept (U_j exceeds L_e by its gap and twice the margin).
    So every dropped result lies strictly below a kept one, and each of
    ``values``, a float maximum, keeps its bits.
    """

    settings = _ORACLE_SETTINGS

    def __init__(self, row_targets: Sequence[EffectTarget]):
        problems, kept, self._owner = [], [], []
        for e, row_target in enumerate(row_targets):
            ops, n = row_target.operators, row_target.dim**2
            # an assignment's value depends only on the multiset of rows it uses: each sorted multiset once
            keys = np.array(list(itertools.combinations_with_replacement(range(len(ops)), n)))
            width = max(1, STACK_OPERATORS // n)
            windows = [_bounds(ops[keys[i : i + width]]) for i in range(0, len(keys), width)]
            primal, upper = np.concatenate(windows, axis=1)
            # Tr Y bounds every entry of Y >= M_r >= 0, so it is the scale of validate's rounding floor
            margin = _MARGIN_FLOORS * rounding_floor(0.0, row_target.dim * upper)
            kept.append(upper + margin + self.settings.gap_tol >= (primal - margin).max())
            problems.append(ops[keys[kept[-1]]])
            self._owner += [e] * len(problems[-1])
        self.kept, self.problems = np.concatenate(kept), np.concatenate(problems)
        self.values = [-math.inf] * len(row_targets)

    def fold(self, k: int, primal: float, gap: float) -> None:
        # certified window: the optimum lies within gap above the primal
        e = self._owner[k]
        self.values[e] = max(self.values[e], primal + gap)
