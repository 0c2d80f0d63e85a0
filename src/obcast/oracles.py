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
One keep rule prunes the search by branch and bound (Land and Doig,
Econometrica 28, 497, 1960): a problem stays only while its certified
optimum could still reach its target's maximum.  Before any problem enters
the stream, the rule bounds every one of them from one undamped map step off
the pretty-good measurement; at every check of the stream it bounds each due
problem again from the screen the check computes (``AssignmentSearch.keep``,
the ``solve_stream`` hook that ``finished_stream`` passes on), and a problem
it drops there leaves uncertified and unfolded.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence

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
    primal, gap = _screened_gaps(m, _pretty_good(m @ p @ m))
    return np.stack([primal, primal + gap])


def _windows(row_targets: Sequence[EffectTarget], keys: Sequence[np.ndarray], width: int) -> Iterator[np.ndarray]:
    """The assignment problems of every target in order, those of target e its operators at the rows of ``keys[e]``, in stacks of ``width``."""
    pending, size = [], 0
    for target, k in zip(row_targets, keys):
        start = 0
        while start < len(k):
            part = k[start : start + width - size]
            pending.append(target.operators[part])
            size, start = size + len(part), start + len(part)
            if size == width:
                yield np.concatenate(pending)
                pending, size = [], 0
    if pending:
        yield np.concatenate(pending)


class AssignmentSearch:
    """Exhaustive deterministic-assignment search for the post-information value behind each row target.

    ``row_targets`` are ``merged_row_targets`` of the ensembles, at least one,
    all of one dimension.  ``problems`` (B, d^2, d, d) are the distinct
    assignment problems that can still reach their row target's optimum, to
    be solved at ``settings``; ``kept`` marks them among every sorted multiset
    of rows, in enumeration order.  ``fold(k, primal, gap)`` takes the
    certified primal and gap of ``problems[k]`` and keeps its row target's
    running optimum in ``values``.

    A problem is dropped by the keep rule, from a primal and an upper bound on
    its optimum.  Its upper bound U_k = primal + gap + margin comes from the
    eigenvalue-shift certificate of a POVM of the problem (``_screened_gaps``);
    the target's lower bound L_e, the largest primal - margin any of its
    problems has shown, only rises; the margin, a few of
    ``DualCertificate.validate``'s rounding floors at the problem's own scale,
    holds both against rounding.  A problem is kept while U_k + ``gap_tol`` >=
    L_e of its target.  The rule runs once before the stream, from one
    undamped map step off the pretty-good measurement, P = PGM(M PGM(M) M),
    on every multiset: the multisets of every target in order, in shared
    windows of at most ``STACK_OPERATORS`` operators, two floats per
    multiset, and only the kept problems are built.  Each bound is that of its
    problem alone, whatever window it shares, and each target's rule reads
    only its own problems, so one rule over all of them keeps what one rule
    per target would.  It runs again at every check of the stream, through
    ``keep``, the ``solve_stream`` hook, from the screen the check already
    computes, so a problem dropped there is never certified or folded.  A
    dropped problem's certified result would be primal + gap <= OPT_k +
    ``gap_tol`` <= U_k + ``gap_tol`` < L_e, while L_e, a primal of one of the
    target's problems, is at most the largest optimum OPT_j of them; that
    problem is never dropped (U_j is at least OPT_j, within the margin) and
    its result Tr Y_j is at least OPT_j.  So every dropped result lies
    strictly below a kept one, and each of ``values``, a float maximum, keeps
    its bits.
    """

    settings = _ORACLE_SETTINGS

    def __init__(self, row_targets: Sequence[EffectTarget]):
        if not row_targets:
            raise ValueError("an assignment search needs at least one row target")
        if len(dims := sorted({t.dim for t in row_targets})) > 1:
            raise ValueError(f"an assignment search takes row targets of one dimension, got dimensions {dims}")
        self._dim, self._lower = dims[0], np.full(len(row_targets), -math.inf)
        n = self._dim**2
        # an assignment's value depends only on the multiset of rows it uses: each sorted multiset once
        keys = [np.array(list(itertools.combinations_with_replacement(range(len(t.operators)), n))) for t in row_targets]
        owner = np.repeat(np.arange(len(row_targets)), [len(k) for k in keys])
        # every target's multisets in order, bounded in shared windows, then the rule on all of them at once
        windows = [_bounds(window) for window in _windows(row_targets, keys, max(1, STACK_OPERATORS // n))]
        self.kept = self._rule(owner, *np.concatenate(windows, axis=1))
        kept = np.split(self.kept, np.cumsum([len(k) for k in keys])[:-1])
        self.problems = np.concatenate([t.operators[k[mask]] for t, k, mask in zip(row_targets, keys, kept)])
        self._owner = owner[self.kept]
        self.values = [-math.inf] * len(row_targets)

    def _rule(self, owner: np.ndarray, primal: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """The keep rule for problems of the targets ``owner``, with their primals and upper bounds; raises each L_e first."""
        # Tr Y bounds every entry of Y >= M_r >= 0, so it is the scale of validate's rounding floor
        margin = _MARGIN_FLOORS * rounding_floor(0.0, self._dim * upper)
        np.maximum.at(self._lower, owner, primal - margin)
        return upper + margin + self.settings.gap_tol >= self._lower[owner]

    def keep(self, k: np.ndarray, primal: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Which of ``problems[k]``, at the screened ``primal`` and ``upper`` of a stream check, can still reach their target's value."""
        return self._rule(self._owner[k], primal, upper)

    def fold(self, k: int, primal: float, gap: float) -> None:
        # certified window: the optimum lies within gap above the primal
        e = self._owner[k]
        self.values[e] = max(self.values[e], primal + gap)
