"""Minimum-error discrimination with dual certificates, and derived measures.

The solver iterates the standard optimality map for discriminating weighted
operators: given a POVM P, form R = sum_r M_r P_r M_r and update
P_r <- R^{-1/2} M_r P_r M_r R^{-1/2}, damped and Hermitian-projected each step.
A dual certificate Y >= M_r is built from the iterate by an eigenvalue shift;
the reported value is optimal within the certified gap, independently of how
the iteration behaved.  Same-shape targets stream, as one (B, n, d, d) array,
in lockstep (``solve_stream``), each at its own settings, all starting at step
0 and leaving as each certifies or runs out, so every member's arrays are bit
for bit its lone solve's.  Every caller, a lone solve of at most d^2 operators
too, streams each member for at most ``STREAM_BUDGET`` iterations and has the
barrier below finish those that run out, all as one stack once the stream
ends (``finished_stream``), and may pass a rule that drops, at any check,
members it no longer needs.  The exact certificate of a member runs only
once its screened gap, which agrees with it to rounding, is within 1e-12 of
its ``gap_tol``, and a check's exact certificates are one stack.  A single target
with more operators, such as the answer rows of a post-information value, is
solved by Newton's method on the dual log barrier (``_barrier_solve``) over
the d^2 coordinates of Y in 15 to 130 steps, each with one LU inverse per row,
and each increase of the barrier parameter starting with a predictor step
along the central path; below its rounding floor, near 1e-10, the map
finishes from its POVM.  It solves a stack of same-shape targets in lockstep,
each member at its own settings and with its own bits, and a lone target as a
stack of one.  The barrier runs on a working set of rows
(``_working_set_solve``): the 2 d^2 least covered by the dual of the
pretty-good measurement to start (every row when there are at most 2 d^2),
ranked by the slacks that also give its eigenvalue shift, and the least
covered of the rows the dual misses after each round, until one Y is feasible
for every row.  Each round starts from the last
certified dual, and ends at the first certification whose dual misses a row off
the working set.  Those checks decompose only the rows that Weyl's inequality
on the slacks of the last dual checked does not prove covered (``_RowScreen``);
a round with no row off its working set makes none.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .ensembles import PostInfoEnsemble, Povm
from .errors import InternalInconsistency, SolverFailure
from .linalg import PSD_TOL, dagger, dyad, hermitian, least_eigenvalues, per_member, psd_stack, rounding_floor

MAX_ROW_TARGETS = 4096
# eigenvalues below this fraction of the largest are outside the support in the pseudo-inverse R^{-1/2};
# it is tighter than broadcast.STATE_RANK_TOL, which judges ranks of unit state vectors, not of weighted sums
PINV_RANK_TOL = 1e-12
# the barrier multiplies t by this at each certification that misses gap_tol
GROWTH = 30.0
# fixed-point iterations each stream member takes before the barrier finishes it (``finished_stream``)
STREAM_BUDGET = 1000
# a row whose slack bound clears validate's rounding floor by this many floors skips its eigendecomposition
SCREEN_FLOORS = 1024.0


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and iteration controls for the discrimination solver; a barrier Newton step is an iteration."""

    gap_tol: float = 1e-7
    psd_tol: float = PSD_TOL
    max_iterations: int = 100_000
    damping: float = 0.5
    check_interval: int = 10

    def __post_init__(self):
        for name, what, valid in (
            ("gap_tol", "a finite positive real number", lambda x: math.isfinite(x) and x > 0),
            ("psd_tol", "a finite non-negative real number", lambda x: math.isfinite(x) and x >= 0),
            ("damping", "a real number in (0, 1]", lambda x: 0 < x <= 1),
        ):
            value = getattr(self, name)
            # a real number, numpy's too, stored as a float; a bool or a string is no tolerance (nan fails every test)
            number = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
            if not valid(number):
                raise ValueError(f"{name} must be {what}, got {value!r}")
            object.__setattr__(self, name, number)
        for name in ("max_iterations", "check_interval"):
            value = getattr(self, name)
            try:  # an int or a numpy integer, stored as an int; a float or a bool is no count
                count = None if isinstance(value, bool) else operator.index(value)
            except TypeError:
                count = None
            if count is None or count < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
            object.__setattr__(self, name, count)


DEFAULT_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class EffectTarget:
    """Weighted PSD operators to be told apart, priors absorbed, each checked by ``linalg.psd_stack`` at ``psd_tol``."""

    operators: np.ndarray  # (n, d, d), read-only
    labels: tuple = ()
    psd_tol: float = PSD_TOL

    def __post_init__(self):
        stack = psd_stack(self.operators, self.psd_tol, "target")
        stack.flags.writeable = False
        object.__setattr__(self, "operators", stack)
        labels = tuple(self.labels) if len(self.labels) else tuple(range(len(stack)))
        if len(labels) != len(stack):
            raise ValueError("labels must match targets")
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]


@dataclass(frozen=True)
class DualCertificate:
    """Feasible dual operator pinning the primal value from above."""

    matrix: np.ndarray
    primal_value: float
    gap: float

    def validate(
        self, target: EffectTarget, povm: Povm | None = None, gap_tol: float = DEFAULT_SETTINGS.gap_tol
    ) -> None:
        """Raise ``ValueError`` unless the certificate holds at ``gap_tol``, to rounding and no further.

        Y is Hermitian within rounding (``linalg.ROUNDING_ULPS``) at the scale
        of its largest entry; Y >= M_r for every target and ``gap`` is Tr Y -
        primal, both within rounding at the scale of the largest entry of Y
        and the targets; and the gap is at most ``gap_tol``.  With ``povm``,
        also require one effect per target, each PSD, summing to the
        identity, all within the target's ``psd_tol`` or rounding at scale d,
        whichever is larger.
        """
        y = hermitian(self.matrix, tol=rounding_floor(0.0, np.abs(self.matrix).max(initial=0.0)))
        ops = target.operators
        scale = max(np.abs(y).max(), np.abs(ops).max())
        low = _row_slack(y, ops).min()
        if low < -rounding_floor(0.0, scale):
            raise ValueError(f"dual operator not feasible: Y - M has eigenvalue {low:.3e}")
        excess = float(np.trace(y).real) - self.primal_value
        rounding = rounding_floor(0.0, target.dim * scale)
        if abs(self.gap - excess) > rounding:
            raise ValueError(f"certified gap {self.gap:.3e} is not Tr Y - primal = {excess:.3e}")
        if not -rounding <= self.gap <= gap_tol:
            raise ValueError(f"certified gap {self.gap:.3e} outside [0, {gap_tol:.1e}]")
        if povm is None:
            return
        if len(povm) != len(target.operators):
            raise ValueError(f"{len(povm)} effects for {len(target.operators)} targets")
        effects = povm.effects
        floor = rounding_floor(target.psd_tol, target.dim)
        low = least_eigenvalues(effects).min()
        if low < -floor:
            raise ValueError(f"POVM effect has eigenvalue {low:.3e}")
        residual = np.abs(effects.sum(axis=0) - np.eye(target.dim)).max()
        if residual > floor:
            raise ValueError(f"POVM sums to the identity only within {residual:.3e}")


@dataclass(frozen=True)
class DiscriminationResult:
    """A certified optimum, its POVM and dual, the labels of its targets (answer rows, for ``p_postinfo``) and iterations."""

    value: float
    povm: Povm
    certificate: DualCertificate
    assignment: tuple
    iterations: int = 0


def helstrom_binary(rho: np.ndarray, sigma: np.ndarray):
    """Optimal success probability for discriminating two equiprobable states, member by member for stacks."""
    a = hermitian(rho)
    b = hermitian(sigma)
    diff = 0.5 * a - 0.5 * b
    return per_member(0.5 * (1.0 + np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)))


@functools.cache
def _identity(d: int) -> np.ndarray:
    """The d x d identity, built once and read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _psd_pinv_sqrt(r: np.ndarray, rank_tol: float) -> np.ndarray:
    """R^{-1/2} on the support of each PSD operator in the stack ``r`` (B, d, d)."""
    w, v = np.linalg.eigh((r + dagger(r)) / 2)
    top = np.maximum(w[:, -1:], 1e-300)  # eigenvalues come in ascending order
    inv = np.where(w > rank_tol * top, 1.0 / np.sqrt(np.maximum(w, 1e-300)), 0.0)
    return (v * inv[:, None, :]) @ dagger(v)


def _herm_stack(a: np.ndarray) -> np.ndarray:
    # C order: on large stacks the ufunc would otherwise pick the transposed
    # layout, and the per-member certificate would sum in another order
    return np.add(a, dagger(a), order="C") / 2


def _right_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_r b for every row a_r of ``a`` (..., n, d, d), with b the member's own ``b`` (..., d, d).

    The rows are stacked into one (n d, d) operand, so this is one BLAS call
    per member where ``a @ b[..., None, :, :]`` makes one per row.  Each entry
    is still the dot product of one row of a_r with one column of b, and the
    BLAS kernel gives it the same bits either way;
    ``tests/test_discrimination.py`` checks that property on random stacks.  A shared left factor, or a stack through a
    wider operand, does not keep the bits, so only right products come here.
    """
    return (a.reshape(*a.shape[:-3], -1, a.shape[-1]) @ b).reshape(a.shape)


def _pretty_good(a: np.ndarray) -> np.ndarray:
    """S^{-1/2} A_r S^{-1/2} with S = sum_r A_r, completed to a POVM, for each member of ``a`` (B, n, d, d).

    The left product S^{-1/2} A_r is one BLAS call per row; the right one is
    one per member (``_right_product``), with the bits of one per row.
    """
    n, d = a.shape[1], a.shape[-1]
    s = _psd_pinv_sqrt(a.sum(axis=1), PINV_RANK_TOL)
    p = _herm_stack(_right_product(s[:, None] @ a, s))
    p += ((_identity(d) - p.sum(axis=1)) / n)[:, None]
    return p


def _row_slack(y: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The least eigenvalue of Y - M_r for every row of ``m`` (..., n, d, d), Y the member's own ``y`` (..., d, d), in one ``eigvalsh``."""
    return np.linalg.eigvalsh(y[..., None, :, :] - m).min(axis=-1)


def _cover(y0: np.ndarray, slack: np.ndarray, primal: float) -> tuple[float, np.ndarray, float]:
    """Primal, Y0 raised by the least multiple of I that puts it above every row, whose ``_row_slack`` at Y0 is ``slack``, and gap."""
    shift = max(float(-slack.min()), 0.0)
    y = y0 + shift * _identity(len(y0))
    gap = float(np.trace(y).real - primal)
    return primal, y, max(gap, 0.0)


class _RowScreen:
    """A lower bound on the slack lambda_min(Y - M_r) of every row of ``m`` (n, d, d), the exact ``bound`` at the dual ``y`` to start.

    From the last dual checked, Y_ref, to the next, Y, Weyl's inequality gives
    lambda_min(Y - M_r) >= lambda_min(Y_ref - M_r) + lambda_min(Y - Y_ref),
    so one d x d ``eigvalsh`` raises every bound, less one rounding floor of
    ``DualCertificate.validate`` for the rounding of both terms.  Only a row
    whose bound does not clear that floor by ``SCREEN_FLOORS`` floors gets its
    exact ``_row_slack``; every other row is covered far above the floor.
    """

    def __init__(self, m: np.ndarray, y: np.ndarray, bound: np.ndarray):
        self.m, self.y, self.scale, self.bound = m, y, np.abs(m).max(), bound

    def uncovered(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The ``rows`` (ascending indices) on which Y falls below ``validate``'s floor, each with its exact slack in ``bound``.

        Every row that could fall below the floor gets its ``_row_slack`` at Y,
        so the result is that of the check on every row, bit for bit.
        """
        floor = rounding_floor(0.0, max(np.abs(y).max(), self.scale))
        self.bound += float(np.linalg.eigvalsh(y - self.y)[0]) - floor
        self.y = y
        check = rows[self.bound[rows] < SCREEN_FLOORS * floor]
        self.bound[check] = _row_slack(y, self.m[check])
        return rows[self.bound[rows] < -floor]


def _unshifted(m: np.ndarray, p: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The primal value of the POVM ``p`` on each member of ``m`` (B, n, d, d), and the Hermitian part of sum_r M_r P_r.

    The primal is one ``einsum`` per member: a stacked one sums in another
    order.  The stacked sum_r M_r P_r has the bits of each member's own.
    """
    primal = [float(np.einsum("rij,rji->", pb, mb).real) for mb, pb in zip(m, p)]
    ymp = np.einsum("brij,brjk->bik", m, p)
    return primal, (ymp + dagger(ymp)) / 2


def _certify(m: np.ndarray, p: np.ndarray) -> list[tuple[float, np.ndarray, float]]:
    """Exact certificate of each member of ``m`` (B, n, d, d) at its POVM in ``p``: primal, dual Y >= M_r, and gap.

    One stacked product and one ``_row_slack`` over every row of every
    member; each member's certificate has the bits of its stack of one.
    """
    primal, y0 = _unshifted(m, p)
    slack = _row_slack(y0, m)
    return [_cover(y, low, x) for y, low, x in zip(y0, slack, primal)]


def _failure(st: SolverSettings, primal, y, gap, p, iterations) -> SolverFailure:
    """The error for a solve whose best certified iterate ``p``, with dual ``y``, missed ``gap_tol``."""
    message = f"no certificate below {st.gap_tol:.1e} within {iterations} iterations (best gap {gap:.3e})"
    return SolverFailure(message, primal=primal, gap=gap, povm=p, dual=y, iterations=iterations)


def _screened_gaps(m: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The primal and the gap ``_certify`` would give, for the whole stack (B, n, d, d) at once.

    sum_r M_r P_r is one (d x n d)(n d x d) product per member, the rows of
    M side by side times those of P stacked.  Summation order differs from
    ``_certify``, so the gaps agree with it only to rounding
    (``tests/test_discrimination.py`` holds them within a few of
    ``DualCertificate.validate``'s rounding floors); they decide nothing
    beyond that rounding: which members get the exact check, within 1e-12 of
    their ``gap_tol``, and, held by a margin of a few floors, which problems
    of ``oracles.AssignmentSearch`` are kept.
    """
    b, n, d = m.shape[:2] + m.shape[-1:]
    primal = np.einsum("brij,brji->b", p, m).real
    ymp = m.transpose(0, 2, 1, 3).reshape(b, d, n * d) @ p.reshape(b, n * d, d)
    y0 = (ymp + dagger(ymp)) / 2
    low = np.linalg.eigvalsh(y0[:, None] - m).min(axis=(1, 2))
    return primal, np.trace(y0, axis1=1, axis2=2).real + d * np.maximum(-low, 0.0) - primal


def solve_stream(
    m: np.ndarray,
    settings: Sequence[SolverSettings],
    p: np.ndarray | None = None,
    keep: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> Iterator[tuple[int, tuple[float, np.ndarray, np.ndarray, float, int] | SolverFailure]]:
    """Fixed-point iteration on a stream of same-shape targets ``m`` (B, n, d, d), at one ``settings`` per member.

    Every member starts at step 0 from ``p`` (default: the pretty-good
    measurement) and iterates in lockstep with the others, each with its own
    damping, so a member's age is the step.  Each member is checked every
    ``check_interval`` steps and at its last iteration, the iterations of its
    lone solve; a step at which no member is due checks nothing.  A member
    leaves at the first of its checks where its own exact certificate meets
    its ``gap_tol``.  Every stacked step computes each member exactly as it
    would be computed alone, so the results do not depend on the other
    members, and a caller that folds each result and drops it never holds
    them all.  Yields (index, (primal, dual, POVM, gap, iterations)) as each
    member certifies, and (index, ``SolverFailure``) for a member whose own
    ``max_iterations`` run out uncertified, with its best checked iterate;
    the others carry on.  ``finished_stream`` budgets and finishes each.
    A check's exact certificates, and then its failures' certificates, are
    each one stacked ``_certify``, computed before the first of them is
    yielded.

    ``keep``, when given, is asked at every check which due members to keep,
    as ``keep(indices, primal, upper)`` with their input indices and their
    screened primal and primal + gap, before any exact certificate; a member
    it drops leaves there and is never yielded.  A kept member is untouched,
    so its yield keeps its lone bits.  ``oracles.AssignmentSearch.keep`` is
    such a rule: it drops the problems that can no longer reach their target's
    value.
    """
    if len(settings) != len(m):
        raise ValueError(f"{len(settings)} settings for {len(m)} targets")
    if not len(m):
        return
    intervals = [st.check_interval for st in settings]
    check_every = math.gcd(*intervals)
    # per-member constants in input order; the update factors are complex, as numpy casts a float factor
    retain_by = np.array([1.0 - st.damping for st in settings], dtype=complex)[:, None, None, None]
    damp_by = np.array([st.damping for st in settings], dtype=complex)[:, None, None, None]
    every_by = np.array(intervals)
    last_by = np.array([st.max_iterations - 1 for st in settings])
    # screened gaps are within rounding of the exact ones, far inside this margin
    screen_by = np.array([st.gap_tol for st in settings]) + 1e-12
    # the live members, in input order: input index, targets, iterates, best check
    live, ms, ps = np.arange(len(m)), m, _pretty_good(m) if p is None else p.copy()  # the loop updates ps in place
    best_gap, best_p, retain, damp = np.full(len(m), np.inf), ps.copy(), retain_by, damp_by
    next_final = int(last_by.min())  # the first step at which a live member reaches its last iteration
    step = 0
    while live.size:
        # (1 - damping) P + damping PGM(M P M), the operands in the order of a scalar update
        pretty_good = _pretty_good(ms @ ps @ ms)
        np.multiply(retain, ps, out=ps)
        np.multiply(damp, pretty_good, out=pretty_good)
        ps += pretty_good
        if step % check_every == 0 or step == next_final:
            final = step == last_by[live]
            due = np.flatnonzero((step % every_by[live] == 0) | final)
            if due.size:  # a final member is always due, so an empty check has no overrun to test
                primal, gaps = _screened_gaps(ms[due], ps[due])
                stay = np.ones(live.size, dtype=bool)
                if keep is not None:  # a member the caller's rule drops leaves here, unyielded
                    stay[due] = kept = keep(live[due], primal, primal + gaps)
                    due, gaps = due[kept], gaps[kept]
                improved = gaps < best_gap[due]
                best_gap[due[improved]] = gaps[improved]
                best_p[due[improved]] = ps[due[improved]]
                # every exact certificate of the check, and then every failure, as one stack
                screened = due[gaps <= screen_by[live[due]]]
                for k, (primal, y, gap) in zip(screened, _certify(ms[screened], ps[screened]) if screened.size else ()):
                    if gap <= settings[live[k]].gap_tol:
                        stay[k] = False
                        yield int(live[k]), (primal, y, ps[k].copy(), gap, step + 1)
                out = np.flatnonzero(final & stay)
                for k, certificate in zip(out, _certify(ms[out], best_p[out]) if out.size else ()):
                    st, stay[k] = settings[live[k]], False
                    yield int(live[k]), _failure(st, *certificate, best_p[k].copy(), st.max_iterations)
                if not stay.all():
                    live, ms, ps, best_gap, best_p = (a[stay] for a in (live, ms, ps, best_gap, best_p))
                    retain, damp = retain_by[live], damp_by[live]
                    next_final = int(last_by[live].min()) if live.size else math.inf
        step += 1


@functools.cache
def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the d x d Hermitian matrices under Tr(A B), one flattened element per row, built once and read-only."""
    f = np.zeros((d * d, d, d), dtype=complex)
    f[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    for k, (i, j) in enumerate(itertools.combinations(range(d), 2)):
        f[d + 2 * k, i, j] = f[d + 2 * k, j, i] = 1 / math.sqrt(2)
        f[d + 2 * k + 1, i, j], f[d + 2 * k + 1, j, i] = 1j / math.sqrt(2), -1j / math.sqrt(2)
    f = f.reshape(d * d, d * d)
    f.flags.writeable = False
    return f


def _guarded_step(
    y: np.ndarray, dy: np.ndarray, alpha: np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Y' = Y + alpha (dY + dY^H) / 2 for each member of ``y`` (B, d, d), the stack of every S_r = Y' - M_r, and its Cholesky factors.

    ``np.linalg.cholesky`` raises unless every S_r is positive definite in
    floating point, so it is the test that Y' is strictly feasible.  A stack
    that raises is retried member by member, and a lone member's alpha is
    halved until its factors exist.  The next Newton step inverts the stack
    S_r itself; only a predictor step reads the factors.  The last item
    lists, per member, whether its candidate equals its Y: the step is below
    rounding, and its S_r and factors are not to be read.
    """
    twice = dy + dagger(dy)
    while True:
        candidate = y + alpha[:, None, None] * twice / 2
        stuck = (candidate == y).all(axis=(1, 2)).tolist()
        s = candidate[:, None] - m
        if stuck == [True]:
            return candidate, s, s, stuck
        try:
            return candidate, s, np.linalg.cholesky(s), stuck
        except np.linalg.LinAlgError:
            if len(y) > 1:
                break
            alpha = alpha / 2
    members = [_guarded_step(y[b : b + 1], dy[b : b + 1], alpha[b : b + 1], m[b : b + 1]) for b in range(len(y))]
    *arrays, stuck = zip(*members)
    return (*(np.concatenate(part) for part in arrays), [x for part in stuck for x in part])


def _members(js: list[int], count: int) -> list[int] | slice:
    """An index of the members ``js`` of a stack of ``count``: a slice, which takes no copy, when they are all of them."""
    return slice(None) if len(js) == count else js


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_b . b_b for each member of the stacks ``a`` and ``b`` (B, k), each with the bits of its own ``a_b @ b_b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _barrier_solve(
    m: np.ndarray,
    settings: Sequence[SolverSettings],
    start: tuple[np.ndarray, Sequence[float]],
    uncovered: Sequence[Callable[[np.ndarray], np.ndarray] | None] | None = None,
) -> list[tuple[float, np.ndarray, np.ndarray, float, int] | SolverFailure]:
    """Certified optimum of each member of ``m`` (B, n, d, d), at its own ``settings``, by Newton's method on the dual log barrier.

    Minimises t Tr Y - sum_r log det S_r, S_r = Y - M_r, over Y in an
    orthonormal Hermitian basis F (Vandenberghe and Boyd, SIAM Rev. 38, 49,
    1996), from ``start`` = (Y0, gap0): Y0 raised by the least multiple of I
    that covers every row (``_cover``), plus 0.1 gap0 / d I, at t = n d / gap0,
    the barrier parameter whose central gap is gap0 (gap0 floored at
    ``gap_tol``).  Its steps are damped, alpha_N = 1 / (1 + sqrt(dec)) for a
    squared Newton decrement dec above 1 and 1 otherwise, which keeps them
    inside the Dikin ellipsoid and so strictly feasible in exact arithmetic.
    The Cholesky factorization of every S_r at the new point checks that in
    floating point, and alpha is halved until it succeeds (``_guarded_step``; a
    halving is not an iteration).  Each step then takes S_r^-1 as the Hermitian
    part of one LU inverse of S_r per row, and forms its Newton direction and
    decrement once; a certification that raises t with no predictor forms them
    again at the new t.  When the squared Newton decrement is below 2, the
    central POVM, the square-root measurement of the S_r^-1 (``_pretty_good``),
    is certified against Y (Eldar, Megretski and Verghese, IEEE TIT 49, 1007,
    2003): the solve returns (primal, dual, POVM, gap, iterations) if the gap
    meets ``gap_tol``, and otherwise multiplies t by ``GROWTH``.  The step that
    follows is a predictor along the central path, which near its end is
    Y_opt + A / t with A = t^2 U, U the Hermitian matrix of H^-1 Tr F that the
    step's own solve holds (Fiacco and McCormick, 1968): Y moves by
    -(1 - 1 / GROWTH) t U, to that model's point at the new t, held to 0.9 of
    the boundary of every S_r > 0 by one ``eigvalsh`` over the rows of
    L_r^-1 dY L_r^-H, from the inverse of the accepted Cholesky factor L_r, and
    factored the same way.  It counts as a Newton step.  From the first
    certification whose gap is not below half the previous one's, where the
    model no longer holds, t grows with no predictor.  Once t outgrows the
    rounding of Y, the fixed-point map on every row finishes from the best
    certified POVM with the rest of its ``max_iterations``, uncapped by
    ``STREAM_BUDGET`` (near 1e-13 it can take over 15,000); a failure reports
    the better certificate.

    The members step in lockstep, a lone solve as a stack of one; every
    stacked kernel gives a member the bits of its own, so each result is that
    of the member's stack of one.  Each member keeps its own t, predictor
    flag, last gap, best certificate and step count, and leaves as it
    certifies, stalls or runs out; the stalled members' fixed-point finishes
    are one ``solve_stream``.  Returns each member's (primal, dual, POVM, gap,
    iterations), or the ``SolverFailure`` a lone solve would raise, its
    ``__cause__`` the stall, in input order.  A ``LinAlgError`` of a stacked
    inverse or Newton solve, which positive definite S_r and Hessians do not
    raise, stalls every member.

    ``uncovered`` holds, per member, None or a check that ends it early: a
    certification that misses ``gap_tol`` returns its own certificate when
    ``uncovered(Y)``, the rows a working set leaves out on which Y falls
    below ``DualCertificate.validate``'s floor, is not empty.  A working set
    asks its ``_RowScreen``, which decomposes only the rows that a Weyl bound
    from the last checked dual does not already prove covered.
    """
    size, n, d = m.shape[0], m.shape[1], m.shape[-1]
    f = _hermitian_basis(d)
    trace_f = f[:, :: d + 1].real.sum(axis=1)
    checks = [None] * size if uncovered is None else uncovered
    gap0 = np.maximum(start[1], [st.gap_tol for st in settings])
    slack = _row_slack(start[0], m)
    y = np.stack([_cover(y0, low, 0.0)[1] for y0, low in zip(start[0], slack)]) + (0.1 * gap0 / d)[:, None, None] * _identity(d)
    t = n * d / gap0
    rhs = np.empty((size, d * d, 2))  # the Newton solves' right-hand sides, [Tr F, pull] per member
    rhs[..., 0] = trace_f
    # per member, by input index: whether t's increases still take the predictor, the last certified gap,
    # (primal, dual, gap, POVM) of the best certified round, the result, and (steps, S^-1, error) of a stall or run-out
    predict, last, best = [True] * size, [math.inf] * size, [(None, None, math.inf, None)] * size
    out: list = [None] * size
    ends: dict[int, tuple] = {}
    # the members still stepping, by input index, with their targets, duals, S_r, factors and t
    live, ms, s, s_inv = list(range(size)), m, y[:, None] - m, None
    factor = np.linalg.cholesky(s)
    ending = min(st.max_iterations for st in settings)  # the first step at which a live member runs out
    for steps in itertools.count(1):
        try:
            # S_r^-1 as the Hermitian part of one LU inverse per row; without that part, rounding stalls tight gaps sooner
            s_inv = _herm_stack(np.linalg.inv(s))
            # Hessian sum_r Tr(S_r^-1 F_j S_r^-1 F_k) from one product of the flattened inverses
            flat = s_inv.reshape(len(live), n, d * d)
            outer = (flat.transpose(0, 2, 1) @ flat).reshape(-1, d, d, d, d).transpose(0, 2, 3, 4, 1).reshape(-1, d * d, d * d)
            hess = (f @ outer @ f.T).real
            pull = (f @ s_inv.sum(axis=1).conj().reshape(-1, d * d, 1))[..., 0].real
            # the gradient is t Tr F - pull, so the step is linear in t
            rhs_live = rhs[: len(live)]
            rhs_live[..., 1] = pull
            uv = np.linalg.solve(hess, rhs_live)
        except np.linalg.LinAlgError as exc:
            if s_inv is None:
                raise
            ends.update((i, (steps, s_inv[j], exc)) for j, i in enumerate(live))
            break
        u, v, tt = uv[..., 0], uv[..., 1], t[:, None]
        dx = v - tt * u
        dec = _dots(pull - tt * trace_f, dx).tolist()
        leave, predictors, grown = [], [], []
        certifying = [j for j, x in enumerate(dec) if x < 2]
        if certifying:
            c = _members(certifying, len(live))
            traces = np.trace(y[c], axis1=1, axis2=2).real.tolist()
            for j, p, trace in zip(certifying, _pretty_good(s_inv[c]), traces):
                i = live[j]
                st, check = settings[i], checks[i]
                primal = float(np.einsum("rij,rji->", p, ms[j]).real)
                gap = trace - primal
                if gap <= st.gap_tol or (check is not None and check(y[j]).size):
                    out[i] = (primal, y[j], p, gap, steps)
                    leave.append(j)
                    continue
                if gap < best[i][2]:
                    best[i] = (primal, y[j], gap, p)
                if GROWTH * t[j] * np.finfo(float).eps * trace > 1.0:
                    ends[i] = (steps, s_inv[j], np.linalg.LinAlgError(f"barrier parameter {GROWTH * t[j]:.1e} is beyond rounding"))
                    leave.append(j)
                    continue
                predict[i], last[i] = predict[i] and gap < last[i] / 2, gap
                (predictors if predict[i] else grown).append(j)
        if grown:
            g = _members(grown, len(live))
            t[g] *= GROWTH
            dx[g] = v[g] - t[g, None] * u[g]
            for j, x in zip(grown, _dots(pull[g] - t[g, None] * trace_f, dx[g]).tolist()):
                dec[j] = x
        # the Newton direction of every member, unless all of them predict
        dy = (dx[:, None, :] @ f).reshape(-1, d, d) if len(predictors) < len(live) else np.empty((len(live), d, d), dtype=complex)
        alpha = [1.0 / (1.0 + math.sqrt(x)) if x > 1 else 1.0 for x in dec]
        if predictors:
            q = _members(predictors, len(live))
            l_inv = np.linalg.inv(factor[q])
            dy[q] = (((1.0 / GROWTH - 1.0) * t[q])[:, None, None] * (u[q][:, None, :] @ f)).reshape(-1, d, d)
            low = np.linalg.eigvalsh(_right_product(l_inv, dy[q]) @ dagger(l_inv)).min(axis=(1, 2))
            for j, x in zip(predictors, low.tolist()):
                alpha[j] = min(1.0, 0.9 / -x if x < 0 else math.inf)
            t[q] *= GROWTH
        if not all(map(math.isfinite, dec)):
            for j, x in enumerate(dec):
                if not math.isfinite(x) and j not in predictors and j not in leave:
                    ends[live[j]] = (steps, s_inv[j], np.linalg.LinAlgError("Newton decrement is not finite"))
                    leave.append(j)
        if leave:
            move = [j for j in range(len(live)) if j not in leave]
            live = [live[j] for j in move]
            if not live:
                break
            ms, t, s_inv, y, dy, alpha = ms[move], t[move], s_inv[move], y[move], dy[move], [alpha[j] for j in move]
        y, s, factor, stuck = _guarded_step(y, dy, np.array(alpha), ms)
        if steps == ending or True in stuck:
            stay = []
            for j, i in enumerate(live):
                if stuck[j]:
                    ends[i] = (steps, s_inv[j], np.linalg.LinAlgError("Newton step is below rounding"))
                elif settings[i].max_iterations == steps:
                    ends[i] = (steps, s_inv[j], None)
                else:
                    stay.append(j)
            live = [live[j] for j in stay]
            if not live:
                break
            ms, t, s_inv, y, s, factor = (a[stay] for a in (ms, t, s_inv, y, s, factor))
            ending = min(settings[i].max_iterations for i in live)
    if ends:
        _end_members(m, settings, ends, best, out)
    return out


def _end_members(m: np.ndarray, settings: Sequence[SolverSettings], ends: dict[int, tuple], best: list, out: list) -> None:
    """Fill ``out`` for the barrier members in ``ends``, stalled or run out at (steps, S^-1, error), as their lone solves end.

    A stalled member with iterations left is finished by the fixed-point map
    from its best certified POVM, else the square-root measurement of its
    last S_r^-1, all of them in one ``solve_stream``; any other member, or
    one the map does not certify, fails with the better certificate.
    """
    index = list(ends)
    povms = [best[i][3] for i in index]
    cold = [k for k, p in enumerate(povms) if p is None]
    for k, p in zip(cold, _pretty_good(np.stack([ends[index[k]][1] for k in cold])) if cold else ()):
        povms[k] = p
    finals = [(*certificate, p) for certificate, p in zip(_certify(m[index], np.stack(povms)), povms)]
    # S_r no longer resolves 1/t: the fixed-point map on every row takes the rest of the budget
    polish = [k for k, i in enumerate(index) if ends[i][2] is not None and ends[i][0] < settings[i].max_iterations]
    rest = [replace(settings[index[k]], max_iterations=settings[index[k]].max_iterations - ends[index[k]][0]) for k in polish]
    polished = {polish[j]: result for j, result in solve_stream(m[[index[k] for k in polish]], rest, np.stack([povms[k] for k in polish]))} if polish else {}
    for k, i in enumerate(index):
        steps, _, stalled = ends[i]
        st, final = settings[i], finals[k]
        if k in polished:
            result = polished[k]
            if not isinstance(result, SolverFailure):
                out[i] = (*result[:4], steps + result[4])
                continue
            final, steps = (result.primal, result.dual, result.gap, result.povm), st.max_iterations
        out[i] = _failure(st, *min(best[i], final, key=lambda c: c[2]), steps)
        out[i].__cause__ = stalled


def _working_set_solve(m: np.ndarray, settings: Sequence[SolverSettings]) -> list[tuple[float, np.ndarray, np.ndarray, float, int] | SolverFailure]:
    """``_barrier_solve`` on a working set of the rows of each member of ``m`` (B, n, d, d), grown until its dual covers every row.

    An extremal optimal POVM has at most d^2 nonzero effects (Davies,
    IEEE TIT 24, 596, 1978).  So each member starts from the 2 d^2 rows least
    covered by the pretty-good measurement's dual Y0, the Hermitian part of
    sum_r M_r P_r, that is with the least slack lambda_min(Y0 - M_r): the one
    all-row ``eigvalsh`` that also raises Y0 to its eigenvalue-shift
    certificate (``_cover``), whose ranking is that of the shifted dual's
    slacks in exact arithmetic.  Each round solves the working set, in input
    order, with what is left of the member's ``max_iterations``, warm-started
    from the last certified (Y, gap): that eigenvalue-shift certificate for
    the first round, the previous round's for the others.  A round ends at
    its first certification whose Y misses one of the other rows, or once it
    meets ``gap_tol``.  Then, of the other rows whose Y - M_r falls below the
    rounding floor of ``DualCertificate.validate``, it adds the 2 d^2 least
    covered.  Both checks of the other rows, at each certification and after
    each round, go through one ``_RowScreen`` started at Y0 from the first
    ranking's slacks: Weyl's inequality carries every row's bound from one
    checked dual to the next, and only a row whose bound does not clear the
    floor widely is decomposed, so each check finds the rows, and ranks them by
    the slacks, that decomposing every row would.  A round that meets
    ``gap_tol`` and finds none returns its certificate, with zero effects off
    the working set and the steps of every round.  A target of at most 2 d^2
    rows is one round on all of them, with no row off the working set and so
    no check.  A failure reports, after ``max_iterations``, the better of the
    last round's certified dual, raised to cover every row (``_cover``), and
    the eigenvalue-shift certificate of its POVM.

    The members' rounds run in lockstep, one stacked ``_barrier_solve`` per
    round and working-set size, so every first round is one call.  Returns
    each member's (primal, dual, POVM, gap, iterations), or its
    ``SolverFailure``, in input order, each that of its stack of one.
    """
    count, n, d = m.shape[0], m.shape[1], m.shape[-1]
    size = 2 * d * d
    primal, y0 = _unshifted(m, _pretty_good(m))
    slack = _row_slack(y0, m)
    # per member: its last certified (primal, Y, gap), row screen, rows still missed, POVM, steps and stall
    certified = [_cover(y, low, x) for y, low, x in zip(y0, slack, primal)]
    screens = [_RowScreen(m[b], y0[b], slack[b]) for b in range(count)]
    missed, p, steps, stalled = [np.arange(n)] * count, np.zeros_like(m), [0] * count, [None] * count
    inside, out, live = np.zeros((count, n), dtype=bool), [None] * count, list(range(count))
    while live:
        rounds: dict[int, list[int]] = {}
        for b in live:
            inside[b, missed[b][np.argsort(screens[b].bound[missed[b]], kind="stable")[:size]]] = True
            rounds.setdefault(int(np.count_nonzero(inside[b])), []).append(b)
        live = []
        for group in rounds.values():
            rows = [np.flatnonzero(inside[b]) for b in group]
            off = [np.flatnonzero(~inside[b]) for b in group]
            rest = [replace(settings[b], max_iterations=settings[b].max_iterations - steps[b]) for b in group]
            start = np.stack([certified[b][1] for b in group]), [certified[b][2] for b in group]
            checks = [functools.partial(screens[b].uncovered, rows=o) if o.size else None for b, o in zip(group, off)]
            solved = _barrier_solve(np.stack([m[b][r] for b, r in zip(group, rows)]), rest, start, checks)
            for b, r, o, result in zip(group, rows, off, solved):
                if isinstance(result, SolverFailure):
                    certified[b], p[b][r], stalled[b] = (result.primal, result.dual), result.povm, result.__cause__
                    steps[b] = settings[b].max_iterations
                    continue
                primal_b, y, p[b][r], gap, used = result
                certified[b], steps[b] = (primal_b, y, gap), steps[b] + used
                missed[b] = screens[b].uncovered(y, o) if o.size else o
                if not missed[b].size and gap <= settings[b].gap_tol:
                    out[b] = (primal_b, y, p[b], gap, steps[b])
                elif steps[b] < settings[b].max_iterations:
                    live.append(b)
        live.sort()
    for b in range(count):
        if out[b] is None:
            primal_b, y = certified[b][:2]
            candidates = (*_cover(y, _row_slack(y, m[b]), primal_b), p[b]), (*_certify(m[b][None], p[b][None])[0], p[b])
            out[b] = _failure(settings[b], *min(candidates, key=lambda c: c[2]), settings[b].max_iterations)
            out[b].__cause__ = stalled[b]
    return out


def finished_stream(
    m: np.ndarray,
    settings: Sequence[SolverSettings],
    keep: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> Iterator[tuple[int, tuple[float, np.ndarray, np.ndarray, float, int]]]:
    """(index, (primal, dual, POVM, gap, iterations)) of each member of ``m`` (B, n, d, d), at its own ``settings``.

    The one budget rule of every stream caller: a member streams for at most
    ``STREAM_BUDGET`` iterations, or its ``max_iterations`` if fewer, and is
    yielded as it certifies.  Once the stream ends, every member that ran
    out is finished as one stack by the barrier (``_working_set_solve``) at
    its full settings, as it would be alone, so its iterations are the
    stream's plus the barrier's; they are yielded in the order they ran
    out, and only if the barrier fails too does the better failure of the
    two raise.  ``keep`` goes to ``solve_stream``: a member it drops is
    never yielded and never reaches the barrier.
    """
    budgeted = [replace(st, max_iterations=min(st.max_iterations, STREAM_BUDGET)) for st in settings]
    ran_out: list[tuple[int, SolverFailure]] = []
    for i, out in solve_stream(m, budgeted, keep=keep):
        if isinstance(out, SolverFailure):
            ran_out.append((i, out))
        else:
            yield i, out
    if not ran_out:
        return
    index = [i for i, _ in ran_out]
    for (i, out), barrier in zip(ran_out, _working_set_solve(m[index], [settings[i] for i in index])):
        if isinstance(barrier, SolverFailure):
            raise min(out, barrier, key=lambda exc: exc.gap) from None
        primal, y, p, gap, steps = barrier
        yield i, (primal, y, p, gap, out.iterations + steps)


def min_error_discrimination(target: EffectTarget, settings: SolverSettings | None = None) -> DiscriminationResult:
    """Certified optimum of max_POVM sum_r Tr[P_r M_r], with a certificate that covers every target.

    With at most d^2 targets a stream of one (``finished_stream``), which the
    barrier finishes if it is uncertified after ``STREAM_BUDGET`` iterations,
    as a slowly converging map can be; with more, a barrier solve on a
    working set of rows (``_working_set_solve``), a stack of one.
    """
    st, m = settings or DEFAULT_SETTINGS, target.operators
    if len(m) <= target.dim**2:
        [(_, (primal, y, p, gap, iterations))] = finished_stream(m[None], [st])
    else:
        [out] = _working_set_solve(m[None], [st])
        if isinstance(out, SolverFailure):
            raise out
        primal, y, p, gap, iterations = out
    return DiscriminationResult(primal, Povm(effects=p), DualCertificate(y, primal, gap), target.labels, iterations)


def answer_rows(ensemble: PostInfoEnsemble) -> list[tuple[int, ...]]:
    """Every deterministic answer row, one guessed index per setting, in lexicographic order.

    Their count, the product of the index-set sizes, is held to
    ``MAX_ROW_TARGETS`` before any row is listed.
    """
    if (n_rows := math.prod(ensemble.index_sets)) > MAX_ROW_TARGETS:
        raise ValueError(f"index-set product {n_rows} exceeds {MAX_ROW_TARGETS}")
    return list(itertools.product(*[range(c) for c in ensemble.index_sets]))


def merged_row_targets(ensemble: PostInfoEnsemble, psd_tol: float = PSD_TOL) -> EffectTarget:
    """One weighted target per deterministic answer row (``answer_rows``).

    A row fixes the guessed index for every setting; outcomes sharing a row
    can be merged, so the post-information value is a single discrimination
    over sum_theta p(theta, r_theta) rho_{r_theta|theta}.
    """
    rows = answer_rows(ensemble)
    index = np.indices(ensemble.index_sets).reshape(len(ensemble.settings), len(rows))  # index[t][r], rows in order
    acc = np.zeros((len(rows), ensemble.dim, ensemble.dim), dtype=complex)
    for t, group in enumerate(ensemble.states):  # one indexed add per setting, in the order a row sums them
        weighted = np.array(ensemble.prior[t])[:, None, None] * dyad(np.array(group))
        acc += weighted[index[t]]
    return EffectTarget(operators=acc, labels=tuple(rows), psd_tol=psd_tol)


def validated(target: EffectTarget, result: DiscriminationResult, gap_tol: float) -> DiscriminationResult:
    """``result`` once its certificate and POVM hold against every row of ``target`` at ``gap_tol``, else ``InternalInconsistency``."""
    try:
        result.certificate.validate(target, result.povm, gap_tol=gap_tol)
    except ValueError as exc:
        raise InternalInconsistency(f"post-information certificate rejected: {exc}") from None
    return result


def p_postinfo(ensemble: PostInfoEnsemble, settings: SolverSettings | None = None) -> DiscriminationResult:
    """Optimal guessing probability when the setting arrives after measurement.

    The ``min_error_discrimination`` result on the answer rows, whose
    ``assignment`` labels them, is checked against every row (``validated``)
    before it is returned.
    """
    st = settings or DEFAULT_SETTINGS
    target = merged_row_targets(ensemble, psd_tol=st.psd_tol)
    return validated(target, min_error_discrimination(target, st), st.gap_tol)
