"""Minimum-error discrimination with dual certificates, and derived measures.

The solver iterates the standard optimality map for discriminating weighted
operators: given a POVM P, form R = sum_r M_r P_r M_r and update
P_r <- R^{-1/2} M_r P_r M_r R^{-1/2}, damped and Hermitian-projected each
step.  A dual certificate Y >= M_r is built from the iterate by an
eigenvalue shift; the reported value is optimal within the certified gap,
independently of how the iteration behaved.  Same-shape targets stream
through one lockstep window of at most ``STACK_OPERATORS`` operators
(``solve_stream``), each member at its own settings, entering at steps that
are multiples of every member's check interval and leaving as each
certifies, so every member's result is bit for bit its lone solve's; a
single solve of at most d^2 operators is a stream of one.  The exact
certificate of a member runs only once its screened gap, which agrees with
it to rounding, is within 1e-12 of its ``gap_tol``.  A single target with more
operators, such as the answer rows of a post-information value, is solved by
Newton's method on the dual log barrier (``_barrier_solve``) over the d^2
coordinates of Y in 30 to 150 steps; below its rounding floor, near 1e-10,
the map finishes from its POVM.  A target of more than 2 d^2 rows is solved
on a working set of rows (``_working_set_solve``): 2 d^2 to start, and the
least covered of the rows the dual misses after each round, until one Y is
feasible for every row.  Each round starts from the last certified dual, and
ends at the first certification whose dual misses a row off the working set.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .ensembles import PostInfoEnsemble, Povm
from .errors import InternalInconsistency, SolverFailure
from .linalg import PSD_TOL, dagger, dyad, hermitian, per_member, psd_stack, rounding_floor

MAX_ROW_TARGETS = 4096
# operators (members times outcomes) iterating in lockstep; a wider window costs memory and saves no time
STACK_OPERATORS = 1024
# eigenvalues below this fraction of the largest are outside the support in R^{-1/2}
RANK_TOL = 1e-12


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and iteration controls for the discrimination solver; a barrier Newton step is an iteration."""

    gap_tol: float = 1e-7
    psd_tol: float = PSD_TOL
    max_iterations: int = 100_000
    damping: float = 0.5
    check_interval: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.gap_tol) and self.gap_tol > 0):
            raise ValueError(f"gap_tol must be finite and positive, got {self.gap_tol!r}")
        if not (math.isfinite(self.psd_tol) and self.psd_tol >= 0):
            raise ValueError(f"psd_tol must be finite and non-negative, got {self.psd_tol!r}")
        for name in ("max_iterations", "check_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if not 0 < self.damping <= 1:
            raise ValueError(f"damping must be in (0, 1], got {self.damping!r}")


DEFAULT_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class EffectTarget:
    """Weighted PSD operators to be told apart, priors absorbed, each checked by ``linalg.psd_stack`` at ``psd_tol``."""

    operators: tuple[np.ndarray, ...]
    labels: tuple = ()
    psd_tol: float = PSD_TOL

    def __post_init__(self):
        stack = psd_stack(self.operators, self.psd_tol, "target")
        object.__setattr__(self, "operators", tuple(stack))
        labels = tuple(self.labels) if len(self.labels) else tuple(range(len(stack)))
        if len(labels) != len(stack):
            raise ValueError("labels must match targets")
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def select(self, rows: Sequence[int]) -> EffectTarget:
        """The target made of the operators at ``rows`` (a sequence or an index array), which need no second validation."""
        if len(rows) == 0:
            raise ValueError("need at least one target")
        sub = copy.copy(self)
        object.__setattr__(sub, "operators", tuple(self.operators[r] for r in rows))
        object.__setattr__(sub, "labels", tuple(self.labels[r] for r in rows))
        return sub


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
        ops = np.array(target.operators)
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
        effects = np.array(povm.effects)
        floor = rounding_floor(target.psd_tol, target.dim)
        low = np.linalg.eigvalsh(effects).min()
        if low < -floor:
            raise ValueError(f"POVM effect has eigenvalue {low:.3e}")
        residual = np.abs(effects.sum(axis=0) - np.eye(target.dim)).max()
        if residual > floor:
            raise ValueError(f"POVM sums to the identity only within {residual:.3e}")


@dataclass(frozen=True)
class DiscriminationResult:
    value: float
    povm: Povm
    certificate: DualCertificate
    labels: tuple
    iterations: int = 0


def helstrom_binary(rho: np.ndarray, sigma: np.ndarray, p: float = 0.5):
    """Optimal success probability for discriminating two states with prior (p, 1-p), member by member for stacks."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"prior {p} outside [0, 1]")
    a = hermitian(rho)
    b = hermitian(sigma)
    diff = p * a - (1 - p) * b
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
    s = _psd_pinv_sqrt(a.sum(axis=1), RANK_TOL)
    p = _herm_stack(_right_product(s[:, None] @ a, s))
    p += ((_identity(d) - p.sum(axis=1)) / n)[:, None]
    return p


def _row_slack(y: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The least eigenvalue of Y - M_r for every row of ``m`` (n, d, d), in one stacked ``eigvalsh``."""
    return np.linalg.eigvalsh(y[None] - m).min(axis=1)


def _cover(y0: np.ndarray, m: np.ndarray, primal: float) -> tuple[float, np.ndarray, float]:
    """Primal, Y0 raised by the least multiple of I that puts it above every row of ``m`` (n, d, d), and gap."""
    shift = max(float(-_row_slack(y0, m).min()), 0.0)
    y = y0 + shift * _identity(m.shape[1])
    gap = float(np.trace(y).real - primal)
    return primal, y, max(gap, 0.0)


def _uncovered(y: np.ndarray, m: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """``_row_slack`` of Y over the rows of ``m``, and which fall below ``DualCertificate.validate``'s floor at ``scale``."""
    slack = _row_slack(y, m)
    return slack, slack < -rounding_floor(0.0, max(np.abs(y).max(), scale))


def _certify(m: np.ndarray, p: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Exact certificate of one member (n, d, d): primal, dual Y >= M_r, and gap."""
    primal = float(np.einsum("rij,rji->", p, m).real)
    ymp = np.einsum("rij,rjk->ik", m, p)
    return _cover((ymp + dagger(ymp)) / 2, m, primal)


def _failure(st: SolverSettings, primal, y, gap, p, iterations) -> SolverFailure:
    """The error for a solve whose best certified iterate ``p``, with dual ``y``, missed ``gap_tol``."""
    message = f"no certificate below {st.gap_tol:.1e} within {iterations} iterations (best gap {gap:.3e})"
    return SolverFailure(message, primal=primal, gap=gap, povm=tuple(p), dual=y, iterations=iterations)


def _screened_gaps(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The gap ``_certify`` would give, for the whole stack (B, n, d, d) at once.

    Summation order differs from ``_certify``, so these agree with it only to
    rounding; they decide which members get the exact check, nothing more.
    """
    primal = np.einsum("brij,brji->b", p, m).real
    ymp = np.einsum("brij,brjk->bik", m, p)
    y0 = (ymp + dagger(ymp)) / 2
    low = np.linalg.eigvalsh(y0[:, None] - m).min(axis=(1, 2))
    return np.trace(y0, axis1=1, axis2=2).real + m.shape[-1] * np.maximum(-low, 0.0) - primal


def _solve_stack(
    m: np.ndarray, settings: Sequence[SolverSettings], p: np.ndarray | None = None
) -> Iterator[tuple[int, tuple[float, np.ndarray, np.ndarray, float, int]]]:
    """Fixed-point iteration on a stream of same-shape targets ``m`` (B, n, d, d), member b at ``settings[b]``.

    A window of at most ``STACK_OPERATORS`` operators (always at least one
    member) iterates in lockstep, each member with its own damping.  Members
    enter it in input order, from ``p`` (default: the pretty-good
    measurement), and only at steps that are multiples of every member's
    check interval, so each is checked at the same local iterations as in its
    lone solve; a member leaves at the first of its checks where its own
    exact certificate meets its ``gap_tol``, and its place is refilled at the
    next admission step.  Every stacked step computes each member exactly as
    it would be computed alone, so the results do not depend on the window or
    on the other members.  Yields (index, (primal, dual, POVM, gap,
    iterations)) as each member certifies, or raises ``SolverFailure`` for
    the member whose own ``max_iterations`` run out first uncertified (the
    earliest admitted among those that run out at the same step).
    """
    count, n = m.shape[:2]
    width = max(1, STACK_OPERATORS // n)
    intervals = [st.check_interval for st in settings]
    admit_every, check_every = math.lcm(*intervals), math.gcd(*intervals)
    # per-member constants in input order; the update factors are complex, as numpy casts a float factor
    keep_by = np.array([1.0 - st.damping for st in settings], dtype=complex)[:, None, None, None]
    damp_by = np.array([st.damping for st in settings], dtype=complex)[:, None, None, None]
    every_by = np.array(intervals)
    last_by = np.array([st.max_iterations - 1 for st in settings])
    # screened gaps are within rounding of the exact ones, far inside this margin
    screen_by = np.array([st.gap_tol for st in settings]) + 1e-12
    # the live window, in admission order: input index, admission step, targets, iterates, best check
    live, start, ms, ps, best_gap, best_p = np.arange(0), np.arange(0), m[:0], m[:0], np.zeros(0), m[:0]
    step = admitted = 0
    next_final = math.inf  # the first step at which a live member reaches its last iteration
    while admitted < count or live.size:
        if not live.size:
            step = -(-step // admit_every) * admit_every  # an empty window idles to the next admission step
        if step % admit_every == 0 and admitted < count and live.size < width:
            new = np.arange(admitted, min(count, admitted + width - live.size))
            admitted = int(new[-1]) + 1
            entry = _pretty_good(m[new]) if p is None else p[new]
            live, start = np.concatenate([live, new]), np.concatenate([start, np.full(new.size, step)])
            ms, ps, best_p = np.concatenate([ms, m[new]]), np.concatenate([ps, entry]), np.concatenate([best_p, entry])
            best_gap = np.concatenate([best_gap, np.full(new.size, np.inf)])
            keep, damp = keep_by[live], damp_by[live]
            next_final = min(next_final, step + int(last_by[new].min()))
        # (1 - damping) P + damping PGM(M P M), the operands in the order of a scalar update
        pretty_good = _pretty_good(ms @ ps @ ms)
        np.multiply(keep, ps, out=ps)
        np.multiply(damp, pretty_good, out=pretty_good)
        ps += pretty_good
        if step % check_every == 0 or step == next_final:
            age = step - start
            final = age == last_by[live]
            due = np.flatnonzero((age % every_by[live] == 0) | final)
            gaps = _screened_gaps(ms[due], ps[due])
            improved = gaps < best_gap[due]
            best_gap[due[improved]] = gaps[improved]
            best_p[due[improved]] = ps[due[improved]]
            stay = np.ones(live.size, dtype=bool)
            for k in due[gaps <= screen_by[live[due]]]:
                primal, y, gap = _certify(ms[k], ps[k])
                if gap <= settings[live[k]].gap_tol:
                    stay[k] = False
                    yield int(live[k]), (primal, y, ps[k].copy(), gap, int(age[k]) + 1)
            overrun = np.flatnonzero(final & stay)
            if overrun.size:
                k = overrun[0]
                st = settings[live[k]]
                raise _failure(st, *_certify(ms[k], best_p[k]), best_p[k], st.max_iterations)
            if not stay.all():
                live, start, ms, ps, best_gap, best_p = (a[stay] for a in (live, start, ms, ps, best_gap, best_p))
                keep, damp = keep_by[live], damp_by[live]
                next_final = int((start + last_by[live]).min()) if live.size else math.inf
        step += 1


def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the d x d Hermitian matrices under Tr(A B), one flattened element per row."""
    f = np.zeros((d * d, d, d), dtype=complex)
    f[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    for k, (i, j) in enumerate(itertools.combinations(range(d), 2)):
        f[d + 2 * k, i, j] = f[d + 2 * k, j, i] = 1 / math.sqrt(2)
        f[d + 2 * k + 1, i, j], f[d + 2 * k + 1, j, i] = 1j / math.sqrt(2), -1j / math.sqrt(2)
    return f.reshape(d * d, d * d)


@functools.cache
def _lower_weights(d: int) -> np.ndarray:
    """1 on the diagonal and 2 below it: the weight of each |c_ij|^2 in the Frobenius norm of what eigvalsh reads."""
    weights = np.tril(np.full((d, d), 2.0), -1) + np.eye(d)
    weights.flags.writeable = False
    return weights


def _step_length(l_inv: np.ndarray, dy: np.ndarray, dec: float) -> float:
    """The damped Newton step, held to 0.99 of the boundary of every S_r > 0.

    That is min(alpha_N, 0.99 / -low), with alpha_N = 1 / (1 + sqrt(dec)) for
    a squared decrement above 1 (1 otherwise) and low the least eigenvalue of
    C_r = L_r^-1 dY L_r^-H over every row (no bound when low >= 0).
    ``eigvalsh`` reads the lower triangle of each C_r and is backward
    stable, so no eigenvalue it returns exceeds the Frobenius norm F_r of that
    Hermitian matrix by more than a rounding of order eps F_r.  When
    alpha_N max_r F_r <= 0.98 the guard therefore cannot bind in floating
    point, and alpha_N is returned without the eigendecomposition: the same
    bits either way.  C_r is formed as (L_r^-1 dY) L_r^-H: the first product
    shares its right factor dY across rows, so it is one BLAS call
    (``_right_product``) with the bits of one call per row.
    """
    newton = 1.0 / (1.0 + math.sqrt(dec)) if dec > 1 else 1.0
    c = _right_product(l_inv, dy) @ dagger(l_inv)
    frobenius = math.sqrt(float(((c.real**2 + c.imag**2) * _lower_weights(c.shape[-1])).sum(axis=(1, 2)).max()))
    if newton * frobenius <= 0.98:  # False for a non-finite C, which goes to eigvalsh as before
        return newton
    low = float(np.linalg.eigvalsh(c).min())
    return min(newton, 0.99 / -low if low < 0 else math.inf)


def _barrier_solve(
    m: np.ndarray, st: SolverSettings, start: tuple[np.ndarray, float] | None = None, off: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray, float, int]:
    """Certified optimum of one target ``m`` (n, d, d) by Newton's method on the dual log barrier.

    Minimises t Tr Y - sum_r log det S_r, S_r = Y - M_r, over Y in an
    orthonormal Hermitian basis F (Vandenberghe and Boyd, SIAM Rev. 38, 49,
    1996), from Y = (max eigenvalue + 1) I and t = n d, by damped steps held
    to 0.99 of the boundary of every S_r > 0 (``_step_length``); the guard's
    eigendecomposition runs only at steps where a Frobenius-norm bound does
    not already prove it slack, which leaves every iterate's bits as they
    are with the eigendecomposition at every step.  When the squared Newton
    decrement is below 2, the central POVM, the square-root measurement of
    the S_r^-1 (``_pretty_good``), is certified against Y (Eldar, Megretski
    and Verghese, IEEE TIT 49, 1007, 2003): the solve returns
    (primal, dual, POVM, gap, iterations) if the gap meets ``gap_tol``, and
    otherwise multiplies t by 100.  Once t outgrows the rounding of Y, the
    fixed-point map on every row finishes from the best certified POVM with
    the rest of ``st.max_iterations``; a failure reports the better certificate.

    ``start`` = (Y0, gap0) replaces the cold start: Y0 raised by the least
    multiple of I that covers every row (``_cover``), plus 0.1 gap0 / d I, at
    t = n d / gap0, the barrier parameter whose central gap is gap0 (gap0
    floored at ``gap_tol``).  ``off``, the rows a working set leaves out,
    ends the solve early: a certification that misses ``gap_tol`` returns
    its own certificate when its Y falls below ``DualCertificate.validate``'s
    floor on any of them (``_uncovered``).  With neither, the solve is the
    cold one above, bit for bit.
    """
    n, d = m.shape[0], m.shape[-1]
    f = _hermitian_basis(d)
    trace_f = f[:, :: d + 1].real.sum(axis=1)
    if start is None:
        y, t = (np.linalg.eigvalsh(m).max() + 1.0) * np.eye(d), float(n * d)
    else:
        y0, gap0 = start[0], max(start[1], st.gap_tol)
        y, t = _cover(y0, m, 0.0)[1] + 0.1 * gap0 / d * _identity(d), n * d / gap0
    if off is not None:
        scale = max(np.abs(m).max(), np.abs(off).max())
    best, stalled = (None, None, math.inf, None), None  # (primal, dual, gap, POVM) of the best certified round
    try:
        for steps in range(1, st.max_iterations + 1):
            l_inv = np.linalg.inv(np.linalg.cholesky(y - m))
            s_inv = dagger(l_inv) @ l_inv
            # Hessian sum_r Tr(S_r^-1 F_j S_r^-1 F_k) from one product of the flattened inverses
            flat = s_inv.reshape(n, d * d)
            outer = (flat.T @ flat).reshape(d, d, d, d).transpose(1, 2, 3, 0).reshape(d * d, d * d)
            hess = (f @ outer @ f.T).real
            pull = (f @ s_inv.sum(axis=0).conj().ravel()).real
            # the gradient is t Tr F - pull, so the step is linear in t
            u, v = np.linalg.solve(hess, np.stack([trace_f, pull], axis=1)).T
            if float((pull - t * trace_f) @ (v - t * u)) < 2:
                p = _pretty_good(s_inv[None])[0]
                primal = float(np.einsum("rij,rji->", p, m).real)
                gap = float(np.trace(y).real) - primal
                if gap <= st.gap_tol or (off is not None and _uncovered(y, off, scale)[1].any()):
                    return primal, y, p, gap, steps
                if gap < best[2]:
                    best = (primal, y, gap, p)
                if 100.0 * t * np.finfo(float).eps * np.trace(y).real > 1.0:
                    raise np.linalg.LinAlgError(f"barrier parameter {100.0 * t:.1e} is beyond rounding")
                t *= 100.0
            dx = v - t * u
            dec = float((pull - t * trace_f) @ dx)
            if not math.isfinite(dec):
                raise np.linalg.LinAlgError("Newton decrement is not finite")
            dy = (dx @ f).reshape(d, d)
            alpha = _step_length(l_inv, dy, dec)
            y, previous = y + alpha * (dy + dagger(dy)) / 2, y
            if np.array_equal(y, previous):
                raise np.linalg.LinAlgError("Newton step is below rounding")
    except np.linalg.LinAlgError as exc:
        stalled = exc
    p = _pretty_good(s_inv[None])[0] if best[3] is None else best[3]
    final = (*_certify(m, p), p)
    if stalled is not None and steps < st.max_iterations:
        # S_r no longer resolves 1/t: the fixed-point map on every row takes the rest of the budget
        try:
            [(_, (primal, y, p, gap, fixed))] = _solve_stack(m[None], [replace(st, max_iterations=st.max_iterations - steps)], p[None])
            return primal, y, p, gap, steps + fixed
        except SolverFailure as polish:
            final, steps = (polish.primal, polish.dual, polish.gap, np.array(polish.povm)), st.max_iterations
    raise _failure(st, *min(best, final, key=lambda c: c[2]), steps) from stalled


def _working_set_solve(m: np.ndarray, st: SolverSettings) -> tuple[float, np.ndarray, np.ndarray, float, int]:
    """``_barrier_solve`` on a working set of the rows of ``m`` (n, d, d), grown until its dual covers every row.

    An extremal optimal POVM has at most d^2 nonzero effects (Davies, IEEE TIT
    24, 596, 1978).  So a target of more than 2 d^2 rows starts from the 2 d^2
    rows least covered by the eigenvalue-shift dual of the pretty-good
    measurement of all rows (``_certify``), that is with the least
    eigenvalue of Y - M_r.  Each round solves the working set, in input
    order, with what is left of ``st.max_iterations``, warm-started from the
    last certified (Y, gap): that eigenvalue-shift certificate for the first
    round, the previous round's for the others.  A round ends at its first
    certification whose Y misses one of the other rows, or once it meets
    ``gap_tol``.  Then, of the other rows whose Y - M_r falls below the
    rounding floor of ``DualCertificate.validate``, it adds the 2 d^2 least
    covered.  A round that meets ``gap_tol`` and finds none returns its
    certificate, with zero effects off the working set and the steps of every
    round.  A target of at most 2 d^2 rows is one cold round on all of them,
    so its result is ``_barrier_solve``'s.  A failure reports, after
    ``st.max_iterations``, the better of the last round's certified dual,
    raised to cover every row (``_cover``), and the eigenvalue-shift
    certificate of its POVM.
    """
    n, d = m.shape[0], m.shape[-1]
    size = 2 * d * d
    if n <= size:
        return _barrier_solve(m, st)
    scale = np.abs(m).max()
    _, y, gap = _certify(m, _pretty_good(m[None])[0])
    slack, missed = _row_slack(y, m), np.arange(n)
    inside, p, steps, stalled = np.zeros(n, dtype=bool), np.zeros_like(m), 0, None
    while True:
        inside[missed[np.argsort(slack[missed], kind="stable")[:size]]] = True
        rows, off = np.flatnonzero(inside), m[~inside]
        rest = replace(st, max_iterations=st.max_iterations - steps)
        try:
            primal, y, p[rows], gap, used = _barrier_solve(m[rows], rest, (y, gap), off if len(off) else None)
        except SolverFailure as exc:
            primal, y, p[rows], stalled = exc.primal, exc.dual, exc.povm, exc.__cause__
            break
        steps += used
        slack, below = _uncovered(y, m, scale)
        missed = np.flatnonzero(~inside & below)
        if not missed.size and gap <= st.gap_tol:
            return primal, y, p, gap, steps
        if steps == st.max_iterations:
            break
    candidates = (*_cover(y, m, primal), p), (*_certify(m, p), p)
    raise _failure(st, *min(candidates, key=lambda c: c[2]), st.max_iterations) from stalled


def _result(target: EffectTarget, primal, y, p, gap, iterations) -> DiscriminationResult:
    return DiscriminationResult(
        value=primal,
        povm=Povm(effects=tuple(p)),
        certificate=DualCertificate(matrix=y, primal_value=primal, gap=gap),
        labels=target.labels,
        iterations=iterations,
    )


def solve_stream(
    targets: Sequence[EffectTarget], settings: SolverSettings | Sequence[SolverSettings] | None = None
) -> Iterator[tuple[int, DiscriminationResult]]:
    """Certified optima of same-shape targets, yielded as (index, result) as each certifies.

    ``settings`` is one value for every target or one per target.  The
    targets stream through one lockstep window (``_solve_stack``), so a
    caller that folds each result and drops it never holds them all.  Every
    member iterates on all of its operators at its own settings, and its
    result is bit for bit the one it gets alone (which is what
    ``min_error_discrimination`` gives a target of at most d^2 operators).
    A member that never certifies raises ``SolverFailure`` for the member
    whose iterations run out first.
    """
    if settings is None or isinstance(settings, SolverSettings):
        settings = [settings or DEFAULT_SETTINGS] * len(targets)
    elif len(settings) != len(targets):
        raise ValueError(f"{len(settings)} settings for {len(targets)} targets")
    if not targets:
        return
    shapes = {(len(t.operators), t.dim) for t in targets}
    if len(shapes) > 1:
        raise ValueError(f"stacked targets must share (outcomes, dim); got {sorted(shapes)}")
    for i, member in _solve_stack(np.array([t.operators for t in targets]), settings):
        yield i, _result(targets[i], *member)


def min_error_discrimination(
    target: EffectTarget, settings: SolverSettings | None = None
) -> DiscriminationResult:
    """Certified optimum of max_POVM sum_r Tr[P_r M_r].

    With at most d^2 targets this is a stack of one, and with more a barrier
    solve (``_barrier_solve``), on a working set of rows once there are more
    than 2 d^2 (``_working_set_solve``); the certificate covers every target
    either way.
    """
    if len(target.operators) <= target.dim**2:
        [(_, result)] = solve_stream([target], settings)
        return result
    return _result(target, *_working_set_solve(np.array(target.operators), settings or DEFAULT_SETTINGS))


def merged_row_targets(ensemble: PostInfoEnsemble, psd_tol: float = PSD_TOL) -> EffectTarget:
    """One weighted target per deterministic answer row.

    A row fixes the guessed index for every setting; outcomes sharing a row
    can be merged, so the post-information value is a single discrimination
    over sum_theta p(theta, r_theta) rho_{r_theta|theta}.
    """
    counts = ensemble.index_sets
    n_rows = int(np.prod(counts))
    if n_rows > MAX_ROW_TARGETS:
        raise ValueError(f"index-set product {n_rows} exceeds {MAX_ROW_TARGETS}")
    rows = list(itertools.product(*[range(c) for c in counts]))
    index = np.array(rows).reshape(n_rows, len(counts))
    acc = np.zeros((n_rows, ensemble.dim, ensemble.dim), dtype=complex)
    for t, group in enumerate(ensemble.states):  # one indexed add per setting, in the order a row sums them
        weighted = np.array([ensemble.prior[t][i] * dyad(s) for i, s in enumerate(group)])
        acc += weighted[index[:, t]]
    return EffectTarget(operators=tuple(acc), labels=tuple(rows), psd_tol=psd_tol)


@dataclass(frozen=True)
class PostInfoResult:
    """Measure-first value with its optimal POVM and answer rows."""

    value: float
    povm: Povm
    assignment: tuple[tuple[int, ...], ...]
    certificate: DualCertificate
    iterations: int = 0

    def guess(self, setting: int, outcome: int) -> int:
        return self.assignment[outcome][setting]


def p_postinfo(ensemble: PostInfoEnsemble, settings: SolverSettings | None = None) -> PostInfoResult:
    """Optimal guessing probability when the setting arrives after measurement.

    The certificate and the POVM of ``min_error_discrimination`` are checked
    against every row before the result is returned.
    """
    st = settings or DEFAULT_SETTINGS
    target = merged_row_targets(ensemble, psd_tol=st.psd_tol)
    result = min_error_discrimination(target, st)
    try:
        result.certificate.validate(target, result.povm, gap_tol=st.gap_tol)
    except ValueError as exc:
        raise InternalInconsistency(f"post-information certificate rejected: {exc}") from None
    return PostInfoResult(
        value=result.value,
        povm=result.povm,
        assignment=result.labels,
        certificate=result.certificate,
        iterations=result.iterations,
    )
