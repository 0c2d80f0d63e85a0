"""Minimum-error discrimination with dual certificates, and derived measures.

The solver iterates the standard optimality map for discriminating weighted
operators: given a POVM P, form R = sum_r M_r P_r M_r and update
P_r <- R^{-1/2} M_r P_r M_r R^{-1/2}, damped and Hermitian-projected each
step.  A dual certificate Y >= M_r is built from the iterate by an
eigenvalue shift; the reported value is optimal within the certified gap,
independently of how the iteration behaved.  Same-shape targets are solved
as one stack; a single solve of at most d^2 operators is a stack of one.  A
single target with more operators is solved on a working set of them (see
``_working_set_solve``), and its final dual is still checked against all.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ensembles import GopEnsemble, PostInfoEnsemble, Povm, induced_postinfo
from .errors import InternalInconsistency, SolverFailure
from .linalg import dagger, dyad, hermitian

MAX_ROW_TARGETS = 4096
# Working-set solve: full-row iterations before the working set is chosen (ten
# checks at the default interval), and the share of the pretty-good
# measurement mixed in when rows are added, so the new rows start nonzero.
WARMUP_ITERATIONS = 100
PGM_MIX = 0.1


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and iteration controls for the discrimination solver."""

    gap_tol: float = 1e-7
    psd_tol: float = 1e-10
    max_iterations: int = 100_000
    damping: float = 0.5
    check_interval: int = 10
    rank_tol: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.gap_tol) and self.gap_tol > 0):
            raise ValueError(f"gap_tol must be finite and positive, got {self.gap_tol!r}")
        for name in ("psd_tol", "rank_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        for name in ("max_iterations", "check_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if not 0 < self.damping <= 1:
            raise ValueError(f"damping must be in (0, 1], got {self.damping!r}")


DEFAULT_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class EffectTarget:
    """Weighted PSD operators to be told apart; priors are absorbed."""

    operators: tuple[np.ndarray, ...]
    labels: tuple = ()
    psd_tol: float = 1e-10

    def __post_init__(self):
        ops = tuple(hermitian(m, tol=self.psd_tol) for m in self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise ValueError("need at least one target")
        d = ops[0].shape[0]
        if any(m.shape != (d, d) for m in ops):
            raise ValueError("targets must share a dimension")
        for m in ops:
            low = np.linalg.eigvalsh(m).min()
            if low < -self.psd_tol:
                raise ValueError(f"target has negative eigenvalue {low:.3e}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(len(ops))))
        elif len(self.labels) != len(ops):
            raise ValueError("labels must match targets")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def select(self, rows: Sequence[int]) -> EffectTarget:
        """The target made of the operators at ``rows``, which need no second validation."""
        if not rows:
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
        self,
        target: EffectTarget,
        povm: Povm | None = None,
        slack: float = 1e-8,
        gap_tol: float = DEFAULT_SETTINGS.gap_tol,
    ) -> None:
        """Raise ``ValueError`` unless Y >= M_r for every target and the gap is within ``gap_tol``.

        With ``povm``, also require one effect per target, each PSD, summing
        to the identity, all within the target's ``psd_tol``.
        """
        y = hermitian(self.matrix, tol=1e-9)
        low = np.linalg.eigvalsh(y[None] - np.array(target.operators)).min()
        if low < -slack:
            raise ValueError(f"dual operator not feasible: Y - M has eigenvalue {low:.3e}")
        if not (-1e-9 <= self.gap <= gap_tol + 1e-12):
            raise ValueError(f"certified gap {self.gap:.3e} outside [0, {gap_tol:.1e}]")
        if povm is None:
            return
        if len(povm) != len(target.operators):
            raise ValueError(f"{len(povm)} effects for {len(target.operators)} targets")
        effects = np.array(povm.effects)
        low = np.linalg.eigvalsh(effects).min()
        if low < -target.psd_tol:
            raise ValueError(f"POVM effect has eigenvalue {low:.3e}")
        residual = np.abs(effects.sum(axis=0) - np.eye(target.dim)).max()
        if residual > target.psd_tol:
            raise ValueError(f"POVM sums to the identity only within {residual:.3e}")


@dataclass(frozen=True)
class DiscriminationResult:
    value: float
    povm: Povm
    certificate: DualCertificate
    labels: tuple
    iterations: int = 0


def helstrom_binary(rho: np.ndarray, sigma: np.ndarray, p: float = 0.5) -> float:
    """Optimal success probability for discriminating two states with prior (p, 1-p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"prior {p} outside [0, 1]")
    a = hermitian(rho)
    b = hermitian(sigma)
    diff = p * a - (1 - p) * b
    return float(0.5 * (1.0 + np.abs(np.linalg.eigvalsh(diff)).sum()))


def _dagger_stack(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2).conj()


def _psd_pinv_sqrt(r: np.ndarray, rank_tol: float) -> np.ndarray:
    """R^{-1/2} on the support of each PSD operator in the stack ``r`` (B, d, d)."""
    w, v = np.linalg.eigh((r + _dagger_stack(r)) / 2)
    top = np.maximum(w[:, -1:], 1e-300)  # eigenvalues come in ascending order
    inv = np.where(w > rank_tol * top, 1.0 / np.sqrt(np.maximum(w, 1e-300)), 0.0)
    return (v * inv[:, None, :]) @ _dagger_stack(v)


def _herm_stack(a: np.ndarray) -> np.ndarray:
    # C order: on large stacks the ufunc would otherwise pick the transposed
    # layout, and the per-member certificate would sum in another order
    return np.add(a, _dagger_stack(a), order="C") / 2


def _pretty_good(a: np.ndarray, rank_tol: float) -> np.ndarray:
    """S^{-1/2} A_r S^{-1/2} with S = sum_r A_r, completed to a POVM, for each member of ``a`` (B, n, d, d)."""
    n, d = a.shape[1], a.shape[-1]
    s = _psd_pinv_sqrt(a.sum(axis=1), rank_tol)
    p = _herm_stack(s[:, None] @ a @ s[:, None])
    p += ((np.eye(d) - p.sum(axis=1)) / n)[:, None]
    return p


def _certify(m: np.ndarray, p: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Exact certificate of one member (n, d, d): primal, dual Y >= M_r, and gap."""
    primal = float(np.einsum("rij,rji->", p, m).real)
    ymp = np.einsum("rij,rjk->ik", m, p)
    y0 = (ymp + dagger(ymp)) / 2
    shift = max(float(-np.linalg.eigvalsh(y0[None] - m).min()), 0.0)
    y = y0 + shift * np.eye(m.shape[1])
    gap = float(np.trace(y).real - primal)
    return primal, y, max(gap, 0.0)


def _failure(m: np.ndarray, p: np.ndarray, st: SolverSettings) -> SolverFailure:
    """The error for one member (n, d, d) whose best iterate ``p`` never certified."""
    primal, _, gap = _certify(m, p)
    return SolverFailure(
        f"no certificate below {st.gap_tol:.1e} within {st.max_iterations} iterations "
        f"(best gap {gap:.3e})",
        primal=primal,
        gap=gap,
        povm=tuple(p),
        iterations=st.max_iterations,
    )


def _screened_gaps(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The gap ``_certify`` would give, for the whole stack (B, n, d, d) at once.

    Summation order differs from ``_certify``, so these agree with it only to
    rounding; they decide which members get the exact check, nothing more.
    """
    primal = np.einsum("brij,brji->b", p, m).real
    ymp = np.einsum("brij,brjk->bik", m, p)
    y0 = (ymp + _dagger_stack(ymp)) / 2
    low = np.linalg.eigvalsh(y0[:, None] - m).min(axis=(1, 2))
    return np.trace(y0, axis1=1, axis2=2).real + m.shape[-1] * np.maximum(-low, 0.0) - primal


def _solve_stack(
    m: np.ndarray,
    st: SolverSettings,
    p: np.ndarray | None = None,
    first: int = 0,
    stop: int | None = None,
) -> list[tuple[float, np.ndarray, np.ndarray, float, int]]:
    """Fixed-point iteration on a stack of same-shape targets ``m`` (B, n, d, d).

    Members iterate in lockstep from ``p`` (default: the pretty-good
    measurement), and each leaves at the first check where its own exact
    certificate meets ``gap_tol``.  Every stacked step computes each member
    exactly as it would be computed alone, so the results do not depend on
    the stack.  Iterations are numbered from ``first``, so a solve resumed
    from an earlier one checks and counts as if it had never stopped.
    Returns (primal, dual, POVM, gap, iterations) per member, or raises
    ``SolverFailure`` for the first member that never certifies.  When
    ``stop`` ends the loop before ``st.max_iterations``, a member still
    uncertified comes back with its last iterate, whose gap is above
    ``gap_tol``.
    """
    if p is None:
        # pretty-good-measurement start, completed to a POVM on the full space
        p = _pretty_good(m, st.rank_tol)
    stop = st.max_iterations if stop is None else min(stop, st.max_iterations)
    out: list = [None] * m.shape[0]
    live = np.arange(m.shape[0])
    best_gap = np.full(m.shape[0], np.inf)
    best_p = p.copy()
    # screened gaps are within rounding of the exact ones, far inside this window
    window = 2 * st.gap_tol + 1e-12
    for it in range(first, stop):
        p = (1.0 - st.damping) * p + st.damping * _pretty_good(m @ p @ m, st.rank_tol)
        if it % st.check_interval == 0 or it == st.max_iterations - 1:
            gaps = _screened_gaps(m, p)
            better = gaps < best_gap
            best_gap[better] = gaps[better]
            best_p[better] = p[better]
            stay = np.ones(len(live), dtype=bool)
            for k in np.flatnonzero(gaps <= window):
                primal, y, gap = _certify(m[k], p[k])
                if gap <= st.gap_tol:
                    out[live[k]] = (primal, y, p[k].copy(), gap, it + 1)
                    stay[k] = False
            if not stay.all():
                m, p, live, best_gap, best_p = m[stay], p[stay], live[stay], best_gap[stay], best_p[stay]
                if not live.size:
                    return out
    if stop < st.max_iterations:
        for k, member in enumerate(live):
            primal, y, gap = _certify(m[k], p[k])
            out[member] = (primal, y, p[k], gap, stop)
        return out
    raise _failure(m[0], best_p[0], st)


def _working_set_solve(
    m: np.ndarray, st: SolverSettings, rows: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray, float, int]:
    """Certified optimum of one target ``m`` (n, d, d) from iterations on a few of its rows.

    An extremal optimal POVM has at most d^2 nonzero effects (Davies, IEEE
    TIT 24, 596, 1978), so after a short full-row warm-up the iteration
    continues on the d^2 rows with the largest effects, renormalised to sum
    to the identity (or on ``rows``, from the pretty-good measurement).
    Each time that working set certifies, the iterate, zero off the working
    set, is certified against every row.  While that full gap exceeds
    ``gap_tol``, up to d rows whose operators the working-set dual leaves
    most uncovered (largest positive eigenvalue of M_r - Y) join the set, a
    little of the pretty-good measurement on the grown set is mixed in, and
    the iteration goes on.  These are the optimality conditions of Eldar,
    Megretski and Verghese (IEEE TIT 49, 1007, 2003): the returned dual is
    feasible for every row, so the certificate is as strong as a full
    solve's.  Returns (primal, dual, POVM, gap, iterations) with one effect
    per row; iterations count every phase.
    """
    d = m.shape[-1]
    it = 0
    if rows is None:
        [(primal, y, p, gap, it)] = _solve_stack(m[None], st, stop=WARMUP_ITERATIONS)
        if gap <= st.gap_tol:
            return primal, y, p, gap, it
        weight = np.trace(p, axis1=1, axis2=2).real
        rows = np.sort(np.argsort(-weight, kind="stable")[: d * d])
        start = _pretty_good(p[rows][None], st.rank_tol)
    else:
        rows = np.sort(np.asarray(rows))
        start = _pretty_good(m[rows][None], st.rank_tol)
    full = np.zeros_like(m)
    while True:
        try:
            [(_, y, p_rows, _, it)] = _solve_stack(m[rows][None], st, p=start, first=it)
        except SolverFailure as exc:
            full[rows] = exc.povm
            raise _failure(m, full, st) from None
        full[rows] = p_rows
        primal, y_all, gap = _certify(m, full)
        if gap <= st.gap_tol:
            return primal, y_all, full, gap, it
        uncovered = np.linalg.eigvalsh(m - y).max(axis=1)
        uncovered[rows] = 0.0
        worst = np.argsort(-uncovered, kind="stable")[:d]
        grow = worst[uncovered[worst] > 0]
        if grow.size:
            rows = np.sort(np.concatenate([rows, grow]))
            start = (1.0 - PGM_MIX) * full[rows][None] + PGM_MIX * _pretty_good(m[rows][None], st.rank_tol)
        else:
            start = p_rows[None]


def _result(target: EffectTarget, primal, y, p, gap, iterations) -> DiscriminationResult:
    return DiscriminationResult(
        value=primal,
        povm=Povm(effects=tuple(p)),
        certificate=DualCertificate(matrix=y, primal_value=primal, gap=gap),
        labels=target.labels,
        iterations=iterations,
    )


def min_error_discrimination_stack(
    targets: Sequence[EffectTarget], settings: SolverSettings | None = None
) -> list[DiscriminationResult]:
    """Certified optima of same-shape targets, solved as one stack.

    Every member iterates on all of its operators, and its result is bit for
    bit the one it gets in a stack of one (which is what
    ``min_error_discrimination`` gives a target of at most d^2 operators).
    A member that never certifies raises ``SolverFailure`` for the first
    such member in order.
    """
    st = settings or DEFAULT_SETTINGS
    if not targets:
        return []
    shapes = {(len(t.operators), t.dim) for t in targets}
    if len(shapes) > 1:
        raise ValueError(f"stacked targets must share (outcomes, dim); got {sorted(shapes)}")
    solved = _solve_stack(np.array([t.operators for t in targets]), st)
    return [_result(t, *member) for t, member in zip(targets, solved)]


def min_error_discrimination(
    target: EffectTarget, settings: SolverSettings | None = None
) -> DiscriminationResult:
    """Certified optimum of max_POVM sum_r Tr[P_r M_r].

    With at most d^2 targets this is a stack of one.  With more, the
    iteration runs on a working set of them (``_working_set_solve``), and
    the certificate still covers every target.
    """
    if len(target.operators) <= target.dim**2:
        return min_error_discrimination_stack([target], settings)[0]
    return _result(target, *_working_set_solve(np.array(target.operators), settings or DEFAULT_SETTINGS))


def merged_row_targets(ensemble: PostInfoEnsemble, psd_tol: float = 1e-10) -> EffectTarget:
    """One weighted target per deterministic answer row.

    A row fixes the guessed index for every setting; outcomes sharing a row
    can be merged, so the post-information value is a single discrimination
    over sum_theta p(theta, r_theta) rho_{r_theta|theta}.
    """
    counts = ensemble.index_sets
    n_rows = int(np.prod(counts))
    if n_rows > MAX_ROW_TARGETS:
        raise ValueError(f"index-set product {n_rows} exceeds {MAX_ROW_TARGETS}")
    projectors = tuple(tuple(dyad(s) for s in group) for group in ensemble.states)
    rows = list(itertools.product(*[range(c) for c in counts]))
    ops = []
    for row in rows:
        acc = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
        for t, i in enumerate(row):
            acc += ensemble.prior[t][i] * projectors[t][i]
        ops.append(acc)
    return EffectTarget(operators=tuple(ops), labels=tuple(rows), psd_tol=psd_tol)


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

    With more than d^2 answer rows the solve runs on a working set of rows
    (see ``min_error_discrimination``).  Either way the certificate and the
    POVM are checked against every row before the result is returned.
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


def p_cbc(ensemble: PostInfoEnsemble, settings: SolverSettings | None = None) -> float:
    """Classical-broadcast value; coincides with the post-information value."""
    return p_postinfo(ensemble, settings).value


def p_bc_two_settings(ensemble: PostInfoEnsemble, settings: SolverSettings | None = None) -> float:
    """Exact broadcast value for at most two settings.

    With more than two settings quantum communication can beat classical, so
    the reduction used here is no longer exact and the call is rejected.
    """
    if len(ensemble.settings) > 2:
        raise ValueError("exact broadcast value requires at most two settings")
    return p_postinfo(ensemble, settings).value


@dataclass(frozen=True)
class LosccResult:
    value: float
    induced: PostInfoEnsemble
    postinfo: PostInfoResult


def losscc_value_cq(gop: GopEnsemble, settings: SolverSettings | None = None) -> LosccResult:
    """Simultaneous-classical-communication value for a GOP set with classical second factor.

    The classical side is copied and forwarded, so the optimum equals the
    post-information value of the induced ensemble on the first factor; no
    quantum memory is ever required.
    """
    induced = induced_postinfo(gop, classical_side="b")
    result = p_postinfo(induced, settings)
    return LosccResult(value=result.value, induced=induced, postinfo=result)
