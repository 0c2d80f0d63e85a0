"""Minimum-error discrimination with dual certificates, and derived measures.

The solver iterates the standard optimality map for discriminating weighted
operators: given a POVM P, form R = sum_r M_r P_r M_r and update
P_r <- R^{-1/2} M_r P_r M_r R^{-1/2}, damped and Hermitian-projected each
step.  A dual certificate Y >= M_r is built from the iterate by an
eigenvalue shift; the reported value is optimal within the certified gap,
independently of how the iteration behaved.  Same-shape targets are solved
as one stack; a single solve is a stack of one.
"""

from __future__ import annotations

import copy
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ensembles import GopEnsemble, PostInfoEnsemble, Povm, induced_postinfo
from .errors import SolverFailure
from .linalg import dagger, dyad, hermitian

MAX_ROW_TARGETS = 4096


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and iteration controls for the discrimination solver."""

    gap_tol: float = 1e-7
    psd_tol: float = 1e-10
    max_iterations: int = 100_000
    damping: float = 0.5
    check_interval: int = 10
    rank_tol: float = 1e-12


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

    def validate(self, target: EffectTarget, slack: float = 1e-8, gap_tol: float = DEFAULT_SETTINGS.gap_tol) -> None:
        """Raise ``ValueError`` unless Y >= M_r for every target and the gap is within ``gap_tol``."""
        for m in target.operators:
            low = np.linalg.eigvalsh(hermitian(self.matrix, tol=1e-9) - m).min()
            if low < -slack:
                raise ValueError(f"dual operator not feasible: Y - M has eigenvalue {low:.3e}")
        if not (-1e-9 <= self.gap <= gap_tol + 1e-12):
            raise ValueError(f"certified gap {self.gap:.3e} outside [0, {gap_tol:.1e}]")


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


def _certify(m: np.ndarray, p: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Exact certificate of one member (n, d, d): primal, dual Y >= M_r, and gap."""
    primal = float(np.einsum("rij,rji->", p, m).real)
    ymp = np.einsum("rij,rjk->ik", m, p)
    y0 = (ymp + dagger(ymp)) / 2
    shift = max(float(-np.linalg.eigvalsh(y0[None] - m).min()), 0.0)
    y = y0 + shift * np.eye(m.shape[1])
    gap = float(np.trace(y).real - primal)
    return primal, y, max(gap, 0.0)


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


def _solve_stack(m: np.ndarray, st: SolverSettings) -> list[tuple[float, np.ndarray, np.ndarray, float, int]]:
    """Fixed-point iteration on a stack of same-shape targets ``m`` (B, n, d, d).

    Members iterate in lockstep, and each leaves at the first check where its
    own exact certificate meets ``gap_tol``.  Every stacked step computes each
    member exactly as it would be computed alone, so the results do not
    depend on the stack.  Returns (primal, dual, POVM, gap, iterations) per
    member, or raises ``SolverFailure`` for the first member that never
    certifies.
    """
    b, n, d, _ = m.shape
    eye = np.eye(d)
    # pretty-good-measurement start, completed to a POVM on the full space
    s0 = _psd_pinv_sqrt(m.sum(axis=1), st.rank_tol)
    p = _herm_stack(s0[:, None] @ m @ s0[:, None])
    p += ((eye - p.sum(axis=1)) / n)[:, None]
    out: list = [None] * b
    live = np.arange(b)
    best_gap = np.full(b, np.inf)
    best_p = p.copy()
    # screened gaps are within rounding of the exact ones, far inside this window
    window = 2 * st.gap_tol + 1e-12
    for it in range(st.max_iterations):
        mpm = m @ p @ m
        s = _psd_pinv_sqrt(mpm.sum(axis=1), st.rank_tol)
        new = _herm_stack(s[:, None] @ mpm @ s[:, None])
        new += ((eye - new.sum(axis=1)) / n)[:, None]
        p = (1.0 - st.damping) * p + st.damping * new
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
    primal, _, gap = _certify(m[0], best_p[0])
    raise SolverFailure(
        f"no certificate below {st.gap_tol:.1e} within {st.max_iterations} iterations "
        f"(best gap {gap:.3e})",
        primal=primal,
        gap=gap,
        povm=tuple(best_p[0]),
        iterations=st.max_iterations,
    )


def min_error_discrimination_stack(
    targets: Sequence[EffectTarget], settings: SolverSettings | None = None
) -> list[DiscriminationResult]:
    """Certified optima of same-shape targets, solved as one stack.

    Each member's result is bit for bit the one ``min_error_discrimination``
    gives it alone.  A member that never certifies raises ``SolverFailure``
    for the first such member in order.
    """
    st = settings or DEFAULT_SETTINGS
    if not targets:
        return []
    shapes = {(len(t.operators), t.dim) for t in targets}
    if len(shapes) > 1:
        raise ValueError(f"stacked targets must share (outcomes, dim); got {sorted(shapes)}")
    solved = _solve_stack(np.array([t.operators for t in targets]), st)
    return [
        DiscriminationResult(
            value=primal,
            povm=Povm(effects=tuple(p)),
            certificate=DualCertificate(matrix=y, primal_value=primal, gap=gap),
            labels=t.labels,
            iterations=iterations,
        )
        for t, (primal, y, p, gap, iterations) in zip(targets, solved)
    ]


def min_error_discrimination(
    target: EffectTarget, settings: SolverSettings | None = None
) -> DiscriminationResult:
    """Certified optimum of max_POVM sum_r Tr[P_r M_r]."""
    return min_error_discrimination_stack([target], settings)[0]


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

    def guess(self, setting: int, outcome: int) -> int:
        return self.assignment[outcome][setting]


def p_postinfo(ensemble: PostInfoEnsemble, settings: SolverSettings | None = None) -> PostInfoResult:
    """Optimal guessing probability when the setting arrives after measurement."""
    st = settings or DEFAULT_SETTINGS
    target = merged_row_targets(ensemble, psd_tol=st.psd_tol)
    result = min_error_discrimination(target, st)
    return PostInfoResult(
        value=result.value,
        povm=result.povm,
        assignment=result.labels,
        certificate=result.certificate,
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
