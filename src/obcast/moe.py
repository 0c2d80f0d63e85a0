"""Tripartite correlation games: game operators and operator-norm bounds.

One referee measurement per setting is applied to the first share of a
three-party state; the other two parties must both reproduce the outcome
after learning the setting.  The standard upper-bound tool replaces the
optimization over states by the operator norm of the summed game operators
and splits that norm along the cyclic shifts of the settings.  The only
strategy evaluated is copying: both responders reuse the referee's effects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ensembles import Povm
from .linalg import PSD_TOL, dagger, dyad, hermitian, kron, operator_norm, partial_trace, per_member, psd_sqrt


@dataclass(frozen=True)
class MoeGame:
    """One referee POVM per setting, all on the same space."""

    measurements: tuple[Povm, ...]

    def __post_init__(self):
        if not self.measurements:
            raise ValueError("need at least one setting")
        dims = {m.dim for m in self.measurements}
        if len(dims) != 1:
            raise ValueError(f"measurements live on different dimensions: {sorted(dims)}")
        outcomes = {len(m) for m in self.measurements}
        if len(outcomes) != 1:
            raise ValueError("all settings must share an outcome alphabet")

    @property
    def outcome_count(self) -> int:
        return len(self.measurements[0])


def game_operators(game: MoeGame) -> list[np.ndarray]:
    """The copying strategy's per-setting operators sum_x F_x (x) F_x (x) F_x."""
    ops = []
    for meas in game.measurements:
        acc = None
        for f in meas.effects:
            term = kron(kron(f, f), f)
            acc = term if acc is None else acc + term
        ops.append(acc)
    return ops


def overlap_constant(game: MoeGame) -> float:
    """Largest cross-setting effect overlap max ||sqrt(F) sqrt(F')||."""
    if len(game.measurements) < 2:
        raise ValueError("need at least two settings")
    roots = [[psd_sqrt(e) for e in m.effects] for m in game.measurements]
    return max(
        operator_norm(f @ g)
        for i, j in itertools.combinations(range(len(roots)), 2)
        for f in roots[i]
        for g in roots[j]
    )


def lemma_a1_bound(operators):
    """Permutation splitting of ||sum R_i|| along the n cyclic shifts i -> (i + k) mod n.

    The bound is sum_k max_i ||sqrt(R_i) sqrt(R_{(i+k) mod n})||, per member of stacks.
    """
    ops = [hermitian(r, tol=PSD_TOL) for r in operators]
    if not ops:
        raise ValueError("need at least one operator")
    n = len(ops)
    roots = [psd_sqrt(r) for r in ops]
    total = 0.0
    for k in range(n):
        total += np.max([operator_norm(roots[i] @ roots[(i + k) % n]) for i in range(n)], axis=0)
    return per_member(total)


def steering_deviation(u: np.ndarray):
    """Worst deviation of the transpose-trick steering identity for one unitary (or each of a stack).

    Measuring conj(U) |x><x| conj(U)^dagger on one half of the maximally
    entangled state must leave the other half in U |x><x| U^dagger / d.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[-1]
    basis = np.eye(d, dtype=complex)
    shared = dyad(basis.reshape(-1) / math.sqrt(d))
    worst = 0.0
    for x in range(d):
        effect = np.conj(u) @ dyad(basis[x]) @ u.swapaxes(-1, -2)
        marginal = partial_trace(kron(effect, np.eye(d)) @ shared, (d, d), {1})
        steered = u @ dyad(basis[x]) @ dagger(u) / d
        worst = np.maximum(worst, np.abs(marginal - steered).max(axis=(-2, -1)))
    return per_member(worst)


def transpose_trick_game(unitaries) -> MoeGame:
    """Game whose effects steer the maximally entangled state onto rotated basis states.

    For each unitary U the setting's effects are conj(U) |x><x| conj(U)^dagger;
    the steering identity is verified before the game is returned.
    """
    mats = [np.asarray(u, dtype=complex) for u in unitaries]
    d = mats[0].shape[0]
    for u in mats:
        if u.shape != (d, d) or np.abs(dagger(u) @ u - np.eye(d)).max() > PSD_TOL:
            raise ValueError("inputs must be unitaries of one dimension")
    basis = np.eye(d, dtype=complex)
    measurements = []
    for u in mats:
        if steering_deviation(u) > 1e-12:
            raise ValueError("steering identity failed; inputs are not consistent unitaries")
        effects = tuple(np.conj(u) @ dyad(basis[x]) @ u.T for x in range(d))
        measurements.append(Povm(effects=effects))
    return MoeGame(measurements=tuple(measurements))


def game_bb84() -> MoeGame:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    return transpose_trick_game([x, h])


def game_obb() -> MoeGame:
    """Completion of the overlapping-bases qutrit partition into three bases."""
    z = np.eye(3, dtype=complex)

    def plus(i, j, sign):
        return (z[i] + sign * z[j]) / math.sqrt(2)

    m0 = Povm(effects=tuple(dyad(z[i]) for i in range(3)))
    m1 = Povm(effects=(dyad(z[0]), dyad(plus(1, 2, 1)), dyad(plus(1, 2, -1))))
    m2 = Povm(effects=(dyad(plus(0, 1, 1)), dyad(plus(0, 1, -1)), dyad(z[2])))
    return MoeGame(measurements=(m0, m1, m2))


def classical_copy_registers(game: MoeGame) -> list[np.ndarray]:
    """Game operators when both responders hold classical copies of the outcome.

    Setting operators sum_x F_x (x) |x><x| (x) |x><x|; feeding them to the
    permutation bound yields the tight two-basis game value after prior
    scaling.
    """
    basis = np.eye(game.outcome_count, dtype=complex)
    return [
        sum(kron(kron(m.effects[x], dyad(basis[x])), dyad(basis[x])) for x in range(len(m)))
        for m in game.measurements
    ]


def classical_copy_permutation_bound(game: MoeGame) -> float:
    """Permutation bound on the classical-copy registers, scaled by the uniform prior."""
    n = len(game.measurements)
    return lemma_a1_bound(classical_copy_registers(game)) / n


@dataclass(frozen=True)
class GoTrivialityReport:
    """The operator-norm toolkit yields nothing on the overlapping-bases game.

    The cross-setting overlap constant is one (two settings share a rank-one
    effect), and the permutation bound on the copying strategy's operators is
    also one, while the broadcast-side analysis of the same seven-state set
    certifies a strictly smaller attack value.
    """

    overlap_constant: float
    copy_strategy_bound: float
    contrast_bound: float


def example_go_trivial() -> GoTrivialityReport:
    from .qpv import OBB_DISK_SHIFT, disk_program_solve

    game = game_obb()
    c = overlap_constant(game)
    bound = lemma_a1_bound(game_operators(game)) / 3.0
    contrast = disk_program_solve(OBB_DISK_SHIFT)
    return GoTrivialityReport(overlap_constant=c, copy_strategy_bound=bound, contrast_bound=contrast)
