import math
import re

import numpy as np
import pytest

from obcast.ensembles import Povm
from obcast.linalg import PSD_TOL, dyad, hermitian, operator_norm, psd_sqrt
from obcast.moe import (
    MoeGame,
    classical_copy_permutation_bound,
    classical_copy_registers,
    example_go_trivial,
    game_bb84,
    game_obb,
    game_operators,
    lemma_a1_bound,
    overlap_constant,
    steering_deviation,
    transpose_trick_game,
)
from obcast.sampling import psd_from_normals, unitary_from_normals

SQ2 = math.sqrt(2)


def computational_game(d=2):
    basis = np.eye(d, dtype=complex)
    return MoeGame(measurements=(Povm(effects=tuple(dyad(basis[x]) for x in range(d))),))


def correlated_state(d):
    """The classically correlated three-party state sum_i |iii><iii| / d."""
    basis = np.eye(d, dtype=complex)
    return sum(dyad(np.kron(np.kron(basis[i], basis[i]), basis[i])) for i in range(d)) / d


def moe_win_prob(game, state, priors=None):
    """Probability that both copying responders match the referee outcome on the shared ``state``."""
    rho = hermitian(state, tol=PSD_TOL)
    if abs(np.trace(rho).real - 1.0) > PSD_TOL or np.linalg.eigvalsh(rho).min() < -PSD_TOL:
        raise ValueError("shared state must be a density operator")
    n = len(game.measurements)
    pr = np.full(n, 1.0 / n) if priors is None else np.asarray(priors, dtype=float)
    if pr.shape != (n,) or pr.min() < 0 or abs(pr.sum() - 1.0) > 1e-12:
        raise ValueError("priors must be a probability vector over the settings")
    ops = game_operators(game)
    if ops[0].shape != rho.shape:
        raise ValueError(f"state dimension {rho.shape[0]} does not match game operators {ops[0].shape[0]}")
    value = float(sum(w * np.trace(op @ rho).real for w, op in zip(pr, ops)))
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise ValueError(f"winning probability {value!r} escaped [0, 1]")
    return min(1.0, max(0.0, value))


def test_single_setting_copying_wins():
    game = computational_game()
    assert moe_win_prob(game, correlated_state(2)) == pytest.approx(1.0, abs=1e-12)


def test_three_basis_copying_strategy_win_prob():
    # classically correlated input: full marks on the computational setting,
    # one quarter per superposition state elsewhere
    game = game_obb()
    value = moe_win_prob(game, correlated_state(3))
    assert value == pytest.approx((1 + 0.5 + 0.5) / 3, abs=1e-12)
    assert value <= 1.0


def test_win_prob_validates_priors_and_dims():
    game = computational_game()
    with pytest.raises(ValueError, match="priors"):
        moe_win_prob(game, correlated_state(2), priors=[0.7, 0.7])
    with pytest.raises(ValueError, match="state dimension"):
        moe_win_prob(game, np.eye(2) / 2)
    with pytest.raises(ValueError, match="density operator"):
        moe_win_prob(game, 2 * correlated_state(2))


def test_overlap_constants():
    assert overlap_constant(game_obb()) == pytest.approx(1.0, abs=1e-12)
    assert overlap_constant(game_bb84()) == pytest.approx(1 / SQ2, abs=1e-12)
    m = computational_game().measurements[0]
    doubled = MoeGame(measurements=(m, m))
    assert overlap_constant(doubled) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        overlap_constant(computational_game())


def test_lemma_bound_single_operator():
    rng = np.random.default_rng(0)
    r = psd_from_normals(rng.normal(size=(2, 4, 4)))
    assert lemma_a1_bound([r]) == pytest.approx(
        float(np.linalg.eigvalsh(r).max()), abs=1e-12
    )


def test_lemma_bound_copying_strategy_is_trivial():
    game = game_obb()
    bound = lemma_a1_bound(game_operators(game)) / 3
    assert bound == pytest.approx(1.0, abs=1e-12)


def test_lemma_bound_two_basis_registers():
    game = game_bb84()
    registers = classical_copy_registers(game)
    bound = lemma_a1_bound(registers) / 2
    assert bound == pytest.approx(0.5 * (1 + 1 / SQ2), abs=1e-9)
    assert classical_copy_permutation_bound(game) == pytest.approx(bound, abs=1e-15)


def test_lemma_bound_randomized_soundness():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(3, 5))
        d = int(rng.integers(2, 7))
        ops = list(psd_from_normals(rng.normal(size=(n, 2, d, d))))
        bound = lemma_a1_bound(ops)
        assert float(np.linalg.eigvalsh(sum(ops)).max()) <= bound + 1e-9


def test_win_prob_never_exceeds_lemma_route():
    for game in (game_obb(), computational_game(3)):
        n = len(game.measurements)
        bound = lemma_a1_bound(game_operators(game)) / n
        assert moe_win_prob(game, correlated_state(3)) <= bound + 1e-9


def test_lemma_bound_is_the_sum_over_cyclic_shifts_bit_for_bit():
    rng = np.random.default_rng(9)
    for n in range(1, 6):
        d = int(rng.integers(2, 6))
        ops = list(psd_from_normals(rng.normal(size=(n, 7, 2, d, d))))
        roots = [psd_sqrt(hermitian(r, tol=PSD_TOL)) for r in ops]
        want = sum(
            np.max([operator_norm(roots[i] @ roots[(i + k) % n]) for i in range(n)], axis=0) for k in range(n)
        )
        assert lemma_a1_bound(ops).tobytes() == want.tobytes()
        for m in range(7):
            lone = [r[m] for r in ops]
            want = sum(max(operator_norm(psd_sqrt(lone[i]) @ psd_sqrt(lone[(i + k) % n])) for i in range(n)) for k in range(n))
            assert lemma_a1_bound(lone) == want


def test_lemma_bound_needs_an_operator():
    with pytest.raises(ValueError, match="at least one operator"):
        lemma_a1_bound([])


def test_transpose_trick_two_basis_game():
    game = game_bb84()
    comp = {tuple(np.round(np.diag(e).real, 12)) for e in game.measurements[0].effects}
    assert comp == {(1.0, 0.0), (0.0, 1.0)}
    had = game.measurements[1].effects
    plus = dyad(np.array([1, 1], dtype=complex) / SQ2)
    assert min(np.abs(e - plus).max() for e in had) <= 1e-12


def test_transpose_trick_identity_gives_computational_game():
    game = transpose_trick_game([np.eye(2)])
    expected = computational_game()
    for got, want in zip(game.measurements[0].effects, expected.measurements[0].effects):
        assert np.abs(got - want).max() <= 1e-12


def test_transpose_trick_random_qutrit_pairs():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u, v = unitary_from_normals(rng.normal(size=(2, 2, 3, 3)))
        game = transpose_trick_game([u, v])
        assert len(game.measurements) == 2
        assert steering_deviation(u) <= 1e-12
        assert steering_deviation(v) <= 1e-12
    with pytest.raises(ValueError):
        transpose_trick_game([np.ones((2, 2))])


def test_go_triviality_report():
    report = example_go_trivial()
    assert report.overlap_constant == pytest.approx(1.0, abs=1e-12)
    assert report.copy_strategy_bound == pytest.approx(1.0, abs=1e-12)
    assert report.contrast_bound == pytest.approx(0.603554, abs=1e-6)
    assert report.contrast_bound < report.copy_strategy_bound


_QUBIT_BASIS = Povm(effects=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


@pytest.mark.parametrize(
    "measurements, message",
    [
        ((), "need at least one setting"),
        ((_QUBIT_BASIS, Povm(effects=(np.eye(3),))), "measurements live on different dimensions: [2, 3]"),
        ((_QUBIT_BASIS, Povm(effects=(np.eye(2),))), "all settings must share an outcome alphabet"),
    ],
)
def test_game_checks_name_what_is_wrong(measurements, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MoeGame(measurements=measurements)
