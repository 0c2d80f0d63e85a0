import math
import re

import numpy as np
import pytest

from obcast.linalg import dyad, ket, partial_trace, trace_distance
from obcast.discrimination import helstrom_binary
from obcast.sampling import ket_from_normals, unitary_from_normals
from obcast.uncertainty import (
    SuperpositionSpec,
    superpose,
    ur_general,
    ur_guess_bound,
    ur_pair_bound,
)

from helpers import random_ket

SQ2 = math.sqrt(2)
CONJUGATE = SuperpositionSpec(theta=math.pi / 2, phi=0.0, omega=-math.pi / 2, phi_prime=0.0)


def random_spec(rng):
    return SuperpositionSpec(*(float(rng.uniform(0, 2 * math.pi)) for _ in range(4)))


def test_spec_coefficients_are_derived():
    spec = CONJUGATE
    assert spec.z1 == pytest.approx(1.0)
    assert spec.z2 == pytest.approx(0.0)
    zero = SuperpositionSpec(0.3, 0.1, 0.3, 0.1)
    assert abs(zero.z1) == pytest.approx(0.0, abs=1e-15)
    assert zero.z2 == pytest.approx(0.0, abs=1e-15)


def test_pair_bound_saturates_for_shared_first_factor():
    a0 = np.kron(ket([1, 0]), ket([1, 0]))
    a1 = np.kron(ket([1, 0]), ket([0, 1]))
    lhs, rhs = ur_pair_bound(a0, a1, CONJUGATE, (2, 2))
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)


def test_pair_bound_vanishes_for_orthogonal_first_factors():
    a0 = np.kron(ket([1, 0]), ket([1, 0]))
    a1 = np.kron(ket([0, 1]), ket([0, 1]))
    lhs, rhs = ur_pair_bound(a0, a1, CONJUGATE, (2, 2))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_pair_bound_trivial_for_equal_angles():
    rng = np.random.default_rng(0)
    a0, a1 = random_ket(rng, 4), random_ket(rng, 4)
    spec = SuperpositionSpec(0.7, 0.2, 0.7, 0.2)
    lhs, rhs = ur_pair_bound(a0, a1, spec, (2, 2))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_pair_bound_randomized_soundness():
    rng = np.random.default_rng(1)
    for _ in range(300):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a0, a1 = random_ket(rng, da * db), random_ket(rng, da * db)
        lhs, rhs = ur_pair_bound(a0, a1, random_spec(rng), (da, db))
        assert lhs <= rhs + 1e-9


def test_guess_bound_endpoints():
    assert ur_guess_bound(1.0, 0.5, CONJUGATE) == pytest.approx(0.5)
    assert ur_guess_bound(0.5, 0.5, CONJUGATE) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ur_guess_bound(0.3, 0.5, CONJUGATE)
    with pytest.raises(ValueError):
        ur_guess_bound(0.8, 1.2, CONJUGATE)


def test_guess_bound_fixed_point():
    t = (2 + SQ2) / 4
    assert ur_guess_bound(t, 0.5, CONJUGATE) == pytest.approx(t, abs=1e-12)


def test_guess_bound_monotone_when_z2_vanishes():
    grid = np.linspace(0.5, 1.0, 50)
    values = [ur_guess_bound(float(p), 0.5, CONJUGATE) for p in grid]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_stacked_guess_bound_matches_the_scalar_formula_bit_for_bit():
    # Python's ** 2 differs from numpy's array ** 2 in the last bit for about one
    # value in a thousand; every member must get the one-pair formula's bits
    rng = np.random.default_rng(8)
    pa, pb = rng.uniform(0.5, 1.0, size=(2, 4000))
    specs = [random_spec(rng) for _ in range(4000)]
    assert any((2 * a - 1) ** 2 != (2 * a - 1) * (2 * a - 1) for a in pa.tolist())
    want = [
        0.5 * (abs(s.z1) * math.sqrt(max(0.0, 1.0 - (2 * a - 1) ** 2)) + abs(s.z2) * (2 * b - 1) + 1.0)
        for a, b, s in zip(pa.tolist(), pb.tolist(), specs)
    ]
    assert ur_guess_bound(pa, pb, specs).tobytes() == np.array(want).tobytes()
    assert ur_guess_bound(float(pa[0]), float(pb[0]), specs[0]) == want[0]


def test_guess_bound_holds_at_exact_optimal_values():
    rng = np.random.default_rng(2)
    for _ in range(300):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a0, a1 = random_ket(rng, da * db), random_ket(rng, da * db)
        spec = random_spec(rng)
        dims = (da, db)
        marg = lambda v, keep: partial_trace(dyad(v), dims, {keep})
        lhs = 0.5 * (
            1.0
            + trace_distance(
                marg(superpose(a0, a1, spec, "theta"), 1), marg(superpose(a0, a1, spec, "omega"), 1)
            )
        )
        pg_a = helstrom_binary(marg(a0, 0), marg(a1, 0))
        pg_b = helstrom_binary(marg(a0, 1), marg(a1, 1))
        assert lhs <= ur_guess_bound(pg_a, pg_b, spec) + 1e-9


def test_general_form_specializes_to_the_pair_form():
    # the two right-hand sides coincide on the z2 = 0 family (the regime the
    # pair form is deployed in); with z2 != 0 the multi-vector classical term
    # splits per vector and is generally weaker than |z2| D(g0, g1)
    rng = np.random.default_rng(3)
    for _ in range(25):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        a0, a1 = random_ket(rng, da * db), random_ket(rng, da * db)
        theta = float(rng.uniform(0, 2 * math.pi))
        spec = SuperpositionSpec(theta, float(rng.uniform(0, 2 * math.pi)), -theta, float(rng.uniform(0, 2 * math.pi)))
        assert abs(spec.z2) <= 1e-15
        alphas = (math.cos(spec.theta / 2), math.sin(spec.theta / 2) * np.exp(1j * spec.phi))
        betas = (math.cos(spec.omega / 2), math.sin(spec.omega / 2) * np.exp(1j * spec.phi_prime))
        (lhs_g,), (tight,), _ = ur_general([[a0, a1]], [alphas], [betas], (da, db))
        lhs, rhs = ur_pair_bound(a0, a1, spec, (da, db))
        assert lhs_g == pytest.approx(lhs, abs=1e-10)
        assert tight == pytest.approx(rhs, abs=1e-9)


def test_general_form_soundness_with_lemma_coefficients_any_angles():
    rng = np.random.default_rng(7)
    for _ in range(50):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        a0, a1 = random_ket(rng, da * db), random_ket(rng, da * db)
        spec = random_spec(rng)
        alphas = (math.cos(spec.theta / 2), math.sin(spec.theta / 2) * np.exp(1j * spec.phi))
        betas = (math.cos(spec.omega / 2), math.sin(spec.omega / 2) * np.exp(1j * spec.phi_prime))
        (lhs,), (tight,), (relaxed,) = ur_general([[a0, a1]], [alphas], [betas], (da, db))
        assert lhs <= tight + 1e-9
        assert lhs <= relaxed + 1e-9


def test_general_form_equal_coefficients_collapse():
    rng = np.random.default_rng(4)
    gammas = [random_ket(rng, 4) for _ in range(3)]
    coeffs = [0.3, 0.5 + 0.1j, -0.2]
    (lhs,), (tight,), _ = ur_general([gammas], [coeffs], [coeffs], (2, 2))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert tight == pytest.approx(0.0, abs=1e-12)


def test_general_form_randomized_soundness():
    rng = np.random.default_rng(5)
    for _ in range(100):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        gammas = [random_ket(rng, da * db) for _ in range(3)]
        draw = lambda: [(rng.normal() + 1j * rng.normal()) / 2 for _ in range(3)]
        (lhs,), (tight,), (relaxed,) = ur_general([gammas], [draw()], [draw()], (da, db))
        assert lhs <= tight + 1e-9
        assert lhs <= relaxed + 1e-9


def test_general_form_size_cap():
    rng = np.random.default_rng(6)
    gammas = [random_ket(rng, 4) for _ in range(9)]
    ones = [1.0] * 9
    with pytest.raises(ValueError):
        ur_general([gammas], [ones], [ones], (2, 2))


def test_general_form_rejects_malformed_stacks():
    rng = np.random.default_rng(10)
    gammas = rng.normal(size=(4, 3, 6)) + 1j * rng.normal(size=(4, 3, 6))
    coeffs = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    with pytest.raises(ValueError, match="supported are 1 to 8"):
        ur_general(np.ones((4, 9, 6)), np.ones((4, 9)), np.ones((4, 9)), (2, 3))
    with pytest.raises(ValueError, match="supported are 1 to 8"):
        ur_general(np.ones((4, 0, 6)), np.ones((4, 0)), np.ones((4, 0)), (2, 3))
    with pytest.raises(ValueError, match="expected kets of shape"):
        ur_general(gammas[0], coeffs[0], coeffs[0], (2, 3))
    with pytest.raises(ValueError, match="at least one member"):
        ur_general(gammas[:0], coeffs[:0], coeffs[:0], (2, 3))
    for alphas, betas in ((coeffs[:3], coeffs), (coeffs, coeffs[:, :2]), (coeffs[..., None], coeffs)):
        with pytest.raises(ValueError, match="do not match kets"):
            ur_general(gammas, alphas, betas, (2, 3))
    with pytest.raises(ValueError, match="do not match vector length"):
        ur_general(gammas, coeffs, coeffs, (2, 2))
    for bad in (np.nan, np.inf):
        broken = gammas.copy()
        broken[2, 1, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ur_general(broken, coeffs, coeffs, (2, 3))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_every_stacked_general_member_gets_the_bits_of_a_stack_of_one(n, dims):
    rng = np.random.default_rng(11)
    length = dims[0] * dims[1]
    for size in (1, 2, 5, 17, 64):
        gammas = (rng.normal(size=(size, n, length)) + 1j * rng.normal(size=(size, n, length))) / 2
        alphas, betas = (rng.normal(size=(2, size, n)) + 1j * rng.normal(size=(2, size, n))) / 2
        stacked = ur_general(gammas, alphas, betas, dims)
        for b in range(size):
            alone = ur_general(gammas[b : b + 1], alphas[b : b + 1], betas[b : b + 1], dims)
            assert [v[b : b + 1].tobytes() for v in stacked] == [v.tobytes() for v in alone]


def test_no_go_bound_is_the_b_side_distance_of_a_rotated_pair_under_a_perfectly_distinguishing_isometry():
    # V|i> lies in A_i (x) B with A_0 orthogonal to A_1, so rho_B(c) = |c_0|^2 sigma_0 + |c_1|^2 sigma_1 and the
    # rotated pair's B-side trace distance is |cos theta| times the unrotated pair's
    rng = np.random.default_rng(8)
    for _ in range(200):
        da, db = (int(x) for x in rng.integers(2, 5, size=2))
        split = int(rng.integers(1, da))
        basis = unitary_from_normals(rng.normal(size=(2, da, da)))
        v = np.zeros((da * db, 2), dtype=complex)
        for i, cols in enumerate((basis[:, :split], basis[:, split:])):
            coeffs = ket_from_normals(rng.normal(size=(2, cols.shape[1] * db))).reshape(cols.shape[1], db)
            v[:, i] = (cols @ coeffs).reshape(-1)  # a unit vector of A_i (x) B
        theta, phase = rng.uniform(0, 2 * math.pi, size=2)
        c, s = math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phase)
        rotated = np.array([[c, s], [np.conj(s), -c]]).T  # the columns are the rotated orthonormal pair

        def b_side(kets):
            out = v @ kets
            return [partial_trace(dyad(out[:, k]), (da, db), keep={1}) for k in range(2)]

        before = trace_distance(*b_side(np.eye(2)))
        after = trace_distance(*b_side(rotated))
        assert after == pytest.approx(abs(math.cos(theta)) * before, abs=1e-12)


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: superpose(np.ones((3, 4)), np.ones((3, 4)), [CONJUGATE] * 2, "theta"), "2 specs for a stack of shape (3,)"),
        (lambda: ur_pair_bound(np.ones(4), np.ones(6), CONJUGATE, (2, 2)), "vectors must share a dimension"),
        (lambda: ur_pair_bound(np.ones(4), np.ones(4), CONJUGATE, (2, 3)), "dims (2, 3) do not match vector length 4"),
    ],
)
def test_input_checks_name_what_is_wrong(check, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check()
