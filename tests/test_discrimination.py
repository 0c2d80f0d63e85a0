import math

import numpy as np
import pytest

from obcast.discrimination import (
    DEFAULT_SETTINGS,
    EffectTarget,
    SolverSettings,
    helstrom_binary,
    losscc_value_cq,
    merged_row_targets,
    min_error_discrimination,
    min_error_discrimination_stack,
    p_bc_two_settings,
    p_cbc,
    p_postinfo,
)
from obcast.ensembles import GopEnsemble, PostInfoEnsemble, gallery, gen_bb84, induced_postinfo
from obcast.errors import SolverFailure
from obcast.linalg import dyad, ket
from obcast.oracles import _ORACLE_SETTINGS
from obcast.qpv import cq_strategy_value
from obcast.reproduce import run_reproduce
from obcast.sampling import random_density, random_orthonormal_pair, rng_from

SQ2 = math.sqrt(2)
BB84_VALUE = (2 + SQ2) / 4
TIGHT = SolverSettings(gap_tol=1e-9)


def swap_sides(g):
    return GopEnsemble(a_states=g.b_states, b_states=g.a_states, prior=g.prior)


def test_helstrom_examples():
    k0, k1 = ket([1, 0]), ket([0, 1])
    kp = (k0 + k1) / SQ2
    assert helstrom_binary(dyad(k0), dyad(k1)) == pytest.approx(1.0)
    assert helstrom_binary(dyad(k0), dyad(kp)) == pytest.approx(0.5 * (1 + 1 / SQ2), abs=1e-12)
    rho = random_density(rng_from(0), 3)
    assert helstrom_binary(rho, rho) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        helstrom_binary(rho, rho, p=1.5)


def test_orthogonal_targets_discriminate_perfectly():
    basis = np.eye(3, dtype=complex)
    target = EffectTarget(operators=tuple(dyad(basis[i]) / 3 for i in range(3)))
    result = min_error_discrimination(target)
    assert result.value == pytest.approx(1.0, abs=1e-7)
    result.certificate.validate(target)


def test_conjugate_pair_merged_targets():
    result = min_error_discrimination(merged_row_targets(gallery("bb84")))
    assert result.value == pytest.approx(BB84_VALUE, abs=1e-6)
    assert result.certificate.gap <= 1e-7


def test_binary_case_matches_closed_form():
    rng = rng_from(1)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        rho, sigma = random_density(rng, d), random_density(rng, d)
        p = float(rng.uniform(0.1, 0.9))
        target = EffectTarget(operators=(p * rho, (1 - p) * sigma))
        result = min_error_discrimination(target, TIGHT)
        # the closed form is the true optimum, so it sits inside the window
        # [value, value + gap] that the certificate pins down
        exact = helstrom_binary(rho, sigma, p)
        assert result.value - 1e-12 <= exact <= result.value + result.certificate.gap + 1e-12
        assert result.value == pytest.approx(exact, abs=1e-9)


def gallery_discrimination_instances():
    yield merged_row_targets(gallery("bb84"))
    yield merged_row_targets(gallery("minimal-qutrit"))
    yield merged_row_targets(gallery("thm1-pairs"))
    yield merged_row_targets(induced_postinfo(gallery("thm2-eight"), classical_side="a"))
    yield merged_row_targets(induced_postinfo(gallery("cor4-six"), classical_side="a"))
    yield merged_row_targets(induced_postinfo(swap_sides(gallery("cq")), classical_side="b"))


def test_dual_certificates_on_every_gallery_instance():
    for target in gallery_discrimination_instances():
        result = min_error_discrimination(target)
        result.certificate.validate(target)
        assert 0.0 <= result.certificate.gap <= 1e-7


def test_solver_matches_cvxpy():
    cp = pytest.importorskip("cvxpy")
    rng = rng_from(2)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(n))
        ops = tuple(w * random_density(rng, d) for w in weights)
        target = EffectTarget(operators=ops)
        mine = min_error_discrimination(target, TIGHT).value
        povm = [cp.Variable((d, d), hermitian=True) for _ in range(n)]
        constraints = [e >> 0 for e in povm] + [sum(povm) == np.eye(d)]
        objective = cp.Maximize(cp.real(sum(cp.trace(e @ m) for e, m in zip(povm, ops))))
        problem = cp.Problem(objective, constraints)
        problem.solve(solver=cp.CLARABEL)
        assert mine == pytest.approx(problem.value, abs=1e-6)


def test_postinfo_values():
    assert p_postinfo(gallery("bb84")).value == pytest.approx(BB84_VALUE, abs=1e-6)
    assert p_postinfo(gallery("minimal-qutrit")).value == pytest.approx(1.0, abs=1e-7)
    value = p_postinfo(gallery("thm1-pairs")).value
    assert value < 1 - 1e-3


def test_postinfo_single_setting_reduces_to_min_error():
    basis = np.eye(3, dtype=complex)
    ens = PostInfoEnsemble(
        settings=("0",),
        states=((basis[0], (basis[0] + basis[1]) / SQ2),),
        prior=((0.5, 0.5),),
    )
    direct = min_error_discrimination(
        EffectTarget(operators=(dyad(basis[0]) / 2, dyad((basis[0] + basis[1]) / SQ2) / 2))
    )
    assert p_postinfo(ens).value == pytest.approx(direct.value, abs=1e-8)


def test_postinfo_assignment_is_usable():
    result = p_postinfo(gallery("bb84"))
    assert len(result.assignment) == len(result.povm)
    for outcome, row in enumerate(result.assignment):
        assert result.guess(0, outcome) == row[0]
        assert result.guess(1, outcome) == row[1]


def test_delegating_measures():
    assert p_cbc(gallery("bb84")) == pytest.approx(BB84_VALUE, abs=1e-6)
    assert p_bc_two_settings(gallery("bb84")) == pytest.approx(BB84_VALUE, abs=1e-6)
    assert p_cbc(gallery("thm1-pairs")) < 1
    with pytest.raises(ValueError):
        p_bc_two_settings(gallery("thm1-pairs"))


def test_postinfo_size_cap():
    basis = np.eye(2, dtype=complex)
    pair = (basis[0], basis[1])
    ens = PostInfoEnsemble(
        settings=tuple(str(t) for t in range(13)),
        states=(pair,) * 13,
        prior=((1 / 26, 1 / 26),) * 13,
        orthogonal=True,
    )
    with pytest.raises(ValueError):
        p_postinfo(ens)


def test_losscc_on_swapped_rotated_family():
    result = losscc_value_cq(swap_sides(gen_bb84(math.pi / 2)))
    assert result.value == pytest.approx(BB84_VALUE, abs=1e-6)
    assert result.induced.index_sets == (2, 2)


def test_losscc_perfect_for_orthonormal_products():
    basis = np.eye(2, dtype=complex)
    gop = GopEnsemble(
        a_states=(basis[0], basis[0], basis[1], basis[1]),
        b_states=(basis[0], basis[1], basis[0], basis[1]),
        prior=(0.25,) * 4,
    )
    assert losscc_value_cq(gop).value == pytest.approx(1.0, abs=1e-7)


def test_losscc_rejects_quantum_second_factor():
    with pytest.raises(ValueError):
        losscc_value_cq(gen_bb84(math.pi / 2))


def test_losscc_optimum_dominates_explicit_strategy():
    # the exact classical-communication optimum can only beat the table
    # strategy; the solver's primal sits within its certified gap of it
    result = losscc_value_cq(swap_sides(gallery("cq")), TIGHT)
    certified_upper = result.value + result.postinfo.certificate.gap
    assert certified_upper >= cq_strategy_value().value - 1e-9


def test_coarse_graining_cannot_increase_the_value():
    rng = rng_from(3)
    for _ in range(10):
        pair0 = random_orthonormal_pair(rng, 2)
        pair1 = random_orthonormal_pair(rng, 2)
        w = rng.dirichlet(np.ones(4))
        ens = PostInfoEnsemble(
            settings=("0", "1"),
            states=(pair0, pair1),
            prior=((float(w[0]), float(w[1])), (float(w[2]), float(w[3]))),
            orthogonal=True,
        )
        merged = PostInfoEnsemble(
            settings=("01",),
            states=(pair0 + pair1,),
            prior=(tuple(float(x) for x in w),),
        )
        assert p_postinfo(merged, TIGHT).value <= p_postinfo(ens, TIGHT).value + 1e-8


def test_relabeling_indices_leaves_the_value_unchanged():
    rng = rng_from(4)
    pair0 = random_orthonormal_pair(rng, 2)
    pair1 = random_orthonormal_pair(rng, 2)
    w = rng.dirichlet(np.ones(4))
    base = PostInfoEnsemble(
        settings=("0", "1"),
        states=(pair0, pair1),
        prior=((float(w[0]), float(w[1])), (float(w[2]), float(w[3]))),
        orthogonal=True,
    )
    flipped = PostInfoEnsemble(
        settings=("0", "1"),
        states=(pair0[::-1], pair1),
        prior=((float(w[1]), float(w[0])), (float(w[2]), float(w[3]))),
        orthogonal=True,
    )
    a = p_postinfo(base, TIGHT)
    b = p_postinfo(flipped, TIGHT)
    assert a.value == pytest.approx(b.value, abs=2e-9)
    # the optimal rows relabel along with the states
    assert sorted(r[1] for r in a.assignment) == sorted(r[1] for r in b.assignment)


def test_target_validation():
    with pytest.raises(ValueError):
        EffectTarget(operators=())
    with pytest.raises(ValueError):
        EffectTarget(operators=(np.diag([1.0, -0.5]),))
    with pytest.raises(ValueError):
        EffectTarget(operators=(np.eye(2),), labels=(1, 2))


def mixed_stack():
    """Four-outcome qubit targets: oracle-style rows with duplicates, and random densities."""
    rng = rng_from(5)
    ens = PostInfoEnsemble(
        settings=("0", "1"),
        states=(random_orthonormal_pair(rng, 2), random_orthonormal_pair(rng, 2)),
        prior=((0.1, 0.2), (0.3, 0.4)),
        orthogonal=True,
    )
    rows = merged_row_targets(ens)
    targets = [rows.select(k) for k in ((0, 1, 2, 3), (0, 0, 1, 3), (2, 2, 2, 2), (1, 1, 3, 3))]
    for _ in range(4):
        w = rng.dirichlet(np.ones(4))
        targets.append(EffectTarget(operators=tuple(x * random_density(rng, 2) for x in w)))
    return targets


def test_stacked_members_match_their_lone_solves_bit_for_bit():
    targets = mixed_stack()
    for st in (DEFAULT_SETTINGS, _ORACLE_SETTINGS):
        stacked = min_error_discrimination_stack(targets, st)
        assert len({r.iterations for r in stacked}) > 1  # members leave at different checks
        for target, mine in zip(targets, stacked):
            alone = min_error_discrimination(target, st)
            assert mine.value == alone.value
            assert mine.certificate.gap == alone.certificate.gap
            assert mine.certificate.matrix.tobytes() == alone.certificate.matrix.tobytes()
            assert [e.tobytes() for e in mine.povm.effects] == [e.tobytes() for e in alone.povm.effects]
            assert mine.iterations == alone.iterations > 0
            assert mine.labels == target.labels


def test_stacked_certificates_validate_under_the_settings_in_force():
    targets = mixed_stack()
    for st in (DEFAULT_SETTINGS, TIGHT, _ORACLE_SETTINGS):
        for target, result in zip(targets, min_error_discrimination_stack(targets, st)):
            result.certificate.validate(target, gap_tol=st.gap_tol)
    # a certificate earned under a looser tolerance fails the default one
    loose = min_error_discrimination(targets[0], SolverSettings(gap_tol=1e-4))
    assert 1e-7 < loose.certificate.gap <= 1e-4
    loose.certificate.validate(targets[0], gap_tol=1e-4)
    with pytest.raises(ValueError):
        loose.certificate.validate(targets[0])


def test_a_failing_member_raises_what_it_raises_alone():
    targets = mixed_stack()
    st = SolverSettings(max_iterations=3)
    # the (2, 2, 2, 2) member certifies at the first check; the others cannot
    with pytest.raises(SolverFailure) as alone:
        min_error_discrimination(targets[1], st)
    with pytest.raises(SolverFailure) as stacked:
        min_error_discrimination_stack(targets[1:], st)
    assert str(stacked.value) == str(alone.value)
    assert stacked.value.primal == alone.value.primal
    assert stacked.value.gap == alone.value.gap
    assert [e.tobytes() for e in stacked.value.povm] == [e.tobytes() for e in alone.value.povm]
    assert stacked.value.iterations == alone.value.iterations == 3


def test_stacked_targets_must_share_a_shape():
    targets = mixed_stack()
    with pytest.raises(ValueError):
        min_error_discrimination_stack([targets[0], merged_row_targets(gallery("minimal-qutrit"))])
    with pytest.raises(ValueError):
        min_error_discrimination_stack([targets[0], targets[0].select((0, 1))])
    assert min_error_discrimination_stack([]) == []


def test_bruteforce_case_reports_the_reference_bits():
    assert run_reproduce(seed=42, only="prop-postinfo-bruteforce")[0].computed == 8.822147157250271e-08
