import dataclasses
import re

import numpy as np
import pytest

from obcast import broadcast
from obcast.broadcast import (
    KillPatternCertificate,
    broadcast_outputs,
    kill_pattern_certificate,
    output_marginals,
    perfect_classical_broadcast_decision,
    verify_classical_broadcast_povm,
    verify_orthogonality_broadcast,
)
from obcast.ensembles import Isometry, PostInfoEnsemble, Povm, gallery, induced_postinfo
from obcast.errors import InternalInconsistency
from obcast.linalg import dyad, ket

from helpers import random_ket

SQ2 = np.sqrt(2)


def test_entangling_map_sends_cross_pair_to_plus_plus():
    iso = gallery("thm1-isometry")
    plus02 = ket([1, 0, 1]) / SQ2
    sigma_a, sigma_b = output_marginals(iso, plus02)
    plus = dyad(ket([1, 1]) / SQ2)
    assert np.abs(sigma_a - plus).max() <= 1e-12
    assert np.abs(sigma_b - plus).max() <= 1e-12


def test_five_level_map_sends_plus23_to_two_two():
    iso = gallery("thm2-isometry")
    plus23 = ket([0, 0, 1, 1, 0]) / SQ2
    sigma_a, sigma_b = output_marginals(iso, plus23)
    two = np.zeros(4, dtype=complex)
    two[2] = 1
    assert np.abs(sigma_a - dyad(two)).max() <= 1e-12
    assert np.abs(sigma_b - dyad(two)).max() <= 1e-12


def test_marginals_have_unit_trace():
    rng = np.random.default_rng(0)
    for name in ("thm1-isometry", "thm2-isometry", "cor4-isometry"):
        iso = gallery(name)
        for _ in range(5):
            sigma_a, sigma_b = output_marginals(iso, random_ket(rng, iso.input_dim))
            assert np.trace(sigma_a).real == pytest.approx(1.0, abs=1e-12)
            assert np.trace(sigma_b).real == pytest.approx(1.0, abs=1e-12)


def test_gallery_isometries_preserve_norm():
    rng = np.random.default_rng(1)
    for name in ("thm1-isometry", "thm2-isometry", "cor4-isometry", "qq-equivalence-unitary"):
        iso = gallery(name)
        for _ in range(10):
            v = random_ket(rng, iso.input_dim)
            assert abs(np.linalg.norm(iso.apply(v)) - 1.0) <= 1e-12


def test_orthogonality_broadcast_verifier():
    report = verify_orthogonality_broadcast(gallery("thm1-isometry"), gallery("thm1-pairs"))
    assert report.ok and report.max_overlap <= 1e-12
    reduced = induced_postinfo(gallery("thm2-eight"), classical_side="a")
    report = verify_orthogonality_broadcast(gallery("thm2-isometry"), reduced)
    assert report.ok and report.max_overlap <= 1e-12


def test_trivial_second_output_cannot_broadcast():
    # keeping everything on one side leaves the other with scalars
    identity = Isometry(matrix=np.eye(2, dtype=complex), output_dims=(2, 1))
    report = verify_orthogonality_broadcast(identity, gallery("bb84"))
    assert not report.ok
    assert report.max_overlap == pytest.approx(1.0, abs=1e-12)


def test_classical_broadcast_povm_partition():
    report = verify_classical_broadcast_povm(gallery("prop1-povm"), gallery("minimal-qutrit"))
    assert report.ok
    assert report.outcome_table[0, 0] == (0, 1)
    assert report.outcome_table[0, 1] == (2, 3)
    assert report.outcome_table[1, 0] == (0, 2)
    assert report.outcome_table[1, 1] == (1, 3)


def test_computational_povm_fails_on_conjugate_bases():
    comp = Povm(effects=(dyad(ket([1, 0])), dyad(ket([0, 1]))))
    report = verify_classical_broadcast_povm(comp, gallery("bb84"))
    assert not report.ok
    assert report.max_violation == pytest.approx(0.5, abs=1e-12)


def test_trivial_povm_fails():
    trivial = Povm(effects=(np.eye(2, dtype=complex),))
    assert not verify_classical_broadcast_povm(trivial, gallery("bb84")).ok


def test_kill_pattern_certificates():
    cert = kill_pattern_certificate(gallery("thm1-pairs"))
    assert cert.certified_infeasible
    assert len(cert.kernel_dims) == 8 and set(cert.kernel_dims.values()) == {0}

    cert = kill_pattern_certificate(gallery("bb84"))
    assert cert.certified_infeasible and len(cert.kernel_dims) == 4

    cert = kill_pattern_certificate(gallery("minimal-qutrit"))
    assert not cert.certified_infeasible
    assert all(v == 1 for v in cert.kernel_dims.values())


def test_kill_pattern_certificate_works_inside_a_subspace():
    induced = induced_postinfo(gallery("cor4-six"), classical_side="a")
    assert induced.dim == 4  # states span only a three-dimensional subspace
    assert kill_pattern_certificate(induced).certified_infeasible


def test_feasibility_decision():
    decision = perfect_classical_broadcast_decision(gallery("minimal-qutrit"))
    assert decision.feasible
    assert decision.value == pytest.approx(1.0, abs=1e-7)
    assert decision.witness_violation <= 1e-6

    decision = perfect_classical_broadcast_decision(gallery("thm1-pairs"))
    assert not decision.feasible
    assert decision.certificate.certified_infeasible
    assert decision.value < 1 - 1e-3


def test_single_basis_is_feasible():
    basis = np.eye(3, dtype=complex)
    ens = PostInfoEnsemble(
        settings=("0",),
        states=((basis[0], basis[1], basis[2]),),
        prior=((1 / 3, 1 / 3, 1 / 3),),
        orthogonal=True,
    )
    decision = perfect_classical_broadcast_decision(ens)
    assert decision.feasible and decision.witness_violation is not None


def test_certificate_implies_decision_agrees():
    for name in ("thm1-pairs", "bb84"):
        ens = gallery(name)
        if kill_pattern_certificate(ens).certified_infeasible:
            assert not perfect_classical_broadcast_decision(ens).feasible


def test_broadcast_outputs_shape_matches_ensemble():
    outputs = broadcast_outputs(gallery("thm1-isometry"), gallery("thm1-pairs"))
    assert len(outputs) == 3 and all(len(group) == 2 for group in outputs)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        broadcast_outputs(gallery("thm1-isometry"), gallery("bb84"))


def test_a_kill_pattern_proof_wins_over_a_window_that_reaches_one(monkeypatch):
    feasible = perfect_classical_broadcast_decision(gallery("minimal-qutrit"))
    monkeypatch.setattr(broadcast, "kill_pattern_certificate", lambda ens: KillPatternCertificate(True, {}))
    decision = perfect_classical_broadcast_decision(gallery("minimal-qutrit"))
    assert decision.reaches_one and not decision.feasible
    assert (decision.value, decision.gap) == (feasible.value, feasible.gap)
    assert decision.witness_violation is None


def test_a_witness_that_confuses_states_is_inconsistent(monkeypatch):
    verify = broadcast.verify_classical_broadcast_povm

    def confusing(povm, ensemble):
        return dataclasses.replace(verify(povm, ensemble), max_violation=1e-3)

    monkeypatch.setattr(broadcast, "verify_classical_broadcast_povm", confusing)
    with pytest.raises(InternalInconsistency, match="violates the classical-broadcast condition by 1.000e-03"):
        perfect_classical_broadcast_decision(gallery("minimal-qutrit"))


_UNFLAGGED_QUTRIT = PostInfoEnsemble(
    settings=("0",), states=((np.eye(3)[0], np.eye(3)[1]),), prior=((0.5, 0.5),)
)


@pytest.mark.parametrize(
    "check, message",
    [
        (
            lambda: verify_orthogonality_broadcast(gallery("thm1-isometry"), _UNFLAGGED_QUTRIT),
            "ensemble must carry the orthogonality flag",
        ),
        (lambda: kill_pattern_certificate(_UNFLAGGED_QUTRIT), "ensemble must carry the orthogonality flag"),
        (lambda: verify_classical_broadcast_povm(gallery("prop1-povm"), gallery("bb84")), "POVM dim 3 != ensemble dim 2"),
    ],
)
def test_input_checks_name_what_is_wrong(check, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check()
