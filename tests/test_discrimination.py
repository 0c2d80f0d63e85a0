import collections
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from obcast import discrimination, oracles, reporting, reproduce
from obcast.discrimination import (
    DEFAULT_SETTINGS,
    DiscriminationResult,
    DualCertificate,
    EffectTarget,
    SolverSettings,
    _barrier_solve,
    helstrom_binary,
    merged_row_targets,
    min_error_discrimination,
    p_postinfo,
    solve_stream,
)
from obcast.ensembles import (
    GopEnsemble,
    PostInfoEnsemble,
    Povm,
    from_json_dict,
    gallery,
    gallery_names,
    gen_bb84,
    induced_postinfo,
)
from obcast.errors import ChunkFailure, InternalInconsistency, SolverFailure
from obcast.linalg import dagger, dyad, ket, rounding_floor
from obcast.oracles import _ORACLE_SETTINGS, AssignmentSearch
from obcast.qpv import cq_strategy_value
from obcast.reproduce import run_reproduce
from obcast.sampling import density_from_normals, random_orthonormal_pair, unitary_from_normals

SQ2 = math.sqrt(2)
BB84_VALUE = (2 + SQ2) / 4
TIGHT = SolverSettings(gap_tol=1e-9)
SIX_BASES = Path(__file__).parent / "data" / "qubit-six-bases.json"  # 64 answer rows on a qubit
# trial 1554 of the seed-42 brute-force draws: four rows on a qubit whose fixed-point map converges slowly
SLOW_FIXED_POINT = Path(__file__).parent / "data" / "qubit-slow-fixed-point.json"


def swap_sides(g):
    return GopEnsemble(a_states=g.b_states, b_states=g.a_states, prior=g.prior)


def stacked(targets):
    """The operators of same-shape targets as one (B, n, d, d) stream."""
    return np.stack([t.operators for t in targets])


def streamed(targets, settings=DEFAULT_SETTINGS):
    """What ``solve_stream`` yields for each of ``targets``, in input order: (primal, dual, POVM, gap, iterations) or a ``SolverFailure``."""
    results = dict(solve_stream(stacked(targets), settings))
    return [results[i] for i in range(len(targets))]


def member(result):
    """A result object as the stream yields its member: (primal, dual, POVM, gap, iterations)."""
    certificate = result.certificate
    return result.value, certificate.matrix, result.povm.effects, certificate.gap, result.iterations


def assert_same_member(mine, alone):
    """The stream member ``mine`` is the member ``alone`` bit for bit, with a positive iteration count."""
    (primal, y, p, gap, iterations), (primal_alone, y_alone, p_alone, gap_alone, iterations_alone) = mine, alone
    assert primal == primal_alone
    assert gap == gap_alone
    assert y.tobytes() == y_alone.tobytes()
    assert p.tobytes() == p_alone.tobytes()
    assert iterations == iterations_alone > 0


def assert_same_failure(mine, alone, iterations):
    """The ``SolverFailure`` ``mine`` is ``alone`` bit for bit, after ``iterations`` iterations."""
    assert isinstance(mine, SolverFailure) and isinstance(alone, SolverFailure)
    assert str(mine) == str(alone)
    assert mine.primal == alone.primal
    assert mine.gap == alone.gap
    assert mine.dual.tobytes() == alone.dual.tobytes()
    assert [e.tobytes() for e in mine.povm] == [e.tobytes() for e in alone.povm]
    assert mine.iterations == alone.iterations == iterations


def test_helstrom_examples():
    k0, k1 = ket([1, 0]), ket([0, 1])
    kp = (k0 + k1) / SQ2
    assert helstrom_binary(dyad(k0), dyad(k1)) == pytest.approx(1.0)
    assert helstrom_binary(dyad(k0), dyad(kp)) == pytest.approx(0.5 * (1 + 1 / SQ2), abs=1e-12)
    rho = density_from_normals(np.random.default_rng(0).normal(size=(2, 3, 3)))
    assert helstrom_binary(rho, rho) == pytest.approx(0.5)


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
    rng = np.random.default_rng(1)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        rho, sigma = density_from_normals(rng.normal(size=(2, 2, d, d)))
        p = float(rng.uniform(0.1, 0.9))
        target = EffectTarget(operators=(p * rho, (1 - p) * sigma))
        result = min_error_discrimination(target, TIGHT)
        # the Helstrom closed form is the true optimum, so it sits inside the
        # window [value, value + gap] that the certificate pins down
        exact = 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(p * rho - (1 - p) * sigma)).sum())
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
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(n))
        ops = tuple(w * density_from_normals(rng.normal(size=(2, d, d))) for w in weights)
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
    ens = gallery("bb84")
    result = p_postinfo(ens)
    assert len(result.assignment) == len(result.povm)
    assert result.assignment == merged_row_targets(ens).labels
    for row in result.assignment:  # one guessed index per setting, within that setting's index set
        assert len(row) == len(ens.index_sets)
        assert all(0 <= guess < count for guess, count in zip(row, ens.index_sets))


def test_delegating_measures():
    # the classical-broadcast value, and for two settings the broadcast value, is p_postinfo's
    assert p_postinfo(gallery("bb84")).value == pytest.approx(BB84_VALUE, abs=1e-6)
    assert p_postinfo(gallery("thm1-pairs")).value < 1


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
    gop = swap_sides(gen_bb84(math.pi / 2))
    ens = induced_postinfo(gop, classical_side="b")
    assert p_postinfo(ens).value == pytest.approx(BB84_VALUE, abs=1e-6)
    assert ens.index_sets == (2, 2)


def test_losscc_perfect_for_orthonormal_products():
    basis = np.eye(2, dtype=complex)
    gop = GopEnsemble(
        a_states=(basis[0], basis[0], basis[1], basis[1]),
        b_states=(basis[0], basis[1], basis[0], basis[1]),
        prior=(0.25,) * 4,
    )
    assert p_postinfo(induced_postinfo(gop, classical_side="b")).value == pytest.approx(1.0, abs=1e-7)


def test_losscc_rejects_quantum_second_factor():
    with pytest.raises(ValueError):
        p_postinfo(induced_postinfo(gen_bb84(math.pi / 2), classical_side="b"))


def test_losscc_optimum_dominates_explicit_strategy():
    # the exact classical-communication optimum can only beat the table
    # strategy; the solver's primal sits within its certified gap of it
    result = p_postinfo(induced_postinfo(swap_sides(gallery("cq")), classical_side="b"), TIGHT)
    certified_upper = result.value + result.certificate.gap
    assert certified_upper >= cq_strategy_value() - 1e-9


def test_coarse_graining_cannot_increase_the_value():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pair0 = random_orthonormal_pair(rng)
        pair1 = random_orthonormal_pair(rng)
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
    rng = np.random.default_rng(4)
    pair0 = random_orthonormal_pair(rng)
    pair1 = random_orthonormal_pair(rng)
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


GOOD_OPERATORS = (np.diag([0.5, 0.25]), np.array([[0.3, 0.1j], [-0.1j, 0.2]]), 0.1 * np.eye(2))
# each bad operator with the message it got when every operator was validated on its own
BAD_OPERATORS = {
    "non-finite": (np.diag([np.nan, 1.0]), "matrix has non-finite entries"),
    "non-Hermitian": (np.array([[1.0, 1e-3], [0.0, 1.0]]), "matrix is not Hermitian (residual 1.000e-03 > 1.0e-10)"),
    "negative": (np.diag([1.0, -0.5]), "target has negative eigenvalue -5.000e-01"),
    "mixed shapes": (np.eye(3), "targets must share a dimension"),
    "non-square": (np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
}


@pytest.mark.parametrize("index", [0, 2])
@pytest.mark.parametrize("kind", sorted(BAD_OPERATORS))
def test_a_bad_target_operator_is_named_as_it_was_alone(kind, index):
    bad, message = BAD_OPERATORS[kind]
    with pytest.raises(ValueError) as rejected:
        EffectTarget(operators=GOOD_OPERATORS[:index] + (bad,) + GOOD_OPERATORS[index:])
    assert str(rejected.value) == message


def test_target_checks_keep_their_order_and_each_operators_floor():
    # every operator is checked for Hermiticity before any for its eigenvalues
    negative, asymmetric = BAD_OPERATORS["negative"][0], BAD_OPERATORS["non-Hermitian"]
    with pytest.raises(ValueError) as rejected:
        EffectTarget(operators=(negative, asymmetric[0]))
    assert str(rejected.value) == asymmetric[1]
    # the asymmetry allowed is psd_tol or the rounding at each operator's own scale
    skew = np.array([[0.0, 1e-9], [0.0, 0.0]])
    large = EffectTarget(operators=(1e6 * np.eye(2) + skew, np.eye(2)))
    assert large.operators[0][0, 1] == 5e-10
    with pytest.raises(ValueError) as rejected:
        EffectTarget(operators=(1e6 * np.eye(2), np.eye(2) + skew))
    assert str(rejected.value) == "matrix is not Hermitian (residual 1.000e-09 > 1.0e-10)"


def test_array_labels_equal_the_tuple_labels():
    by_tuple = EffectTarget(operators=GOOD_OPERATORS, labels=("x", "y", "z"))
    by_array = EffectTarget(operators=GOOD_OPERATORS, labels=np.array(["x", "y", "z"]))
    assert by_array.labels == by_tuple.labels
    assert EffectTarget(operators=GOOD_OPERATORS, labels=np.array([], dtype=int)).labels == (0, 1, 2)
    with pytest.raises(ValueError, match="labels must match targets"):
        EffectTarget(operators=GOOD_OPERATORS, labels=np.array([0, 1]))


def gallery_views():
    """Every post-information ensemble of the gallery, and every classical-side view of a product set."""
    for name in gallery_names():
        obj = gallery(name.replace("<theta>", "0.3"))
        if isinstance(obj, PostInfoEnsemble):
            yield obj
        elif isinstance(obj, GopEnsemble):
            for side in ("a", "b"):
                try:
                    yield induced_postinfo(obj, classical_side=side)
                except ValueError:
                    continue


def reference_row_operators(ens):
    """The bytes of each row's operator, summed one row and one setting at a time, then symmetrized alone."""
    out = []
    for row in itertools.product(*[range(c) for c in ens.index_sets]):
        acc = np.zeros((ens.dim, ens.dim), dtype=complex)
        for t, i in enumerate(row):
            acc += ens.prior[t][i] * dyad(ens.states[t][i])
        out.append(((acc + acc.conj().T) / 2).tobytes())
    return out


class Built(Exception):
    """Stops the brute-force case once its row targets are built."""


def test_row_targets_keep_their_bytes(monkeypatch, one_chunk):
    seed42 = []

    def record(ens, **kwargs):
        seed42.append(ens)
        return merged_row_targets(ens, **kwargs)

    def stop(targets):
        raise Built

    monkeypatch.setattr(reproduce, "merged_row_targets", record)
    monkeypatch.setattr(reproduce, "AssignmentSearch", stop)
    with pytest.raises(Built):
        run_reproduce(seed=42, only="prop-postinfo-bruteforce")
    ensembles = list(gallery_views()) + seed42
    assert len(ensembles) == 8 + 50
    digest = hashlib.sha256()
    for ens in ensembles:
        target = merged_row_targets(ens)
        assert [op.tobytes() for op in target.operators] == reference_row_operators(ens)
        digest.update(repr(target.labels).encode())
        for op in target.operators:
            digest.update(op.tobytes())
    assert digest.hexdigest() == "597d488acf0df3ee08598174aba4f08b7179fd000e8a58ca9014e30e98a08ec0"


def mixed_stack():
    """Four-outcome qubit targets: oracle-style rows with duplicates, and random densities."""
    rng = np.random.default_rng(5)
    ens = PostInfoEnsemble(
        settings=("0", "1"),
        states=(random_orthonormal_pair(rng), random_orthonormal_pair(rng)),
        prior=((0.1, 0.2), (0.3, 0.4)),
        orthogonal=True,
    )
    rows = np.array(merged_row_targets(ens).operators)
    targets = [EffectTarget(operators=tuple(rows[list(k)])) for k in ((0, 1, 2, 3), (0, 0, 1, 3), (2, 2, 2, 2), (1, 1, 3, 3))]
    for _ in range(4):
        w = rng.dirichlet(np.ones(4))
        targets.append(EffectTarget(operators=tuple(x * density_from_normals(rng.normal(size=(2, 2, 2))) for x in w)))
    return targets


def test_stacked_members_match_their_lone_solves_bit_for_bit():
    targets = mixed_stack()
    for st in (DEFAULT_SETTINGS, _ORACLE_SETTINGS):
        members = streamed(targets, st)
        assert len({iterations for *_, iterations in members}) > 1  # members leave at different checks
        for target, mine in zip(targets, members):
            assert_same_member(mine, member(min_error_discrimination(target, st)))


def test_stacked_certificates_validate_under_the_settings_in_force():
    targets = mixed_stack()
    for st in (DEFAULT_SETTINGS, TIGHT, _ORACLE_SETTINGS):
        for target, (primal, y, p, gap, _) in zip(targets, streamed(targets, st)):
            DualCertificate(y, primal, gap).validate(target, Povm(effects=tuple(p)), gap_tol=st.gap_tol)
    # a certificate earned under a looser tolerance fails the default one
    loose = min_error_discrimination(targets[0], SolverSettings(gap_tol=1e-4))
    assert 1e-7 < loose.certificate.gap <= 1e-4
    loose.certificate.validate(targets[0], gap_tol=1e-4)
    with pytest.raises(ValueError):
        loose.certificate.validate(targets[0])


def test_a_failing_member_yields_the_failure_it_yields_alone():
    targets = mixed_stack()
    st = SolverSettings(max_iterations=3)
    # the (2, 2, 2, 2) member certifies at the first check; the others cannot, and the stream carries on past each
    mine = streamed(targets[1:], st)
    assert sum(isinstance(out, SolverFailure) for out in mine) == len(mine) - 1
    for target, out in zip(targets[1:], mine):
        [alone] = streamed([target], st)
        if isinstance(alone, SolverFailure):
            assert_same_failure(out, alone, 3)
        else:
            assert_same_member(out, alone)


def test_a_stream_failure_carries_its_best_iterate_as_one_array():
    target = mixed_stack()[1]
    # the first member runs out at its third iteration; the second iterates on after it has left
    stream = solve_stream(stacked([target, target]), [SolverSettings(max_iterations=3), SolverSettings(max_iterations=40)])
    index, failure = next(stream)
    assert index == 0 and isinstance(failure, SolverFailure)
    povm, left = failure.povm, failure.povm.tobytes()
    assert isinstance(povm, np.ndarray) and povm.shape == target.operators.shape
    assert np.allclose(povm.sum(axis=0), np.eye(target.dim))
    assert [i for i, _ in stream] == [1]
    assert povm.tobytes() == left


def test_an_empty_stream_yields_nothing():
    m = stacked(mixed_stack())[:0]
    assert list(solve_stream(m, DEFAULT_SETTINGS)) == []
    assert list(solve_stream(m, [])) == []


def test_a_failing_member_behind_members_that_certify_yields_the_failure_it_yields_alone():
    targets = mixed_stack()
    st = SolverSettings(max_iterations=3)
    [alone] = streamed([targets[1]], st)
    # the (2, 2, 2, 2) members certify at their first check; the last runs out at its third iteration
    out = list(solve_stream(stacked([targets[2], targets[2], targets[2], targets[1]]), st))
    assert [i for i, _ in out] == [0, 1, 2, 3]
    assert [iterations for _, (*_, iterations) in out[:3]] == [1, 1, 1]
    assert_same_failure(out[3][1], alone, 3)
    # a yielded failure is no member: unpacking it as one fails
    with pytest.raises(TypeError):
        primal, y, p, gap, iterations = out[3][1]


def test_members_at_mixed_settings_match_their_lone_solves_bit_for_bit():
    targets = mixed_stack()
    settings = [(DEFAULT_SETTINGS, _ORACLE_SETTINGS, TIGHT)[i % 3] for i in range(len(targets))]
    lone = [min_error_discrimination(t, st) for t, st in zip(targets, settings)]
    mine = [None] * len(targets)
    for i, result in solve_stream(stacked(targets), settings):
        assert mine[i] is None
        mine[i] = result
    for st, result, own in zip(settings, mine, lone):
        assert_same_member(result, member(own))
        assert result[3] <= st.gap_tol
    # a member checked at local step k has run k + 1 iterations: every 5 steps for the undamped members, else 10
    iterations = [result[4] for result in mine]
    assert {k % 10 for k, st in zip(iterations, settings) if st is _ORACLE_SETTINGS} == {1, 6}
    assert all(k % 10 == 1 for k, st in zip(iterations, settings) if st is not _ORACLE_SETTINGS)


def test_a_stream_started_from_given_iterates_leaves_them_as_it_found_them():
    targets = mixed_stack()
    m = stacked(targets)
    given = discrimination._pretty_good(m)
    start = given.copy()
    results = dict(solve_stream(m, DEFAULT_SETTINGS, given))
    assert given.tobytes() == start.tobytes()
    # from the pretty-good measurement, the stream is the default one bit for bit
    for i, alone in enumerate(streamed(targets)):
        assert_same_member(results[i], alone)


def test_the_stream_screens_only_at_steps_where_some_member_is_due(monkeypatch):
    # check intervals 10 and 5: the stream stops every 5 steps, and once the last interval-5
    # member has left, the odd multiples of 5 find no member due
    targets = mixed_stack()
    settings = [(DEFAULT_SETTINGS, _ORACLE_SETTINGS)[i % 2] for i in range(len(targets))]
    lone = [member(min_error_discrimination(t, st)) for t, st in zip(targets, settings)]
    sizes = []
    screened = discrimination._screened_gaps

    def counted(m, p):
        sizes.append(len(m))
        return screened(m, p)

    monkeypatch.setattr(discrimination, "_screened_gaps", counted)
    results = dict(solve_stream(stacked(targets), settings))
    for i, alone in enumerate(lone):
        assert_same_member(results[i], alone)
    # every member enters at step 0 and is due at each multiple of its interval until it leaves
    last = [alone[4] - 1 for alone in lone]
    due = [sum(s % st.check_interval == 0 and s <= k for st, k in zip(settings, last)) for s in range(0, max(last) + 1, 5)]
    assert due.count(0) == 2
    assert sizes == [n for n in due if n]
    assert len(sizes) == 13


def test_members_that_run_out_yield_the_failures_they_yield_alone():
    targets = mixed_stack()
    # neither certifies within its cap; the second in input order runs out first, the first after it
    settings = [SolverSettings(max_iterations=40), dataclasses.replace(_ORACLE_SETTINGS, max_iterations=12)]
    out = list(solve_stream(stacked(targets[:2]), settings))
    assert [i for i, _ in out] == [1, 0]
    for i, failure in out:
        [alone] = streamed([targets[i]], settings[i])
        assert_same_failure(failure, alone, settings[i].max_iterations)
    with pytest.raises(ValueError, match="1 settings for 2 targets"):
        list(solve_stream(stacked(targets[:2]), settings[:1]))


def slow_fixed_point_target() -> EffectTarget:
    target = merged_row_targets(from_json_dict(json.loads(SLOW_FIXED_POINT.read_text())))
    assert len(target.operators) == target.dim**2 == 4  # a stream of one comes first
    return target


@pytest.mark.parametrize("cap", [100, 1000])
def test_a_small_target_whose_stream_runs_out_is_finished_by_the_barrier(barrier_rounds, cap):
    target = slow_fixed_point_target()
    st = SolverSettings(max_iterations=cap)
    [stream] = streamed([target], st)
    assert isinstance(stream, SolverFailure) and stream.iterations == cap
    result = min_error_discrimination(target, st)
    assert barrier_rounds == [(1, 4)]
    [(primal, y, p, gap, steps)] = discrimination._working_set_solve(target.operators[None], [st])
    assert_same_member(member(result), (primal, y, p, gap, stream.iterations + steps))
    assert (result.value, gap, steps) == (0.9956300372336087, 2.1018260909499986e-08, 12)
    result.certificate.validate(target, result.povm)


def test_a_small_target_uncertified_after_the_stream_budget_is_finished_by_the_barrier(barrier_rounds):
    target = slow_fixed_point_target()
    result = min_error_discrimination(target)
    assert barrier_rounds == [(1, 4)]
    # the map alone ends at a gap of 4.7e-7 after 100,000 iterations; the barrier takes 12 Newton steps
    assert result.iterations == discrimination.STREAM_BUDGET + 12
    assert (result.value, result.certificate.gap) == (0.9956300372336087, 2.1018260909499986e-08)
    result.certificate.validate(target, result.povm)


@pytest.mark.parametrize("cap, better", [(3, "stream"), (5, "barrier")])
def test_a_small_target_that_neither_route_certifies_raises_the_better_failure(cap, better):
    target = slow_fixed_point_target()
    st = SolverSettings(max_iterations=cap)
    [stream] = streamed([target], st)
    alone = {"stream": stream}
    [alone["barrier"]] = discrimination._working_set_solve(target.operators[None], [st])
    assert isinstance(alone["barrier"], SolverFailure)
    assert min(alone, key=lambda route: alone[route].gap) == better
    with pytest.raises(SolverFailure) as failure:
        min_error_discrimination(target, st)
    assert_same_failure(failure.value, alone[better], cap)


def test_the_bruteforce_case_is_one_stream_with_one_exact_certificate_per_member(counted_bruteforce_run, monkeypatch):
    report, counts, _ = counted_bruteforce_run
    assert report.computed == 8.822147157250271e-08
    # the search's bound keeps 602 of the 1,750 assignment problems
    search = AssignmentSearch(bruteforce_row_targets(monkeypatch, seed=42))
    assert (search.kept.size, len(search.problems)) == (1750, 602)
    # 50 row-merged and 602 assignment solves, each with the iterations it takes alone: the stream's 1,000 steps of
    # STREAM_BUDGET, then the pretty-good measurements of the one stacked barrier solve of the 18 it hands over
    # (1,131 steps when each was finished alone, 9,262 with no budget); 171 of the 602 leave at a stream check whose
    # screen proves them below their target's value, uncertified (82,290 member-steps and 652 certificates when the
    # rule ran only before the stream).  The 481 exact certificates are one stacked call per check that makes any,
    # and one for the 18 failures (481 calls when each was made alone)
    assert counts == {"steps": 1024, "member_steps": 74875, "certify_calls": 90, "certified": 481}


def test_a_lone_and_a_streamed_solve_follow_one_budget_rule(barrier_rounds):
    slow = slow_fixed_point_target()
    rotated = [merged_row_targets(induced_postinfo(gallery(f"gen-bb84({theta})"), "a")) for theta in ("pi/3", "pi/5")]
    targets = [merged_row_targets(gallery("bb84")), rotated[0], slow, rotated[1]]
    settings = [DEFAULT_SETTINGS, TIGHT, DEFAULT_SETTINGS, _ORACLE_SETTINGS]
    finished = dict(discrimination.finished_stream(stacked(targets), settings))
    assert sorted(finished) == list(range(len(targets)))
    for i, target in enumerate(targets):
        assert_same_member(finished[i], member(min_error_discrimination(target, settings[i])))
    # the slow target runs out of the stream's budget alongside the others and the barrier finishes it, as alone
    assert finished[2][4] == discrimination.STREAM_BUDGET + 12
    assert barrier_rounds == [(1, 4), (1, 4)]


def dropping(indices, at=1):
    """A stream rule that drops each of the members ``indices`` at its ``at``-th offer, and the offers it got."""
    offers, seen = [], collections.Counter()

    def keep(i, primal, upper):
        offers.append((i.copy(), primal.copy(), upper.copy()))
        seen.update(i.tolist())
        return np.array([not (j in indices and seen[j] == at) for j in i.tolist()], dtype=bool)

    return keep, offers


def test_a_stream_rule_drops_members_unyielded_and_leaves_the_others_their_lone_bits():
    targets = mixed_stack()
    keep, offers = dropping({1, 4})
    out = list(solve_stream(stacked(targets), _ORACLE_SETTINGS, keep=keep))
    assert sorted(i for i, _ in out) == [0, 2, 3, 5, 6, 7]
    for i, mine in out:
        assert_same_member(mine, streamed([targets[i]], _ORACLE_SETTINGS)[0])
    # every member is due at step 0, where the two leave; none is offered again, and no upper bound is below its primal
    assert offers[0][0].tolist() == list(range(len(targets)))
    assert not any(np.isin(i, (1, 4)).any() for i, _, _ in offers[1:])
    assert all((upper >= primal).all() for _, primal, upper in offers)


def test_a_stream_rule_that_drops_nothing_changes_no_yield():
    m, settings = stacked(mixed_stack()), [DEFAULT_SETTINGS, _ORACLE_SETTINGS] * 4
    plain = list(solve_stream(m, settings))
    ruled = list(solve_stream(m, settings, keep=lambda i, primal, upper: np.ones(len(i), dtype=bool)))
    assert [i for i, _ in ruled] == [i for i, _ in plain]
    for (_, mine), (_, theirs) in zip(ruled, plain):
        assert_same_member(mine, theirs)


def test_a_member_the_rule_drops_at_its_last_check_never_reaches_the_barrier(barrier_rounds, monkeypatch):
    slow = slow_fixed_point_target()
    targets = [merged_row_targets(gallery("bb84")), slow, mixed_stack()[0]]
    finished_members = []
    finish = discrimination.finish_member

    def recorded(out, barrier):
        finished_members.append(out)
        return finish(out, barrier)

    monkeypatch.setattr(discrimination, "finish_member", recorded)
    # the slow target is due every 10 iterations and at its last budgeted one, which it would leave for the barrier
    checks = len(set(range(0, discrimination.STREAM_BUDGET, 10)) | {discrimination.STREAM_BUDGET - 1})
    keep, offers = dropping({1}, at=checks)
    finished = dict(discrimination.finished_stream(stacked(targets), [DEFAULT_SETTINGS] * 3, keep))
    assert sorted(finished) == [0, 2]
    assert sum(np.count_nonzero(i == 1) for i, _, _ in offers) == checks
    assert finished_members == [] and barrier_rounds == []
    for i in (0, 2):
        assert_same_member(finished[i], member(min_error_discrimination(targets[i])))


def test_the_bruteforce_case_offers_its_rule_only_assignment_problems(monkeypatch, one_chunk):
    offered, dropped = [], []
    rule = AssignmentSearch.keep

    def recorded(search, k, primal, upper):
        kept = rule(search, k, primal, upper)
        offered.append(k.copy())
        dropped.extend(k[~kept].tolist())
        return kept

    monkeypatch.setattr(AssignmentSearch, "keep", recorded)
    [report] = run_reproduce(seed=42, only="prop-postinfo-bruteforce")
    assert report.passed and report.computed == 8.822147157250271e-08
    # problem indices of the 602 kept before the stream: no row-merged target reaches the rule
    offered = np.concatenate(offered)
    assert offered.min() == 0 and offered.max() == 601
    assert len(dropped) == len(set(dropped)) == 171


def test_screened_gaps_agree_with_the_exact_certificate_within_a_rounding_floor(monkeypatch, one_chunk):
    # the prefilter margin of 1e-12 and the search's margin of _MARGIN_FLOORS floors rest on this agreement
    worst, checks = [0.0, 0.0], [0]
    screened = discrimination._screened_gaps

    def compared(m, p):
        primal, gaps = screened(m, p)
        for k in range(len(m)):
            [(exact, y, gap)] = discrimination._certify(m[k : k + 1], p[k : k + 1])
            floor = rounding_floor(0.0, m.shape[-1] * np.trace(y).real)  # the search's margin is 4 of these
            worst[0] = max(worst[0], abs(primal[k] - exact) / floor)
            worst[1] = max(worst[1], abs(max(gaps[k], 0.0) - gap) / floor)
        checks[0] += len(m)
        return primal, gaps

    monkeypatch.setattr(discrimination, "_screened_gaps", compared)
    # every check of the seed-42 case's stream, its row-merged targets and its kept problems alike
    [report] = run_reproduce(seed=42, only="prop-postinfo-bruteforce")
    assert report.computed == 8.822147157250271e-08
    assert checks[0] == 13_510
    # measured: at most 0.033 floors, 8.9e-16 at these scales
    assert max(worst) <= 1.0


def test_the_bruteforce_case_builds_a_povm_only_for_the_results_it_validates(counted_bruteforce_run):
    # the 50 row-merged results; the 1,750 assignment results are folded as arrays
    assert counted_bruteforce_run[2] == 50


def recorded_barrier(monkeypatch, calls=None):
    """(settings, gap) of every member that a ``_working_set_solve`` certifies, in call order; ``calls`` gets each call's member count."""
    finished = []
    solve = discrimination._working_set_solve

    def recorded(m, settings):
        out = solve(m, settings)
        finished.extend((st, result[3]) for st, result in zip(settings, out) if not isinstance(result, SolverFailure))
        if calls is not None:
            calls.append(len(m))
        return out

    monkeypatch.setattr(discrimination, "_working_set_solve", recorded)
    return finished


def test_bruteforce_members_that_run_out_are_finished_by_the_barrier(monkeypatch, barrier_rounds, one_chunk):
    calls, yields = [], []
    finished = recorded_barrier(monkeypatch, calls)
    stream = reproduce.finished_stream

    def recorded_stream(*args):
        for i, out in stream(*args):
            yields.append(i)
            yield i, out

    monkeypatch.setattr(reproduce, "finished_stream", recorded_stream)
    [report] = run_reproduce(seed=42, only="prop-postinfo-bruteforce")
    # 6 of the 50 row-merged targets and 12 of the 602 kept problems are uncertified after STREAM_BUDGET iterations;
    # all run out at the same check, so they are one run of failures, finished as one stack of 4-row members in one
    # barrier call, each at its own full settings, and yielded last, in stream order, as one at a time yielded them
    assert calls == [18] and barrier_rounds == [(18, 4)]
    assert [settings for settings, _ in finished] == [DEFAULT_SETTINGS] * 6 + [_ORACLE_SETTINGS] * 12
    assert all(gap <= settings.gap_tol for settings, gap in finished)
    assert len(yields) == 481
    assert yields[-18:] == [0, 5, 13, 28, 35, 43, 53, 57, 59, 60, 115, 117, 119, 120, 379, 383, 385, 386]
    assert report.passed and report.computed == 8.822147157250271e-08


def test_an_assignment_problem_that_runs_out_is_folded_with_a_barrier_certificate(monkeypatch, one_chunk):
    finished = recorded_barrier(monkeypatch)
    folded = []
    fold = AssignmentSearch.fold

    def recorded_fold(search, k, primal, gap):
        folded.append(gap)
        fold(search, k, primal, gap)

    monkeypatch.setattr(AssignmentSearch, "fold", recorded_fold)
    [report] = run_reproduce(seed=42, only="prop-postinfo-bruteforce")
    assert report.passed
    # 12 of the 602 kept problems need more than STREAM_BUDGET iterations; each is folded with the barrier's certificate.
    # The 171 that a stream check drops are never folded (602 folds when the rule ran only before the stream)
    assert len(folded) == 431
    gaps = [gap for settings, gap in finished if settings == _ORACLE_SETTINGS]
    assert len(gaps) == 12 and max(gaps) <= _ORACLE_SETTINGS.gap_tol
    assert all(folded.count(gap) >= gaps.count(gap) for gap in gaps)


@pytest.mark.parametrize("seed, computed", [(1, 5.594569008060546e-08), (7, 5.690133486613291e-08)])
def test_bruteforce_case_at_other_seeds_is_pinned(seed, computed):
    [report] = run_reproduce(seed=seed, only="prop-postinfo-bruteforce", trials=10)
    assert report.computed == computed
    assert report.passed


def test_solve_stream_yields_each_index_once():
    m = stacked(mixed_stack() * 2)
    indices = [i for i, _ in solve_stream(m, _ORACLE_SETTINGS)]
    assert sorted(indices) == list(range(len(m)))
    assert list(solve_stream(m[:0], _ORACLE_SETTINGS)) == list(solve_stream(m[:0], [])) == []


def searched_values_of(search):
    """The values of ``search`` once its problems have streamed through the solver, its rule asked at every check."""
    for k, (primal, _, _, gap, _) in solve_stream(search.problems, search.settings, keep=search.keep):
        search.fold(k, primal, gap)
    return search.values


def dropped_in_stream(search):
    """The problems of ``search`` that its stream checks drop, in the order they leave, recorded from here on."""
    dropped, rule = [], search.keep

    def keep(k, primal, upper):
        kept = rule(k, primal, upper)
        dropped.extend(k[~kept].tolist())
        return kept

    search.keep = keep
    return dropped


def searched_values(ensembles):
    """Each ensemble's post-information value by the exhaustive search alone, as one stream."""
    return searched_values_of(AssignmentSearch([merged_row_targets(ens) for ens in ensembles]))


def bruteforce_row_targets(monkeypatch, seed, trials=None):
    """The row targets of the brute-force case at ``seed``, built as the case builds them, in one chunk."""
    targets = []
    monkeypatch.setattr(reproduce, "_chunk_count", lambda: 1)

    def stop(row_targets):
        targets.extend(row_targets)
        raise Built

    monkeypatch.setattr(reproduce, "AssignmentSearch", stop)
    with pytest.raises(Built):
        run_reproduce(seed=seed, only="prop-postinfo-bruteforce", trials=trials)
    return targets


def every_multiset(row_targets):
    """(owner, problem) for every sorted multiset of each target's rows, in first-occurrence order."""
    out = []
    for e, target in enumerate(row_targets):
        # every assignment of a row to each of the d^2 outcomes, kept once per sorted multiset
        assignments = itertools.product(range(len(target.operators)), repeat=target.dim**2)
        out += [(e, np.array([target.operators[r] for r in k])) for k in dict.fromkeys(tuple(sorted(a)) for a in assignments)]
    return out


def test_assignment_search_keeps_each_sorted_multiset_of_rows_in_first_occurrence_order(monkeypatch):
    row_targets = bruteforce_row_targets(monkeypatch, seed=42)
    assert len(row_targets) == 50
    search = AssignmentSearch(row_targets)
    expected = every_multiset(row_targets)
    # kept and dropped together are every multiset; the kept ones are the enumeration's in-order subsequence
    assert search.kept.shape == (len(expected),) == (50 * 35,)
    kept = [expected[i] for i in np.flatnonzero(search.kept)]
    assert search.problems.shape == (len(kept), 4, 2, 2)
    assert search._owner.tolist() == [e for e, _ in kept]
    for mine, (_, theirs) in zip(search.problems, kept):
        assert mine.tobytes() == theirs.tobytes()


def whole_stack_search(row_targets):
    """``kept`` and ``problems`` of the assignment search's bound, taken on each target's whole stack at once."""
    kept, problems = [], []
    for target in row_targets:
        keys = list(itertools.combinations_with_replacement(range(len(target.operators)), target.dim**2))
        m = np.array(target.operators)[np.array(keys)]
        p = discrimination._pretty_good(m)
        primal, gap = discrimination._screened_gaps(m, discrimination._pretty_good(m @ p @ m))
        upper = primal + gap
        margin = oracles._MARGIN_FLOORS * rounding_floor(0.0, target.dim * upper)
        kept.append(upper + margin + _ORACLE_SETTINGS.gap_tol >= (primal - margin).max())
        problems.append(m[kept[-1]])
    return np.concatenate(kept), np.concatenate(problems)


def test_assignment_search_on_nine_qutrit_rows_builds_one_problem_per_multiset():
    target = merged_row_targets(random_postinfo(6, 3, 2))
    assert (len(target.operators), target.dim) == (9, 3)
    tracemalloc.start()
    try:
        search = AssignmentSearch([target])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # C(9 + 9 - 1, 9) multisets of 9 rows over 9 outcomes, not the 9^9 assignments
    assert search.kept.size == math.comb(17, 9) == 24_310
    assert len(search.problems) == search.kept.sum() == 9_960
    # windows of 113 problems: about 29 MB, where the whole stack of 24,310 and its temporaries took about 196 MB
    assert peak < 100e6


def test_the_bound_in_windows_has_the_bits_of_the_bound_on_the_whole_stack(monkeypatch):
    nine = [merged_row_targets(random_postinfo(6, 3, 2))]
    seed42 = bruteforce_row_targets(monkeypatch, seed=42)
    # one seed-42 target (35 problems of 4 rows) fits one window; at 8 operators it takes 18
    for targets, operators in ((nine, oracles.STACK_OPERATORS), (seed42, oracles.STACK_OPERATORS), (seed42, 8)):
        monkeypatch.setattr(oracles, "STACK_OPERATORS", operators)
        search = AssignmentSearch(targets)
        kept, problems = whole_stack_search(targets)
        assert search.kept.tobytes() == kept.tobytes()
        assert search.problems.shape == problems.shape and search.problems.tobytes() == problems.tobytes()


def sound_kept_counts(monkeypatch, gap_tol):
    """(kept, dropped in the stream) problems of the seed-1 and seed-7 ten-trial targets and of one qutrit target, at ``gap_tol``.

    Asserts on the way that the pruned search's values, with its rule asked
    at every stream check, equal the full enumeration's bit for bit, every
    problem solved at the search's settings, and that every problem dropped
    before or in the stream has a certified primal + gap strictly below its
    target's value.
    """
    monkeypatch.setattr(AssignmentSearch, "settings", dataclasses.replace(_ORACLE_SETTINGS, gap_tol=gap_tol))
    cases = [bruteforce_row_targets(monkeypatch, seed=seed, trials=10) for seed in (1, 7)]
    # a search holds targets of one dimension; one qutrit setting gives 3 rows and 55 multisets
    cases.append([merged_row_targets(random_postinfo(2, 3, 1))])
    counts = []
    for targets in cases:
        search = AssignmentSearch(targets)
        dropped = dropped_in_stream(search)
        everything = every_multiset(targets)
        results = dict(solve_stream(np.array([problem for _, problem in everything]), search.settings))
        full = [-math.inf] * len(targets)
        for k, (e, _) in enumerate(everything):
            primal, _, _, gap, _ = results[k]
            full[e] = max(full[e], primal + gap)
        assert searched_values_of(search) == full
        # a problem leaves the stream once; the stream's drops index the kept problems, mapped here to every multiset
        assert len(set(dropped)) == len(dropped)
        in_stream = np.flatnonzero(search.kept)[dropped]
        assert np.flatnonzero(~search.kept).size > 0
        for k in np.concatenate([np.flatnonzero(~search.kept), in_stream]):
            primal, _, _, gap, _ = results[k]
            assert primal + gap < full[everything[k][0]]
        counts.append((int(search.kept.sum()), len(dropped)))
    return counts


def test_assignment_search_drops_only_problems_that_cannot_reach_their_targets_value(monkeypatch):
    # kept before the stream, then dropped at its checks; the qutrit target's 28 all stay to the end
    assert sound_kept_counts(monkeypatch, _ORACLE_SETTINGS.gap_tol) == [(119, 37), (132, 53), (28, 0)]


def test_the_keep_rules_gap_tol_term_keeps_what_a_loose_gap_may_certify(monkeypatch):
    # a certified result may exceed its optimum by up to gap_tol, so a looser gap must keep more problems;
    # without the term the rule would keep the 119 and 132 of the default gap here; fewer leave at the stream's checks
    assert sound_kept_counts(monkeypatch, 1e-2) == [(141, 21), (140, 25), (28, 0)]


def test_assignment_search_rejects_no_targets_and_mixed_dimensions_before_any_bound(monkeypatch):
    def no_bound(m):
        raise AssertionError("bound run before the targets were checked")

    monkeypatch.setattr(oracles, "_bounds", no_bound)
    with pytest.raises(ValueError, match="at least one row target"):
        AssignmentSearch([])
    mixed = [merged_row_targets(gallery("bb84")), merged_row_targets(gallery("minimal-qutrit"))]
    assert [t.dim for t in mixed] == [2, 3]
    with pytest.raises(ValueError, match=r"one dimension, got dimensions \[2, 3\]"):
        AssignmentSearch(mixed)


def test_assignment_search_keeps_every_tied_problem_and_every_full_set(monkeypatch):
    rho = density_from_normals(np.random.default_rng(4).normal(size=(2, 2, 2))) / 4
    search = AssignmentSearch([EffectTarget(operators=(rho,) * 4)])
    assert search.kept.all() and search.kept.size == 35
    # the multiset of every row once is the row-merged problem, whose optimum no other multiset beats
    full = list(itertools.combinations_with_replacement(range(4), 4)).index((0, 1, 2, 3))
    kept = AssignmentSearch(bruteforce_row_targets(monkeypatch, seed=42)).kept.reshape(50, 35)
    assert kept[:, full].all()


def test_a_product_with_a_shared_right_factor_has_the_bits_of_one_product_per_row():
    rng = np.random.default_rng(14)
    sizes = [(d, n) for d in range(1, 7) for n in (1, 2, 3, 7, 64, 257, 999)]
    for trial, (d, n) in enumerate(sizes * 3):
        members = () if trial % 4 == 0 else (int(rng.integers(1, min(65, max(2, 20_000 // (n * d * d))))),)
        scale = 10.0 ** rng.uniform(-12, 3)
        a = scale * (rng.normal(size=(*members, n, d, d)) + 1j * rng.normal(size=(*members, n, d, d)))
        b = rng.normal(size=(*members, d, d)) + 1j * rng.normal(size=(*members, d, d))
        per_row = a @ b[..., None, :, :]
        assert discrimination._right_product(a, b).tobytes() == per_row.tobytes(), (
            f"the BLAS in use gives a ({n * d}, {d}) product other bits than {n} ({d}, {d}) products "
            f"(members {members}, scale {scale:.1e}); the solvers, and the seed-42 report, rely on these "
            "bits being equal, and numpy.show_config() names the BLAS"
        )


def test_oracle_stream_matches_one_ensemble_at_a_time_bit_for_bit():
    rng = np.random.default_rng(3)
    ensembles = []
    for _ in range(5):
        w = rng.dirichlet(np.ones(4))
        ensembles.append(
            PostInfoEnsemble(
                settings=("0", "1"),
                states=(random_orthonormal_pair(rng), random_orthonormal_pair(rng)),
                prior=((float(w[0]), float(w[1])), (float(w[2]), float(w[3]))),
                orthogonal=True,
            )
        )
    together = searched_values(ensembles)
    assert together == [searched_values([ens])[0] for ens in ensembles]
    for ens, value in zip(ensembles, together):
        result = p_postinfo(ens)
        assert abs(value - result.value) <= result.certificate.gap + 1e-8


def test_bruteforce_case_rejects_a_certificate_that_fails_validation(monkeypatch):
    stream = reproduce.finished_stream

    def loose_first_dual(m, settings, keep):
        # member 0 is the first row-merged target; the search's members follow the merged ones
        for i, (primal, y, p, gap, iterations) in stream(m, settings, keep):
            if i == 0:
                y = y - 1e-3 * np.eye(m.shape[-1])
            yield i, (primal, y, p, gap, iterations)

    monkeypatch.setattr(reproduce, "finished_stream", loose_first_dual)
    with pytest.raises(InternalInconsistency, match="not feasible"):
        run_reproduce(seed=42, only="prop-postinfo-bruteforce", trials=3)


@pytest.mark.parametrize("seed, trials", [(42, None), (1, 10), (7, 10)])
def test_the_bruteforce_case_has_the_bits_of_one_chunk_in_any_number_of_chunks(monkeypatch, seed, trials):
    pairs, forks, reports = {}, [], {}
    split, forked = reproduce._in_chunks, reproduce._forked

    def recorded_split(fn, items):
        pairs[chunks] = split(fn, items)
        return pairs[chunks]

    def recorded_fork(fn, chunk):
        forks.append(len(chunk))
        return forked(fn, chunk)

    monkeypatch.setattr(reproduce, "_in_chunks", recorded_split)
    monkeypatch.setattr(reproduce, "_forked", recorded_fork)
    for chunks in (1, 2, 3):
        monkeypatch.setattr(reproduce, "_chunk_count", lambda: chunks)
        reports[chunks] = reporting.reports_to_json(run_reproduce(seed=seed, only="prop-postinfo-bruteforce", trials=trials))
    n = trials or 50
    # this process computes the first chunk, and one forked child each of the others
    assert forks == [n - n // 2, 2 * n // 3 - n // 3, n - 2 * n // 3]
    for chunks in (2, 3):
        assert np.array(pairs[chunks]).tobytes() == np.array(pairs[1]).tobytes()
        assert reports[chunks] == reports[1]
    assert len(pairs[1]) == n


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def loosened(monkeypatch, member, in_child):
    """The ``InternalInconsistency`` of the 3-trial brute-force case once the dual of stream ``member`` is loosened in a child or here."""
    parent, stream = os.getpid(), reproduce.finished_stream

    def loose(m, settings, keep):
        for i, (primal, y, p, gap, iterations) in stream(m, settings, keep):
            if i == member and (os.getpid() != parent) == in_child:
                y = y - 1e-3 * np.eye(m.shape[-1])
            yield i, (primal, y, p, gap, iterations)

    monkeypatch.setattr(reproduce, "finished_stream", loose)
    with pytest.raises(InternalInconsistency, match="not feasible") as failure:
        run_reproduce(seed=42, only="prop-postinfo-bruteforce", trials=3)
    return failure.value


def test_a_certificate_that_fails_validation_in_a_child_raises_as_in_one_chunk(monkeypatch, deadline):
    # trial 1 is stream member 1 in one chunk, and member 0 of the child's chunk (trials 1 and 2) in two
    monkeypatch.setattr(reproduce, "_chunk_count", lambda: 1)
    alone = loosened(monkeypatch, 1, in_child=False)
    monkeypatch.setattr(reproduce, "_chunk_count", lambda: 2)
    forked = loosened(monkeypatch, 0, in_child=True)
    assert type(forked) is type(alone) and str(forked) == str(alone)
    assert_no_child_left()


class ParentChunkFailed(Exception):
    """Raised by this process's chunk of the brute-force case."""


def test_an_error_in_the_first_chunk_kills_and_reaps_the_children(monkeypatch, deadline):
    parent = os.getpid()

    def chunk_values(chunk, settings):
        if os.getpid() == parent:
            raise ParentChunkFailed
        time.sleep(120)  # two children still at work when this process fails

    monkeypatch.setattr(reproduce, "_chunk_count", lambda: 3)
    monkeypatch.setattr(reproduce, "_bruteforce_values", chunk_values)
    with pytest.raises(ParentChunkFailed):
        run_reproduce(seed=42, only="prop-postinfo-bruteforce", trials=3)
    assert_no_child_left()


def test_a_child_that_exits_without_a_result_raises_its_exit_status(monkeypatch, deadline):
    parent, values = os.getpid(), reproduce._bruteforce_values

    def chunk_values(chunk, settings):
        if os.getpid() != parent:
            os._exit(3)
        return values(chunk, settings)

    monkeypatch.setattr(reproduce, "_chunk_count", lambda: 2)
    monkeypatch.setattr(reproduce, "_bruteforce_values", chunk_values)
    with pytest.raises(ChunkFailure, match="exited with status 3 and sent no result"):
        run_reproduce(seed=42, only="prop-postinfo-bruteforce", trials=3)
    assert_no_child_left()


def test_the_trials_split_into_at_most_max_chunks_and_into_one_without_an_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert reproduce._chunk_count() == reproduce.MAX_CHUNKS == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert reproduce._chunk_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert reproduce._chunk_count() == 1


def test_the_trials_run_in_one_chunk_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert reproduce._chunk_count() == 1
    finally:
        release.set()
        thread.join()
    assert reproduce._chunk_count() == 2


def test_postinfo_cases_pass_at_a_looser_gap_with_windows_that_follow_it():
    loose = SolverSettings(gap_tol=1e-5)
    default = {r.id: r for r in run_reproduce(only="postinfo", trials=1)}
    reports = run_reproduce(only="postinfo", settings=loose)
    assert len(reports) == 5
    assert all(r.passed for r in reports), [r.id for r in reports if not r.passed]
    for r in reports:
        assert r.tolerance == pytest.approx(100 * default[r.id].tolerance, rel=1e-12), r.id


@pytest.mark.parametrize(
    "field, value",
    [
        ("gap_tol", 0.0),
        ("gap_tol", -1e-7),
        ("gap_tol", math.inf),
        ("gap_tol", math.nan),
        ("psd_tol", -1e-10),
        ("psd_tol", math.nan),
        ("max_iterations", 0),
        ("check_interval", 0),
        ("damping", 0.0),
        ("damping", 1.5),
        ("damping", math.nan),
    ],
)
def test_solver_settings_reject_bad_fields(field, value):
    with pytest.raises(ValueError, match=field):
        SolverSettings(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_iterations", 1.5),
        ("max_iterations", 2.0),
        ("max_iterations", True),
        ("max_iterations", np.True_),
        ("check_interval", 2.5),
        ("check_interval", np.float64(5)),
        ("check_interval", False),
    ],
)
def test_solver_settings_take_only_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer of at least 1"):
        SolverSettings(**{field: value})


@pytest.mark.parametrize("field", ["gap_tol", "psd_tol", "damping"])
@pytest.mark.parametrize("value", [True, False, np.True_, np.False_, "1e-7", "0.5", None, 1j])
def test_solver_settings_take_only_real_tolerances(field, value):
    with pytest.raises(ValueError, match=f"{field} must be .*real number"):
        SolverSettings(**{field: value})


def test_solver_settings_store_a_numpy_or_integer_tolerance_as_a_float():
    st = SolverSettings(gap_tol=np.float32(1e-6), psd_tol=0, damping=1)
    assert (st.gap_tol, st.psd_tol, st.damping) == (float(np.float32(1e-6)), 0.0, 1.0)
    assert type(st.gap_tol) is type(st.psd_tol) is type(st.damping) is float


def test_solver_settings_store_a_numpy_integer_count_as_an_int():
    st = SolverSettings(max_iterations=np.int64(7), check_interval=np.uint8(2))
    assert (st.max_iterations, st.check_interval) == (7, 2)
    assert type(st.max_iterations) is type(st.check_interval) is int


def test_solver_settings_in_use_are_valid():
    for st in (DEFAULT_SETTINGS, _ORACLE_SETTINGS, TIGHT):
        assert dataclasses.replace(st) == st
    SolverSettings(psd_tol=0.0, max_iterations=1, check_interval=1, damping=1.0)


def unchecked_povm(effects):
    """A Povm without its own checks, to reach the ones in ``validate``."""
    povm = object.__new__(discrimination.Povm)
    object.__setattr__(povm, "effects", np.array(effects))
    return povm


def test_validate_checks_the_povm_against_every_row():
    target = merged_row_targets(gallery("thm1-pairs"))
    result = min_error_discrimination(target)
    result.certificate.validate(target, result.povm)
    effects = list(result.povm.effects)
    with pytest.raises(ValueError, match="effects for"):
        result.certificate.validate(target, unchecked_povm(effects[:-1]))
    # move weight between two effects: the sum stays, one effect turns negative
    shift = (np.linalg.eigvalsh(effects[0]).min() + 1e-6) * np.eye(target.dim)
    bent = [effects[0] - shift, effects[1] + shift] + effects[2:]
    with pytest.raises(ValueError, match="eigenvalue"):
        result.certificate.validate(target, unchecked_povm(bent))
    with pytest.raises(ValueError, match="identity"):
        result.certificate.validate(target, unchecked_povm([0.999 * e for e in effects]))
    low = DualCertificate(result.certificate.matrix - 1e-3 * np.eye(target.dim), result.value, 0.0)
    with pytest.raises(ValueError, match="not feasible"):
        low.validate(target)


def reference_povm_check(certificate, target, effects):
    """``validate`` with every effect decomposed, zero or not, in one ``eigvalsh``: None, or the message it raises."""
    try:
        certificate.validate(target)
    except ValueError as exc:
        return str(exc)
    if len(effects) != len(target.operators):
        return f"{len(effects)} effects for {len(target.operators)} targets"
    floor = rounding_floor(target.psd_tol, target.dim)
    low = np.linalg.eigvalsh(effects).min()
    if low < -floor:
        return f"POVM effect has eigenvalue {low:.3e}"
    residual = np.abs(effects.sum(axis=0) - np.eye(target.dim)).max()
    if residual > floor:
        return f"POVM sums to the identity only within {residual:.3e}"
    return None


def test_validate_gives_the_verdict_of_every_effect_decomposed_on_povms_with_zero_effects():
    target = merged_row_targets(gallery("thm1-pairs"))
    n, d = len(target.operators), target.dim
    certificate = min_error_discrimination(target).certificate
    bad = np.eye(d, dtype=complex)
    bad[0, 0] = -1e-3
    povms = {"zeros around a bad effect": np.zeros((n, d, d), dtype=complex)}
    povms["zeros around a bad effect"][n // 2] = bad
    povms["the identity and zeros"] = np.zeros((n, d, d), dtype=complex)
    povms["the identity and zeros"][-1] = np.eye(d)
    povms["one bad effect and zeros"] = np.zeros((n, d, d), dtype=complex)
    povms["one bad effect and zeros"][0] = bad
    povms["every effect zero"] = np.zeros((n, d, d), dtype=complex)
    verdicts = {}
    for label, effects in povms.items():
        try:
            certificate.validate(target, unchecked_povm(effects))
            verdicts[label] = None
        except ValueError as exc:
            verdicts[label] = str(exc)
        assert verdicts[label] == reference_povm_check(certificate, target, effects), label
    assert verdicts == {
        "zeros around a bad effect": "POVM effect has eigenvalue -1.000e-03",
        "the identity and zeros": None,
        "one bad effect and zeros": "POVM effect has eigenvalue -1.000e-03",
        "every effect zero": "POVM sums to the identity only within 1.000e+00",
    }


def test_validate_holds_a_certificate_to_rounding_at_the_tolerance_in_force():
    target = merged_row_targets(gallery("bb84"))
    tight = min_error_discrimination(target, SolverSettings(gap_tol=1e-12))
    tight.certificate.validate(target, tight.povm, gap_tol=1e-12)
    # Tr Y now lies 1e-8 below the primal, which no feasible dual can do
    shifted = dataclasses.replace(tight.certificate, matrix=tight.certificate.matrix - 5e-9 * np.eye(target.dim))
    with pytest.raises(ValueError, match="not feasible"):
        shifted.validate(target, gap_tol=1e-12)
    result = min_error_discrimination(target)
    gap = result.certificate.gap
    assert 1e-8 < gap <= DEFAULT_SETTINGS.gap_tol
    with pytest.raises(ValueError, match="is not Tr Y - primal"):
        dataclasses.replace(result.certificate, gap=0.0).validate(target, result.povm)
    # the gap is held to the tolerance with no absolute slack
    result.certificate.validate(target, result.povm, gap_tol=gap)
    with pytest.raises(ValueError, match="outside"):
        result.certificate.validate(target, result.povm, gap_tol=float(np.nextafter(gap, 0.0)))


def test_validate_holds_the_dual_to_hermitian_at_rounding():
    target = merged_row_targets(gallery("bb84"))
    result = min_error_discrimination(target)
    y = result.certificate.matrix
    assert np.array_equal(y, y.conj().T) and np.abs(y).max() < 1  # produced exactly Hermitian, at unit scale
    result.certificate.validate(target, result.povm)
    skewed = dataclasses.replace(result.certificate, matrix=y + 1e-10 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        skewed.validate(target, result.povm)


@pytest.mark.parametrize("gap_tol", [1e-7, 1e-10, 1e-13])
def test_produced_certificates_validate_at_the_tolerance_they_were_solved_at(gap_tol):
    views = [gallery(name) for name in ("bb84", "minimal-qutrit", "thm1-pairs")]
    views += [induced_postinfo(gallery(name), classical_side="a") for name in ("obb", "cq")]
    for ens in views:
        result = p_postinfo(ens, SolverSettings(gap_tol=gap_tol))
        result.certificate.validate(merged_row_targets(ens), result.povm, gap_tol=gap_tol)


@pytest.mark.parametrize("psd_tol", [0.0, DEFAULT_SETTINGS.psd_tol])
def test_psd_tol_checks_allow_rounding_and_reject_a_real_defect(psd_tol):
    # the minimal-qutrit rows are rank-deficient, with eigenvalues just below zero in floating point
    target = merged_row_targets(gallery("minimal-qutrit"), psd_tol=psd_tol)
    assert min(np.linalg.eigvalsh(m).min() for m in target.operators) < 0
    result = min_error_discrimination(target)
    result.certificate.validate(target, result.povm)
    with pytest.raises(ValueError, match="negative eigenvalue -1.000e-06"):
        EffectTarget(operators=(np.diag([1.0, -1e-6]),), psd_tol=psd_tol)
    with pytest.raises(ValueError, match="not Hermitian"):
        EffectTarget(operators=(np.array([[1.0, 1e-6], [0.0, 1.0]]),), psd_tol=psd_tol)
    effects = list(result.povm.effects)
    shift = (np.linalg.eigvalsh(effects[0]).min() + 1e-6) * np.eye(target.dim)
    with pytest.raises(ValueError, match="POVM effect has eigenvalue"):
        result.certificate.validate(target, unchecked_povm([effects[0] - shift, effects[1] + shift] + effects[2:]))
    with pytest.raises(ValueError, match="identity only within 1.000e-06"):
        result.certificate.validate(target, unchecked_povm([effects[0] + 1e-6 * np.eye(target.dim)] + effects[1:]))


def test_postinfo_rejects_a_certificate_that_fails_validation(monkeypatch):
    solve = discrimination.min_error_discrimination

    def loose_dual(target, settings=None, **kwargs):
        result = solve(target, settings, **kwargs)
        bad = dataclasses.replace(result.certificate, matrix=result.certificate.matrix - 1e-3 * np.eye(target.dim))
        return dataclasses.replace(result, certificate=bad)

    monkeypatch.setattr(discrimination, "min_error_discrimination", loose_dual)
    with pytest.raises(InternalInconsistency, match="not feasible"):
        p_postinfo(gallery("bb84"))


def random_postinfo(seed, dim, n_settings):
    """Orthonormal bases from Haar-random unitaries, with a random prior."""
    rng = np.random.default_rng(seed)
    states = tuple(
        tuple(np.ascontiguousarray(c) for c in unitary_from_normals(rng.normal(size=(2, dim, dim))).T) for _ in range(n_settings)
    )
    w = rng.dirichlet(np.ones(dim * n_settings)).reshape(n_settings, dim)
    return PostInfoEnsemble(
        settings=tuple(str(t) for t in range(n_settings)),
        states=states,
        prior=tuple(tuple(float(x) for x in row) for row in w),
        orthogonal=True,
    )


def pretty_good_start(m):
    """A working set's first warm start: the eigenvalue-shift certificate (Y, gap) of the pretty-good measurement of ``m``."""
    [(_, y, gap)] = discrimination._certify(m[None], discrimination._pretty_good(m[None]))
    return y, gap


def every_row_barrier(m, st):
    """``_barrier_solve`` on every row of ``m`` from the pretty-good start, a stack of one with no row off the working set."""
    y, gap = pretty_good_start(m)
    [out] = _barrier_solve(m[None], [st], (y[None], [gap]))
    if isinstance(out, SolverFailure):
        raise out
    return out


def stacked_barrier(m, settings):
    """``_barrier_solve`` on the stack ``m`` (B, n, d, d) from each member's pretty-good start, with no row off a working set."""
    starts = [pretty_good_start(member_m) for member_m in m]
    return discrimination._barrier_solve(m, settings, (np.stack([y for y, _ in starts]), [gap for _, gap in starts]))


def assert_same_outcome(mine, alone):
    """A barrier member's result or failure is that of its stack of one, bit for bit, its failure with the same cause."""
    if isinstance(alone, SolverFailure):
        assert_same_failure(mine, alone, alone.iterations)
        assert type(mine.__cause__) is type(alone.__cause__) and str(mine.__cause__) == str(alone.__cause__)
    else:
        assert_same_member(mine, alone)
        assert mine[4] == alone[4]


@pytest.mark.parametrize("dim, n_settings", [(2, 3), (3, 2)])
def test_each_member_of_a_stacked_barrier_solve_has_the_bits_of_its_stack_of_one(barrier_rounds, dim, n_settings):
    m = np.stack([merged_row_targets(random_postinfo(seed, dim, n_settings)).operators for seed in range(12)])
    # mixed tolerances and caps: every fourth member runs out at 9 steps, and on a qutrit the sixth stalls at 1e-13,
    # so the fixed-point map finishes it (470 iterations in all)
    settings = [SolverSettings(gap_tol=(1e-7, 1e-10, 1e-13)[b % 3], max_iterations=9 if b % 4 == 3 else 100_000) for b in range(12)]
    mine = stacked_barrier(m, settings)
    assert barrier_rounds == [(len(m), m.shape[1])]
    alone = [stacked_barrier(m[b : b + 1], settings[b : b + 1])[0] for b in range(len(m))]
    for result, own in zip(mine, alone):
        assert_same_outcome(result, own)
    assert [b for b, own in enumerate(alone) if isinstance(own, SolverFailure)] == [3, 7, 11]
    assert max(own[4] for own in alone if not isinstance(own, SolverFailure)) == (28 if dim == 2 else 470)


def test_a_member_that_runs_out_fails_behind_members_that_certify():
    m = np.stack([merged_row_targets(random_postinfo(seed, 2, 3)).operators for seed in range(3)])
    settings = [DEFAULT_SETTINGS, SolverSettings(max_iterations=3), TIGHT]
    mine = stacked_barrier(m, settings)
    assert isinstance(mine[1], SolverFailure) and mine[1].iterations == 3 and mine[1].__cause__ is None
    for b in (0, 2):
        assert not isinstance(mine[b], SolverFailure) and mine[b][3] <= settings[b].gap_tol
    for b, result in enumerate(mine):
        assert_same_outcome(result, stacked_barrier(m[b : b + 1], settings[b : b + 1])[0])
    assert_reported_certificate(mine[1], m[1])


def test_a_member_that_stalls_is_finished_by_the_fixed_point_map_beside_members_that_certify(monkeypatch):
    # the slow target's barrier stalls below rounding at 1e-14 (it certifies in 23 Newton steps at 1e-13)
    slow = np.array(slow_fixed_point_target().operators)
    others = [merged_row_targets(induced_postinfo(gallery(f"gen-bb84({theta})"), "a")).operators for theta in ("pi/3", "pi/5")]
    m, settings = np.stack([others[0], slow, others[1]]), [DEFAULT_SETTINGS, SolverSettings(gap_tol=1e-14), TIGHT]
    finished = []
    stream = discrimination.solve_stream

    def recorded(members, *args):
        finished.append(len(members))
        return stream(members, *args)

    monkeypatch.setattr(discrimination, "solve_stream", recorded)
    mine = stacked_barrier(m, settings)
    assert finished == [1]  # the one stalled member, in one fixed-point finish
    primal, y, p, gap, steps = mine[1]
    assert gap <= 1e-14 and steps == 34
    DualCertificate(y, primal, gap).validate(slow_fixed_point_target(), Povm(effects=p), gap_tol=1e-14)
    for b, result in enumerate(mine):
        assert_same_outcome(result, stacked_barrier(m[b : b + 1], settings[b : b + 1])[0])


def test_a_stacked_candidate_that_does_not_factor_is_retried_member_by_member(monkeypatch):
    m = np.stack([merged_row_targets(random_postinfo(seed, 2, 3)).operators for seed in range(3)])
    plain = stacked_barrier(m, [DEFAULT_SETTINGS] * 3)
    # the stack's first candidate raises, then the first member's alone: only that member halves its first step
    rejected = rejected_candidates(monkeypatch, 2)
    mine = stacked_barrier(m, [DEFAULT_SETTINGS] * 3)
    assert rejected == [2]
    assert mine[0][1].tobytes() != plain[0][1].tobytes() and mine[0][3] <= DEFAULT_SETTINGS.gap_tol
    for b in (1, 2):
        assert_same_outcome(mine[b], plain[b])


def test_stacked_working_sets_grow_each_member_as_alone(barrier_rounds):
    # 32 qubit rows each: every first round is one call of 8-row working sets, and later rounds group by size
    m = np.stack([merged_row_targets(random_postinfo(seed, 2, 5)).operators for seed in range(4)])
    settings = [DEFAULT_SETTINGS, TIGHT, SolverSettings(max_iterations=12), DEFAULT_SETTINGS]
    mine = discrimination._working_set_solve(m, settings)
    rounds = list(barrier_rounds)
    assert rounds[0] == (len(m), 8) and len(rounds) > 1
    barrier_rounds.clear()
    for b, result in enumerate(mine):
        [alone] = discrimination._working_set_solve(m[b : b + 1], settings[b : b + 1])
        assert_same_outcome(result, alone)
    # the lone solves make as many member-rounds as the stack
    assert sum(count for count, _ in rounds) == len(barrier_rounds)


def test_certificates_of_a_stack_have_the_bits_of_each_members_own():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, d, count = int(rng.integers(2, 12)), int(rng.integers(2, 5)), int(rng.integers(2, 9))
        m = density_from_normals(rng.normal(size=(count, n, 2, d, d))) * rng.uniform(0.01, 1.0, size=(count, n, 1, 1))
        p = discrimination._pretty_good(m)
        for (primal, y, gap), b in zip(discrimination._certify(m, p), range(count)):
            [(own_primal, own_y, own_gap)] = discrimination._certify(m[b : b + 1], p[b : b + 1])
            assert (primal, gap) == (own_primal, own_gap) and y.tobytes() == own_y.tobytes()


def full_solve(target):
    """The solve that iterates on every row, a stream of one, as a result object."""
    [(_, (primal, y, p, gap, iterations))] = solve_stream(stacked([target]), DEFAULT_SETTINGS)
    return DiscriminationResult(primal, Povm(effects=p), DualCertificate(y, primal, gap), target.labels, iterations)


def above_d_squared_instances():
    """Every gallery view with more than d^2 rows (12 against 9), and random ones."""
    gallery_views = [induced_postinfo(gallery(name), classical_side="a") for name in ("obb", "cq")]
    return gallery_views + [random_postinfo(seed, 3, 3) for seed in (0, 1, 3)] + [random_postinfo(4, 4, 3)]


def test_barrier_value_lies_within_the_full_solve_gaps():
    for ens in above_d_squared_instances():
        target = merged_row_targets(ens)
        assert len(target.operators) > target.dim**2
        full = full_solve(target)
        mine = p_postinfo(ens)
        assert mine.value <= full.value + full.certificate.gap + 1e-12
        assert full.value <= mine.value + mine.certificate.gap + 1e-12
        mine.certificate.validate(target, mine.povm)
        assert len(mine.povm) == len(mine.assignment) == len(target.operators)
        assert mine.assignment == target.labels
        assert mine.iterations > 0


def test_postinfo_at_most_d_squared_rows_is_the_full_solve_bit_for_bit():
    instances = [gallery("bb84"), gallery("minimal-qutrit"), gallery("thm1-pairs"), random_postinfo(2, 3, 2)]
    for ens in instances:
        target = merged_row_targets(ens)
        assert len(target.operators) <= target.dim**2
        full = full_solve(target)
        assert_same_member(member(p_postinfo(ens)), member(full))


def test_barrier_and_fixed_point_agree_within_both_gaps_at_most_d_squared_rows():
    # the two routes share no iteration, so each checks the other
    instances = [gallery("bb84"), gallery("minimal-qutrit"), gallery("thm1-pairs")]
    instances += [random_postinfo(10 + d, d, 2) for d in (2, 3, 4, 5)]
    for ens in instances:
        target = merged_row_targets(ens)
        assert len(target.operators) <= target.dim**2
        full = full_solve(target)
        primal, y, p, gap, steps = every_row_barrier(np.array(target.operators), DEFAULT_SETTINGS)
        assert primal <= full.value + full.certificate.gap + 1e-12
        assert full.value <= primal + gap + 1e-12
        DualCertificate(y, primal, gap).validate(target, discrimination.Povm(effects=tuple(p)))
        full.certificate.validate(target, full.povm)
        assert steps > 0


def assert_reported_certificate(exc, m):
    """The failure's POVM covers every row, and its dual is feasible with the reported gap."""
    povm = np.array(exc.povm)
    assert povm.shape == m.shape
    assert exc.primal == pytest.approx(float(np.einsum("rij,rji->", povm, m).real), abs=1e-12)
    assert np.linalg.eigvalsh(exc.dual[None] - m).min() >= -1e-12
    assert exc.gap == pytest.approx(np.trace(exc.dual).real - exc.primal, abs=1e-12)


@pytest.mark.parametrize("cap", [5, 25])
def test_barrier_failure_reports_its_best_certificate_on_every_row(cap):
    ens = random_postinfo(2, 3, 3)  # needs 26 Newton steps, all in its first round
    target = merged_row_targets(ens)
    m = np.array(target.operators)
    with pytest.raises(SolverFailure) as failure:
        p_postinfo(ens, SolverSettings(max_iterations=cap))
    exc = failure.value
    assert exc.iterations == cap
    assert_reported_certificate(exc, m)
    # no worse than the eigenvalue-shift certificate of the reported POVM
    povm = np.array(exc.povm)
    y0 = np.einsum("rij,rjk->ik", m, povm)
    y0 = (y0 + y0.conj().T) / 2
    shift = max(-np.linalg.eigvalsh(y0[None] - m).min(), 0.0)
    assert exc.gap <= np.trace(y0).real + target.dim * shift - exc.primal + 1e-12
    assert exc.gap > DEFAULT_SETTINGS.gap_tol


@pytest.mark.parametrize("gap_tol", [1e-10, 1e-11])
def test_barrier_certifies_gaps_below_its_rounding_floor(gap_tol):
    # Y - M_r stops resolving 1/t once t passes about 1e12; the fixed-point map finishes from there
    for ens in above_d_squared_instances():
        target = merged_row_targets(ens)
        full = full_solve(target)
        mine = p_postinfo(ens, SolverSettings(gap_tol=gap_tol))
        mine.certificate.validate(target, mine.povm, gap_tol=gap_tol)
        assert mine.value <= full.value + full.certificate.gap + 1e-12
        assert full.value <= mine.value + gap_tol + 1e-12


def test_a_barrier_stalled_on_rounding_fails_with_its_best_certificate():
    ens = induced_postinfo(gallery("obb"), classical_side="a")  # certifies 1e-13 in 125 iterations; the barrier stalls at 54
    m = np.array(merged_row_targets(ens).operators)
    with pytest.raises(SolverFailure) as failure:
        p_postinfo(ens, SolverSettings(gap_tol=1e-13, max_iterations=80))
    exc = failure.value
    assert isinstance(exc.__cause__, np.linalg.LinAlgError)
    assert exc.iterations == 80
    assert_reported_certificate(exc, m)
    # the barrier's own certificate, far better than the unfinished fixed-point iterate's
    assert 1e-13 < exc.gap < 1e-10


def one_round_instances():
    """Targets of more than d^2 and at most 2 d^2 rows: the obb and cq views (12 rows, d = 3) and twenty of 8 qubit rows."""
    views = [induced_postinfo(gallery(name), classical_side="a") for name in ("obb", "cq")]
    return views + [random_postinfo(seed, 2, 3) for seed in range(20)]


@pytest.mark.parametrize("gap_tol", [1e-7, 1e-10, 1e-13])
def test_a_target_of_at_most_two_d_squared_rows_is_one_round_on_every_row(barrier_rounds, gap_tol):
    st = SolverSettings(gap_tol=gap_tol)
    steps = 0
    for ens in one_round_instances():
        target = merged_row_targets(ens)
        m = np.array(target.operators)
        assert target.dim**2 < len(m) <= 2 * target.dim**2
        barrier_rounds.clear()
        mine = p_postinfo(ens, st)
        assert barrier_rounds == [(1, len(m))]
        mine.certificate.validate(target, mine.povm, gap_tol=gap_tol)
        steps += mine.iterations
        if gap_tol == DEFAULT_SETTINGS.gap_tol:
            primal, y, p, gap, count = every_row_barrier(m, st)
            assert (mine.value, mine.certificate.gap, mine.iterations) == (primal, gap, count)
            assert mine.certificate.matrix.tobytes() == y.tobytes() and np.array(mine.povm.effects).tobytes() == p.tobytes()
    if gap_tol == DEFAULT_SETTINGS.gap_tol:
        # 520 from the cold start Y = (max eigenvalue + 1) I, t = n d
        assert steps == 388


def test_a_working_set_certifies_every_row_within_the_full_barrier_gaps(barrier_rounds):
    # (2, 2, 5) and (3, 2, 5) are qubit targets of 32 rows whose first working set of 8 misses rows
    instances = [random_postinfo(seed, 2, 5) for seed in (2, 3)] + [random_postinfo(0, 3, 3), random_postinfo(4, 4, 3)]
    rounds = []
    for ens in instances:
        target = merged_row_targets(ens)
        assert len(target.operators) > 2 * target.dim**2
        primal, _, _, gap, _ = every_row_barrier(np.array(target.operators), DEFAULT_SETTINGS)
        barrier_rounds.clear()
        mine = p_postinfo(ens)
        rounds.append(len(barrier_rounds))
        assert barrier_rounds[0] == (1, 2 * target.dim**2) and barrier_rounds == sorted(set(barrier_rounds))
        mine.certificate.validate(target, mine.povm)
        assert len(mine.povm) == len(target.operators)
        assert mine.value <= primal + gap + 1e-12
        assert primal <= mine.value + mine.certificate.gap + 1e-12
    assert rounds[:2] == [2, 3] and max(rounds) >= 2


@pytest.mark.parametrize("cap", [6, 12])
def test_a_cap_that_runs_out_in_a_second_round_reports_its_certificate_on_every_row(barrier_rounds, cap):
    ens = random_postinfo(3, 2, 5)  # its first round of 8 rows ends early at step 6, its second of 10 at step 16
    m = np.array(merged_row_targets(ens).operators)
    with pytest.raises(SolverFailure) as failure:
        p_postinfo(ens, SolverSettings(max_iterations=cap))
    exc = failure.value
    # at 6 the first round ends with every step, so no second round runs
    assert barrier_rounds == ([(1, 8)] if cap == 6 else [(1, 8), (1, 10)])
    assert exc.iterations == cap
    assert_reported_certificate(exc, m)
    assert exc.gap > DEFAULT_SETTINGS.gap_tol


@pytest.fixture
def barrier_returns(monkeypatch):
    """What every member of every ``_barrier_solve`` call returns, in call order: one per working-set round that does not fail."""
    returns = []
    solve = discrimination._barrier_solve

    def recorded(*args, **kwargs):
        out = solve(*args, **kwargs)
        returns.extend(result for result in out if not isinstance(result, SolverFailure))
        return out

    monkeypatch.setattr(discrimination, "_barrier_solve", recorded)
    return returns


def test_a_cap_that_expires_at_an_early_exit_reports_that_checkpoint_on_every_row(barrier_returns):
    ens = random_postinfo(3, 2, 5)
    m = np.array(merged_row_targets(ens).operators)
    p_postinfo(ens)
    primal, y, p, gap, steps = barrier_returns[0]
    assert gap > DEFAULT_SETTINGS.gap_tol  # the first round ended at a checkpoint whose dual misses a row
    barrier_returns.clear()
    with pytest.raises(SolverFailure) as failure:
        p_postinfo(ens, SolverSettings(max_iterations=steps))
    exc = failure.value
    assert len(barrier_returns) == 1 and exc.iterations == steps
    assert_reported_certificate(exc, m)
    # that checkpoint's POVM, zero off the working set, and the better of its two certificates on every row
    povm = np.array(exc.povm)
    assert povm[np.abs(povm).max(axis=(1, 2)) > 0].tobytes() == p.tobytes()
    assert exc.gap == min(discrimination._cover(y, discrimination._row_slack(y, m), primal)[2], discrimination._certify(m[None], povm[None])[0][2])


def test_a_first_round_that_ends_early_still_certifies_every_row(barrier_returns):
    ens = from_json_dict(json.loads(SIX_BASES.read_text()))
    target = merged_row_targets(ens)
    mine = p_postinfo(ens)
    assert len(target.operators) == 64 and len(barrier_returns) > 1
    assert barrier_returns[0][3] > DEFAULT_SETTINGS.gap_tol
    mine.certificate.validate(target, mine.povm)


def reference_barrier_solve(m, st):
    """``every_row_barrier`` with the boundary guard's eigendecomposition taken at every Newton step."""
    n, d = m.shape[0], m.shape[-1]
    f = discrimination._hermitian_basis(d)
    trace_f = f[:, :: d + 1].real.sum(axis=1)
    y0, gap0 = pretty_good_start(m)
    gap0 = max(gap0, st.gap_tol)
    shift = max(float(-np.linalg.eigvalsh(y0[None] - m).min()), 0.0)
    y, t = y0 + shift * np.eye(d) + 0.1 * gap0 / d * np.eye(d), n * d / gap0
    best, stalled = (None, None, math.inf, None), None
    predict, last = True, math.inf
    try:
        for steps in range(1, st.max_iterations + 1):
            l_inv = np.linalg.inv(np.linalg.cholesky(y - m))
            s_inv = discrimination._herm_stack(np.linalg.inv(y - m))
            flat = s_inv.reshape(n, d * d)
            outer = (flat.T @ flat).reshape(d, d, d, d).transpose(1, 2, 3, 0).reshape(d * d, d * d)
            hess = (f @ outer @ f.T).real
            pull = (f @ s_inv.sum(axis=0).conj().ravel()).real
            u, v = np.linalg.solve(hess, np.stack([trace_f, pull], axis=1)).T
            if float((pull - t * trace_f) @ (v - t * u)) < 2:
                p = discrimination._pretty_good(s_inv[None])[0]
                primal = float(np.einsum("rij,rji->", p, m).real)
                gap = float(np.trace(y).real) - primal
                if gap <= st.gap_tol:
                    return primal, y, p, gap, steps
                if gap < best[2]:
                    best = (primal, y, gap, p)
                growth = discrimination.GROWTH
                if growth * t * np.finfo(float).eps * np.trace(y).real > 1.0:
                    raise np.linalg.LinAlgError(f"barrier parameter {growth * t:.1e} is beyond rounding")
                predict, last = predict and gap < last / 2, gap
                if predict:
                    dy = (1.0 / growth - 1.0) * t * (u @ f).reshape(d, d)
                    low = float(np.linalg.eigvalsh(l_inv @ dy @ dagger(l_inv)).min())
                    alpha = min(1.0, 0.9 / -low if low < 0 else math.inf)
                    y, t = y + alpha * (dy + dagger(dy)) / 2, growth * t
                    continue
                t *= growth
            dx = v - t * u
            dec = float((pull - t * trace_f) @ dx)
            if not math.isfinite(dec):
                raise np.linalg.LinAlgError("Newton decrement is not finite")
            dy = (dx @ f).reshape(d, d)
            low = float(np.linalg.eigvalsh(l_inv @ dy @ dagger(l_inv)).min())
            alpha = min(1.0 / (1.0 + math.sqrt(dec)) if dec > 1 else 1.0, 0.99 / -low if low < 0 else math.inf)
            y, previous = y + alpha * (dy + dagger(dy)) / 2, y
            if np.array_equal(y, previous):
                raise np.linalg.LinAlgError("Newton step is below rounding")
    except np.linalg.LinAlgError as exc:
        stalled = exc
    p = discrimination._pretty_good(s_inv[None])[0] if best[3] is None else best[3]
    final = (*discrimination._certify(m[None], p[None])[0], p)
    if stalled is not None and steps < st.max_iterations:
        rest = dataclasses.replace(st, max_iterations=st.max_iterations - steps)
        [(_, polish)] = solve_stream(m[None], rest, p[None])
        if not isinstance(polish, SolverFailure):
            primal, y, p, gap, fixed = polish
            return primal, y, p, gap, steps + fixed
        final, steps = (polish.primal, polish.dual, polish.gap, polish.povm), st.max_iterations
    raise discrimination._failure(st, *min(best, final, key=lambda c: c[2]), steps) from stalled


def rejected_candidates(monkeypatch, forced):
    """Counts the Cholesky factorizations that raise in ``_guarded_step``, the first ``forced`` of them made to raise."""
    rejected = [0]
    cholesky = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        if sys._getframe(1).f_code is not discrimination._guarded_step.__code__:
            return cholesky(a, *args, **kwargs)
        if rejected[0] < forced:
            rejected[0] += 1
            raise np.linalg.LinAlgError("candidate rejected")
        try:
            return cholesky(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            rejected[0] += 1
            raise

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return rejected


def newton_instances():
    """Every target above d^2 rows, and d = 4 and d = 3 ensembles of 64 and 81 rows."""
    return above_d_squared_instances() + [random_postinfo(20, 4, 3), random_postinfo(21, 3, 4)]


@pytest.mark.parametrize("gap_tol", [1e-7, 1e-13])
def test_the_barrier_gives_the_bits_of_the_guard_at_every_step(monkeypatch, gap_tol):
    st = SolverSettings(gap_tol=gap_tol)
    rejected = rejected_candidates(monkeypatch, 0)
    for ens in newton_instances():
        m = np.array(merged_row_targets(ens).operators)
        primal, y, p, gap, steps = every_row_barrier(m, st)
        ref_primal, ref_y, ref_p, ref_gap, ref_steps = reference_barrier_solve(m, st)
        assert (primal, gap, steps) == (ref_primal, ref_gap, ref_steps)
        assert y.tobytes() == ref_y.tobytes() and p.tobytes() == ref_p.tobytes()
    if gap_tol == DEFAULT_SETTINGS.gap_tol:
        # every damped step factored at its first candidate, so no step was halved
        assert rejected == [0]


def test_a_rejected_candidate_is_halved_and_the_solve_still_certifies(monkeypatch):
    ens = random_postinfo(2, 3, 3)
    target = merged_row_targets(ens)
    first = p_postinfo(ens)
    rejected = rejected_candidates(monkeypatch, 1)
    mine = p_postinfo(ens)
    assert rejected == [1]
    mine.certificate.validate(target, mine.povm)
    # the halved first step took the solve elsewhere
    assert mine.certificate.matrix.tobytes() != first.certificate.matrix.tobytes()


def test_a_candidate_that_never_factors_stalls_below_rounding_with_its_best_certificate(monkeypatch):
    ens = random_postinfo(2, 3, 3)
    m = np.array(merged_row_targets(ens).operators)
    rejected = rejected_candidates(monkeypatch, math.inf)
    # the first step stalls; the fixed-point finish gets the one iteration left and cannot certify
    with pytest.raises(SolverFailure) as failure:
        p_postinfo(ens, SolverSettings(max_iterations=2))
    exc = failure.value
    assert rejected[0] > 1  # halved until the candidate rounded to Y
    assert isinstance(exc.__cause__, np.linalg.LinAlgError) and "below rounding" in str(exc.__cause__)
    assert exc.iterations == 2
    assert_reported_certificate(exc, m)
    assert exc.gap > DEFAULT_SETTINGS.gap_tol


def test_a_working_set_takes_no_more_newton_steps_than_every_row():
    for ens in newton_instances():
        m = np.array(merged_row_targets(ens).operators)
        if len(m) > 2 * m.shape[-1] ** 2:
            assert p_postinfo(ens).iterations <= every_row_barrier(m, DEFAULT_SETTINGS)[4]


def test_the_central_path_predictor_cuts_the_newton_steps():
    # 413 with no predictor and t multiplied by 100 at each certification, 256 with the obb and cq views from the cold start
    assert sum(p_postinfo(ens).iterations for ens in newton_instances()) == 237


@pytest.fixture
def finishes(monkeypatch):
    """The rows of every target that the fixed-point map finishes, through ``discrimination.solve_stream``, in call order."""
    rows = []
    stream = discrimination.solve_stream

    def counted(m, *args):
        rows.append(m.shape[1])
        return stream(m, *args)

    monkeypatch.setattr(discrimination, "solve_stream", counted)
    return rows


def test_a_growth_factor_of_ten_certifies_without_the_fixed_point_finish(monkeypatch, finishes):
    # predicting at every increase sends six of these eight into the finish at this factor; the fallback sends none
    monkeypatch.setattr(discrimination, "GROWTH", 10.0)
    for ens in newton_instances():
        target = merged_row_targets(ens)
        mine = p_postinfo(ens)
        mine.certificate.validate(target, mine.povm)
    assert finishes == []


def test_the_whole_row_barrier_certifies_every_newton_instance_at_1e_10_without_the_fixed_point_finish(finishes):
    # with S_r^-1 taken as L^-H L^-1 from the inverted Cholesky factor, the seventh target stalled on rounding
    # and the map finished it in 575 iterations (847 in all); the Hermitian part of one inverse per row takes 47
    st = SolverSettings(gap_tol=1e-10)
    steps = []
    for ens in newton_instances():
        target = merged_row_targets(ens)
        primal, y, p, gap, count = every_row_barrier(np.array(target.operators), st)
        DualCertificate(y, primal, gap).validate(target, Povm(effects=p), gap_tol=st.gap_tol)
        steps.append(count)
    assert finishes == []
    assert steps == [38, 34, 27, 35, 40, 55, 47, 43]


@pytest.mark.parametrize("gap_tol", [1e-7, 1e-10])
def test_random_post_information_targets_certify_every_row(gap_tol):
    st = SolverSettings(gap_tol=gap_tol)
    for (dim, n_settings), seed in itertools.product([(2, 5), (3, 4), (4, 3)], range(8)):
        ens = random_postinfo(seed, dim, n_settings)
        target = merged_row_targets(ens)
        mine = p_postinfo(ens, st)
        assert len(mine.povm) == len(target.operators) == dim**n_settings
        mine.certificate.validate(target, mine.povm, gap_tol=gap_tol)


def mub_postinfo(d, k):
    """k Wootters-Fields mutually unbiased bases of prime dimension d, the computational basis first, at a uniform prior.

    Basis a >= 1 has the kets sum_x w^((a - 1) x^2 + j x) |x> / sqrt(d), w = exp(2 pi i / d), with i^((a - 1) x^2) in
    place of w^((a - 1) x^2) for d = 2.
    """
    x = np.arange(d)
    bases = [np.eye(d)]
    for a in range(k - 1):
        chirp = 1j ** (a * x * x) if d == 2 else np.exp(2j * np.pi * a * x * x / d)
        bases.append(chirp[:, None] * np.exp(2j * np.pi * np.outer(x, x) / d) / math.sqrt(d))
    return PostInfoEnsemble(
        settings=tuple(str(a) for a in range(k)),
        states=tuple(tuple(np.ascontiguousarray(b[:, j]) for j in range(d)) for b in bases),
        prior=tuple((1 / (k * d),) * d for _ in range(k)),
        orthogonal=True,
    )


@pytest.mark.parametrize("gap_tol", [1e-7, 1e-12])
def test_the_barrier_window_holds_the_closed_form_optimum_of_mutually_unbiased_bases(gap_tol):
    # Y = max_r lambda_max(M_r) I covers every row; the orbit of the best row's top eigenvector under the d^2
    # displacements X^a Z^b, each weighted 1/d, is a POVM on rows that attains d max_r lambda_max(M_r)
    st = SolverSettings(gap_tol=gap_tol)
    for d, k in [(2, 3), (3, 3), (3, 4), (5, 3)]:
        ens = mub_postinfo(d, k)
        m = np.array(merged_row_targets(ens).operators)
        assert d**2 < len(m) == d**k
        optimum = d * float(np.linalg.eigvalsh(m)[:, -1].max())
        mine = p_postinfo(ens, st)
        ulps = 4 * np.spacing(optimum)
        assert mine.value - ulps <= optimum <= mine.value + mine.certificate.gap + ulps, (d, k)


class ExactRows:
    """The check the row screen replaces: ``_row_slack`` of every row at every dual, the slacks kept in ``bound``.

    It starts, as the screen does, at the unshifted pretty-good dual, from its own decomposition of every row.
    """

    def __init__(self, m, y, bound):
        self.m, self.scale = m, np.abs(m).max()
        self.bound = discrimination._row_slack(y, m)

    def uncovered(self, y, rows):
        self.bound = discrimination._row_slack(y, self.m)
        return rows[self.bound[rows] < -rounding_floor(0.0, max(np.abs(y).max(), self.scale))]


@pytest.fixture
def slack_rows(monkeypatch):
    """The rows passed to ``_row_slack``, summed over every call."""
    rows = [0]
    row_slack = discrimination._row_slack

    def counted(y, m):
        rows[0] += math.prod(m.shape[:-2])
        return row_slack(y, m)

    monkeypatch.setattr(discrimination, "_row_slack", counted)
    return rows


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + dagger(a)) / 2


def test_the_row_screen_finds_the_rows_the_check_on_every_row_finds(slack_rows):
    rng = np.random.default_rng(23)
    screened = checked = 0
    for trial in range(200):
        n, d = int(rng.integers(1, 60)), int(rng.integers(2, 6))
        kets = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        m = rng.uniform(0.0, 1.0, size=(n, 1, 1)) * dyad(kets / np.linalg.norm(kets, axis=1, keepdims=True))
        # a dual whose slacks straddle zero, then a chain of duals moved up and down by steps from 1e-12 to 1
        y = random_hermitian(rng, d) * 0.1 + rng.uniform(0.5, 1.0) * np.eye(d)
        screen = discrimination._RowScreen(m, y, np.linalg.eigvalsh(y[None] - m).min(axis=1))
        for step in range(6):
            y = y + 10.0 ** rng.uniform(-12, 0) * random_hermitian(rng, d) - 10.0 ** rng.uniform(-12, -1) * rng.normal() * np.eye(d)
            rows = np.flatnonzero(rng.uniform(size=n) < 0.7)
            floor = rounding_floor(0.0, max(np.abs(y).max(), np.abs(m).max()))
            exact = np.linalg.eigvalsh(y[None] - m[rows]).min(axis=1)  # not counted: called from here
            before = slack_rows[0]
            found = screen.uncovered(y, rows)
            checked += slack_rows[0] - before
            screened += rows.size - (slack_rows[0] - before)
            assert found.tobytes() == rows[exact < -floor].tobytes(), (trial, step)
            assert (exact >= screen.bound[rows] - floor).all(), (trial, step)
            assert screen.bound[found].tobytes() == exact[np.isin(rows, found)].tobytes()
    # the screen spared some rows their eigendecomposition and handed others to it
    assert screened > 0 and checked > 0


@pytest.mark.parametrize("gap_tol", [1e-7, 1e-10, 1e-13])
def test_the_row_screen_gives_the_bits_of_the_check_on_every_row(monkeypatch, gap_tol):
    st = SolverSettings(gap_tol=gap_tol)
    # the obb and cq views are among newton_instances(); the last two have 729 and 1,024 rows
    instances = newton_instances() + [random_postinfo(7, 3, 6), random_postinfo(7, 4, 5)]
    screened = [member(p_postinfo(ens, st)) for ens in instances]
    monkeypatch.setattr(discrimination, "_RowScreen", ExactRows)
    for ens, mine in zip(instances, screened):
        assert_same_member(mine, member(p_postinfo(ens, st)))


def test_the_row_screen_cuts_the_row_eigendecompositions(slack_rows):
    # 2,336 when every row off the working set was decomposed at every certification, and every row after each round;
    # 1,214 when the screen decomposed every row again at the shifted start, not sharing the slacks of the unshifted one
    for ens in newton_instances():
        p_postinfo(ens)
    assert slack_rows[0] == 900
