import dataclasses
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from obcast import discrimination, reproduce
from obcast.discrimination import (
    DEFAULT_SETTINGS,
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
    from_json_dict,
    gallery,
    gallery_names,
    gen_bb84,
    induced_postinfo,
)
from obcast.errors import InternalInconsistency, SolverFailure
from obcast.linalg import dagger, dyad, ket
from obcast.oracles import _ORACLE_SETTINGS, AssignmentSearch
from obcast.qpv import cq_strategy_value
from obcast.reproduce import run_reproduce
from obcast.sampling import random_density, random_orthonormal_pair, random_unitary

SQ2 = math.sqrt(2)
BB84_VALUE = (2 + SQ2) / 4
TIGHT = SolverSettings(gap_tol=1e-9)
SIX_BASES = Path(__file__).parent / "data" / "qubit-six-bases.json"  # 64 answer rows on a qubit


def swap_sides(g):
    return GopEnsemble(a_states=g.b_states, b_states=g.a_states, prior=g.prior)


def streamed(targets, settings=None):
    """The results ``solve_stream`` yields, in input order."""
    results = dict(solve_stream(targets, settings))
    return [results[i] for i in range(len(targets))]


def assert_same_result(mine, alone):
    """``mine`` is ``alone`` bit for bit: value, gap, dual, POVM and a positive iteration count."""
    assert mine.value == alone.value
    assert mine.certificate.gap == alone.certificate.gap
    assert mine.certificate.matrix.tobytes() == alone.certificate.matrix.tobytes()
    assert [e.tobytes() for e in mine.povm.effects] == [e.tobytes() for e in alone.povm.effects]
    assert mine.iterations == alone.iterations > 0


def assert_same_failure(mine, alone, iterations):
    """The ``SolverFailure`` ``mine`` is ``alone`` bit for bit, after ``iterations`` iterations."""
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
    rho = random_density(np.random.default_rng(0), 3)
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
    rng = np.random.default_rng(1)
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
    rng = np.random.default_rng(2)
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
    assert certified_upper >= cq_strategy_value().value - 1e-9


def test_coarse_graining_cannot_increase_the_value():
    rng = np.random.default_rng(3)
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
    rng = np.random.default_rng(4)
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


def test_select_takes_an_index_array_as_it_takes_a_tuple():
    target = merged_row_targets(gallery("bb84"))
    by_tuple, by_array = target.select((0, 2)), target.select(np.array([0, 2]))
    assert by_array.labels == by_tuple.labels
    assert [op.tobytes() for op in by_array.operators] == [op.tobytes() for op in by_tuple.operators]
    for empty in ((), np.array([], dtype=int)):
        with pytest.raises(ValueError, match="need at least one target"):
            target.select(empty)


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


def test_row_targets_keep_their_bytes(monkeypatch):
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
        stacked = streamed(targets, st)
        assert len({r.iterations for r in stacked}) > 1  # members leave at different checks
        for target, mine in zip(targets, stacked):
            assert_same_result(mine, min_error_discrimination(target, st))
            assert mine.labels == target.labels


def test_stacked_certificates_validate_under_the_settings_in_force():
    targets = mixed_stack()
    for st in (DEFAULT_SETTINGS, TIGHT, _ORACLE_SETTINGS):
        for target, result in zip(targets, streamed(targets, st)):
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
        streamed(targets[1:], st)
    assert_same_failure(stacked.value, alone.value, 3)


def two_member_window(monkeypatch):
    """Hold at most two four-operator members in lockstep, and record the widest stack iterated."""
    monkeypatch.setattr(discrimination, "STACK_OPERATORS", 8)
    widest = [0]
    pretty_good = discrimination._pretty_good

    def recorded(a):
        widest[0] = max(widest[0], a.shape[0])
        return pretty_good(a)

    monkeypatch.setattr(discrimination, "_pretty_good", recorded)
    return widest


def test_members_of_a_narrow_window_match_their_lone_solves_bit_for_bit(monkeypatch):
    targets = mixed_stack()
    lone = {st: [min_error_discrimination(t, st) for t in targets] for st in (DEFAULT_SETTINGS, _ORACLE_SETTINGS)}
    widest = two_member_window(monkeypatch)
    for st, alone in lone.items():
        for target, mine, own in zip(targets, streamed(targets, st), alone):
            assert_same_result(mine, own)
            assert mine.labels == target.labels
    assert widest[0] == 2


def test_a_failing_member_admitted_late_raises_what_it_raises_alone(monkeypatch):
    targets = mixed_stack()
    st = SolverSettings(max_iterations=3)
    with pytest.raises(SolverFailure) as alone:
        min_error_discrimination(targets[1], st)
    two_member_window(monkeypatch)
    # the (2, 2, 2, 2) members certify at their first check; the last enters the window at step 10
    stream = solve_stream([targets[2], targets[2], targets[2], targets[1]], st)
    done = []
    with pytest.raises(SolverFailure) as late:
        for i, result in stream:
            done.append(i)
            assert result.iterations == 1
    assert done == [0, 1, 2]
    assert_same_failure(late.value, alone.value, 3)


@pytest.mark.parametrize("narrow", [False, True])
def test_members_at_mixed_settings_match_their_lone_solves_bit_for_bit(monkeypatch, narrow):
    targets = mixed_stack()
    settings = [(DEFAULT_SETTINGS, _ORACLE_SETTINGS, TIGHT)[i % 3] for i in range(len(targets))]
    lone = [min_error_discrimination(t, st) for t, st in zip(targets, settings)]
    widest = two_member_window(monkeypatch) if narrow else None
    mine = [None] * len(targets)
    for i, result in solve_stream(targets, settings):
        assert mine[i] is None
        mine[i] = result
    for target, st, result, own in zip(targets, settings, mine, lone):
        assert_same_result(result, own)
        assert result.certificate.gap <= st.gap_tol
        assert result.labels == target.labels
    # a member checked at local step k has run k + 1 iterations: every 5 steps for the undamped members, else 10
    assert {r.iterations % 10 for r, st in zip(mine, settings) if st is _ORACLE_SETTINGS} == {1, 6}
    assert all(r.iterations % 10 == 1 for r, st in zip(mine, settings) if st is not _ORACLE_SETTINGS)
    if narrow:
        assert widest[0] == 2


def test_the_member_that_runs_out_first_raises_what_it_raises_alone():
    targets = mixed_stack()
    # neither certifies within its cap; the one admitted second runs out first
    settings = [SolverSettings(max_iterations=40), dataclasses.replace(_ORACLE_SETTINGS, max_iterations=12)]
    with pytest.raises(SolverFailure) as alone:
        min_error_discrimination(targets[1], settings[1])
    with pytest.raises(SolverFailure) as stacked:
        list(solve_stream([targets[0], targets[1]], settings))
    assert_same_failure(stacked.value, alone.value, 12)
    with pytest.raises(ValueError, match="1 settings for 2 targets"):
        list(solve_stream(targets[:2], settings[:1]))


def test_the_bruteforce_case_is_one_stream_with_one_exact_certificate_per_member(counted_bruteforce_run):
    report, counts = counted_bruteforce_run
    assert report.computed == 8.822147157250271e-08
    # 50 row-merged and 1,750 assignment solves, each with the iterations it takes alone
    assert counts == {"steps": 9301, "member_steps": 193360, "certified": 1800}


@pytest.mark.parametrize("seed, computed", [(1, 6.288832898881935e-08), (7, 5.690133486613291e-08)])
def test_bruteforce_case_at_other_seeds_is_pinned(seed, computed):
    [report] = run_reproduce(seed=seed, only="prop-postinfo-bruteforce", trials=10)
    assert report.computed == computed
    assert report.passed


@pytest.mark.parametrize("narrow", [False, True])
def test_solve_stream_yields_each_index_once(monkeypatch, narrow):
    if narrow:
        two_member_window(monkeypatch)
    targets = mixed_stack() * 2
    indices = [i for i, _ in solve_stream(targets, _ORACLE_SETTINGS)]
    assert sorted(indices) == list(range(len(targets)))
    assert list(solve_stream([])) == []


def searched_values(ensembles):
    """Each ensemble's post-information value by the exhaustive search alone, as one stream."""
    search = AssignmentSearch([merged_row_targets(ens) for ens in ensembles])
    for k, result in solve_stream(search.targets, search.settings):
        search.fold(k, result)
    return search.values


def seed42_row_targets(monkeypatch):
    """The 50 row targets of the seed-42 brute-force case, built as the case builds them."""
    targets = []

    def stop(row_targets):
        targets.extend(row_targets)
        raise Built

    monkeypatch.setattr(reproduce, "AssignmentSearch", stop)
    with pytest.raises(Built):
        run_reproduce(seed=42, only="prop-postinfo-bruteforce")
    return targets


def test_assignment_search_keeps_each_sorted_multiset_of_rows_in_first_occurrence_order(monkeypatch):
    row_targets = seed42_row_targets(monkeypatch)
    assert len(row_targets) == 50
    search = AssignmentSearch(row_targets)
    expected = []
    for e, target in enumerate(row_targets):
        # every assignment of a row to each of the d^2 outcomes, kept once per sorted multiset
        assignments = itertools.product(range(len(target.operators)), repeat=target.dim**2)
        expected += [(e, target.select(k)) for k in dict.fromkeys(tuple(sorted(a)) for a in assignments)]
    assert len(search.targets) == len(expected) == 50 * 35
    assert search._owner == [e for e, _ in expected]
    for mine, (_, theirs) in zip(search.targets, expected):
        assert mine.labels == theirs.labels
        assert [op.tobytes() for op in mine.operators] == [op.tobytes() for op in theirs.operators]


def test_assignment_search_on_nine_qutrit_rows_builds_one_problem_per_multiset():
    target = merged_row_targets(random_postinfo(6, 3, 2))
    assert (len(target.operators), target.dim) == (9, 3)
    # C(9 + 9 - 1, 9) multisets of 9 rows over 9 outcomes, not the 9^9 assignments
    assert len(AssignmentSearch([target]).targets) == math.comb(17, 9) == 24_310


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
                states=(random_orthonormal_pair(rng, 2), random_orthonormal_pair(rng, 2)),
                prior=((float(w[0]), float(w[1])), (float(w[2]), float(w[3]))),
                orthogonal=True,
            )
        )
    together = searched_values(ensembles)
    assert together == [searched_values([ens])[0] for ens in ensembles]
    for ens, value in zip(ensembles, together):
        result = p_postinfo(ens)
        assert abs(value - result.value) <= result.certificate.gap + 1e-8


def test_stacked_targets_must_share_a_shape():
    targets = mixed_stack()
    with pytest.raises(ValueError):
        streamed([targets[0], merged_row_targets(gallery("minimal-qutrit"))])
    with pytest.raises(ValueError):
        streamed([targets[0], targets[0].select((0, 1))])
    assert streamed([]) == []


def test_bruteforce_case_rejects_a_certificate_that_fails_validation(monkeypatch):
    stream = reproduce.solve_stream

    def loose_first_dual(targets, settings):
        # member 0 is the first row-merged target; the search's members follow the merged ones
        for i, result in stream(targets, settings):
            if i == 0:
                bad = result.certificate.matrix - 1e-3 * np.eye(targets[0].dim)
                result = dataclasses.replace(result, certificate=dataclasses.replace(result.certificate, matrix=bad))
            yield i, result

    monkeypatch.setattr(reproduce, "solve_stream", loose_first_dual)
    with pytest.raises(InternalInconsistency, match="not feasible"):
        run_reproduce(seed=42, only="prop-postinfo-bruteforce", trials=3)


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


def test_solver_settings_in_use_are_valid():
    for st in (DEFAULT_SETTINGS, _ORACLE_SETTINGS, TIGHT):
        assert dataclasses.replace(st) == st
    SolverSettings(psd_tol=0.0, max_iterations=1, check_interval=1, damping=1.0)


def unchecked_povm(effects):
    """A Povm without its own checks, to reach the ones in ``validate``."""
    povm = object.__new__(discrimination.Povm)
    object.__setattr__(povm, "effects", tuple(effects))
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
        tuple(np.ascontiguousarray(c) for c in random_unitary(rng, dim).T) for _ in range(n_settings)
    )
    w = rng.dirichlet(np.ones(dim * n_settings)).reshape(n_settings, dim)
    return PostInfoEnsemble(
        settings=tuple(str(t) for t in range(n_settings)),
        states=states,
        prior=tuple(tuple(float(x) for x in row) for row in w),
        orthogonal=True,
    )


def full_solve(target):
    """The solve that iterates on every row: a stream of one."""
    [(_, result)] = solve_stream([target])
    return result


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
        assert_same_result(p_postinfo(ens), full)


def test_barrier_and_fixed_point_agree_within_both_gaps_at_most_d_squared_rows():
    # the two routes share no iteration, so each checks the other
    instances = [gallery("bb84"), gallery("minimal-qutrit"), gallery("thm1-pairs")]
    instances += [random_postinfo(10 + d, d, 2) for d in (2, 3, 4, 5)]
    for ens in instances:
        target = merged_row_targets(ens)
        assert len(target.operators) <= target.dim**2
        full = full_solve(target)
        primal, y, p, gap, steps = _barrier_solve(np.array(target.operators), DEFAULT_SETTINGS)
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


@pytest.mark.parametrize("cap", [5, 35])
def test_barrier_failure_reports_its_best_certificate_on_every_row(cap):
    ens = random_postinfo(2, 3, 3)  # needs 39 Newton steps, all in its first round
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
    ens = induced_postinfo(gallery("obb"), classical_side="a")  # certifies 1e-13 in 196 iterations
    m = np.array(merged_row_targets(ens).operators)
    with pytest.raises(SolverFailure) as failure:
        p_postinfo(ens, SolverSettings(gap_tol=1e-13, max_iterations=150))
    exc = failure.value
    assert isinstance(exc.__cause__, np.linalg.LinAlgError)
    assert exc.iterations == 150
    assert_reported_certificate(exc, m)
    # the barrier's own certificate, far better than the unfinished fixed-point iterate's
    assert 1e-13 < exc.gap < 1e-10


def test_postinfo_of_at_most_two_d_squared_rows_is_the_barrier_on_every_row_bit_for_bit():
    instances = [induced_postinfo(gallery(name), classical_side="a") for name in ("obb", "cq")]
    instances += [random_postinfo(seed, 2, 3) for seed in (0, 1)]
    for ens in instances:
        target = merged_row_targets(ens)
        assert target.dim**2 < len(target.operators) <= 2 * target.dim**2
        primal, y, p, gap, steps = _barrier_solve(np.array(target.operators), DEFAULT_SETTINGS)
        mine = p_postinfo(ens)
        assert (mine.value, mine.certificate.gap, mine.iterations) == (primal, gap, steps)
        assert mine.certificate.matrix.tobytes() == y.tobytes()
        assert [e.tobytes() for e in mine.povm.effects] == [e.tobytes() for e in p]


def test_a_working_set_certifies_every_row_within_the_full_barrier_gaps(barrier_rounds):
    # (2, 2, 5) and (3, 2, 5) are qubit targets of 32 rows whose first working set of 8 misses rows
    instances = [random_postinfo(seed, 2, 5) for seed in (2, 3)] + [random_postinfo(0, 3, 3), random_postinfo(4, 4, 3)]
    rounds = []
    for ens in instances:
        target = merged_row_targets(ens)
        assert len(target.operators) > 2 * target.dim**2
        primal, _, _, gap, _ = _barrier_solve(np.array(target.operators), DEFAULT_SETTINGS)
        barrier_rounds.clear()
        mine = p_postinfo(ens)
        rounds.append(len(barrier_rounds))
        assert barrier_rounds[0] == 2 * target.dim**2 and barrier_rounds == sorted(set(barrier_rounds))
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
    assert barrier_rounds == ([8] if cap == 6 else [8, 10])
    assert exc.iterations == cap
    assert_reported_certificate(exc, m)
    assert exc.gap > DEFAULT_SETTINGS.gap_tol


@pytest.fixture
def barrier_returns(monkeypatch):
    """What every ``_barrier_solve`` call returns, in call order: one per working-set round that does not fail."""
    returns = []
    solve = discrimination._barrier_solve

    def recorded(*args, **kwargs):
        returns.append(solve(*args, **kwargs))
        return returns[-1]

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
    assert exc.gap == min(discrimination._cover(y, m, primal)[2], discrimination._certify(m, povm)[2])


def test_a_first_round_that_ends_early_still_certifies_every_row(barrier_returns):
    ens = from_json_dict(json.loads(SIX_BASES.read_text()))
    target = merged_row_targets(ens)
    mine = p_postinfo(ens)
    assert len(target.operators) == 64 and len(barrier_returns) > 1
    assert barrier_returns[0][3] > DEFAULT_SETTINGS.gap_tol
    mine.certificate.validate(target, mine.povm)


def reference_barrier_solve(m, st):
    """``_barrier_solve`` with the boundary guard's eigendecomposition taken at every Newton step."""
    n, d = m.shape[0], m.shape[-1]
    f = discrimination._hermitian_basis(d)
    trace_f = f[:, :: d + 1].real.sum(axis=1)
    y, t = (np.linalg.eigvalsh(m).max() + 1.0) * np.eye(d), float(n * d)
    best, stalled = (None, None, math.inf, None), None
    try:
        for steps in range(1, st.max_iterations + 1):
            l_inv = np.linalg.inv(np.linalg.cholesky(y - m))
            s_inv = dagger(l_inv) @ l_inv
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
                if 100.0 * t * np.finfo(float).eps * np.trace(y).real > 1.0:
                    raise np.linalg.LinAlgError(f"barrier parameter {100.0 * t:.1e} is beyond rounding")
                t *= 100.0
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
    final = (*discrimination._certify(m, p), p)
    if stalled is not None and steps < st.max_iterations:
        try:
            rest = dataclasses.replace(st, max_iterations=st.max_iterations - steps)
            [(_, (primal, y, p, gap, fixed))] = discrimination._solve_stack(m[None], [rest], p[None])
            return primal, y, p, gap, steps + fixed
        except SolverFailure as polish:
            final, steps = (polish.primal, polish.dual, polish.gap, np.array(polish.povm)), st.max_iterations
    raise discrimination._failure(st, *min(best, final, key=lambda c: c[2]), steps) from stalled


@pytest.fixture
def guard_eigensolves(monkeypatch):
    """Counts the ``eigvalsh`` calls made by ``_step_length``, the boundary guard, and by nothing else."""
    calls = [0]
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls[0] += sys._getframe(1).f_code is discrimination._step_length.__code__
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_the_step_length_is_the_guarded_newton_step_bit_for_bit(guard_eigensolves):
    rng = np.random.default_rng(13)
    bound = 0
    for trial in range(400):
        n, d = int(rng.integers(1, 30)), int(rng.integers(2, 5))
        a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        s = a @ dagger(a) + 10.0 ** rng.uniform(-6, 1) * np.eye(d)
        l_inv = np.linalg.inv(np.linalg.cholesky(s))
        dy = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        dy = 10.0 ** rng.uniform(-8, 2) * (dy + dagger(dy))
        dec = float(10.0 ** rng.uniform(-3, 6))
        low = float(np.linalg.eigvalsh(l_inv @ dy @ dagger(l_inv)).min())  # not counted: called from here
        newton = 1.0 / (1.0 + math.sqrt(dec)) if dec > 1 else 1.0
        expected = min(newton, 0.99 / -low if low < 0 else math.inf)
        assert discrimination._step_length(l_inv, dy, dec) == expected, trial
        bound += expected < newton
    # the guard bound on some inputs, so the eigendecomposition ran, and was skipped on others
    assert 0 < bound <= guard_eigensolves[0] < 400


def newton_instances():
    """Every target above d^2 rows, and d = 4 and d = 3 ensembles of 64 and 81 rows."""
    return above_d_squared_instances() + [random_postinfo(20, 4, 3), random_postinfo(21, 3, 4)]


@pytest.mark.parametrize("gap_tol", [1e-7, 1e-13])
def test_the_barrier_gives_the_bits_of_the_guard_at_every_step(guard_eigensolves, gap_tol):
    st = SolverSettings(gap_tol=gap_tol)
    for ens in newton_instances():
        m = np.array(merged_row_targets(ens).operators)
        primal, y, p, gap, steps = _barrier_solve(m, st)
        ref_primal, ref_y, ref_p, ref_gap, ref_steps = reference_barrier_solve(m, st)
        assert (primal, gap, steps) == (ref_primal, ref_gap, ref_steps)
        assert y.tobytes() == ref_y.tobytes() and p.tobytes() == ref_p.tobytes()
    if gap_tol == DEFAULT_SETTINGS.gap_tol:
        # alpha_N max_r ||C_r||_F stayed below 0.98 at every step, so the guard never needed its eigenvalues
        assert guard_eigensolves[0] == 0


def test_a_working_set_takes_no_more_newton_steps_than_every_row():
    for ens in newton_instances():
        m = np.array(merged_row_targets(ens).operators)
        if len(m) > 2 * m.shape[-1] ** 2:
            assert p_postinfo(ens).iterations <= _barrier_solve(m, DEFAULT_SETTINGS)[4]
