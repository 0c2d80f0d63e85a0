import hashlib
import math
import re

import numpy as np
import pytest

from obcast import ensembles, qpv
from obcast.ensembles import gallery, gen_bb84
from obcast.qpv import (
    OBB_DISK_SHIFT,
    QQ_TILDE_DISK_SHIFT,
    Theorem4Instance,
    bb84_family_instance,
    breidbart_lower,
    cor5_printed_formula,
    cq_strategy_value,
    disk_program_solve,
    error_per_state,
    prop4_solve,
    shifts_instance,
    thm4_min_epsilon,
    thm4_rhs,
    thm6_separation,
)
from obcast.errors import InternalInconsistency
from obcast.uncertainty import SuperpositionSpec

SQ2 = math.sqrt(2)
BB84_VALUE = (2 + SQ2) / 4
CONJUGATE = SuperpositionSpec(math.pi / 2, 0.0, -math.pi / 2, 0.0)
# the four matched pairs (a_i, b_j) of both seven-state disk programs, the numeric cross-checks' reference
SEVEN_STATE_COUPLINGS = ((0, 1), (1, 0), (2, 3), (3, 2))


def test_instance_validation():
    with pytest.raises(ValueError):
        Theorem4Instance(overlap_a01=0.0, overlap_b01=0.0, overlap_a23=1.0, spec=CONJUGATE)
    with pytest.raises(ValueError):
        Theorem4Instance(overlap_a01=1.2, overlap_b01=0.0, overlap_a23=1.0, spec=CONJUGATE)


def test_rhs_fully_classical_case_is_unconstraining():
    inst = Theorem4Instance(
        overlap_a01=1.0,
        overlap_b01=0.0,
        overlap_a23=0.0,
        spec=SuperpositionSpec(0.0, 0.0, math.pi, 0.0),
    )
    assert thm4_rhs(0.0, inst) == pytest.approx(2.0)
    assert thm4_min_epsilon(inst) == 0.0


def test_rhs_conjugate_instance_closed_form():
    inst = bb84_family_instance(math.pi / 2)
    for eps in np.linspace(0, 0.5, 17):
        assert thm4_rhs(float(eps), inst) == pytest.approx(
            2 * math.sqrt(eps * (1 - eps)) + 2 * eps, abs=1e-12
        )
    assert thm4_rhs(0.5, inst) >= 1.0
    with pytest.raises(ValueError):
        thm4_rhs(0.6, inst)


def test_min_epsilon_conjugate_value():
    assert thm4_min_epsilon(bb84_family_instance(math.pi / 2)) == pytest.approx(
        (2 - SQ2) / 4, abs=1e-9
    )


def test_min_epsilon_matches_quadratic_root_across_angles():
    for theta in np.linspace(0.05, math.pi / 2, 100):
        c = 1 - math.cos(theta)
        s = math.sin(theta) ** 2
        root = ((c + s) - math.sqrt((c + s) ** 2 - (1 + s) * c * c)) / (2 * (1 + s))
        assert thm4_min_epsilon(bb84_family_instance(float(theta))) == pytest.approx(root, abs=1e-9)


def test_shifts_instance_threshold():
    inst = shifts_instance()
    assert inst.overlap_a01 == pytest.approx(0.5, abs=1e-12)
    assert inst.overlap_b01 == pytest.approx(0.0, abs=1e-12)
    assert inst.overlap_a23 == pytest.approx(0.5, abs=1e-12)
    eps = thm4_min_epsilon(inst)
    assert eps > 1e-5
    assert eps == pytest.approx(2.782088e-4, abs=1e-9)


def test_cor5_printed_formula_disagrees_with_the_bisection_root():
    assert cor5_printed_formula(math.pi / 2) == pytest.approx(BB84_VALUE, abs=1e-12)
    assert thm4_min_epsilon(bb84_family_instance(math.pi / 2)) == pytest.approx((2 - SQ2) / 4, abs=1e-9)
    assert cor5_printed_formula(0.0) == 0.0
    assert thm4_min_epsilon(bb84_family_instance(0.0)) == 0.0
    with pytest.raises(ValueError):
        cor5_printed_formula(2.0)


@pytest.mark.parametrize(
    "theta,expected",
    [(math.pi / 2, (2 + SQ2) / 4), (0.0, 1.0), (math.pi / 3, math.cos(math.pi / 12) ** 2)],
)
def test_breidbart_strategy_value(theta, expected):
    assert breidbart_lower(theta) == pytest.approx(expected, abs=1e-12)


def test_prop4_symmetric_parameters():
    assert prop4_solve(CONJUGATE) == pytest.approx(BB84_VALUE, abs=1e-6)
    assert bb84_family_instance(math.pi / 2).spec == CONJUGATE


def test_prop4_unconstrained_first_slot():
    # with both coefficients zero the capped slots sit at one half
    spec = SuperpositionSpec(0.4, 0.0, 0.4, 0.0)
    assert abs(spec.z1) == pytest.approx(0.0, abs=1e-15)
    expected = 0.5 * (0.5 + 1.0) + 0.5 * (0.5 + 0.5) - 0.5
    assert prop4_solve(spec) == pytest.approx(expected, abs=1e-6)


def test_prop4_orthogonal_case_saturates():
    # |z2| = 1 lets each second slot reach one with the first, so the program's value is exactly one
    spec = SuperpositionSpec(0.0, 0.0, math.pi, 0.0)
    assert abs(spec.z2) == 1.0
    assert prop4_solve(spec) == 1.0


# sha256 of the float64 bytes of ``prop4_solve`` over ``prop4_specs()``, recorded while the ascent was seeded from a
# 201 x 201 grid; seeding on its diagonal must keep every bit
PROP4_SHA256 = "2033d2447a58fac7714f52ca0ba3545889c5cc117f74d3ef1ba4ea603e6b2c47"


def prop4_specs():
    """The ``gen-bb84`` family at every multiple of pi/36 in [0, pi], then 200 random specs: at p = pg = 1/2 a spec is the whole instance."""
    specs = [bb84_family_instance(k * math.pi / 36).spec for k in range(37)]
    rng = np.random.default_rng(39)
    return specs + [SuperpositionSpec(*(float(x) for x in rng.uniform(-math.pi, math.pi, 4))) for _ in range(200)]


def test_prop4_keeps_the_bits_of_its_grid_seeded_ascent():
    values = np.array([prop4_solve(spec) for spec in prop4_specs()], dtype=np.float64)
    assert hashlib.sha256(values.tobytes()).hexdigest() == PROP4_SHA256


def reference_prop4_objective(z1, z2):
    """``prop4_solve``'s objective at one (r0, s0), in Python floats."""

    def objective(r0, s0):
        r1 = 0.5 * (z1 * math.sqrt(max(0.0, 1.0 - (2 * s0 - 1) ** 2)) + z2 * (2 * r0 - 1) + 1.0)
        s1 = 0.5 * (z1 * math.sqrt(max(0.0, 1.0 - (2 * r0 - 1) ** 2)) + z2 * (2 * s0 - 1) + 1.0)
        f_r = 0.5 * (0.5 + r0) + 0.5 * (0.5 + min(1.0, r1)) - 0.5
        f_s = 0.5 * (0.5 + s0) + 0.5 * (0.5 + min(1.0, s1)) - 0.5
        return min(f_r, f_s)

    return objective


def prop4_instances():
    """The ``bb84-prop4`` spec, then random ones: at p = pg = 1/2 a spec is the whole instance."""
    yield CONJUGATE
    rng = np.random.default_rng(4)
    for _ in range(4):
        yield SuperpositionSpec(*(float(x) for x in rng.uniform(-math.pi, math.pi, 4)))


@pytest.mark.parametrize("instance", list(prop4_instances()))
def test_prop4_full_seed_grid_has_its_first_maximum_on_the_diagonal(instance):
    # the ascent once started at the first maximum of the whole 201 x 201 grid in r0-major order; on the
    # diagonal, that point is also the first best diagonal point, where the ascent now starts
    objective = reference_prop4_objective(abs(instance.z1), abs(instance.z2))
    grid = np.linspace(0.5, 1.0, 201).tolist()
    values = np.array([[objective(a, b) for b in grid] for a in grid])
    i, j = np.unravel_index(np.argmax(values), values.shape)
    assert i == j
    assert values[i, j] == max(objective(r, r) for r in grid)


def test_disk_program_seven_state_bound():
    bound = disk_program_solve(OBB_DISK_SHIFT)
    assert bound == pytest.approx(0.25 + SQ2 / 4, abs=1e-12)
    assert bound <= 0.603554


def test_disk_program_primed_quantum_bound():
    bound = disk_program_solve(QQ_TILDE_DISK_SHIFT)
    assert bound == pytest.approx(0.25 + 3 / (4 * SQ2), abs=1e-12)
    assert bound == pytest.approx(0.78033, abs=1e-6)


def disk_program_ascent(iterations: int = 200) -> float:
    """Pattern ascent on pair angles: the uncertified numeric route that checks the analytic one.

    Each coupled pair is kept on the disk boundary and parametrized by one
    angle; the min of the party sums is maximized by coordinate pattern
    search.  Returns the program's optimum, before any shift.
    """
    n = len(SEVEN_STATE_COUPLINGS)
    phi = np.full(n, math.pi / 4)

    def point(angles):
        a = np.empty(n)
        b = np.empty(n)
        for k, (i, j) in enumerate(SEVEN_STATE_COUPLINGS):
            a[i] = 0.5 * (1.0 + math.cos(angles[k]))
            b[j] = 0.5 * (1.0 + math.sin(angles[k]))
        return a, b

    def value(angles) -> float:
        a, b = point(angles)
        return min(a.sum(), b.sum())

    best = value(phi)
    step = math.pi / 8
    for _ in range(iterations):
        improved = False
        for k in range(n):
            for delta in (step, -step):
                trial = phi.copy()
                trial[k] = min(math.pi / 2, max(0.0, trial[k] + delta))
                candidate = value(trial)
                if candidate > best + 1e-15:
                    phi, best = trial, candidate
                    improved = True
        if not improved:
            step /= 2.0
            if step < 1e-10:
                break
    return best


@pytest.mark.parametrize("shift", [OBB_DISK_SHIFT, QQ_TILDE_DISK_SHIFT])
def test_disk_ascent_agrees_with_analytic_route(shift):
    analytic = disk_program_solve(shift)
    numeric = 0.25 + 0.25 * (disk_program_ascent() + shift)
    assert numeric <= analytic + 1e-9
    assert numeric >= analytic - 1e-6


@pytest.mark.parametrize("shift", [OBB_DISK_SHIFT, QQ_TILDE_DISK_SHIFT])
def test_disk_program_agrees_with_convex_solver(shift):
    cp = pytest.importorskip("cvxpy")
    n = len(SEVEN_STATE_COUPLINGS)
    a = cp.Variable(n)
    b = cp.Variable(n)
    t = cp.Variable()
    constraints = [t <= cp.sum(a), t <= cp.sum(b), a >= 0, a <= 1, b >= 0, b <= 1]
    for i, j in SEVEN_STATE_COUPLINGS:
        constraints.append(a[i] <= 0.5 + 0.5 * cp.sqrt(1 - cp.square(2 * b[j] - 1)))
        constraints.append(b[j] <= 0.5 + 0.5 * cp.sqrt(1 - cp.square(2 * a[i] - 1)))
    problem = cp.Problem(cp.Maximize(t), constraints)
    problem.solve(solver=cp.CLARABEL)
    assert disk_program_solve(shift) == pytest.approx(0.25 + 0.25 * (problem.value + shift), abs=1e-6)


def test_prop4_agrees_with_convex_solver():
    cp = pytest.importorskip("cvxpy")
    p, pg01, pg23 = 0.5, 0.5, 0.5  # the symmetric point, where prop4_solve poses the program
    z1, z2 = abs(CONJUGATE.z1), abs(CONJUGATE.z2)
    r = cp.Variable(2)
    s = cp.Variable(2)
    t = cp.Variable()
    constraints = [
        r >= 0, r <= 1, s >= 0, s <= 1,
        t <= p * (pg01 + r[0]) + (1 - p) * (pg23 + r[1]) - 0.5,
        t <= p * (pg01 + s[0]) + (1 - p) * (pg23 + s[1]) - 0.5,
        r[1] <= 0.5 * (z1 * cp.sqrt(1 - cp.square(2 * s[0] - 1)) + z2 * (2 * r[0] - 1) + 1),
        s[1] <= 0.5 * (z1 * cp.sqrt(1 - cp.square(2 * r[0] - 1)) + z2 * (2 * s[0] - 1) + 1),
    ]
    problem = cp.Problem(cp.Maximize(t), constraints)
    problem.solve(solver=cp.CLARABEL)
    # the program's value is below one here
    assert problem.value < 1.0
    assert prop4_solve(CONJUGATE) == pytest.approx(problem.value, abs=1e-6)


def test_error_per_state():
    assert error_per_state(gen_bb84(math.pi / 2), BB84_VALUE) == pytest.approx((2 - SQ2) / 16, abs=1e-12)
    assert error_per_state(gen_bb84(math.pi / 2), BB84_VALUE) < 0.03662
    assert error_per_state(gallery("obb"), 0.603554) > 0.05663
    assert error_per_state(gallery("obb"), 1.0) == 0.0


def test_cq_strategy_total():
    assert cq_strategy_value() == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-12)


def test_cq_strategy_is_prior_independent():
    # every row succeeds with the same probability, so reweighting is inert
    povm, ens = gallery("thm6-breidbart-povm"), gallery("cq")
    trits = [int(np.argmax(np.abs(a))) for a in ens.a_states]
    rows = []
    for k, b_state in enumerate(ens.b_states):
        probs = povm.outcome_probabilities(b_state)
        rows.append(float(sum(probs[y] for y in range(len(povm)) if qpv._CQ_GUESS_TABLE[(trits[k], y)] == k)))
    assert all(abs(x - math.cos(math.pi / 8) ** 2) <= 1e-12 for x in rows)
    rng = np.random.default_rng(0)
    totals = []
    for _ in range(20):
        w = rng.dirichlet(np.ones(7))
        totals.append(float(np.dot(w, rows)))
    assert max(totals) - min(totals) <= 1e-12


def test_separation_assembly():
    sep = thm6_separation()
    assert sep.upper == pytest.approx(0.780330, abs=1e-6)
    assert sep.upper <= 0.7805
    assert sep.lower == pytest.approx(BB84_VALUE, abs=1e-12)
    assert sep.gap > 0.07
    assert abs(sep.upper - 0.7805) <= 2e-4 and sep.upper <= 0.7805 + 1e-12
    assert abs(sep.lower - math.cos(math.pi / 8) ** 2) <= 1e-12


def test_attack_bounds_dominate_their_strategies():
    # the certified chain at theta = pi/2: program bound, explicit strategy,
    # and inequality threshold all meet at the same number
    success_bound = 1 - thm4_min_epsilon(bb84_family_instance(math.pi / 2))
    strategy = breidbart_lower(math.pi / 2)
    program = prop4_solve(CONJUGATE)
    assert success_bound >= strategy - 1e-9
    assert program >= strategy - 1e-6


def test_rhs_monotone_on_gallery_instances():
    # thm4_min_epsilon bisects without a scan, so the right-hand side must not fall at any angle ``bound`` accepts
    angles = [math.pi / 2, 1.0, *np.linspace(0.0, math.pi, 65)[1:]]
    for inst in [bb84_family_instance(float(theta)) for theta in angles] + [shifts_instance()]:
        grid = [thm4_rhs(float(e), inst) for e in np.linspace(0, 0.5, 1000)]
        assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))


def test_a_disk_point_below_the_fixed_point_misses_the_certificate(monkeypatch):
    # the centre of the disk is feasible, but its value is not the certified one
    monkeypatch.setattr(qpv, "DISK_FIXED_POINT", 0.5)
    with pytest.raises(InternalInconsistency, match="feasible value 2.0 and certificate .* disagree"):
        disk_program_solve(OBB_DISK_SHIFT)


def test_a_broken_guess_table_is_inconsistent(monkeypatch):
    monkeypatch.setitem(qpv._CQ_GUESS_TABLE, (1, 0), 1)
    with pytest.raises(InternalInconsistency, match="strategy table transcription broken"):
        cq_strategy_value()


def test_a_failed_local_unitary_equivalence_is_inconsistent(monkeypatch):
    monkeypatch.setattr(ensembles, "local_unitary_equivalence_deviation", lambda *args, **kwargs: 1e-3)
    with pytest.raises(InternalInconsistency, match="local-unitary equivalence fails by 1.000e-03"):
        thm6_separation()


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: breidbart_lower(-0.1), "theta=-0.1 outside [0, pi]"),
        (lambda: breidbart_lower(3.5), "theta=3.5 outside [0, pi]"),
        (lambda: error_per_state(gallery("obb"), 1.5), "pr_attack_bound=1.5 outside [0, 1]"),
        (lambda: error_per_state(gallery("obb"), -0.25), "pr_attack_bound=-0.25 outside [0, 1]"),
    ],
)
def test_input_checks_name_what_is_wrong(check, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check()
