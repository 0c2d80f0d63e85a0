"""Registry of reproducible bound computations and the runner behind ``reproduce``.

Every case is a pure function of (seed, solver settings) returning one
``BoundReport``.  Randomized cases derive their generator from the seed and
their own id, so reports are identical regardless of which cases run and
in what order.  Cases run one after another: they are small numpy calls
that hold the interpreter lock, so worker threads would only add overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import broadcast, moe, qpv
from .discrimination import (
    DEFAULT_SETTINGS,
    SolverSettings,
    helstrom_binary,
    losscc_value_cq,
    merged_row_targets,
    min_error_discrimination_stack,
    p_postinfo,
)
from .ensembles import GopEnsemble, gallery, gen_bb84, induced_postinfo
from .linalg import dyad, fidelity, kron, partial_trace, trace_distance, trace_norm
from .moe import PermutationFamily, lemma_a1_bound
from .oracles import enumerate_postinfo
from .reporting import BoundReport
from .sampling import (
    case_rng,
    random_density,
    random_ket,
    random_psd,
    random_unitary,
)
from .uncertainty import (
    GeneralURInstance,
    SuperpositionSpec,
    ur_general,
    ur_guess_bound,
    ur_pair_bound,
)

SQ2 = math.sqrt(2.0)
BB84_VALUE = (2.0 + SQ2) / 4.0


@dataclass(frozen=True)
class ReproduceOptions:
    seed: int = 42
    trials: int | None = None
    settings: SolverSettings = field(default_factory=lambda: DEFAULT_SETTINGS)

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")

    def n_trials(self, default: int) -> int:
        return self.trials if self.trials is not None else default


@dataclass(frozen=True)
class CaseSpec:
    id: str
    paper_ref: str
    run: object  # (CaseSpec, ReproduceOptions) -> BoundReport


def _report(case: CaseSpec, computed, expected, tolerance, certificate, passed) -> BoundReport:
    return BoundReport(
        id=case.id,
        paper_ref=case.paper_ref,
        computed=float(computed),
        expected=None if expected is None else float(expected),
        tolerance=float(tolerance),
        certificate=certificate,
        passed=bool(passed),
    )


def _two_sided(computed, expected, tol) -> bool:
    return abs(computed - expected) <= tol


_CASES: list[CaseSpec] = []


def _case(case_id: str, paper_ref: str):
    def wrap(fn):
        _CASES.append(CaseSpec(id=case_id, paper_ref=paper_ref, run=fn))
        return fn

    return wrap


# --- four-state family chain --------------------------------------------------


@_case("bb84-postinfo", "cor5 tight value via measure-first reduction")
def _bb84_postinfo(case, opts):
    result = p_postinfo(gallery("bb84"), opts.settings)
    ok = _two_sided(result.value, BB84_VALUE, 1e-6) and result.certificate.gap <= 1e-7
    return _report(case, result.value, BB84_VALUE, 1e-6, "dual-certified", ok)


@_case("bb84-postinfo-gap", "duality gap of the measure-first solve")
def _bb84_gap(case, opts):
    result = p_postinfo(gallery("bb84"), opts.settings)
    gap = result.certificate.gap
    return _report(case, gap, 0.0, 1e-7, "dual-certified", gap <= 1e-7)


@_case("bb84-prop4", "prop4 program at the symmetric parameters")
def _bb84_prop4(case, opts):
    result = qpv.prop4_solve(0.5, 0.5, 0.5, SuperpositionSpec(math.pi / 2, 0.0, -math.pi / 2, 0.0))
    return _report(case, result.bound, BB84_VALUE, 1e-6, "heuristic", _two_sided(result.bound, BB84_VALUE, 1e-6))


@_case("bb84-breidbart", "intermediate-basis attack at theta=pi/2")
def _bb84_breidbart(case, opts):
    value = qpv.breidbart_lower(math.pi / 2)
    return _report(case, value, BB84_VALUE, 1e-9, "exact", _two_sided(value, BB84_VALUE, 1e-9))


@_case("bb84-min-epsilon", "cor5 threshold by bisection at theta=pi/2")
def _bb84_min_epsilon(case, opts):
    root = qpv.cor5_epsilon_star(math.pi / 2).bisection_root
    expected = (2.0 - SQ2) / 4.0
    return _report(case, root, expected, 1e-9, "analytic", _two_sided(root, expected, 1e-9))


@_case("bb84-cor5-printed", "cor5 closed form as published (equals the success value, not the error; discrepancy logged, not asserted)")
def _bb84_cor5_printed(case, opts):
    printed = qpv.cor5_epsilon_star(math.pi / 2).printed_formula
    return _report(case, printed, BB84_VALUE, 1e-12, "exact", _two_sided(printed, BB84_VALUE, 1e-12))


@_case("bb84-losscc", "classical-communication value with the classical side forwarded")
def _bb84_losscc(case, opts):
    swapped = _swap_sides(gen_bb84(math.pi / 2))
    value = losscc_value_cq(swapped, opts.settings).value
    return _report(case, value, BB84_VALUE, 1e-6, "dual-certified", _two_sided(value, BB84_VALUE, 1e-6))


def _swap_sides(g: GopEnsemble) -> GopEnsemble:
    return GopEnsemble(a_states=g.b_states, b_states=g.a_states, prior=g.prior)


# --- explicit qutrit POVM ------------------------------------------------------


@_case("prop1-povm-spectra", "each printed effect has spectrum {3/4, 0, 0}")
def _prop1_spectra(case, opts):
    povm = gallery("prop1-povm")
    worst = 0.0
    for effect in povm.effects:
        eigs = np.sort(np.linalg.eigvalsh(effect))
        worst = max(worst, float(np.abs(eigs - np.array([0.0, 0.0, 0.75])).max()))
    return _report(case, worst, 0.0, 1e-12, "exact", worst <= 1e-12)


@_case("prop1-povm-sum", "printed effects sum to the identity")
def _prop1_sum(case, opts):
    povm = gallery("prop1-povm")
    dev = float(np.abs(sum(povm.effects) - np.eye(3)).max())
    return _report(case, dev, 0.0, 1e-12, "exact", dev <= 1e-12)


@_case("prop1-outcome-table", "outcome partition of the minimal qutrit ensemble")
def _prop1_table(case, opts):
    report = broadcast.verify_classical_broadcast_povm(gallery("prop1-povm"), gallery("minimal-qutrit"))
    want = {(0, 0): (0, 1), (0, 1): (2, 3), (1, 0): (0, 2), (1, 1): (1, 3)}
    ok = report.ok and report.outcome_table == want and report.max_violation <= 1e-12
    return _report(case, report.max_violation, 0.0, 1e-12, "exact", ok)


@_case("minimal-qutrit-feasible", "perfect classical broadcastability of the minimal qutrit set")
def _minimal_feasible(case, opts):
    decision = broadcast.perfect_classical_broadcast_decision(gallery("minimal-qutrit"), opts.settings)
    ok = decision.feasible and decision.witness_violation <= 1e-6
    return _report(case, decision.value, 1.0, 1e-7, "dual-certified", ok and _two_sided(decision.value, 1.0, 1e-7))


@_case("minimal-qutrit-postinfo", "measure-first value of the minimal qutrit set")
def _minimal_postinfo(case, opts):
    value = p_postinfo(gallery("minimal-qutrit"), opts.settings).value
    return _report(case, value, 1.0, 1e-7, "dual-certified", _two_sided(value, 1.0, 1e-7))


# --- three-setting qutrit separation -------------------------------------------


@_case("thm1-quantum-broadcast", "entangling isometry preserves all three orthogonality pairs")
def _thm1_quantum(case, opts):
    report = broadcast.verify_orthogonality_broadcast(gallery("thm1-isometry"), gallery("thm1-pairs"))
    return _report(case, report.max_overlap, 0.0, 1e-12, "exact", report.ok and report.max_overlap <= 1e-12)


@_case("thm1-kill-certificate", "all eight survivor-pattern kernels are trivial")
def _thm1_kill(case, opts):
    cert = broadcast.kill_pattern_certificate(gallery("thm1-pairs"))
    worst = max(cert.kernel_dims.values())
    ok = cert.certified_infeasible and len(cert.kernel_dims) == 8
    return _report(case, worst, 0.0, 0.0, "exact", ok)


@_case("thm1-postinfo", "measure-first value strictly below one for three settings")
def _thm1_postinfo(case, opts):
    value = p_postinfo(gallery("thm1-pairs"), opts.settings).value
    expected = math.cos(math.pi / 12) ** 2
    ok = value < 1.0 - 1e-3 and _two_sided(value, expected, 1e-8)
    return _report(case, value, expected, 1e-8, "dual-certified", ok)


@_case("thm2-protocol", "entangling protocol keeps all four pairs orthogonal on both sides")
def _thm2_protocol(case, opts):
    induced = induced_postinfo(gallery("thm2-eight"), classical_side="a")
    report = broadcast.verify_orthogonality_broadcast(gallery("thm2-isometry"), induced)
    return _report(case, report.max_overlap, 0.0, 1e-12, "exact", report.ok and report.max_overlap <= 1e-12)


@_case("cor4-quantum-route", "six-state set is distinguishable with quantum communication")
def _cor4_quantum(case, opts):
    induced = induced_postinfo(gallery("cor4-six"), classical_side="a")
    report = broadcast.verify_orthogonality_broadcast(gallery("cor4-isometry"), induced)
    return _report(case, report.max_overlap, 0.0, 1e-12, "exact", report.ok and report.max_overlap <= 1e-12)


@_case("cor4-classical-infeasible", "six-state set admits no classical-communication protocol")
def _cor4_classical(case, opts):
    induced = induced_postinfo(gallery("cor4-six"), classical_side="a")
    cert = broadcast.kill_pattern_certificate(induced)
    worst = max(cert.kernel_dims.values())
    return _report(case, worst, 0.0, 0.0, "exact", cert.certified_infeasible)


# --- seven-state qutrit bounds --------------------------------------------------


@_case("obb-disk-bound", "coupled-disk program for the overlapping-bases set (printed 0.603554)")
def _obb_disk(case, opts):
    solution = qpv.disk_program_solve(qpv.obb_disk_program())
    ok = solution.bound <= 0.603554 + 1e-12 and _two_sided(solution.bound, 0.603554, 1e-6)
    return _report(case, solution.bound, 0.603554, 1e-6, "analytic", ok)


@_case("delta-bb84", "error per state of the four-state protocol (printed < 0.03662)")
def _delta_bb84(case, opts):
    delta = qpv.error_per_state(gen_bb84(math.pi / 2), 1.0, BB84_VALUE)
    ok = delta < 0.03662 and _two_sided(delta, 0.03662, 1e-5)
    return _report(case, delta, 0.03662, 1e-5, "analytic", ok)


@_case("delta-obb", "error per state of the seven-state protocol (printed > 0.05663)")
def _delta_obb(case, opts):
    delta = qpv.error_per_state(gallery("obb"), 1.0, 0.603554)
    ok = delta > 0.05663 and _two_sided(delta, 0.05663, 1e-5)
    return _report(case, delta, 0.05663, 1e-5, "analytic", ok)


@_case("qq-tilde-disk", "coupled-disk program for the primed fully quantum set")
def _qq_tilde_disk(case, opts):
    solution = qpv.disk_program_solve(qpv.qq_tilde_disk_program())
    return _report(case, solution.bound, 0.78033, 1e-6, "analytic", _two_sided(solution.bound, 0.78033, 1e-6))


@_case("thm6-qq-upper", "upper bound on the fully quantum set via certified unitary equivalence")
def _thm6_upper(case, opts):
    report = qpv.thm6_separation().upper
    return _report(case, report.computed, report.expected, report.tolerance, report.certificate, report.passed)


@_case("thm6-cq-lower", "explicit strategy value on the classical-quantum set")
def _thm6_lower(case, opts):
    report = qpv.thm6_separation().lower
    return _report(case, report.computed, report.expected, report.tolerance, report.certificate, report.passed)


@_case("thm6-gap", "strict separation between the two seven-state sets")
def _thm6_gap(case, opts):
    sep = qpv.thm6_separation()
    expected = math.cos(math.pi / 8) ** 2 - (0.25 + 3.0 / (4.0 * SQ2))
    ok = sep.gap > 0.07 and _two_sided(sep.gap, expected, 1e-9)
    return _report(case, sep.gap, expected, 1e-9, "analytic", ok)


@_case("shifts-min-epsilon", "two-qubit-vs-qubit set threshold (printed 5.52e-4; bisection gives the value below, discrepancy recorded, only positivity asserted)")
def _shifts_eps(case, opts):
    root = qpv.thm4_min_epsilon(qpv.shifts_instance())
    c = 1.0 - math.sqrt(3.0) / 2.0
    expected = ((64.0 + 4.0 * c) - math.sqrt((64.0 + 4.0 * c) ** 2 - 4.0 * 68.0 * c * c)) / (2.0 * 68.0)
    ok = root > 1e-5 and _two_sided(root, expected, 1e-9)
    return _report(case, root, expected, 1e-9, "analytic", ok)


# --- tripartite game route ------------------------------------------------------


@_case("moe-go-overlap-constant", "shared rank-one effects force overlap constant one")
def _moe_go_c(case, opts):
    value = moe.overlap_constant(moe.game_obb())
    return _report(case, value, 1.0, 1e-12, "exact", _two_sided(value, 1.0, 1e-12))


@_case("moe-go-copy-bound", "permutation bound on the copying strategy stays trivial")
def _moe_go_copy(case, opts):
    report = moe.example_go_trivial()
    return _report(case, report.copy_strategy_bound, 1.0, 1e-12, "exact", _two_sided(report.copy_strategy_bound, 1.0, 1e-12))


@_case("moe-go-contrast", "broadcast-side program certifies what the game route cannot")
def _moe_go_contrast(case, opts):
    report = moe.example_go_trivial()
    ok = report.contrast_bound < 1.0 and _two_sided(report.contrast_bound, 0.603554, 1e-6)
    return _report(case, report.contrast_bound, 0.603554, 1e-6, "analytic", ok)


@_case("moe-bb84-lemma-bound", "two-basis game bound from the permutation splitting")
def _moe_bb84(case, opts):
    bound = moe.classical_copy_permutation_bound(moe.game_bb84())
    expected = 0.5 * (1.0 + 1.0 / SQ2)
    return _report(case, bound, expected, 1e-9, "exact", _two_sided(bound, expected, 1e-9))


@_case("moe-transpose-marginal", "steering identity on random unitaries")
def _moe_transpose(case, opts):
    rng = case_rng(opts.seed, case.id)
    worst = 0.0
    for k in range(opts.n_trials(100)):
        d = 2 + (k % 2)
        worst = max(worst, moe.steering_deviation(random_unitary(rng, d)))
    return _report(case, worst, None, 1e-12, "exact", worst <= 1e-12)


# --- randomized property suites --------------------------------------------------


def _random_spec(rng) -> SuperpositionSpec:
    return SuperpositionSpec(
        theta=float(rng.uniform(0, 2 * math.pi)),
        phi=float(rng.uniform(0, 2 * math.pi)),
        omega=float(rng.uniform(0, 2 * math.pi)),
        phi_prime=float(rng.uniform(0, 2 * math.pi)),
    )


@_case("prop-ur-pair-soundness", "pair uncertainty relation on random bipartite vectors")
def _prop_ur_pair(case, opts):
    rng = case_rng(opts.seed, case.id)
    worst = -math.inf
    for _ in range(opts.n_trials(1000)):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a0, a1 = random_ket(rng, da * db), random_ket(rng, da * db)
        lhs, rhs = ur_pair_bound(a0, a1, _random_spec(rng), (da, db))
        worst = max(worst, lhs - rhs)
    return _report(case, worst, None, 1e-9, "exact", worst <= 1e-9)


@_case("prop-ur-guess-soundness", "guessing form of the relation at exact optimal values")
def _prop_ur_guess(case, opts):
    rng = case_rng(opts.seed, case.id)
    worst = -math.inf
    for _ in range(opts.n_trials(1000)):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a0, a1 = random_ket(rng, da * db), random_ket(rng, da * db)
        spec = _random_spec(rng)
        v_t = spec.superpose(a0, a1, "theta")
        v_o = spec.superpose(a0, a1, "omega")
        dims = (da, db)
        marg = lambda v, keep: partial_trace(dyad(v), dims, {keep})
        lhs = 0.5 * (1.0 + trace_distance(marg(v_t, 1), marg(v_o, 1)))
        pg_a = helstrom_binary(marg(a0, 0), marg(a1, 0))
        pg_b = helstrom_binary(marg(a0, 1), marg(a1, 1))
        worst = max(worst, lhs - ur_guess_bound(pg_a, pg_b, spec))
    return _report(case, worst, None, 1e-9, "exact", worst <= 1e-9)


@_case("prop-ur-general-soundness", "multi-vector relation on random three-vector instances")
def _prop_ur_general(case, opts):
    rng = case_rng(opts.seed, case.id)
    worst = -math.inf
    for _ in range(opts.n_trials(500)):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        gammas = tuple(random_ket(rng, da * db) for _ in range(3))
        coeff = lambda: tuple((rng.normal() + 1j * rng.normal()) / 2 for _ in range(3))
        inst = GeneralURInstance(gammas=gammas, alphas=coeff(), betas=coeff(), dims=(da, db))
        bounds = ur_general(inst)
        worst = max(worst, bounds.lhs - bounds.rhs_tight, bounds.lhs - bounds.rhs_relaxed)
    return _report(case, worst, None, 1e-9, "exact", worst <= 1e-9)


@_case("prop-fuchs-van-de-graaf", "trace distance vs fidelity envelope on random density pairs")
def _prop_fvdg(case, opts):
    rng = case_rng(opts.seed, case.id)
    worst = -math.inf
    for _ in range(opts.n_trials(1000)):
        d = int(rng.integers(2, 5))
        rho, sigma = random_density(rng, d), random_density(rng, d)
        f = fidelity(rho, sigma)
        dist = trace_distance(rho, sigma)
        worst = max(worst, (1.0 - f) - dist, dist - math.sqrt(max(0.0, 1.0 - f * f)))
    return _report(case, worst, None, 1e-9, "exact", worst <= 1e-9)


@_case("prop-product-norm", "tensor-splitting of the trace norm on random state pairs")
def _prop_product_norm(case, opts):
    # Sampled over density operators (trace-one members of 0 <= W <= I): the
    # splitting needs trace-norm-one factors, and that is how it is applied.
    # General contractions admit counterexamples, e.g. W = Y = I on a qubit.
    rng = case_rng(opts.seed, case.id)
    worst = -math.inf
    for _ in range(opts.n_trials(1000)):
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        w, y = random_density(rng, d1), random_density(rng, d1)
        x, z = random_density(rng, d2), random_density(rng, d2)
        lhs = trace_norm(kron(w, x) - kron(y, z))
        rhs = trace_norm(w - y) + trace_norm(x - z)
        worst = max(worst, lhs - rhs)
    return _report(case, worst, None, 1e-9, "exact", worst <= 1e-9)


@_case("prop-lemma-a1", "permutation splitting of the operator norm on random PSD tuples")
def _prop_lemma_a1(case, opts):
    rng = case_rng(opts.seed, case.id)
    worst = -math.inf
    for _ in range(opts.n_trials(500)):
        n = int(rng.integers(3, 5))
        d = int(rng.integers(2, 7))
        ops = [random_psd(rng, d) for _ in range(n)]
        bound = lemma_a1_bound(ops, PermutationFamily.cyclic(n))
        total = float(np.linalg.eigvalsh(sum(ops)).max())
        worst = max(worst, total - bound)
    return _report(case, worst, None, 1e-9, "exact", worst <= 1e-9)


@_case("prop-postinfo-bruteforce", "row-merged solve matches exhaustive assignment search")
def _prop_bruteforce(case, opts):
    from .ensembles import PostInfoEnsemble
    from .sampling import random_orthonormal_pair

    rng = case_rng(opts.seed, case.id)
    ensembles = []
    for _ in range(opts.n_trials(50)):
        pair0 = random_orthonormal_pair(rng, 2)
        pair1 = random_orthonormal_pair(rng, 2)
        weights = rng.dirichlet(np.ones(4))
        ensembles.append(
            PostInfoEnsemble(
                settings=("0", "1"),
                states=(pair0, pair1),
                prior=((float(weights[0]), float(weights[1])), (float(weights[2]), float(weights[3]))),
                orthogonal=True,
            )
        )
    targets = [merged_row_targets(ens, psd_tol=opts.settings.psd_tol) for ens in ensembles]
    merged = min_error_discrimination_stack(targets, opts.settings)
    worst = 0.0
    for ens, res in zip(ensembles, merged):
        worst = max(worst, abs(res.value - enumerate_postinfo(ens)))
    return _report(case, worst, None, 1e-6, "dual-certified", worst <= 1e-6)


# --- runner ----------------------------------------------------------------------


def case_ids() -> tuple[str, ...]:
    return tuple(sorted(c.id for c in _CASES))


def run_reproduce(
    seed: int = 42,
    only: str | None = None,
    trials: int | None = None,
    settings: SolverSettings | None = None,
) -> list[BoundReport]:
    """Run all (or a filtered subset of) cases and return reports sorted by id."""
    opts = ReproduceOptions(seed=seed, trials=trials, settings=settings or DEFAULT_SETTINGS)
    selected = sorted(
        (c for c in _CASES if only is None or only in c.id),
        key=lambda c: c.id,
    )
    return [c.run(c, opts) for c in selected]
