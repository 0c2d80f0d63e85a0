"""Registry of reproducible bound computations and the runner behind ``reproduce``.

Every case declares its paper reference, expected value, tolerance and
certificate kind, and computes its value as a pure function of (seed,
solver settings); one pass rule in ``_case`` turns the two into a
``BoundReport``.  Randomized cases derive their generator from the seed and
their own id, so reports are identical regardless of which cases run and
in what order.  Cases that read parts of one result share it through
``ReproduceOptions.shared``, computed once per run.  Cases run one after
another: they are small numpy calls that hold the interpreter lock, so
worker threads would only add overhead, and ``--jobs`` is accepted and
ignored.  The brute-force case alone splits its trials across the CPUs
this process may run on, one contiguous chunk per CPU up to
``MAX_CHUNKS``, each after the first in a child made with ``os.fork``
(``_in_chunks``; one chunk where the platform has no
``os.sched_getaffinity`` or another thread of the process runs).  Its
trials' values do not depend on each other, so the report has the same
bytes in any number of chunks.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import threading
from dataclasses import dataclass, field

import numpy as np

from . import broadcast, moe, qpv
from .discrimination import (
    DEFAULT_SETTINGS,
    DiscriminationResult,
    DualCertificate,
    SolverSettings,
    finished_stream,
    helstrom_binary,
    merged_row_targets,
    p_postinfo,
    validated,
)
from .ensembles import Povm, gallery, gen_bb84, induced_postinfo
from .errors import ChunkFailure
from .linalg import dyad, fidelity, kron, partial_trace, trace_distance, trace_norm
from .moe import lemma_a1_bound
from .oracles import AssignmentSearch
from .reporting import BoundReport
from .sampling import (
    case_rng,
    density_from_normals,
    ket_from_normals,
    psd_from_normals,
    unitary_from_normals,
)
from .uncertainty import (
    SuperpositionSpec,
    superpose,
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        object.__setattr__(self, "_shared", {})

    def shared(self, fn):
        """``fn()``, computed once per run for the cases that read parts of one result."""
        if fn not in self._shared:
            self._shared[fn] = fn()
        return self._shared[fn]

    def n_trials(self, default: int) -> int:
        return self.trials if self.trials is not None else default


@dataclass(frozen=True)
class CaseSpec:
    id: str
    paper_ref: str
    run: object  # (CaseSpec, ReproduceOptions) -> BoundReport


_CASES: list[CaseSpec] = []


def _case(case_id: str, paper_ref: str, expected: float | None, tolerance: float, certificate: str):
    """Register ``fn(case, opts)``, which returns the computed value or ``(value, condition)``.

    Every row is judged by one rule: the condition holds and the value lies
    within the tolerance of ``expected`` (at most the tolerance when
    ``expected`` is None).  A dual-certified value is only pinned to the gap
    in force, so its window widens by the factor a looser ``gap_tol`` has
    over the default.
    """

    def wrap(fn):
        def run(case: CaseSpec, opts: ReproduceOptions) -> BoundReport:
            out = fn(case, opts)
            value, condition = out if isinstance(out, tuple) else (out, True)
            tol = tolerance
            if certificate == "dual-certified":
                tol *= max(1.0, opts.settings.gap_tol / DEFAULT_SETTINGS.gap_tol)
            within = value <= tol if expected is None else abs(value - expected) <= tol
            return BoundReport(
                id=case.id,
                paper_ref=case.paper_ref,
                computed=float(value),
                expected=None if expected is None else float(expected),
                tolerance=float(tol),
                certificate=certificate,
                passed=bool(condition and within),
            )

        _CASES.append(CaseSpec(id=case_id, paper_ref=paper_ref, run=run))
        return fn

    return wrap


# --- four-state family chain --------------------------------------------------


@_case("bb84-postinfo", "cor5 tight value via measure-first reduction", BB84_VALUE, 1e-6, "dual-certified")
def _bb84_postinfo(case, opts):
    result = p_postinfo(gallery("bb84"), opts.settings)
    return result.value, result.certificate.gap <= opts.settings.gap_tol


@_case("bb84-postinfo-gap", "duality gap of the measure-first solve", 0.0, DEFAULT_SETTINGS.gap_tol, "dual-certified")
def _bb84_gap(case, opts):
    return p_postinfo(gallery("bb84"), opts.settings).certificate.gap


@_case("bb84-prop4", "prop4 program at the symmetric parameters", BB84_VALUE, 1e-6, "heuristic")
def _bb84_prop4(case, opts):
    return qpv.prop4_solve(qpv.bb84_family_instance(math.pi / 2).spec)


@_case("bb84-breidbart", "intermediate-basis attack at theta=pi/2", BB84_VALUE, 1e-9, "exact")
def _bb84_breidbart(case, opts):
    return qpv.breidbart_lower(math.pi / 2)


@_case("bb84-min-epsilon", "cor5 threshold by bisection at theta=pi/2", (2.0 - SQ2) / 4.0, 1e-9, "analytic")
def _bb84_min_epsilon(case, opts):
    return qpv.thm4_min_epsilon(qpv.bb84_family_instance(math.pi / 2))


@_case("bb84-cor5-printed", "cor5 closed form as published (equals the success value, not the error; discrepancy logged, not asserted)", BB84_VALUE, 1e-12, "exact")
def _bb84_cor5_printed(case, opts):
    return qpv.cor5_printed_formula(math.pi / 2)


@_case("bb84-losscc", "classical-communication value with the classical side forwarded", BB84_VALUE, 1e-6, "dual-certified")
def _bb84_losscc(case, opts):
    # the classical side is copied and forwarded, so the optimum is the post-information
    # value of the ensemble induced on the quantum side; no quantum memory is required
    return p_postinfo(induced_postinfo(gen_bb84(math.pi / 2), classical_side="a"), opts.settings).value


# --- explicit qutrit POVM ------------------------------------------------------


@_case("prop1-povm-spectra", "each printed effect has spectrum {3/4, 0, 0}", 0.0, 1e-12, "exact")
def _prop1_spectra(case, opts):
    povm = gallery("prop1-povm")
    worst = 0.0
    for effect in povm.effects:
        eigs = np.sort(np.linalg.eigvalsh(effect))
        worst = max(worst, float(np.abs(eigs - np.array([0.0, 0.0, 0.75])).max()))
    return worst


@_case("prop1-povm-sum", "printed effects sum to the identity", 0.0, 1e-12, "exact")
def _prop1_sum(case, opts):
    povm = gallery("prop1-povm")
    return float(np.abs(sum(povm.effects) - np.eye(3)).max())


@_case("prop1-outcome-table", "outcome partition of the minimal qutrit ensemble", 0.0, 1e-12, "exact")
def _prop1_table(case, opts):
    report = broadcast.verify_classical_broadcast_povm(gallery("prop1-povm"), gallery("minimal-qutrit"))
    want = {(0, 0): (0, 1), (0, 1): (2, 3), (1, 0): (0, 2), (1, 1): (1, 3)}
    return report.max_violation, report.ok and report.outcome_table == want


@_case("minimal-qutrit-feasible", "perfect classical broadcastability of the minimal qutrit set", 1.0, DEFAULT_SETTINGS.gap_tol, "dual-certified")
def _minimal_feasible(case, opts):
    decision = broadcast.perfect_classical_broadcast_decision(gallery("minimal-qutrit"), opts.settings)
    return decision.value, decision.feasible


@_case("minimal-qutrit-postinfo", "measure-first value of the minimal qutrit set", 1.0, DEFAULT_SETTINGS.gap_tol, "dual-certified")
def _minimal_postinfo(case, opts):
    return p_postinfo(gallery("minimal-qutrit"), opts.settings).value


# --- three-setting qutrit separation -------------------------------------------


@_case("thm1-quantum-broadcast", "entangling isometry preserves all three orthogonality pairs", 0.0, 1e-12, "exact")
def _thm1_quantum(case, opts):
    report = broadcast.verify_orthogonality_broadcast(gallery("thm1-isometry"), gallery("thm1-pairs"))
    return report.max_overlap, report.ok


@_case("thm1-kill-certificate", "all eight survivor-pattern kernels are trivial", 0.0, 0.0, "exact")
def _thm1_kill(case, opts):
    cert = broadcast.kill_pattern_certificate(gallery("thm1-pairs"))
    return max(cert.kernel_dims.values()), len(cert.kernel_dims) == 8


@_case("thm1-postinfo", "measure-first value strictly below one for three settings", math.cos(math.pi / 12) ** 2, 1e-8, "dual-certified")
def _thm1_postinfo(case, opts):
    value = p_postinfo(gallery("thm1-pairs"), opts.settings).value
    return value, value < 1.0 - 1e-3


@_case("thm2-protocol", "entangling protocol keeps all four pairs orthogonal on both sides", 0.0, 1e-12, "exact")
def _thm2_protocol(case, opts):
    induced = induced_postinfo(gallery("thm2-eight"), classical_side="a")
    report = broadcast.verify_orthogonality_broadcast(gallery("thm2-isometry"), induced)
    return report.max_overlap, report.ok


@_case("cor4-quantum-route", "six-state set is distinguishable with quantum communication", 0.0, 1e-12, "exact")
def _cor4_quantum(case, opts):
    induced = induced_postinfo(gallery("cor4-six"), classical_side="a")
    report = broadcast.verify_orthogonality_broadcast(gallery("cor4-isometry"), induced)
    return report.max_overlap, report.ok


@_case("cor4-classical-infeasible", "six-state set admits no classical-communication protocol", 0.0, 0.0, "exact")
def _cor4_classical(case, opts):
    induced = induced_postinfo(gallery("cor4-six"), classical_side="a")
    return max(broadcast.kill_pattern_certificate(induced).kernel_dims.values())


# --- seven-state qutrit bounds --------------------------------------------------


@_case("obb-disk-bound", "coupled-disk program for the overlapping-bases set (printed 0.603554)", 0.603554, 1e-6, "analytic")
def _obb_disk(case, opts):
    bound = qpv.disk_program_solve(qpv.OBB_DISK_SHIFT)
    return bound, bound <= 0.603554 + 1e-12


@_case("delta-bb84", "error per state of the four-state protocol (printed < 0.03662)", 0.03662, 1e-5, "analytic")
def _delta_bb84(case, opts):
    delta = qpv.error_per_state(gen_bb84(math.pi / 2), BB84_VALUE)
    return delta, delta < 0.03662


@_case("delta-obb", "error per state of the seven-state protocol (printed > 0.05663)", 0.05663, 1e-5, "analytic")
def _delta_obb(case, opts):
    delta = qpv.error_per_state(gallery("obb"), 0.603554)
    return delta, delta > 0.05663


@_case("qq-tilde-disk", "coupled-disk program for the primed fully quantum set", 0.78033, 1e-6, "analytic")
def _qq_tilde_disk(case, opts):
    return qpv.disk_program_solve(qpv.QQ_TILDE_DISK_SHIFT)


@_case("thm6-qq-upper", "upper bound on the fully quantum set via certified unitary equivalence", 0.7805, 2e-4, "analytic")
def _thm6_upper(case, opts):
    upper = opts.shared(qpv.thm6_separation).upper
    return upper, upper <= 0.7805 + 1e-12


@_case("thm6-cq-lower", "explicit strategy value on the classical-quantum set", math.cos(math.pi / 8) ** 2, 1e-12, "exact")
def _thm6_lower(case, opts):
    return opts.shared(qpv.thm6_separation).lower


@_case("thm6-gap", "strict separation between the two seven-state sets", math.cos(math.pi / 8) ** 2 - (0.25 + 3.0 / (4.0 * SQ2)), 1e-9, "analytic")
def _thm6_gap(case, opts):
    gap = opts.shared(qpv.thm6_separation).gap
    return gap, gap > 0.07


def _shifts_threshold() -> float:
    c = 1.0 - math.sqrt(3.0) / 2.0
    return ((64.0 + 4.0 * c) - math.sqrt((64.0 + 4.0 * c) ** 2 - 4.0 * 68.0 * c * c)) / (2.0 * 68.0)


@_case("shifts-min-epsilon", "two-qubit-vs-qubit set threshold (printed 5.52e-4; bisection gives the value below, discrepancy recorded, only positivity asserted)", _shifts_threshold(), 1e-9, "analytic")
def _shifts_eps(case, opts):
    root = qpv.thm4_min_epsilon(qpv.shifts_instance())
    return root, root > 1e-5


# --- tripartite game route ------------------------------------------------------


@_case("moe-go-overlap-constant", "shared rank-one effects force overlap constant one", 1.0, 1e-12, "exact")
def _moe_go_c(case, opts):
    return moe.overlap_constant(moe.game_obb())


@_case("moe-go-copy-bound", "permutation bound on the copying strategy stays trivial", 1.0, 1e-12, "exact")
def _moe_go_copy(case, opts):
    return opts.shared(moe.example_go_trivial).copy_strategy_bound


@_case("moe-go-contrast", "broadcast-side program certifies what the game route cannot", 0.603554, 1e-6, "analytic")
def _moe_go_contrast(case, opts):
    bound = opts.shared(moe.example_go_trivial).contrast_bound
    return bound, bound < 1.0


@_case("moe-bb84-lemma-bound", "two-basis game bound from the permutation splitting", 0.5 * (1.0 + 1.0 / SQ2), 1e-9, "exact")
def _moe_bb84(case, opts):
    return moe.classical_copy_permutation_bound(moe.game_bb84())


# --- randomized property suites --------------------------------------------------

SUITES: dict[str, tuple] = {}  # case id -> (default trial count, draw, evaluate)
HELD_TRIALS = 128  # drawn trials held per key, so memory does not grow with the trial count


def trial_values(draw, evaluate, rng, count: int) -> list[tuple]:
    """The values of ``count`` trials, drawn in order by ``draw(rng, k) -> (key, parts)``.

    Drawn trials wait by key (their dimensions).  A key's group goes to
    ``evaluate(key, *stacks)`` in one call once ``HELD_TRIALS`` of its trials
    wait, and every group left goes after the last draw; each part is
    stacked (arrays along a new first axis, anything else as a list), and
    ``evaluate`` returns a tuple of arrays, one value per trial.
    """
    values: list = [None] * count
    waiting: dict = {}

    def flush(key):
        members, parts = zip(*waiting.pop(key))
        stacks = [np.stack(part) if isinstance(part[0], np.ndarray) else list(part) for part in zip(*parts)]
        for m, row in zip(members, zip(*evaluate(key, *stacks))):
            values[m] = row

    for k in range(count):
        key, parts = draw(rng, k)
        group = waiting.setdefault(key, [])
        group.append((k, parts))
        if len(group) == HELD_TRIALS:
            flush(key)
    for key in list(waiting):
        flush(key)
    return values


def _suite(case_id: str, paper_ref: str, tolerance: float, trials: int, draw):
    """Register ``evaluate`` as the randomized case whose value is the worst over ``trials`` draws."""

    def wrap(evaluate):
        SUITES[case_id] = (trials, draw, evaluate)

        def run(case, opts):
            values = trial_values(draw, evaluate, case_rng(opts.seed, case.id), opts.n_trials(trials))
            return max(itertools.chain([-math.inf], *values))

        _case(case_id, paper_ref, None, tolerance, "exact")(run)
        return evaluate

    return wrap


# Each draw makes one ``rng.normal`` call for all of a trial's Gaussians, in
# the order one state at a time would draw them, and each evaluate builds
# the states of its whole group from those normals (``sampling``).


def _random_spec(rng) -> SuperpositionSpec:
    return SuperpositionSpec(*rng.uniform(0, 2 * math.pi, size=4).tolist())


def _draw_unitary(rng, k):
    d = 2 + k % 2
    return (d,), (rng.normal(size=(2, d, d)),)


@_suite("moe-transpose-marginal", "steering identity on random unitaries", 1e-12, 100, _draw_unitary)
def _moe_transpose(key, z):
    return (moe.steering_deviation(unitary_from_normals(z)),)


def _draw_ket_pair(rng, k):
    da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    return (da, db), (rng.normal(size=(2, 2, da * db)), _random_spec(rng))


@_suite("prop-ur-pair-soundness", "pair uncertainty relation on random bipartite vectors", 1e-9, 1000, _draw_ket_pair)
def _prop_ur_pair(dims, z, specs):
    a0, a1 = np.moveaxis(ket_from_normals(z), 1, 0)
    lhs, rhs = ur_pair_bound(a0, a1, specs, dims)
    return (lhs - rhs,)


@_suite("prop-ur-guess-soundness", "guessing form of the relation at exact optimal values", 1e-9, 1000, _draw_ket_pair)
def _prop_ur_guess(dims, z, specs):
    a0, a1 = np.moveaxis(ket_from_normals(z), 1, 0)
    marg = lambda v, keep: partial_trace(dyad(v), dims, {keep})
    v_t, v_o = superpose(a0, a1, specs, "theta"), superpose(a0, a1, specs, "omega")
    lhs = 0.5 * (1.0 + trace_distance(marg(v_t, 1), marg(v_o, 1)))
    pg_a = helstrom_binary(marg(a0, 0), marg(a1, 0))
    pg_b = helstrom_binary(marg(a0, 1), marg(a1, 1))
    return (lhs - ur_guess_bound(pg_a, pg_b, specs),)


def _draw_general(rng, k):
    da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    # three kets, then the three alphas and the three betas, each real part then imaginary part
    return (da, db), (rng.normal(size=6 * da * db + 12),)


@_suite("prop-ur-general-soundness", "multi-vector relation on random three-vector instances", 1e-9, 500, _draw_general)
def _prop_ur_general(dims, z):
    n = dims[0] * dims[1]
    gammas = ket_from_normals(z[:, : 6 * n].reshape(-1, 3, 2, n))
    c = z[:, 6 * n :].reshape(-1, 2, 3, 2)
    alphas, betas = np.moveaxis((c[..., 0] + 1j * c[..., 1]) / 2, 1, 0)
    lhs, tight, relaxed = ur_general(gammas, alphas, betas, dims)
    return lhs - tight, lhs - relaxed


def _draw_density_pair(rng, k):
    d = int(rng.integers(2, 5))
    return (d,), (rng.normal(size=(2, 2, d, d)),)


@_suite("prop-fuchs-van-de-graaf", "trace distance vs fidelity envelope on random density pairs", 1e-9, 1000, _draw_density_pair)
def _prop_fvdg(d, z):
    rho, sigma = np.moveaxis(density_from_normals(z), 1, 0)
    f = fidelity(rho, sigma)
    dist = trace_distance(rho, sigma)
    return (1.0 - f) - dist, dist - np.sqrt(np.maximum(0.0, 1.0 - f * f))


# Sampled over density operators (trace-one members of 0 <= W <= I): the
# splitting needs trace-norm-one factors, and that is how it is applied.
# General contractions admit counterexamples, e.g. W = Y = I on a qubit.
def _draw_product_pairs(rng, k):
    d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    # the normals of W and Y on the first factor, then of X and Z on the second
    return (d1, d2), (rng.normal(size=4 * (d1 * d1 + d2 * d2)),)


@_suite("prop-product-norm", "tensor-splitting of the trace norm on random state pairs", 1e-9, 1000, _draw_product_pairs)
def _prop_product_norm(dims, z):
    d1, d2 = dims
    w, y = np.moveaxis(density_from_normals(z[:, : 4 * d1 * d1].reshape(-1, 2, 2, d1, d1)), 1, 0)
    x, v = np.moveaxis(density_from_normals(z[:, 4 * d1 * d1 :].reshape(-1, 2, 2, d2, d2)), 1, 0)
    return (trace_norm(kron(w, x) - kron(y, v)) - (trace_norm(w - y) + trace_norm(x - v)),)


def _draw_psd_tuple(rng, k):
    n, d = int(rng.integers(3, 5)), int(rng.integers(2, 7))
    return (n, d), (rng.normal(size=(n, 2, d, d)),)


@_suite("prop-lemma-a1", "permutation splitting of the operator norm on random PSD tuples", 1e-9, 500, _draw_psd_tuple)
def _prop_lemma_a1(key, z):
    ops = tuple(np.moveaxis(psd_from_normals(z), 1, 0))
    bound = lemma_a1_bound(ops)
    return (np.linalg.eigvalsh(sum(ops)).max(axis=-1) - bound,)


# Every chunk streams to the stream's step budget whatever its size, so
# chunks past the second buy little: at seed 42 the slowest of k chunks,
# each computed alone, takes 0.57, 0.32, 0.27 and 0.20 s at k = 1, 2, 4
# and 8, for 0.57, 0.64, 0.87 and 1.07 s of CPU in all.  The cap also
# bounds what forking costs where a CPU quota leaves fewer CPUs than the
# affinity mask shows.
MAX_CHUNKS = 2


def _chunk_count() -> int:
    """How many chunks ``_in_chunks`` splits into: the CPUs this process may run on, at most ``MAX_CHUNKS``.

    One where the platform does not say (no ``os.sched_getaffinity``), and
    one while another thread of this process runs, since a child forked
    under a running thread may deadlock on a lock that thread held.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or threading.active_count() > 1:
        return 1
    return min(MAX_CHUNKS, len(affinity(0)))


def _forked(fn, chunk) -> tuple:
    """``(pid, pipe)`` of a forked child that writes ``(ok, fn(chunk) or the exception it raised)`` to ``pipe`` as one pickle.

    The child leaves through ``os._exit``, so it runs none of the parent's
    exit handlers and flushes none of its buffers; an exit status other than
    0 means the pickle was not written.  A pipe or fork that fails raises
    ``ChunkFailure``.
    """
    try:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
    except OSError as exc:
        raise ChunkFailure(f"could not start the process of a chunk: {exc}") from exc
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                message = (True, fn(chunk))
            except Exception as exc:  # the parent raises it in its own stack
                message = (False, exc)
            with open(write, "wb") as pipe:
                pickle.dump(message, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def _in_chunks(fn, items: list) -> list:
    """``fn(chunk)`` of contiguous chunks of ``items``, ``_chunk_count()`` of them, concatenated in order.

    ``fn`` returns a list per chunk.  This process computes the first chunk
    before it waits; each other chunk runs in a child forked from it
    (``_forked``), so ``fn`` and what it reads need no pickling, only its
    result does.  Where there is one CPU or one item, there is one chunk and
    no child.  A chunk's exception is raised here with its type and message;
    a child that exits without a result raises ``ChunkFailure`` naming its
    exit status.  On any error every child still running is killed and
    every child is reaped before the error propagates.
    """
    chunks = min(_chunk_count(), len(items))
    bounds = [len(items) * k // chunks for k in range(chunks + 1)]
    children = []  # (pid, pipe) of the children not yet reaped, in chunk order
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_forked(fn, items[lo:hi]))
        values = fn(items[: bounds[1]])
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            children.pop(0)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0:
                raise ChunkFailure(f"the process of a chunk exited with status {status} and sent no result")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            values += result
        return values
    finally:
        if children:  # left running by an error: stopped, then reaped
            import signal

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _bruteforce_values(ensembles: list, settings: SolverSettings) -> list[tuple[float, float]]:
    """(row-merged value, exhaustive-search value) of each ensemble, as one stream; each pair's bits are its ensemble's alone."""
    targets = [merged_row_targets(ens, psd_tol=settings.psd_tol) for ens in ensembles]
    search = AssignmentSearch(targets)
    # one stream: the row-merged targets at the settings in force, then the search's problems at its own
    members = np.concatenate([np.stack([t.operators for t in targets]), search.problems])
    member_settings = [settings] * len(targets) + [search.settings] * len(search.problems)
    merged: list = [None] * len(targets)

    def keep(i, primal, upper):  # the search's rule at every check; the row-merged targets are never offered to it
        kept, ours = np.ones(len(i), dtype=bool), i >= len(targets)
        kept[ours] = search.keep(i[ours] - len(targets), primal[ours], upper[ours])
        return kept

    for i, (primal, y, p, gap, iterations) in finished_stream(members, member_settings, keep):
        if i < len(targets):  # result objects only for the merged solves, the ones validated here
            result = DiscriminationResult(primal, Povm(effects=p), DualCertificate(y, primal, gap), targets[i].labels, iterations)
            merged[i] = validated(targets[i], result, settings.gap_tol).value
        else:
            search.fold(i - len(targets), primal, gap)
    return [(float(a), float(b)) for a, b in zip(merged, search.values)]


@_case("prop-postinfo-bruteforce", "row-merged solve matches exhaustive assignment search", None, 1e-6, "dual-certified")
def _prop_bruteforce(case, opts):
    from .ensembles import PostInfoEnsemble
    from .sampling import random_orthonormal_pair

    rng = case_rng(opts.seed, case.id)
    ensembles = []
    for _ in range(opts.n_trials(50)):
        pair0 = random_orthonormal_pair(rng)
        pair1 = random_orthonormal_pair(rng)
        weights = rng.dirichlet(np.ones(4))
        ensembles.append(
            PostInfoEnsemble(
                settings=("0", "1"),
                states=(pair0, pair1),
                prior=((float(weights[0]), float(weights[1])), (float(weights[2]), float(weights[3]))),
                orthogonal=True,
            )
        )
    pairs = _in_chunks(lambda chunk: _bruteforce_values(chunk, opts.settings), ensembles)
    return max(abs(merged - searched) for merged, searched in pairs)


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
