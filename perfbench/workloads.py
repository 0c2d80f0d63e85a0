"""The three benchmark workloads: inputs made from a seed, one unit of work, and its checks.

Each workload object exposes ``operations()``, the calls that make up one
unit of work, each of which the runner times on its own; ``run()``, which
makes those calls in order and returns their results; and ``check(results)``,
which verifies a unit's results outside the timed region and returns an
``Outcome``.  The program only ever sees the generated inputs; the seed stays
in this module.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from obcast import cli, discrimination, reporting, reproduce
from obcast.discrimination import DEFAULT_SETTINGS
from obcast.ensembles import PostInfoEnsemble
from obcast.errors import InternalInconsistency, SolverFailure

# The solver-free randomized cases.  ``run_reproduce(only=...)`` is a substring
# filter, so each id is run on its own and the returned ids are checked.
PROPERTY_SUITE_IDS = (
    "moe-transpose-marginal",
    "prop-fuchs-van-de-graaf",
    "prop-lemma-a1",
    "prop-product-norm",
    "prop-ur-general-soundness",
    "prop-ur-guess-soundness",
    "prop-ur-pair-soundness",
)

# Post-information geometries: (dimension, settings, draws).  The geometries
# come from a pinned catalogue seed, because the fixed-point iteration count of
# a random draw ranges over 300 to 14,000 within one family, so seed-drawn
# geometries would make the run time depend on the seed more than on the code.
# The run seed rotates every draw by a Haar-random global unitary, which leaves
# the problem, and so the work, unchanged but gives each seed different numbers.
CATALOGUE_SEED = 2311
POSTINFO_FAMILIES = ((4, 3, 3), (3, 4, 3), (4, 4, 1))

# The documented default duality-gap tolerance; a speed-up must not come from
# loosening it.
DOCUMENTED_GAP_TOL = 1e-7


@dataclass
class Outcome:
    """Operations attempted and failed in one unit, and correctness problems found."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary (QR of a Ginibre matrix with the phases of R fixed).

    The benchmark keeps its own sampler so that its inputs do not change when
    ``obcast.sampling`` does.
    """
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def postinfo_geometries() -> list[tuple[str, list[np.ndarray], np.ndarray]]:
    """The pinned catalogue: (label, one unitary per setting, Dirichlet prior)."""
    out = []
    for family, (dim, n_settings, draws) in enumerate(POSTINFO_FAMILIES):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([CATALOGUE_SEED, family])))
        for k in range(draws):
            unitaries = [haar_unitary(rng, dim) for _ in range(n_settings)]
            prior = rng.dirichlet(np.ones(dim * n_settings)).reshape(n_settings, dim)
            out.append((f"d{dim}-s{n_settings}-{k}", unitaries, prior))
    return out


def postinfo_ensembles(seed: int) -> list[tuple[str, PostInfoEnsemble]]:
    """The catalogue rotated by one seed-drawn global unitary per draw.

    Setting t holds the columns of the single unitary V U_t, so its states are
    orthonormal by construction.
    """
    out = []
    for index, (label, unitaries, prior) in enumerate(postinfo_geometries()):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))
        v = haar_unitary(rng, unitaries[0].shape[0])
        states = tuple(
            tuple(np.ascontiguousarray(col) for col in (v @ u).T) for u in unitaries
        )
        ens = PostInfoEnsemble(
            settings=tuple(str(t) for t in range(len(unitaries))),
            states=states,
            prior=tuple(tuple(float(p) for p in row) for row in prior),
            orthogonal=True,
        )
        out.append((label, ens))
    return out


# The reference report.  Its brute-force case makes 160,000 to 310,000 solver
# iterations depending on the report seed (seeds 1-5 and 42), so a run seed
# passed through would move the run time by half; the benchmark seed does not
# enter this workload.
REPORT_SEED = 42


class Reproduce:
    """The full reference report through the CLI entry point, exactly as a user runs it."""

    name = "reproduce"
    report_bytes = 0

    def __init__(self, seed: int, workdir: Path, expected_sha256: dict[str, str]):
        self.out = workdir / "report.json"
        self.expected = expected_sha256[str(REPORT_SEED)]
        self.first: bytes | None = None

    def operations(self, jobs: int = 1):
        return [partial(self.report, jobs)]

    def run(self, jobs: int = 1):
        return [op() for op in self.operations(jobs)]

    def report(self, jobs: int):
        if self.out.exists():
            self.out.unlink()
        argv = ["reproduce", "--seed", str(REPORT_SEED), "--jobs", str(jobs), "--out", str(self.out), "--quiet"]
        code = cli.main(argv)
        return code, self.out.read_bytes() if self.out.exists() else None

    def check(self, results) -> Outcome:
        [(code, data)] = results
        if data is None:
            n = len(reproduce.case_ids())
            return Outcome(n, n, [f"exit code {code} and no report written"])
        self.report_bytes = len(data)
        records = json.loads(data)
        out = Outcome(len(records), sum(1 for r in records if not r["pass"]))
        if code != 0:
            out.problems.append(f"exit code {code}")
            out.failed = max(out.failed, 1)
        gated = [r["id"] for r in records if r["certificate"] != "heuristic" and not r["pass"]]
        if gated:
            out.problems.append(f"failed cases: {', '.join(gated)}")
        if self.first is None:
            self.first = data
        elif data != self.first:
            out.problems.append("report bytes differ between passes")
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.expected:
            out.problems.append(f"report sha256 {digest} != recorded {self.expected}")
        return out


class PropertySuites:
    """The seven solver-free randomized cases through ``run_reproduce``."""

    name = "property-suites"
    report_bytes = 0

    def __init__(self, seed: int, workdir: Path, expected_sha256: dict[str, str]):
        self.seed = seed
        self.first: str | None = None

    def operations(self):
        return [partial(reproduce.run_reproduce, seed=self.seed, only=case_id) for case_id in PROPERTY_SUITE_IDS]

    def run(self):
        return [op() for op in self.operations()]

    def check(self, results) -> Outcome:
        reports = [r for selected in results for r in selected]
        out = Outcome(len(reports), sum(1 for r in reports if not r.passed))
        ids = tuple(r.id for r in reports)
        if ids != PROPERTY_SUITE_IDS:
            out.problems.append(f"case selection returned {ids}, expected {PROPERTY_SUITE_IDS}")
        failing = [r.id for r in reports if not r.passed]
        if failing:
            out.problems.append(f"failed cases: {', '.join(failing)}")
        text = reporting.reports_to_json(reports)
        self.report_bytes = len(text.encode())
        if self.first is None:
            self.first = text
        elif text != self.first:
            out.problems.append("reports differ between passes of one seed")
        return out


class PostinfoLarge:
    """Row-merged post-information solves on random orthogonal ensembles."""

    name = "postinfo-large"
    report_bytes = 0

    def __init__(self, seed: int, workdir: Path, expected_sha256: dict[str, str]):
        self.ensembles = postinfo_ensembles(seed)
        self.first: list | None = None

    def operations(self):
        return [partial(solve_postinfo, ens) for _, ens in self.ensembles]

    def run(self):
        return [op() for op in self.operations()]

    def check(self, results) -> Outcome:
        out = Outcome(len(results), 0)
        if DEFAULT_SETTINGS.gap_tol > DOCUMENTED_GAP_TOL:
            out.problems.append(f"default gap tolerance {DEFAULT_SETTINGS.gap_tol:.1e} is looser than {DOCUMENTED_GAP_TOL:.0e}")
        for (label, ens), res in zip(self.ensembles, results):
            found = ["raised " + type(res).__name__] if isinstance(res, Exception) else certificate_problems(ens, res)
            if found:
                out.failed += 1
            if found and not isinstance(res, SolverFailure):
                out.problems.extend(f"{label}: {p}" for p in found)
        values = [type(r).__name__ if isinstance(r, Exception) else r.value for r in results]
        if self.first is None:
            self.first = values
        elif values != self.first:
            out.problems.append("values differ between passes of one seed")
        return out


def solve_postinfo(ens: PostInfoEnsemble):
    """One solve; a solver error is returned, timed until it raised, as a failed operation."""
    try:
        return discrimination.p_postinfo(ens)
    except (SolverFailure, InternalInconsistency) as exc:
        return exc


def certificate_problems(ens: PostInfoEnsemble, res) -> list[str]:
    """Check a post-information certificate against rows rebuilt here.

    Dual feasibility Y >= M_r is tested for every row in one stacked
    ``eigvalsh``; the primal value is recomputed from the POVM; the gap must
    meet the tolerance in force; the POVM must be PSD and sum to the identity.
    """
    settings = DEFAULT_SETTINGS
    problems = []
    weighted = [
        np.array([p * np.outer(s, np.conj(s)) for s, p in zip(group, prior)])
        for group, prior in zip(ens.states, ens.prior)
    ]
    rows = np.array(res.assignment)
    m = sum(weighted[t][rows[:, t]] for t in range(rows.shape[1]))
    y = res.certificate.matrix
    dim = y.shape[0]
    worst = float(np.linalg.eigvalsh(y[None] - m).min())
    if worst < -settings.psd_tol:
        problems.append(f"dual infeasible: min eig(Y - M_r) = {worst:.3e}")
    p = np.array(res.povm.effects)
    if p.shape[0] != m.shape[0]:
        problems.append(f"{p.shape[0]} effects for {m.shape[0]} rows")
        return problems
    primal = float(np.einsum("rij,rji->", p, m).real)
    if abs(primal - res.value) > 1e-12:
        problems.append(f"recomputed value {primal!r} != reported {res.value!r}")
    gap = float(np.trace(y).real) - primal
    if res.certificate.gap > settings.gap_tol or gap > settings.gap_tol + 1e-12:
        problems.append(f"gap {gap:.3e} (reported {res.certificate.gap:.3e}) above {settings.gap_tol:.1e}")
    identity = float(np.abs(p.sum(axis=0) - np.eye(dim)).max())
    if identity > settings.psd_tol:
        problems.append(f"POVM misses the identity by {identity:.3e}")
    low = float(np.linalg.eigvalsh(p).min())
    if low < -settings.psd_tol:
        problems.append(f"POVM effect has eigenvalue {low:.3e}")
    return problems


WORKLOADS = {w.name: w for w in (Reproduce, PostinfoLarge, PropertySuites)}
