"""Self-tests of the benchmark: inputs, checks, traced counts, and side effects.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads
from obcast.discrimination import p_postinfo
from obcast.ensembles import PostInfoEnsemble

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"

COUNTS = (
    "discrimination.solve_calls",
    "discrimination.iterations",
    "discrimination.failures",
    "discrimination.rows",
    "discrimination.postinfo_calls",
    "oracles.enumerate_calls",
    "oracles.inner_solves",
    "oracles.assignments",
    "qpv.disk_program_calls",
    "qpv.disk_program_distinct",
    "moe.example_go_trivial_calls",
    "uncertainty.calls",
    "linalg.calls",
    "sampling.calls",
    "ensembles.gallery_calls",
)


def test_postinfo_inputs_are_deterministic_for_a_seed():
    first, again, other = (workloads.postinfo_ensembles(s) for s in (5, 5, 6))
    for (label, a), (_, b), (_, c) in zip(first, again, other):
        assert a.prior == b.prior == c.prior, label
        for ga, gb, gc in zip(a.states, b.states, c.states):
            assert all(np.array_equal(x, y) for x, y in zip(ga, gb))
            assert not any(np.allclose(x, z) for x, z in zip(ga, gc))


def test_each_setting_is_the_columns_of_one_unitary():
    geometries = workloads.postinfo_geometries()
    assert [len(u) for _, u, _ in geometries] == [3, 3, 3, 4, 4, 4, 4]
    for (label, ens), (_, unitaries, _) in zip(workloads.postinfo_ensembles(3), geometries):
        assert ens.index_sets == (ens.dim,) * len(unitaries), label
        cols = [np.column_stack(group) for group in ens.states]
        v = cols[0] @ unitaries[0].conj().T  # the shared rotation
        for u, c in zip(unitaries, cols):
            assert np.allclose(c.conj().T @ c, np.eye(ens.dim), atol=1e-12)
            assert np.allclose(c, v @ u, atol=1e-12)


def test_drawn_ensembles_pass_the_orthogonality_validation():
    for _, ens in workloads.postinfo_ensembles(11):
        PostInfoEnsemble(settings=ens.settings, states=ens.states, prior=ens.prior, orthogonal=True)


def test_property_suite_selection_is_exact():
    wl = workloads.PropertySuites(1, ROOT, {})
    results = wl.run()
    assert tuple(r.id for selected in results for r in selected) == workloads.PROPERTY_SUITE_IDS
    assert wl.check(results).problems == []


def test_certificate_check_rejects_a_broken_certificate():
    _, ens = workloads.postinfo_ensembles(2)[0]
    res = p_postinfo(ens)
    assert workloads.certificate_problems(ens, res) == []
    cert = res.certificate
    low_dual = dataclasses.replace(cert, matrix=cert.matrix - 1e-3 * np.eye(ens.dim))
    assert any("dual infeasible" in p for p in workloads.certificate_problems(ens, dataclasses.replace(res, certificate=low_dual)))
    shifted = dataclasses.replace(res, value=res.value + 1e-6)
    assert any("recomputed value" in p for p in workloads.certificate_problems(ens, shifted))
    wide_gap = dataclasses.replace(cert, matrix=cert.matrix + 1e-3 * np.eye(ens.dim), gap=4e-3)
    assert any("gap" in p for p in workloads.certificate_problems(ens, dataclasses.replace(res, certificate=wide_gap)))


def test_solver_failure_counts_as_a_failed_operation_without_a_redraw():
    from obcast.errors import SolverFailure

    wl = workloads.PostinfoLarge(1, ROOT, {})
    results = [SolverFailure("cap reached", gap=3e-7)] + [p_postinfo(e) for _, e in wl.ensembles[1:2]]
    wl.ensembles = wl.ensembles[:2]
    out = wl.check(results)
    assert (out.attempted, out.failed, out.problems) == (2, 1, [])


def _traced_counts(wl):
    rec = spans.Recorder()
    with spans.instrument(rec):
        result = wl.run()
    assert wl.check(result).problems == []
    values, missing = spans.layer_metrics(rec, [])
    assert missing == {}
    counts = {name: values[name] for name in COUNTS}
    counts["bruteforce_solves"] = _solves_under_case(spans.SpanTable(rec), "prop-postinfo-bruteforce")
    return counts


def _solves_under_case(table, case_id):
    case = table.names.index(spans.CASE_PREFIX + case_id)
    hits = 0
    for i in np.flatnonzero(table.mask("discrimination.min_error_discrimination")):
        while i >= 0 and table.name[i] != case:
            i = table.parent[i]
        hits += i >= 0
    return hits


def test_traced_counts_repeat_and_match_the_reproduce_case_mix(tmp_path):
    expected = json.loads((ROOT / "perfbench" / "baseline.json").read_text())["report_sha256"]
    wl = workloads.Reproduce(1, tmp_path, expected)
    first = _traced_counts(wl)
    assert first == _traced_counts(wl)
    # 50 row-merged solves and 1,750 oracle solves in the brute-force case,
    # and one solve in each of the six other post-information cases
    assert first["bruteforce_solves"] == 1800
    assert first["discrimination.solve_calls"] == 1806
    assert first["oracles.inner_solves"] == 1750
    assert first["oracles.assignments"] == 50 * 4**4


def test_instrumentation_restores_every_binding():
    import obcast.oracles
    import obcast.reproduce

    before = (obcast.oracles.min_error_discrimination, obcast.reproduce.p_postinfo, list(obcast.reproduce._CASES))
    with spans.instrument(spans.Recorder()):
        assert obcast.oracles.min_error_discrimination is not before[0]
        assert obcast.reproduce.p_postinfo is not before[1]
    assert (obcast.oracles.min_error_discrimination, obcast.reproduce.p_postinfo, list(obcast.reproduce._CASES)) == before


def _git_status():
    try:
        return subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")


def test_reference_kernel_imports_nothing_from_obcast():
    import ast

    import reference

    tree = ast.parse(Path(reference.__file__).read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert all(name.split(".")[0] != "obcast" for name in imported)
    assert reference.reference_seconds() > 0


def test_reference_sampler_samples_during_an_operation_and_restores_the_handler():
    import signal
    import time

    import run

    before = signal.getsignal(signal.SIGALRM)
    with run.ReferenceSampler(0.02) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert len(sampler.samples) >= 3
    assert 0 < sampler.paused < time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_benchmark_run_leaves_the_tree_unchanged():
    before = _git_status()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "property-suites", "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert _git_status() == before


def test_without_sources_the_runner_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
