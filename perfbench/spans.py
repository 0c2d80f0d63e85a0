"""Span tracing for the traced run, done entirely from the benchmark's side.

``instrument(recorder)`` wraps every public function of each obcast module in
every module that binds it (modules import each other's functions with
``from .x import y``), the ``__post_init__`` of the ensemble data classes, and
each registered reproduce case.  A span is (name, start, end, parent); spans
are kept in flat arrays in memory and summarised when the run ends.  Nothing
in ``src/`` changes.  The recorder is single-threaded: trace one thread only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import obcast

LAYERS = (
    "linalg",
    "ensembles",
    "broadcast",
    "discrimination",
    "uncertainty",
    "qpv",
    "moe",
    "oracles",
    "sampling",
    "reproduce",
    "reporting",
    "cli",
)
LINALG_TIMED = ("hermitian", "trace_distance", "fidelity", "psd_sqrt", "partial_trace", "trace_norm")
CASE_PREFIX = "reproduce.case:"
CONSTRUCT = "ensembles.construct"


class Recorder:
    """Spans in flat arrays, plus the counts that need a call's arguments or result."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.iteration_calls: int | None = None
        self.gaps: list[float] = []
        self.failures = 0
        self.rows = 0
        self.assignments = 0
        self.disk_programs: list = []

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call; ``hook(args, kwargs, result, exc)`` sees the outcome."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.end.append(0.0)
            rec._stack.append(i)
            rec.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(args, kwargs, None, exc)
                raise
            else:
                if hook is not None:
                    hook(args, kwargs, out, None)
                return out
            finally:
                rec.end[i] = perf_counter()
                rec._stack.pop()

        return traced

    def count_iterations(self, fn):
        self.iteration_calls = 0
        rec = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rec.iteration_calls += 1
            return fn(*args, **kwargs)

        return counted

    # hooks ---------------------------------------------------------------

    def _on_solve(self, args, kwargs, out, exc):
        if exc is None:
            self.gaps.append(out.certificate.gap)
        elif isinstance(exc, obcast.SolverFailure):
            self.failures += 1
            if exc.gap is not None:
                self.gaps.append(exc.gap)

    def _on_rows(self, args, kwargs, out, exc):
        if exc is None:
            self.rows += len(out.operators)

    def _on_enumerate(self, args, kwargs, out, exc):
        ens = args[0]
        outcomes = (args[1] if len(args) > 1 else kwargs.get("outcome_count")) or ens.dim * ens.dim
        self.assignments += int(np.prod(ens.index_sets)) ** outcomes

    def _on_disk(self, args, kwargs, out, exc):
        self.disk_programs.append(args[0])

    def hooks(self) -> dict:
        return {
            "discrimination.min_error_discrimination": self._on_solve,
            "discrimination.merged_row_targets": self._on_rows,
            "oracles.enumerate_postinfo": self._on_enumerate,
            "qpv.disk_program_solve": self._on_disk,
        }


def _modules():
    return [obcast] + [importlib.import_module(f"obcast.{m.name}") for m in pkgutil.iter_modules(obcast.__path__)]


@contextmanager
def instrument(rec: Recorder):
    """Install the wrappers for the duration of the block, then restore every binding."""
    modules = _modules()
    hooks = rec.hooks()
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"obcast.{layer}")
        for name, fn in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = rec.wrap(f"{layer}.{name}", fn, hooks.get(f"{layer}.{name}"))
    pinv = getattr(importlib.import_module("obcast.discrimination"), "_psd_pinv_sqrt", None)
    if pinv is not None:
        wrappers[pinv] = rec.count_iterations(pinv)

    patches = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.append((mod, name, value))
    ensembles = importlib.import_module("obcast.ensembles")
    for cls in vars(ensembles).values():
        if inspect.isclass(cls) and cls.__module__ == ensembles.__name__ and "__post_init__" in vars(cls):
            hook = vars(cls)["__post_init__"]
            wrappers[hook] = rec.wrap(CONSTRUCT, hook)
            patches.append((cls, "__post_init__", hook))

    reproduce = importlib.import_module("obcast.reproduce")
    cases = getattr(reproduce, "_CASES", None)
    saved_cases = list(cases) if cases is not None else None
    try:
        for obj, name, value in patches:
            setattr(obj, name, wrappers[value])
        if cases is not None:
            cases[:] = [
                reproduce.CaseSpec(id=c.id, paper_ref=c.paper_ref, run=rec.wrap(CASE_PREFIX + c.id, c.run))
                for c in saved_cases
            ]
        yield rec
    finally:
        for obj, name, value in patches:
            setattr(obj, name, value)
        if cases is not None:
            cases[:] = saved_cases


class SpanTable:
    """Durations, self times and parents of a recorder's spans, indexed by name."""

    def __init__(self, rec: Recorder):
        self.names = rec.names
        self.name = np.array(rec.name, dtype=np.int32)
        self.parent = np.array(rec.parent, dtype=np.int32)
        self.start = np.array(rec.start, dtype=float)
        self.dur = np.array(rec.end, dtype=float) - self.start
        has_parent = self.parent >= 0
        child = np.zeros(len(self.dur))
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
        return np.isin(self.name, ids)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def under(self, name: str, parent_name: str) -> np.ndarray:
        """Spans called ``name`` whose direct parent is called ``parent_name``."""
        m = self.mask(name)
        parents = self.parent[m]
        ok = parents >= 0
        hit = np.zeros(m.sum(), dtype=bool)
        hit[ok] = self.mask(parent_name)[parents[ok]]
        return np.flatnonzero(m)[hit]

    def summary(self) -> dict:
        """Calls, total time and self time for every span name."""
        out = {}
        for i, name in enumerate(self.names):
            m = self.name == i
            out[name] = {
                "calls": int(m.sum()),
                "total_s": float(self.dur[m].sum()),
                "self_s": float(self.self_time[m].sum()),
            }
        return out


def layer_metrics(rec: Recorder, case_ids) -> tuple[dict, dict]:
    """Per-layer metrics of one traced unit, and the reasons for any left missing."""
    t = SpanTable(rec)
    missing = {}
    m: dict[str, float | int | None] = {}

    for case_id in case_ids:
        m[f"reproduce.case_s.{case_id}"] = t.total(CASE_PREFIX + case_id)

    solve = "discrimination.min_error_discrimination"
    solve_ms = t.dur[t.mask(solve)] * 1e3
    solve_calls = len(solve_ms)
    solve_s = float(solve_ms.sum() / 1e3)
    m["discrimination.solve_calls"] = solve_calls
    m["discrimination.solve_s"] = solve_s
    p50, p99 = np.percentile(solve_ms, [50, 99]) if solve_calls else (0.0, 0.0)
    m["discrimination.solve_ms.p50"] = float(p50)
    m["discrimination.solve_ms.p99"] = float(p99)
    if rec.iteration_calls is None:
        m["discrimination.iterations"] = m["discrimination.us_per_iteration"] = None
        reason = "discrimination._psd_pinv_sqrt no longer exists; iterations are counted through it"
        missing["discrimination.iterations"] = missing["discrimination.us_per_iteration"] = reason
    else:
        # one call at the start of each solve, then one per iteration
        iterations = rec.iteration_calls - solve_calls
        m["discrimination.iterations"] = iterations
        m["discrimination.us_per_iteration"] = solve_s / iterations * 1e6 if iterations else 0.0
    m["discrimination.max_gap"] = max(rec.gaps, default=0.0)
    m["discrimination.failures"] = rec.failures
    m["discrimination.rows"] = rec.rows
    m["discrimination.row_build_s"] = t.total("discrimination.merged_row_targets")
    m["discrimination.postinfo_calls"] = t.count("discrimination.p_postinfo")
    m["discrimination.postinfo_s"] = t.total("discrimination.p_postinfo")

    inner = len(t.under(solve, "oracles.enumerate_postinfo"))
    m["oracles.enumerate_calls"] = t.count("oracles.enumerate_postinfo")
    m["oracles.enumerate_s"] = t.total("oracles.enumerate_postinfo")
    m["oracles.inner_solves"] = inner
    m["oracles.assignments"] = rec.assignments
    m["oracles.cache_hit_ratio"] = 1.0 - inner / rec.assignments if rec.assignments else 0.0

    m["qpv.prop4_solve_s"] = t.total("qpv.prop4_solve")
    m["qpv.thm6_separation_s"] = t.total("qpv.thm6_separation")
    m["qpv.disk_program_calls"] = len(rec.disk_programs)
    m["qpv.disk_program_distinct"] = len(set(rec.disk_programs))

    m["moe.steering_deviation_s"] = t.total("moe.steering_deviation")
    m["moe.lemma_a1_bound_s"] = t.total("moe.lemma_a1_bound")
    m["moe.example_go_trivial_calls"] = t.count("moe.example_go_trivial")

    for fn in ("ur_pair_bound", "ur_guess_bound", "ur_general"):
        m[f"uncertainty.{fn}_s"] = t.total(f"uncertainty.{fn}")
    m["uncertainty.calls"] = int(t.layer_mask("uncertainty").sum())

    linalg = t.layer_mask("linalg")
    m["linalg.calls"] = int(linalg.sum())
    m["linalg.s"] = float(t.self_time[linalg].sum())
    for fn in LINALG_TIMED:
        m[f"linalg.{fn}.s"] = t.total(f"linalg.{fn}")

    sampling = t.layer_mask("sampling")
    m["sampling.calls"] = int(sampling.sum())
    m["sampling.s"] = float(t.self_time[sampling].sum())

    m["ensembles.construct_s"] = t.total(CONSTRUCT)
    m["ensembles.gallery_calls"] = t.count("ensembles.gallery")
    m["ensembles.gallery_s"] = t.total("ensembles.gallery")

    m["reporting.serialize_s"] = t.total("reporting.reports_to_json") + t.total("reporting.reports_to_csv")
    under_cli = t.under("reproduce.run_reproduce", "cli.main")
    m["cli.overhead_s"] = t.total("cli.main") - float(t.dur[under_cli].sum())
    return m, missing


def write_trace(stem: Path, rec: Recorder, metrics: dict, missing: dict) -> None:
    """Raw spans to ``<stem>.npz``; metrics and per-name totals to ``<stem>.json``."""
    t = SpanTable(rec)
    np.savez(
        stem.with_suffix(".npz"), names=np.array(t.names), name=t.name, parent=t.parent, start=t.start, duration=t.dur
    )
    summary = {"metrics": metrics, "missing": missing, "spans": t.summary()}
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
