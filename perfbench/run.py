"""Benchmark runner for obcast.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Runs one workload against the checkout's own ``src/`` in a closed loop (one
caller, one process, ``--jobs 1``): the workload's unit of work runs once,
then again while the next unit is expected to end within ``--seconds`` of
measured time, and every unit's outputs are checked outside the timed
region.  A fixed reference kernel (``reference.py``) is timed at regular
intervals throughout the loop, and the reported unit time is scaled by it to
the host speed recorded in ``baseline.json``.  With ``--trace 0`` it reports
the end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
then runs one more unit under span tracing and reports the per-layer
metrics.  The last line of standard output is the JSON result.  The exit
code is 0 only when every correctness check passed; without ``src/obcast``
it is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from reference import reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
# On a shared host the same code ran up to half again slower for minutes at a
# time, in process time as much as in wall time.  wall_s is therefore the mean
# unit time scaled by the reference kernel, which a timer runs every
# REFERENCE_INTERVAL_S of wall time throughout the timed loop, so that its
# samples cover each operation, however long, in proportion to its time.
REFERENCE_INTERVAL_S = 0.25


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("reproduce", "postinfo-large", "property-suites"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class ReferenceSampler:
    """Times the reference kernel from a SIGALRM handler every ``interval`` seconds.

    ``paused`` is the total time spent in the handler, which the caller takes
    out of the time of the operation it interrupted.  The handler runs in the
    main thread between bytecodes, so it never runs inside a numpy call.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.paused = 0.0

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_seconds())
        self.paused += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def probe_seconds(*args: str) -> float:
    """Time from starting ``setup_probe.py`` with ``args`` in a fresh interpreter until it is ready."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe {args} failed (exit {proc.returncode})")
    return elapsed


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time of the workload, and median time of the numpy-only reference probe.

    The two probes alternate, so that both see the same host.
    """
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        times.append(probe_seconds(workload, str(seed)))
        refs.append(probe_seconds("reference"))
    return statistics.median(times), statistics.median(refs)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "obcast" / "__init__.py").is_file():
        print(f"error: no obcast sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("OBCAST_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import obcast

    if not Path(obcast.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported obcast from {obcast.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((HERE / "baseline.json").read_text())

    setup_raw_s, setup_ref_s = setup_seconds(args.workload, args.seed)
    setup_s = setup_raw_s * baseline["reference_setup_s"] / setup_ref_s
    OUT_DIR.mkdir(exist_ok=True)
    outcomes = []
    extras = {}
    missing = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp), baseline["report_sha256"])
        ops = wl.operations()
        times = []
        with ReferenceSampler(REFERENCE_INTERVAL_S) as sampler:
            # start another unit only when it is expected to end within --seconds
            while not times or sum(times) + statistics.median(times) <= args.seconds:
                results = []
                unit_s = 0.0
                for op in ops:
                    paused = sampler.paused
                    t0 = perf_counter()
                    results.append(op())
                    unit_s += perf_counter() - t0 - (sampler.paused - paused)
                times.append(unit_s)
                outcomes.append(wl.check(results))
        refs = sampler.samples or [reference_seconds()]
        wall_raw_s = statistics.mean(times)
        wall_ref_s = statistics.mean(refs)
        wall_s = wall_raw_s * baseline["reference_s"] / wall_ref_s
        print("unit seconds: " + " ".join(f"{t:.4f}" for t in times), file=sys.stderr)
        print(f"reference kernel: mean {wall_ref_s * 1e3:.3f} ms over {len(refs)} samples, "
              f"{baseline['reference_s'] * 1e3:.3f} ms at the recorded host speed", file=sys.stderr)
        if args.trace:
            rec = spans.Recorder()
            with spans.instrument(rec):
                t0 = perf_counter()
                result = wl.run()
                traced_s = perf_counter() - t0
            outcomes.append(wl.check(result))
            extras["trace.overhead_s"] = traced_s - wall_raw_s
            extras["reporting.report_bytes"] = wl.report_bytes
            extras["reproduce.jobs2_wall_s"] = 0.0
            if args.workload == "reproduce":
                t0 = perf_counter()
                result = wl.run(jobs=2)
                extras["reproduce.jobs2_wall_s"] = perf_counter() - t0
                outcomes.append(wl.check(result))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    for p in problems:
        print(f"correctness: {p}", file=sys.stderr)

    if args.trace:
        case_ids = [m["name"].removeprefix("reproduce.case_s.") for m in spec["per_layer"]
                    if m["name"].startswith("reproduce.case_s.")]
        values, missing = spans.layer_metrics(rec, case_ids)
        values.update(extras)
        declared = spec["per_layer"]
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            missing[m["name"]] = "not measured by this runner"
        metrics[m["name"]] = {"value": values.get(m["name"]), "unit": m["unit"]}
    for name, reason in missing.items():
        print(f"missing: {name}: {reason}", file=sys.stderr)
    if args.trace:
        spans.write_trace(OUT_DIR / f"trace-{args.workload}-{args.seed}", rec, values, missing)

    print(
        f"{args.workload} seed={args.seed}: {len(times)} units, {sum(times):.2f} s measured; "
        f"setup_s {setup_s:.4f} s (scaled from median {setup_raw_s:.4f} s of {SETUP_REPEATS}); "
        f"wall_s {wall_s:.4f} s (scaled from mean unit {wall_raw_s:.4f} s); "
        f"fail_frac {failed}/{attempted} = {failed / attempted:.4g}; peak_rss_mb {peak_rss_mb:.1f} MB"
    )
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
