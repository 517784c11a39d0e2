"""End-to-end job benchmark: submit -> verified result, split by layer.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload plan_mix --seed 1 --seconds 25 --trace 0

``--trace 0`` measures with observability off and prints every end-to-end
metric.  ``--trace 1`` measures the same workload twice, half the time each,
each half after its own setup: first with observability off, then with a
:class:`repro.obs.metrics.MetricsRegistry` and a
:class:`repro.obs.trace.Tracer` (spans kept in memory) installed.  It prints
the per-layer metrics, the self-time table and the tracing overhead.  The
trace (spans only), the metrics exposition and the self-time table are
written to ``.e2ebench_out/<workload>.*``.

Every job's outputs are checked against the dense reference after the
measured window, and every plan the run executed is audited byte-exact
against the cost model.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero if any job failed, any output was wrong or any audit failed.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics in the JSON line with ``--trace 0``: the ones
#: BENCHMARK.json gates.  The latency tail, the failed-job ratio and the
#: generator lateness are printed above it (README.md, "Spread").
END_TO_END = ("setup_s", "job_latency_p50_s", "jobs_per_s",
              "read_bytes_per_job", "write_bytes_per_job", "peak_rss_mb")
#: Setup repeats before the measured window and, with ``--trace 0``, after
#: the correctness checks; ``setup_s`` is the median of all of them.
SETUP_BEFORE, SETUP_AFTER = 3, 2
#: Stands in for the latency of a failed job when a percentile lands on one
#: (JSON has no infinity).
FAILED_LATENCY = 1e9


def run(args) -> int:
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.polyhedral.simplex import KERNEL_STATS

    import measures
    from verify import audit_plans, wrong_outputs
    from workloads import WORKLOADS

    workdir = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".e2ebench_out"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setup = wl.setup_times(SETUP_BEFORE)
        window = args.seconds / 2 if args.trace else args.seconds
        t0 = time.perf_counter()
        jobs = wl.measure(window)
        e2e, notes = measures.end_to_end(jobs, time.perf_counter() - t0,
                                         wl.open_loop)
        all_jobs = list(jobs)
        if args.trace:
            # The traced half starts from a fresh setup, like the untraced
            # one, with the registry installed first so that the service,
            # pool, disks and plan cache register their series with it.
            registry = obs_metrics.install(obs_metrics.MetricsRegistry())
            wl.setup_times(1)
            tracer = obs_trace.Tracer()
            before = measures.Counters(wl.svc)
            rows0 = KERNEL_STATS["numpy_rows"]
            with obs_trace.use(tracer):
                t0 = time.perf_counter()
                traced = wl.measure(window)
                wall = time.perf_counter() - t0
                counters = measures.Counters(wl.svc).delta(before)
                kernel_rows = KERNEL_STATS["numpy_rows"] - rows0
                side = measures.side_measurements(wl, traced, workdir)
            all_jobs += traced
            traced_e2e, _ = measures.end_to_end(traced, wall, wl.open_loop)
            overhead = traced_e2e["job_latency_p50_s"][0] \
                / e2e["job_latency_p50_s"][0]
            spans = measures.fold(tracer.events)
            instants = Counter(e.name for e in tracer.events if e.ph == "i")
            table = measures.self_time_table(
                spans, sum(j.result is not None for j in traced))
            metrics = measures.per_layer_metrics(
                spans, instants, traced, counters, wl.svc, kernel_rows,
                side, overhead)
            write_outputs(outdir, args.workload, tracer, registry, table,
                          metrics)
            print_table(table)
        wrong = wrong_outputs(wl, all_jobs)
        audit = audit_plans(wl, all_jobs, workdir / "audit")
        if not args.trace:
            # More repeats, half a minute after the first ones: setup is
            # CPU-bound, and the host's speed drifts over seconds.
            setup += wl.setup_times(SETUP_AFTER)
    finally:
        if wl.svc is not None:
            wl.close()
        obs_metrics.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = {"setup_s": (statistics.median(setup), "s"), **e2e}
    notes["setup_s"] = "median of " + ", ".join(f"{t:.4f}" for t in setup)
    if not args.trace:
        metrics = {k: e2e[k] for k in END_TO_END}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in e2e.items():
        note = notes.get(name, "")
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34} {value:>14.6g} {unit}")
    errors = [j for j in all_jobs if j.result is None]
    for job in errors:
        print(f"FAILED JOB: {job.name}: {type(job.error).__name__}: "
              f"{job.error}", file=sys.stderr)
    for name in wrong:
        print(f"WRONG OUTPUT: job {name}", file=sys.stderr)
    for line in audit:
        print(f"COST AUDIT FAILED: {line}", file=sys.stderr)
    failed = len(errors) + len(wrong)
    # No job fails on these workloads, so a failed job is a defect just
    # like a wrong output.
    correct = not failed and not audit
    print(json.dumps({
        "correct": correct, "attempted": len(all_jobs), "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else FAILED_LATENCY,
                        "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def write_outputs(outdir, workload, tracer, registry, table, metrics) -> None:
    outdir.mkdir(exist_ok=True)
    with open(outdir / f"{workload}.trace.jsonl", "w") as fh:
        for ev in tracer.events:
            if ev.ph != "i" or ev.cat == "bench":
                fh.write(json.dumps(ev.to_dict()) + "\n")
    (outdir / f"{workload}.metrics.prom").write_text(registry.expose_text())
    (outdir / f"{workload}.selftime.json").write_text(json.dumps(
        {"self_time": table,
         "per_layer": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()}}, indent=1))


def print_table(table) -> None:
    print(f"self time by layer ({table['jobs']} traced jobs, "
          f"{table['job_wall_s']:.3f} s of job wall time)")
    print(f"  {'layer':<18} {'self_s':>10} {'on_job_s':>10} "
          f"{'per_job_s':>10} {'share':>7}")
    for r in table["layers"]:
        print(f"  {r['layer']:<18} {r['self_s']:>10.4f} "
              f"{r['on_job_thread_s']:>10.4f} {r['per_job_s']:>10.5f} "
              f"{r['share_of_job_wall']:>7.1%}")
    print(f"  {'span':<20} {'layer':<16} {'count':>7} {'total_s':>10} "
          f"{'self_s':>10}")
    for r in table["spans"]:
        print(f"  {r['span']:<20} {r['layer']:<16} {r['count']:>7} "
              f"{r['total_s']:>10.4f} {r['self_s']:>10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("plan_mix", "shared_scan", "ingest_write"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
