"""End-to-end numbers of a measured window, per-layer numbers of a traced one.

Per-layer numbers come from two sources:

* the trace: spans the program emits (``service.*``, ``optimize.*``,
  ``apriori.level``, ``exec.instance``, ``prefetch.*``) plus the
  benchmark's own (``bench.submit`` around each submit call,
  ``bench.codegen``, ``bench.ingest`` and ``bench.labtree`` around its side
  measurements).
  :func:`fold` turns them into self time: a span's duration minus the part
  its child spans cover.  Spans nest per thread, so children of one span
  never overlap and the covered part is the sum of their durations;
* counters the layers keep anyway (pool, disk, shards, plan cache, job
  reports), read as deltas over the traced window.

Counts and times are reported *per job* of the traced window, so they do
not depend on how long the window was.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

from repro.codegen import build_executable_plan
from repro.obs import trace as obs_trace
from repro.storage import DAFMatrix, LABTree, make_disk

from workloads import make_inputs

#: Span name -> the repository layer (module) that does the work inside it.
#: ``service.job`` self time is everything a job does outside the spans
#: below it: code generation, store setup and dataset ingest, and reading
#: outputs back — the service calls those without a span of their own.
LAYER_OF_SPAN = {
    "bench.submit": "service",
    "service.job": "service",
    "service.plan": "service",
    "service.admission": "service",
    "optimize": "optimizer",
    "optimize.analyze": "analysis",
    "optimize.enumerate": "optimizer",
    "optimize.search": "optimizer",
    "apriori.level": "optimizer",
    "optimize.cost": "optimizer",
    "service.execute": "engine.executor",
    "exec.instance": "engine.executor",
    "prefetch.wait": "engine.prefetch",
    "prefetch.stage": "engine.prefetch",
    "bench.codegen": "codegen",
    "bench.ingest": "storage.daf",
    "bench.labtree": "storage.labtree",
}


class Span:
    __slots__ = ("name", "tid", "start", "dur", "self_s", "args", "end_args",
                 "job")

    def __init__(self, name, tid, start, args):
        self.name = name
        self.tid = tid
        self.start = start
        self.args = args or {}
        self.dur = self.self_s = 0.0
        self.end_args = {}
        self.job = None         # enclosing service.job's job name, if any


def fold(events) -> list[Span]:
    """Match begin/end events per thread; compute each span's self time."""
    stacks: dict[int, list] = defaultdict(list)
    spans = []
    for ev in events:
        if ev.ph == "B":
            span = Span(ev.name, ev.tid, ev.ts, ev.args)
            stack = stacks[ev.tid]
            if ev.name == "service.job":
                span.job = span.args.get("job")
            elif stack:
                span.job = stack[-1][0].job
            stack.append([span, 0.0])
        elif ev.ph == "E":
            stack = stacks[ev.tid]
            if not stack:
                continue
            span, covered = stack.pop()
            span.dur = ev.ts - span.start
            span.self_s = span.dur - covered
            span.end_args = ev.args or {}
            if stack:
                stack[-1][1] += span.dur
            spans.append(span)
    return spans


def self_time_table(spans: list[Span], n_jobs: int) -> dict:
    """Rows per span name and a per-layer summary of self time.

    ``on_job_thread`` is self time inside a ``service.job`` (the blocking
    steps of a job); the rest ran beside jobs: prefetch readers, submit
    calls, and the benchmark's side measurements.
    """
    rows: dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(s.name, {
            "span": s.name, "layer": LAYER_OF_SPAN.get(s.name, "other"),
            "count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.dur
        row["self_s"] += s.self_s
    job_wall = sum(s.dur for s in spans if s.name == "service.job")
    layers: dict[str, dict] = {}
    for s in spans:
        layer = LAYER_OF_SPAN.get(s.name, "other")
        row = layers.setdefault(layer, {"layer": layer, "self_s": 0.0,
                                        "on_job_thread_s": 0.0})
        row["self_s"] += s.self_s
        if s.job is not None:
            row["on_job_thread_s"] += s.self_s
    for row in layers.values():
        row["per_job_s"] = row["on_job_thread_s"] / max(n_jobs, 1)
        row["share_of_job_wall"] = (row["on_job_thread_s"] / job_wall
                                    if job_wall else 0.0)
    return {"jobs": n_jobs, "job_wall_s": job_wall,
            "spans": sorted(rows.values(), key=lambda r: -r["self_s"]),
            "layers": sorted(layers.values(), key=lambda r: -r["self_s"])}


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n): the highest whole percentile with at least
    ten samples beyond it, by nearest rank.  Below 20 samples that
    percentile would sit under the median, so the maximum is reported as
    p100 instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return (xs[-1] if xs else 0.0), 100.0, n
    q = (100 * (n - 10)) // n
    rank = -(-q * n // 100)        # ceil(q * n / 100)
    return xs[rank - 1], float(q), n


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Counters:
    """Snapshot of the layer counters that live on the service objects."""

    def __init__(self, svc):
        pool, disk = svc.pool, svc.disk
        self.pool = {f: getattr(pool, f) for f in ("hits", "misses",
                                                   "evictions")}
        self.disk = {f: getattr(disk.stats, f) for f in (
            "read_bytes", "write_bytes", "read_ops", "write_ops")}
        shards = getattr(disk, "shards", [disk])
        self.shard_bytes = [d.stats.read_bytes + d.stats.write_bytes
                            for d in shards]

    def delta(self, before: "Counters") -> "Counters":
        out = object.__new__(Counters)
        out.pool = {k: v - before.pool[k] for k, v in self.pool.items()}
        out.disk = {k: v - before.disk[k] for k, v in self.disk.items()}
        out.shard_bytes = [a - b for a, b in zip(self.shard_bytes,
                                                 before.shard_bytes)]
        return out


def per_layer_metrics(spans, instants, jobs, counters: Counters, svc,
                      kernel_rows, side, overhead_ratio) -> dict:
    """Every per-layer metric, from one traced window's spans and counters.

    ``jobs`` are the window's jobs; ``instants`` counts instant events by
    name; ``side`` is what :func:`side_measurements` returned.
    """
    codegen_s, ingest, labtree_s = side
    done = [j for j in jobs if j.result is not None]
    n = max(len(done), 1)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    job_end = {s.args.get("job"): s.end_args for s in by_name["service.job"]}
    planned = {j.name for j in jobs if j.plan is None}

    def durs(name, jobs_in=None):
        return [s.dur for s in by_name[name]
                if jobs_in is None or s.job in jobs_in]

    def total(name):
        return sum(s.dur for s in by_name[name])

    hits = {j for j in planned if job_end.get(j, {}).get("cache_hit")}
    misses = planned - hits
    job_begin = {s.args.get("job"): s.start for s in by_name["service.job"]}
    queue = [job_begin[s.args["job"]] - s.start
             for s in by_name["bench.submit"]
             if s.args.get("job") in job_begin]
    adm = durs("service.admission")
    io = [j.result.report for j in done]
    pf = [r.prefetch for r in io if r.prefetch is not None]
    staged = sum(p.staged_blocks for p in pf)
    pool = counters.pool
    shard = counters.shard_bytes
    paced = svc.io_pace * svc.io_model.seconds(counters.disk["read_bytes"],
                                               counters.disk["write_bytes"])
    layer_self = defaultdict(float)
    for s in spans:
        if s.job is not None:
            layer_self[LAYER_OF_SPAN.get(s.name, "other")] += s.self_s
    metrics = {
        "optimizer.search_s": ((total("optimize.enumerate")
                                + total("optimize.search")) / n, "s/job"),
        "optimizer.cost_s": (total("optimize.cost") / n, "s/job"),
        "optimizer.candidates_tested": (instants.get("opt.solve", 0) / n,
                                        "count/job"),
        "optimizer.plans_costed": (instants.get("opt.plan_cost", 0) / n,
                                   "count/job"),
        "polyhedral.kernel_rows": (kernel_rows / n, "count/job"),
        "service.plan_miss_s_p50": (p50(durs("service.plan", misses)), "s"),
        "service.plan_hit_s_p50": (p50(durs("service.plan", hits)), "s"),
        "service.plan_cache_hit_ratio": (_ratio(len(hits), len(planned)),
                                         "ratio"),
        "codegen.build_s": (p50(codegen_s), "s"),
        "service.queue_wait_s_p50": (p50(queue), "s"),
        "service.admission_wait_s_p50": (p50(adm), "s"),
        "service.admission_wait_s_tail": (tail(adm)[0] if adm else 0.0, "s"),
        "service.execute_s_p50": (p50(durs("service.execute")), "s"),
        "storage.disk.read_vs_plan": (
            _ratio(sum(r.io.read_bytes for r in io),
                   sum(j.result.plan.cost.read_bytes for j in done)), "ratio"),
        "storage.buffer.hit_ratio": (
            _ratio(pool["hits"], pool["hits"] + pool["misses"]), "ratio"),
        "storage.buffer.evictions": (pool["evictions"] / n, "count/job"),
        "storage.buffer.peak_bytes": (svc.pool.peak_bytes, "bytes"),
        "engine.prefetch.wait_s": (sum(p.wait_seconds for p in pf) / n,
                                   "s/job"),
        "engine.prefetch.staged_blocks": (staged / n, "count/job"),
        "engine.prefetch.consumed_ratio": (
            _ratio(sum(p.consumed_staged for p in pf), staged), "ratio"),
        "storage.ingest_s": (p50(ingest[0]), "s"),
        "storage.ingest_bytes": (p50(ingest[1]), "bytes"),
        "storage.labtree.write_s": (p50(labtree_s), "s"),
        "storage.disk.read_ops": (counters.disk["read_ops"] / n, "count/job"),
        "storage.disk.write_ops": (counters.disk["write_ops"] / n,
                                   "count/job"),
        "storage.disk.paced_s": (paced / n, "s/job"),
        "storage.sharding.shard_skew": (
            _ratio(max(shard), statistics.mean(shard)), "ratio"),
        "engine.executor.cpu_s": (sum(r.cpu_seconds for r in io) / n,
                                  "s/job"),
        "engine.executor.instances": (sum(r.instances for r in io) / n,
                                      "count/job"),
        "obs.tracing_overhead_ratio": (overhead_ratio, "ratio"),
    }
    for layer in ("analysis", "service", "optimizer", "engine.executor",
                  "engine.prefetch"):
        metrics[f"{layer}.self_s"] = (layer_self[layer] / n, "s/job")
    return metrics


def busy_seconds(jobs) -> float:
    """Length of the union of the jobs' ``[due, done]`` intervals: the time
    in which at least one job was due and not yet finished."""
    total, end = 0.0, -math.inf
    for due, done in sorted((j.due, j.t_done) for j in jobs):
        if done > end:
            total += done - max(due, end)
            end = done
    return total


def end_to_end(jobs, wall, open_loop) -> tuple[dict, dict]:
    """The user-visible numbers for one measured window, with notes.

    A closed loop's throughput is completed jobs over the window.  An open
    loop's window is set by its arrival schedule, so there throughput is
    completed jobs over :func:`busy_seconds`: the rate at which the service
    clears the work it is given, which falls when the service slows down
    even while it still keeps up with the arrivals.
    """
    done = [j for j in jobs if j.result is not None]
    lat = [j.latency if j.result is not None else math.inf for j in jobs]
    tail_v, tail_q, n = tail(lat)
    late = [j.t_submit - j.due for j in jobs]
    busy = busy_seconds(jobs) if open_loop else wall
    out = {
        "job_latency_p50_s": (statistics.median(lat), "s"),
        "job_latency_tail_s": (tail_v, "s"),
        "jobs_per_s": (len(done) / busy, "1/s"),
        "read_bytes_per_job": (statistics.mean(
            j.result.report.io.read_bytes for j in done) if done else 0.0,
            "bytes"),
        "write_bytes_per_job": (statistics.mean(
            j.result.report.io.write_bytes for j in done) if done else 0.0,
            "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "failed_job_ratio": ((len(jobs) - len(done)) / max(len(jobs), 1),
                             "ratio"),
        "generator_lateness_max_s": (max(late) if late else 0.0, "s"),
    }
    notes = {"job_latency_tail_s": f"p{tail_q:g} of {n} jobs",
             "jobs_per_s": (f"over {busy:.3f} s busy of a {wall:.3f} s "
                            f"window" if open_loop else ""),
             "failed_job_ratio": f"{len(jobs) - len(done)} of {len(jobs)}",
             "generator_lateness_max_s": "open loop only; closed loops "
                                         "submit on time by construction"}
    return out, notes


def side_measurements(wl, jobs, workdir):
    """Time the public functions the service calls without a span.

    ``build_executable_plan`` on each traced job's plan; dataset ingest
    (``DAFMatrix.create`` + ``write_matrix``) of each distinct input set
    the traced jobs used; and, for arrays the service keeps in LAB-trees,
    ``LABTree.create`` + ``write_matrix`` of an array of that geometry.
    The stores live on a disk of the service's geometry.  Each call runs
    inside a ``bench.*`` span.
    """
    done = [j for j in jobs if j.result is not None]
    codegen = []
    for j in done:
        program = wl.programs[j.template]
        with obs_trace.span("bench.codegen", "bench", job=j.name):
            t0 = time.perf_counter()
            build_executable_plan(program, j.params, j.result.plan)
            codegen.append(time.perf_counter() - t0)
    datasets = {}
    for j in done:
        datasets.setdefault((j.template, tuple(sorted(j.params.items())),
                             j.input_key), j)
    ingest_s, ingest_b, labtree_s = [], [], []
    svc = wl.svc
    formats = svc.store_format
    with make_disk(workdir / "side", svc.shards, io_model=svc.io_model,
                   pace=svc.io_pace, pace_channels=svc.pace_channels) as disk:
        for k, j in enumerate(datasets.values()):
            program = wl.programs[j.template]
            inputs = make_inputs(program, j.params, j.input_key)
            with obs_trace.span("bench.ingest", "bench", job=j.name):
                t0 = time.perf_counter()
                for name, data in inputs.items():
                    _write_store(DAFMatrix, disk, f"side{k}_{name}",
                                 program.arrays[name], j.params, data)
                ingest_s.append(time.perf_counter() - t0)
            ingest_b.append(sum(d.nbytes for d in inputs.values()))
            for name, arr in program.arrays.items():
                if name in inputs or formats.get(
                        name, formats.get("default")) != "labtree":
                    continue
                data = np.random.default_rng(k).standard_normal(
                    arr.shape_elems(j.params))
                with obs_trace.span("bench.labtree", "bench", job=j.name):
                    t0 = time.perf_counter()
                    _write_store(LABTree, disk, f"side{k}_{name}", arr,
                                 j.params, data)
                    labtree_s.append(time.perf_counter() - t0)
    return codegen, (ingest_s, ingest_b), labtree_s


def _write_store(factory, disk, name, arr, params, data) -> None:
    store = factory.create(disk, name, arr.num_blocks(params),
                           arr.block_shape, np.float64)
    store.write_matrix(data, count=False)
    store.close()
