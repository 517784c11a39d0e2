"""The benchmark's workloads, driven through ``repro.service.ArrayService``.

Each workload is a class with the same life cycle:

* ``setup()`` opens the service and does what must happen before the first
  job (plan warming, dataset ingest).  ``setup_times(n)`` repeats it ``n``
  times in fresh directories and times each repeat; ``setup_s`` is the
  median over the repeats of a run (run.py says when they happen);
* ``measure(seconds)`` submits jobs for about ``seconds`` and returns the
  :class:`Job` records it made (submit/due/done times, result or error);
* ``close()`` shuts the service down.

Inputs come only from the seed.  Every job records the seed of its inputs
rather than the matrices, so outputs are checked against the dense
reference after the measured window (``verify.py``) without keeping every
job's inputs in memory.

Why these three (see README.md for the layer map):

* ``plan_mix`` — cold planning dominates: one client, tiny blocks, unpaced
  disk, a plan cache emptied every round;
* ``shared_scan`` — sharing dominates: open-loop Poisson arrivals over a few
  shared datasets larger than the pool, paced disk, prefetch on, warm plans;
* ``ingest_write`` — the write/miss path: every job brings fresh inputs,
  write-heavy plans, two shards, LAB-tree intermediates, prefetch off.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import threading
import time
from pathlib import Path

from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from repro import add_multiply_program, linreg_program, two_matmul_program
from repro.exceptions import ReproError
from repro.ir import ArrayKind
from repro.obs import trace as obs_trace
from repro.optimizer import Optimizer
from repro.service import ArrayService, PlanCache

#: Apriori candidate budget for every plan the benchmark asks for.
MAX_CANDIDATES = 3


class Job:
    """One submission and what became of it.

    ``due`` is when the job should have been submitted (the open loop's
    schedule; the submit call itself for closed loops), ``t_done`` when its
    result (or error) was ready.  Latency is ``t_done - due``.
    """

    __slots__ = ("name", "template", "params", "input_key", "plan",
                 "due", "t_submit", "t_done", "result", "error", "digest")

    def __init__(self, name, template, params, input_key, plan=None):
        self.name = name
        self.template = template
        self.params = dict(params)
        self.input_key = input_key      # seed tuple the inputs derive from
        self.plan = plan        # a warm plan, or None: the service plans
        self.due = self.t_submit = self.t_done = None
        self.result = None
        self.error = None
        self.digest = None

    @property
    def latency(self) -> float:
        return self.t_done - self.due

    def finish(self, handle) -> None:
        """Record the outcome once ``handle`` is done (after ``t_done``).

        Outputs are reduced to a digest here so a run holds a few bytes per
        job, not its matrices; ``verify.py`` compares digests.
        """
        try:
            self.result = handle.result()
        except ReproError as err:
            self.error = err
            return
        self.digest = digest(self.result.outputs)
        self.result.outputs = None


def digest(outputs: dict[str, np.ndarray]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(outputs):
        arr = np.ascontiguousarray(outputs[name])
        h.update(repr((name, arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def make_inputs(program, params, input_key) -> dict[str, np.ndarray]:
    """Dense input matrices, a pure function of ``input_key``."""
    rng = np.random.default_rng(list(input_key))
    return {name: rng.standard_normal(arr.shape_elems(params))
            for name, arr in program.arrays.items()
            if arr.kind is ArrayKind.INPUT}


def _submit_and_wait(svc, job, program, inputs) -> None:
    """Closed-loop step: submit one job and block on its result."""
    job.due = job.t_submit = time.perf_counter()
    try:
        with obs_trace.span("bench.submit", "bench", job=job.name):
            handle = svc.submit(program, job.params, inputs, name=job.name,
                                plan=job.plan)
    except ReproError as err:       # shed, queue full, closed
        job.error = err
        job.t_done = time.perf_counter()
        return
    wait([handle])
    job.t_done = time.perf_counter()
    job.finish(handle)


class Workload:
    """Shared plumbing: work directories, repeated setup, the service."""

    name = ""
    programs: dict = {}
    #: Open loop: jobs arrive on a schedule instead of after the previous
    #: one finished (``jobs_per_s`` is then counted over busy time).
    open_loop = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.svc: ArrayService | None = None
        self._jobs = 0
        self._setups = 0
        # Persistent across setup repeats, like a service restarted on the
        # same host: the first repeat plans cold, later ones hit the cache.
        self.plan_cache_dir = workdir / "plans"

    def next_name(self) -> str:
        self._jobs += 1
        return f"j{self._jobs}"

    def setup_times(self, repeats: int) -> list[float]:
        """Close the open service, if any, and run setup ``repeats`` times,
        each in a fresh directory; keep the last service open."""
        times = []
        for _ in range(repeats):
            if self.svc is not None:
                self.close()
            self._setups += 1
            t0 = time.perf_counter()
            self.setup(self.workdir / f"svc{self._setups}")
            times.append(time.perf_counter() - t0)
        return times

    def setup(self, svcdir: Path) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> list[Job]:
        raise NotImplementedError

    def close(self) -> None:
        self.svc.shutdown(wait=True)
        shutil.rmtree(self.svc.workdir, ignore_errors=True)
        self.svc = None
        # A shut-down service sits in reference cycles; without a pass of
        # the cycle collector every setup repeat would add its pool and
        # datasets to the process's peak memory.
        gc.collect()

    def warm_plan(self, template, params, cap):
        """Plan through the public optimizer, sharing the service's cache."""
        optimizer = Optimizer(self.programs[template], self.svc.io_model)
        result = optimizer.optimize(params, memory_cap_bytes=cap,
                                    max_candidates=MAX_CANDIDATES,
                                    plan_cache=self.svc.plan_cache)
        return result.best(cap)


class PlanMix(Workload):
    """Closed loop, 1 client, ``workers=1``: planning is the job.

    A round is 12 jobs, four per template in this order: a binding planned
    cold, its exact repeat (same binding, same inputs: a plan-cache hit), a
    new binding in the same regime (a miss today, which a regime-keyed cache
    could turn into a hit) and a degenerate binding (a different lattice).
    The seed interleaves the templates and draws the inputs.  Every round
    empties the plan cache first and brings fresh inputs, so each round
    does the same work and the run measures whole rounds.
    """

    name = "plan_mix"
    #: A run measures ``seconds // ROUND_SECONDS`` whole rounds: 4 at 30 s.
    #: A round took 10-16 s on the 2-vCPU tuning host, so a run measures
    #: longer than ``seconds``.  Planning is CPU-bound, and the host's
    #: speed swings from one round to the next; 4 rounds average more of
    #: those swings than 2 (README.md, "Spread").
    ROUND_SECONDS = 7.5
    CAP = 64 << 20
    programs = {
        "add_multiply": add_multiply_program(4, 4, 4),
        "two_matmul": two_matmul_program((4, 4), (4, 4), (4, 4)),
        "linreg": linreg_program((8, 4), 2),
    }
    # template -> (cold binding, same-regime binding, degenerate binding)
    BINDINGS = {
        "add_multiply": ({"n1": 4, "n2": 4, "n3": 2},
                         {"n1": 6, "n2": 6, "n3": 2},
                         {"n1": 4, "n2": 4, "n3": 1}),
        "two_matmul": ({"n1": 2, "n2": 2, "n3": 2, "n4": 2},
                       {"n1": 3, "n2": 3, "n3": 2, "n4": 3},
                       {"n1": 2, "n2": 1, "n3": 2, "n4": 1}),
        "linreg": ({"n": 4}, {"n": 6}, {"n": 1}),
    }

    def setup(self, svcdir: Path) -> None:
        """Open the service and push one warm-up job through it.

        The warm-up runs the share-nothing plan (``max_candidates=0``:
        analysis and one costing, no search) and leaves the plan cache
        empty, so the first measured job pays cold planning but not
        first-use costs.
        """
        self.svc = ArrayService(svcdir, memory_cap_bytes=self.CAP, workers=1,
                                plan_cache=PlanCache(svcdir / "plans"),
                                max_candidates=MAX_CANDIDATES)
        program = self.programs["add_multiply"]
        params = self.BINDINGS["add_multiply"][0]
        plan = Optimizer(program, self.svc.io_model).optimize(
            params, max_candidates=0).best(self.CAP)
        self.svc.run(program, params,
                     make_inputs(program, params, (self.seed, 1 << 20)),
                     name="warm", plan=plan)
        self._round = 0

    def round_jobs(self) -> list[Job]:
        rng = np.random.default_rng([self.seed, self._round])
        order = [t for t in self.programs for _ in range(4)]
        rng.shuffle(order)
        seq = {t: iter(self._template_jobs(t)) for t in self.programs}
        self._round += 1
        return [next(seq[t]) for t in order]

    def _template_jobs(self, template) -> list[Job]:
        cold, regime, degenerate = self.BINDINGS[template]
        key = (self.seed, self._round, list(self.programs).index(template))
        return [Job(self.next_name(), template, cold, key + (0,)),
                Job(self.next_name(), template, cold, key + (0,)),
                Job(self.next_name(), template, regime, key + (1,)),
                Job(self.next_name(), template, degenerate, key + (2,))]

    def measure(self, seconds: float) -> list[Job]:
        # A fixed number of whole rounds, so every run has the same job mix
        # and the same sample count (a time-bounded loop would flip between
        # two round counts, and the tail percentile with it).
        jobs: list[Job] = []
        for _ in range(max(1, int(seconds // self.ROUND_SECONDS))):
            self.svc.plan_cache.clear()
            for job in self.round_jobs():
                program = self.programs[job.template]
                inputs = make_inputs(program, job.params, job.input_key)
                _submit_and_wait(self.svc, job, program, inputs)
                jobs.append(job)
        return jobs


class SharedScan(Workload):
    """Open loop over shared datasets: pool, prefetch, disk and admission.

    Arrivals are Poisson at ``RATE`` jobs/s, about 60% of what the service
    completed in a closed loop at the commit that introduced this benchmark
    (8 jobs/s with 4 clients on a 2-core machine); README.md, "Spread",
    says why not 70%.  Blocks are large enough that paced disk time, not
    Python, is most of a job, which keeps the latency percentiles steadier
    on a machine whose CPU speed varies.  The arrival count is fixed to
    ``RATE * seconds`` and the arrival times are the order statistics of
    uniform draws, which is a Poisson process conditioned on its count: the
    offered load is identical across seeds, the spacing is not.  Jobs cycle
    over ``DATASETS`` input sets (seeded order) whose union is larger than
    the pool, with the plan warmed during setup.
    """

    name = "shared_scan"
    open_loop = True
    RATE = 5.0
    DATASETS = 4
    CAP = 20 << 20
    PARAMS = {"n1": 4, "n2": 4, "n3": 1}
    programs = {"add_multiply": add_multiply_program(180, 120, 150)}

    def setup(self, svcdir: Path) -> None:
        self.svc = ArrayService(svcdir, memory_cap_bytes=self.CAP, workers=2,
                                plan_cache=PlanCache(self.plan_cache_dir),
                                io_pace=1.0, pace_channels=1, shards=1,
                                prefetch_depth=4)
        self.plan = self.warm_plan("add_multiply", self.PARAMS, self.CAP)
        program = self.programs["add_multiply"]
        for d in range(self.DATASETS):
            key = (self.seed, d)
            self.svc.run(program, self.PARAMS,
                         make_inputs(program, self.PARAMS, key),
                         name=f"warm{d}", plan=self.plan)
        self._batch = 0

    def measure(self, seconds: float) -> list[Job]:
        rng = np.random.default_rng([self.seed, 1000 + self._batch])
        self._batch += 1
        n = max(1, round(self.RATE * seconds))
        dues = np.sort(rng.uniform(0.0, seconds, n))
        order = rng.permutation(self.DATASETS)
        program = self.programs["add_multiply"]
        inputs = {d: make_inputs(program, self.PARAMS, (self.seed, d))
                  for d in range(self.DATASETS)}
        jobs = []
        finished = threading.Semaphore(0)

        def on_done(job, handle):
            job.t_done = time.perf_counter()
            try:
                job.finish(handle)
            finally:    # an unexpected error must not hang the drain below
                finished.release()

        t0 = time.perf_counter()
        for i, due in enumerate(dues):
            d = int(order[i % self.DATASETS])
            job = Job(self.next_name(), "add_multiply", self.PARAMS,
                      (self.seed, d), plan=self.plan)
            job.due = t0 + float(due)
            delay = job.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            job.t_submit = time.perf_counter()
            jobs.append(job)
            try:
                with obs_trace.span("bench.submit", "bench", job=job.name):
                    handle = self.svc.submit(program, self.PARAMS,
                                             inputs[d], name=job.name,
                                             plan=self.plan)
            except ReproError as err:   # shed, queue full, closed
                job.error = err
                job.t_done = time.perf_counter()
                finished.release()
                continue
            handle.add_done_callback(lambda h, job=job: on_done(job, h))
        for _ in jobs:
            finished.acquire()
        return jobs


class IngestWrite(Workload):
    """Closed loop, 2 clients, fresh inputs per job: ingest and writes.

    Each client alternates ``two_matmul`` (writes both outputs) and
    ``add_multiply`` planned under ``AM_PLAN_CAP``, a cap too small to keep
    the intermediate C in memory, so C is written (to a LAB-tree).  The run
    submits a fixed number of pairs, ``JOBS_PER_SECOND * seconds`` jobs
    (about half of what the service completes per second on a 2-core
    machine, which leaves time in a run for setup and the correctness
    checks), so every run does the same work: the job count,
    the tail percentile and the memory the service keeps per job are then
    the same in every run, and only the time it takes varies.
    """

    name = "ingest_write"
    CAP = 16 << 20
    AM_PLAN_CAP = 112 << 10
    PARAMS = {"two_matmul": {"n1": 3, "n2": 3, "n3": 3, "n4": 3},
              "add_multiply": {"n1": 3, "n2": 3, "n3": 2}}
    programs = {"two_matmul": two_matmul_program((64, 64), (64, 64),
                                                 (64, 64)),
                "add_multiply": add_multiply_program(64, 64, 64)}
    CLIENTS = 2
    JOBS_PER_SECOND = 10.0

    def setup(self, svcdir: Path) -> None:
        self.svc = ArrayService(svcdir, memory_cap_bytes=self.CAP, workers=2,
                                plan_cache=PlanCache(self.plan_cache_dir),
                                io_pace=1.0, pace_channels=1, shards=2,
                                store_format={"default": "daf",
                                              "C": "labtree"})
        self.plans = {
            "two_matmul": self.warm_plan("two_matmul",
                                         self.PARAMS["two_matmul"], self.CAP),
            "add_multiply": self.warm_plan("add_multiply",
                                           self.PARAMS["add_multiply"],
                                           self.AM_PLAN_CAP)}
        self._batch = 0

    def measure(self, seconds: float) -> list[Job]:
        batch = self._batch
        self._batch += 1
        per_client: list[list[Job]] = [[] for _ in range(self.CLIENTS)]
        names = threading.Lock()
        pairs = max(1, round(seconds * self.JOBS_PER_SECOND
                             / (2 * self.CLIENTS)))

        def client(c):
            k = 0
            for _ in range(pairs):
                for template in ("two_matmul", "add_multiply"):
                    program = self.programs[template]
                    params = self.PARAMS[template]
                    with names:
                        name = self.next_name()
                    job = Job(name, template, params,
                              (self.seed, batch, c, k),
                              plan=self.plans[template])
                    k += 1
                    _submit_and_wait(self.svc, job, program,
                                     make_inputs(program, params,
                                                 job.input_key))
                    per_client[c].append(job)

        with ThreadPoolExecutor(self.CLIENTS) as clients:
            for done in [clients.submit(client, c)
                         for c in range(self.CLIENTS)]:
                done.result()       # re-raise what a client thread raised
        return [j for jobs in per_client for j in jobs]


WORKLOADS = {w.name: w for w in (PlanMix, SharedScan, IngestWrite)}
