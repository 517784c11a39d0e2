"""Correctness checks, run after the measured window.

* every completed job's outputs must equal ``repro.engine.reference_outputs``
  on the same inputs, bit for bit (outputs are compared by digest, so a run
  keeps a few bytes per job instead of its matrices);
* every distinct (template, binding, plan) the run executed is replayed
  once with ``run_program(..., validate=True)``: plan-exact I/O must equal
  the cost model byte for byte, which is what makes the byte counters the
  benchmark reports comparable with the plan's predictions.
"""

from __future__ import annotations

from repro.engine import reference_outputs, run_program
from repro.ir import ArrayKind

from workloads import digest, make_inputs


def wrong_outputs(workload, jobs) -> list[str]:
    """Names of completed jobs whose outputs differ from the reference."""
    expected: dict[tuple, str] = {}
    wrong = []
    for job in jobs:
        if job.result is None:
            continue
        key = (job.template, tuple(sorted(job.params.items())), job.input_key)
        if key not in expected:
            program = workload.programs[job.template]
            inputs = make_inputs(program, job.params, job.input_key)
            ref = reference_outputs(program, job.params, inputs)
            expected[key] = digest({
                n: ref[n] for n, arr in program.arrays.items()
                if arr.kind is ArrayKind.OUTPUT})
        if job.digest != expected[key]:
            wrong.append(job.name)
    return wrong


def audit_plans(workload, jobs, workdir) -> list[str]:
    """Byte-exact cost-model audits; returns one line per failure."""
    seen = set()
    failures = []
    for job in jobs:
        if job.result is None:
            continue
        plan = job.result.plan
        key = (job.template, tuple(sorted(job.params.items())), plan.index)
        if key in seen:
            continue
        seen.add(key)
        program = workload.programs[job.template]
        inputs = make_inputs(program, job.params, job.input_key)
        report, _ = run_program(program, job.params, plan,
                                workdir / f"audit{len(seen)}", inputs,
                                io_model=workload.svc.io_model,
                                validate=True, shards=workload.svc.shards)
        if not report.validation.passed:
            failures.append(f"{job.template} {job.params} plan "
                            f"#{plan.index}: " + "; ".join(
                                str(r) for r in report.validation.failures()))
    return failures
