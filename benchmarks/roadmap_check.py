"""Re-measure the per-step costs quoted in ROADMAP.md, in one process.

    python3 benchmarks/roadmap_check.py

Prints one JSON object: microseconds per step of ``iterate_run`` on a d=3
quadratic, per ``sample_batch`` call and per ``dataclasses.replace`` of a
stepper state, and microseconds per iteration of ``run_experiment`` on
synthetic logistic data (n=500, d=100, B=20) recording every step and every
100 steps. Each figure is the median of five timings. Informational; not
part of the benchmark's metrics.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
from time import perf_counter

sys.dont_write_bytecode = True

import workloads  # noqa: E402


def per_call_us(fn, calls: int, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn(calls)
        times.append(perf_counter() - t0)
    return statistics.median(times) / calls * 1e6


def main() -> int:
    workloads.import_polystep()
    from polystep import objectives, runner
    from polystep.core import sample_batch, stream
    from polystep.steppers import StepperConfig, init_state

    quad = objectives.make_random_strongly_convex(stream(0), d=3, n=100)
    cfg = StepperConfig()

    def steps(k):
        rng = stream(1)
        for _ in runner.iterate_run(quad, "decsps", cfg, rng.standard_normal(3), k, 1, rng):
            pass

    def samples(k):
        rng = stream(2)
        for _ in range(k):
            sample_batch(rng, quad.n, 1)

    state = init_state(cfg, "decsps", 3)

    def replaces(k):
        for i in range(k):
            dataclasses.replace(state, k=i, gamma_prev=1.0, c_prev=1.0, scaled_prev=1.0)

    spec = runner.ProblemSpec("synthetic", n=500, d=100, lam=1e-4)
    obj = runner.build_problem(spec)
    ref = objectives.solve_reference(obj)
    K = 2000

    def logistic(record_every, out_dir):
        run_cfg = runner.RunConfig(problem=spec, optimizer="decsps", B=20, K=K, seeds=(0,),
                                   out_dir=str(out_dir), record_every=record_every)
        return lambda _: runner.run_experiment(run_cfg, obj=obj, reference=ref)

    with workloads.work_dir("roadmap") as out_dir:
        result = {
            "iterate_run_d3_us_per_step": per_call_us(steps, 20_000),
            "sample_batch_us_per_call": per_call_us(samples, 20_000),
            "dataclasses_replace_us_per_call": per_call_us(replaces, 20_000),
            "synthetic_record_every_1_us_per_iter": per_call_us(logistic(1, out_dir), 1) / K,
            "synthetic_record_every_100_us_per_iter": per_call_us(logistic(100, out_dir), 1) / K,
        }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
