"""polystep benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --tier1

Runs repeats of one workload, each in a fresh child process, one at a time,
for about S seconds (at least three per mode). Every repeat's outputs are
checked. With ``--trace 0`` the last stdout line reports the end-to-end
metrics as medians over the repeats; with ``--trace 1`` untraced and traced
repeats alternate and it reports the per-layer metrics, medians over the
traced repeats, plus the tracing overhead. ``--tier1`` times the repository's
test suite once and reports its slowest five tests; it is informational and
not part of the repeated workloads. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"  # the benchmark host is a shared two-core machine

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "seed_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("bytes", "bytes_computed")):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


# -- environment fingerprint ----------------------------------------------
def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def fingerprint(polystep) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "polystep": polystep.__version__,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


# -- repeats ----------------------------------------------------------------
def run_child(spec: dict, spec_path: Path) -> tuple[dict | None, str]:
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def measure(args, work: Path) -> dict:
    dataset = workloads.make_inputs(args.workload, args.seed, work)
    modes = (False, True) if args.trace else (False,)
    samples: dict[bool, list[dict]] = {m: [] for m in modes}
    tally = {"ops": 0, "failed": 0, "problems": [], "digests": []}
    durations = []
    start = perf_counter()
    i = 0
    while True:
        traced = modes[i % len(modes)]
        out_dir = work / f"r{i}"
        p = workloads.plan(args.workload, args.seed, str(out_dir), dataset)
        spec = {"workload": args.workload, "seed": args.seed, "out_dir": str(out_dir),
                "dataset": dataset, "traced": traced}
        t0 = perf_counter()
        result, err = run_child(spec, work / f"spec{i}.json")
        if result is None:
            tally["ops"] += p.ops
            tally["failed"] += p.ops
            tally["problems"].append(err)
        else:
            check = checks.check_outputs(p.cfgs, p.grid)
            digests = tally["digests"]
            if digests and check.digest != digests[0]:
                check.failed = check.ops
                check.problems.append("trace digest differs from the first repeat")
            digests.append(check.digest)
            tally["ops"] += check.ops
            tally["failed"] += check.failed
            tally["problems"] += check.problems
            samples[traced].append(dict(result, work=p.seed_steps))
        shutil.rmtree(out_dir, ignore_errors=True)
        durations.append(perf_counter() - t0)
        i += 1
        enough = all(len(samples[m]) >= MIN_REPEATS for m in modes) or tally["failed"]
        if enough and perf_counter() - start + statistics.median(durations) > args.seconds:
            break
    return {"samples": samples, **tally}


def describe(values: list[float]) -> str:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return (f"median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")


def end_to_end(samples: list[dict]) -> dict[str, list[float]]:
    return {
        "setup_s": [s["setup_s"] for s in samples],
        "wall_s": [s["wall_s"] for s in samples],
        "seed_steps_per_s": [s["work"] / (s["wall_s"] - s["setup_s"]) for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }


def report(args, m: dict) -> dict[str, dict]:
    untraced = m["samples"][False]
    metrics = {}
    if not untraced:
        return metrics
    e2e = end_to_end(untraced)
    if not args.trace:
        for name, unit in END_TO_END.items():
            print(f"{name:<20} [{unit}] {describe(e2e[name])}")
            metrics[name] = {"value": statistics.median(e2e[name]), "unit": unit}
        return metrics
    traced = m["samples"][True]
    if not traced:
        return metrics
    names = list(traced[0]["layers"])
    for name in names:
        values = [s["layers"][name] for s in traced]
        print(f"{name:<36} [{layer_unit(name)}] {describe(values)}")
        metrics[name] = {"value": statistics.median(values), "unit": layer_unit(name)}
    traced_wall = [s["wall_s"] for s in traced]
    overhead = statistics.median(traced_wall) - statistics.median(e2e["wall_s"])
    metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"traced wall_s       [s] {describe(traced_wall)}")
    print(f"untraced wall_s     [s] {describe(e2e['wall_s'])}")
    print(f"tracing.overhead_s  [s] {overhead:.6g}")
    gaps = [s["accounting_gap_s"] for s in traced]
    print(f"span accounting gap [s] (traced wall - self times - unattributed): "
          f"max |gap| {max(abs(g) for g in gaps):.3g}")
    layers = {name: metrics[name]["value"] for name in names}
    claim, holds = rationale(args.workload, layers,
                             statistics.median(s["setup_s"] for s in traced),
                             statistics.median(traced_wall))
    print(f"rationale {args.workload}: {'PASS' if holds else 'FAIL'} {claim}")
    return metrics


PER_STEP_LAYERS = (
    "core.sample_batch.self_s", "steppers.step.self_s", "runner.loop.self_s",
    "objectives.step_value.self_s", "objectives.step_grad.self_s",
    "objectives.step_target.self_s", "objectives.record_value.self_s",
)


def rationale(workload: str, layers: dict, setup_s: float, wall_s: float) -> tuple[str, bool]:
    """The reason a workload was chosen, checked against its traced run."""
    loop_s = wall_s - setup_s
    if workload == "seeds_1d":
        share = sum(layers[n] for n in PER_STEP_LAYERS) / loop_s
        return f"per-step layers take {share:.0%} of the loop time", share > 0.5
    if workload == "logistic_libsvm":
        share = (layers["objectives.reference.s"] + layers["data_io.load_libsvm.s"]) / setup_s
        return (f"reference + load_libsvm take {share:.0%} of setup_s; setup_s "
                f"{setup_s:.3g} s vs loop {loop_s:.3g} s", share > 0.5 and setup_s > loop_s)
    timed = [n for n in layers if layer_unit(n) == "s" and not n.startswith("tracing.")]
    largest = max(timed, key=layers.get)
    return f"largest layer is {largest}", largest == "objectives.record_value.self_s"


def tier1() -> int:
    """Time the Tier-1 suite once and list its five slowest tests."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--durations=5"]
    env = dict(child_env(), PYTHONPATH=str(workloads.SRC))
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = perf_counter() - t0
    lines = proc.stdout.splitlines()
    slowest = [ln.strip() for ln in lines if re.match(r"^\d+(\.\d+)?s (call|setup|teardown) ", ln)]
    print(json.dumps({
        "tier1_wall_s": wall,
        "exit_code": proc.returncode,
        "summary": lines[-1] if lines else "",
        "slowest_5": slowest[:5],
        "fingerprint": fingerprint(workloads.import_polystep()),
    }, indent=2))
    return proc.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tier1", action="store_true", help="time the Tier-1 suite once")
    args = ap.parse_args(argv)
    if not args.tier1 and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        polystep = workloads.import_polystep()
    except workloads.MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.tier1:
        return tier1()

    print("fingerprint " + json.dumps(fingerprint(polystep)))
    with workloads.work_dir(f"{args.workload}-{args.seed}") as work:
        m = measure(args, work)
    for problem in m["problems"][:20]:
        print(f"FAILED {problem}")
    print(f"ops_failed/ops {m['failed']}/{m['ops']}")
    metrics = report(args, m)
    correct = m["failed"] == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": m["ops"], "failed": m["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
