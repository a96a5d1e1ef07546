"""One repeat of a workload, in a process of its own.

Usage: python3 benchmarks/child.py SPEC.json

SPEC holds the workload name, seed, output directory, dataset path and
whether to trace. Prints one JSON line with the repeat's timings, its peak
resident set size and, when traced, the per-layer numbers.
"""

from __future__ import annotations

import json
import resource
import sys

sys.dont_write_bytecode = True

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    with open(argv[0]) as fh:
        spec = json.load(fh)
    polystep = workloads.import_polystep()
    p = workloads.plan(spec["workload"], spec["seed"], spec["out_dir"], spec["dataset"])
    tracer = None
    if spec["traced"]:
        from tracer import Tracer

        tracer = Tracer(polystep)
    out = workloads.run_repeat(p, tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(out["wall_s"])
        out["accounting_gap_s"] = tracer.accounting_gap(out["wall_s"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
