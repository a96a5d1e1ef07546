"""Golden traces: small committed runs that the current code must reproduce.

Every trace must match its golden byte for byte.

Regenerate only the goldens an intended trace change moves, and explain the
change in CHANGES.md; with no names the script rewrites every golden:

    PYTHONPATH=src python tests/test_golden.py synthetic_decsps_b10 libsvm_decsps_b5
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from polystep.objectives import ShiftedAbsoluteObjective
from polystep.runner import ProblemSpec, RunConfig, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
K, SEEDS = 50, (0, 1)

# name -> (problem, optimizer, B, objective factory or None to build from spec)
GOLDENS = {
    "counterexample_decsps": (ProblemSpec("counterexample"), "decsps", 1, None),
    "fig1_decsps": (ProblemSpec("fig1", n=10, d=4), "decsps", 1, None),
    "synthetic_decsps_b10": (
        ProblemSpec("synthetic", n=60, d=5, lam=1e-3), "decsps", 10, None),
    "absolute_decsps_ns": (
        ProblemSpec("shifted_absolute"), "decsps_ns", 1,
        lambda: ShiftedAbsoluteObjective(np.array([-2.0, -0.5, 0.3, 1.0, 2.5]))),
    # parse -> standardize -> reference -> sigmoid on a small LIBSVM file
    # with sparse rows, a blank line, tab separators and 0/1 labels
    "libsvm_decsps_b5": (
        ProblemSpec("dataset", lam=1e-3, dataset_path=str(GOLDEN_DIR / "libsvm_small.svm")),
        "decsps", 5, None),
}


def run_golden(name: str, out_dir) -> Path:
    """Run one golden config; returns its trace path."""
    problem, optimizer, B, make = GOLDENS[name]
    cfg = RunConfig(problem=problem, optimizer=optimizer, B=B, K=K, seeds=SEEDS,
                    out_dir=str(out_dir), label=name)
    return Path(run_experiment(cfg, obj=make() if make else None).trace_path)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_trace_byte_identical(name, tmp_path):
    trace = run_golden(name, tmp_path)
    assert trace.read_bytes() == (GOLDEN_DIR / trace.name).read_bytes()


if __name__ == "__main__":
    import shutil
    import tempfile

    names = sys.argv[1:] or list(GOLDENS)
    unknown = sorted(set(names) - set(GOLDENS))
    if unknown:
        sys.exit(f"unknown golden {', '.join(unknown)}; expected some of {', '.join(GOLDENS)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for golden in names:
            path = run_golden(golden, tmp)
            shutil.copyfile(path, GOLDEN_DIR / path.name)
            print(f"wrote {GOLDEN_DIR / path.name}", file=sys.stderr)
