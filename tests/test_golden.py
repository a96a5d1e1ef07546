"""Golden traces: small committed runs that the current code must reproduce.

Traces of the logistic and shifted-absolute runs must match byte for byte.
Quadratic suboptimality is evaluated in the centred form around x*, so there
``seed``, ``k``, ``dist_sq`` and ``gamma`` must match byte for byte and the
two ``f_sub`` columns to 1e-12 * max(1, |f*|).

Regenerate only the goldens an intended trace change moves, and explain the
change in CHANGES.md; with no names the script rewrites every golden:

    PYTHONPATH=src python tests/test_golden.py synthetic_decsps_b10 libsvm_decsps_b5
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from polystep.objectives import ShiftedAbsoluteObjective
from polystep.runner import ProblemSpec, RunConfig, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
K, SEEDS = 50, (0, 1)
F_SUB_RTOL = 1e-12

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
QUADRATIC = {"counterexample_decsps", "fig1_decsps"}


def run_golden(name: str, out_dir) -> tuple[Path, float]:
    """Run one golden config; returns its trace path and f*."""
    problem, optimizer, B, make = GOLDENS[name]
    cfg = RunConfig(problem=problem, optimizer=optimizer, B=B, K=K, seeds=SEEDS,
                    out_dir=str(out_dir), label=name)
    out = run_experiment(cfg, obj=make() if make else None)
    with open(out.manifest_path) as fh:
        f_star = json.load(fh)["f_star"]
    return Path(out.trace_path), f_star


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", sorted(set(GOLDENS) - QUADRATIC))
def test_trace_byte_identical(name, tmp_path):
    trace, _ = run_golden(name, tmp_path)
    assert trace.read_bytes() == (GOLDEN_DIR / trace.name).read_bytes()


@pytest.mark.parametrize("name", sorted(QUADRATIC))
def test_quadratic_trace_matches(name, tmp_path):
    trace, f_star = run_golden(name, tmp_path)
    got, want = _rows(trace), _rows(GOLDEN_DIR / trace.name)
    assert got[0] == want[0] == ["seed", "k", "f_sub", "f_sub_avg_iterate", "dist_sq", "gamma"]
    assert len(got) == len(want) == 1 + K * len(SEEDS)
    tol = F_SUB_RTOL * max(1.0, abs(f_star))
    for g, w in zip(got[1:], want[1:]):
        assert (g[0], g[1], g[4], g[5]) == (w[0], w[1], w[4], w[5])
        for col in (2, 3):
            assert abs(float(g[col]) - float(w[col])) <= tol, (g, w)


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
            path, _ = run_golden(golden, tmp)
            shutil.copyfile(path, GOLDEN_DIR / path.name)
            print(f"wrote {GOLDEN_DIR / path.name}", file=sys.stderr)
