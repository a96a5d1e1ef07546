"""Tests of the benchmark's own machinery: output checks, tracer hygiene and
the refusal to run without the program.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import checks
import run
import workloads
from tracer import Tracer

polystep = workloads.import_polystep()
from polystep import objectives, runner  # noqa: E402
from polystep.steppers import StepperConfig  # noqa: E402

K = 12
SEEDS = (0, 1, 2)


def run_cfg(tmp_path, optimizer="decsps", fmt="csv", **kw):
    return runner.RunConfig(
        problem=runner.ProblemSpec("counterexample"), optimizer=optimizer,
        stepper=StepperConfig(eta=0.05), K=K, seeds=SEEDS, out_dir=str(tmp_path),
        trace_format=fmt, label=f"t_{optimizer}", **kw,
    )


def edit_csv(path, row, column, value):
    """Set one cell of a csv trace; ``row`` counts data rows from 0."""
    lines = open(path).read().splitlines()
    cells = lines[row + 1].split(",")
    cells[checks.COLUMNS.index(column)] = value
    lines[row + 1] = ",".join(cells)
    open(path, "w").write("\n".join(lines) + "\n")


@pytest.fixture
def good(tmp_path):
    cfg = run_cfg(tmp_path)
    runner.run_experiment(cfg)
    return cfg


def test_clean_run_passes(good):
    res = checks.check_outputs([good], grid=False)
    assert (res.ops, res.failed) == (len(SEEDS), 0), res.problems


def test_nan_row_fails_one_seed(good):
    edit_csv(checks.trace_path(good), 3, "f_sub", "nan")
    res = checks.check_outputs([good], grid=False)
    assert res.failed == 1 and "non-finite" in res.problems[0]


def test_nan_in_json_lines_fails(tmp_path):
    cfg = run_cfg(tmp_path, fmt="json-lines")
    runner.run_experiment(cfg)
    path = checks.trace_path(cfg)
    lines = open(path).read().splitlines()
    row = json.loads(lines[K + 2])
    row["dist_sq"] = float("nan")
    lines[K + 2] = json.dumps(row)
    open(path, "w").write("\n".join(lines) + "\n")
    assert checks.check_outputs([cfg], grid=False).failed == 1


def test_rising_gamma_fails(good):
    path = checks.trace_path(good)
    rows = checks.read_rows(path, "csv")
    edit_csv(path, 5, "gamma", repr(rows[4][5] * 2.0))
    res = checks.check_outputs([good], grid=False)
    assert res.failed == 1 and "gamma rises" in res.problems[0]


def test_rising_gamma_allowed_for_non_monotone_rules(tmp_path):
    cfg = run_cfg(tmp_path, optimizer="sgd_constant")
    runner.run_experiment(cfg)
    edit_csv(checks.trace_path(cfg), 5, "gamma", "1.0")
    assert checks.check_outputs([cfg], grid=False).failed == 0


def test_negative_suboptimality_fails(good):
    edit_csv(checks.trace_path(good), K + 1, "f_sub_avg_iterate", "-1e-6")
    assert checks.check_outputs([good], grid=False).failed == 1


def test_missing_row_fails(good):
    path = checks.trace_path(good)
    lines = open(path).read().splitlines()
    del lines[2 * K]
    open(path, "w").write("\n".join(lines) + "\n")
    assert checks.check_outputs([good], grid=False).failed == 1


def test_halted_seed_fails(good):
    path = f"{good.out_dir}/{good.label}_manifest.json"
    manifest = json.load(open(path))
    manifest["diagnostics"].append({"seed": SEEDS[1], "halted_at": 3, "reason": "test"})
    json.dump(manifest, open(path, "w"))
    assert checks.check_outputs([good], grid=False).failed == 1


def test_missing_trace_fails_every_seed(good):
    os.remove(checks.trace_path(good))
    assert checks.check_outputs([good], grid=False).failed == len(SEEDS)


def test_missing_grid_row_fails_that_config(tmp_path):
    cfgs = [run_cfg(tmp_path, optimizer=opt) for opt in ("decsps", "sgd_constant")]
    runner.compare_grid(cfgs)
    assert checks.check_outputs(cfgs, grid=True).failed == 0
    summary = tmp_path / "sweep_summary.csv"
    kept = [ln for ln in summary.read_text().splitlines() if not ln.startswith("t_decsps,")]
    summary.write_text("\n".join(kept) + "\n")
    res = checks.check_outputs(cfgs, grid=True)
    assert res.failed == len(SEEDS) and "sweep_summary" in res.problems[0]


def test_repeats_give_identical_digests(tmp_path):
    a = run_cfg(tmp_path / "a")
    b = replace(a, out_dir=str(tmp_path / "b"))
    runner.run_experiment(a)
    runner.run_experiment(b)
    assert checks.check_outputs([a], False).digest == checks.check_outputs([b], False).digest


def _attributes():
    owners = [runner, objectives, polystep.data_io, objectives.LogisticObjective,
              objectives.QuadraticObjective, objectives.ShiftedAbsoluteObjective]
    snap = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    snap.update({("STEPPERS", k): v for k, v in runner.STEPPERS.items()})
    return snap


def test_tracer_restores_every_attribute(tmp_path):
    before = _attributes()
    with pytest.raises(RuntimeError, match="boom"):
        with Tracer(polystep):
            assert runner.STEPPERS["decsps"] is not before[("STEPPERS", "decsps")]
            raise RuntimeError("boom")
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_reports_the_declared_layers(tmp_path):
    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        per_layer = json.load(fh)["per_layer"]
    declared = {m["name"] for m in per_layer}
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in per_layer)
    p = workloads.plan("seeds_1d", 0, str(tmp_path))
    p = replace(p, cfgs=(replace(p.cfgs[0], K=5, seeds=(0, 1)),), setup_repeats=2)
    tracer = Tracer(polystep)
    out = workloads.run_repeat(p, tracer)
    layers = tracer.layer_metrics(out["wall_s"])
    assert set(layers) | {"tracing.overhead_s"} == declared
    assert layers["core.sample_batch.calls"] == layers["steppers.step.calls"] == 10
    assert layers["objectives.record_value.calls"] == 20
    assert abs(tracer.accounting_gap(out["wall_s"])) < 1e-9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "seeds_1d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
