import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from polystep import objectives
from polystep.core import stream
from polystep.data_io import Trace, read_trace
from polystep.objectives import ShiftedAbsoluteObjective, make_counterexample_1d
from polystep.runner import (
    ProblemSpec,
    RunConfig,
    aggregate_records,
    build_problem,
    compare_grid,
    iterate_run,
    run_experiment,
)
from polystep.steppers import ConfigurationError, StepperConfig, c_value


def counterexample_cfg(tmp_path, **kwargs):
    base = dict(
        problem=ProblemSpec(name="counterexample"),
        optimizer="decsps",
        stepper=StepperConfig(),
        K=50,
        seeds=(0, 1),
        out_dir=str(tmp_path),
    )
    base.update(kwargs)
    return RunConfig(**base)


class TestBuildProblem:
    def test_counterexample(self):
        obj = build_problem(ProblemSpec(name="counterexample"))
        assert (obj.n, obj.d) == (2, 1)

    def test_fig1_dimensions(self):
        obj = build_problem(ProblemSpec(name="fig1", n=4, d=3, gen_seed=1))
        assert (obj.n, obj.d) == (4, 3)

    def test_synthetic_logistic(self):
        obj = build_problem(ProblemSpec(name="synthetic", n=30, d=5, lam=1e-4))
        assert obj.kind == "logistic" and (obj.n, obj.d) == (30, 5)

    def test_dataset_needs_path(self):
        with pytest.raises(ConfigurationError):
            build_problem(ProblemSpec(name="dataset"))

    def test_dataset_loads_and_standardizes(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:1 2:5\n-1 1:2 2:6\n+1 1:3 2:9\n")
        obj = build_problem(ProblemSpec(name="dataset", dataset_path=str(p)))
        np.testing.assert_allclose(obj.features.mean(axis=0), 0.0, atol=1e-12)

    def test_unknown_dataset_format(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,5\n-1,2,6\n")
        spec = ProblemSpec(name="dataset", dataset_path=str(p), dataset_format="csv")
        with pytest.raises(ConfigurationError, match="dataset format 'csv'"):
            build_problem(spec)

    def test_unknown_problem(self):
        with pytest.raises(ConfigurationError):
            build_problem(ProblemSpec(name="mystery"))


class TestIterateRun:
    def test_yields_pre_step_iterate(self):
        obj = make_counterexample_1d()
        x0 = np.array([2.0])
        it = iterate_run(obj, "decsps", StepperConfig(), x0, 3, 1, stream(0))
        k, x, gamma = next(it)
        assert k == 0 and np.array_equal(x, x0) and gamma > 0

    def test_common_kink_leaves_x_unchanged(self):
        # both shifts equal: at the common kink every subgradient is zero, so
        # every step keeps x, with the carried clip as its stepsize
        obj = ShiftedAbsoluteObjective(np.array([1.0, 1.0]))
        cfg = StepperConfig()
        steps = list(iterate_run(obj, "decsps_ns", cfg, np.array([1.0]), 5, 1, stream(1)))
        assert [k for k, _, _ in steps] == list(range(5))
        assert all(x.tolist() == [1.0] for _, x, _ in steps)
        assert [g for _, _, g in steps] == [cfg.c0 * cfg.gamma_b / c_value(cfg, k)
                                            for k in range(5)]

    def test_seed_determinism(self):
        obj = make_counterexample_1d()
        def run(seed):
            rng = stream(seed)
            x0 = rng.standard_normal(1)
            return [float(x[0]) for _, x, _ in
                    iterate_run(obj, "decsps", StepperConfig(), x0, 20, 1, rng)]
        assert run(3) == run(3)
        assert run(3) != run(4)  # distinct x0 draws already differ at k=0


class TestRunExperiment:
    def test_outputs_written(self, tmp_path):
        cfg = counterexample_cfg(tmp_path)
        out = run_experiment(cfg)
        recs = read_trace(out.trace_path)
        assert {r.seed for r in recs} == {0, 1}
        assert max(r.k for r in recs) == 49
        manifest = json.loads(open(out.manifest_path).read())
        assert manifest["f_star"] == pytest.approx(2.0 / 3.0)
        assert manifest["diagnostics"] == []
        # the whole config, record_every, trace_format, x0_scale and label included
        assert manifest.items() >= json.loads(json.dumps(asdict(cfg))).items()

    def test_same_seed_same_x0_across_optimizers(self, tmp_path):
        a = run_experiment(counterexample_cfg(tmp_path, optimizer="decsps", label="a"))
        b = run_experiment(counterexample_cfg(tmp_path, optimizer="sgd_decreasing", label="b"))
        ra = [r for r in a.records if r.seed == 0 and r.k == 0][0]
        rb = [r for r in b.records if r.seed == 0 and r.k == 0][0]
        assert ra.dist_sq == rb.dist_sq  # identical starting point

    def test_record_every_thins_but_keeps_last(self, tmp_path):
        out = run_experiment(counterexample_cfg(tmp_path, record_every=7, K=50))
        ks = sorted({r.k for r in out.records})
        assert ks == [0, 7, 14, 21, 28, 35, 42, 49]

    def test_suboptimality_decreases(self, tmp_path):
        out = run_experiment(counterexample_cfg(tmp_path, K=2000, record_every=100))
        agg = out.aggregate
        assert agg.mean["f_sub"][-1] < agg.mean["f_sub"][0]
        assert agg.mean["f_sub"][-1] < 0.05

    @pytest.mark.filterwarnings("error")
    def test_divergence_is_reported_not_raised(self, tmp_path):
        # eta=100 overflows on fig1: the run completes without a
        # floating-point warning, and each seed is listed at its first
        # recorded k with an inf or a nan
        cfg = RunConfig(problem=ProblemSpec("fig1", n=10, d=3), optimizer="sgd_constant",
                        stepper=StepperConfig(eta=100.0), K=200, seeds=(0, 1),
                        out_dir=str(tmp_path))
        out = run_experiment(cfg)
        manifest = json.loads(Path(out.manifest_path).read_text())
        assert manifest["diagnostics"] == out.diagnostics
        assert [d["seed"] for d in out.diagnostics] == [0, 1]
        for d in out.diagnostics:
            bad = [r for r in out.records if r.seed == d["seed"]
                   and not np.isfinite(r[2:]).all()]
            assert d["k"] == bad[0].k and d["reason"].startswith("non-finite ")
        assert run_experiment(counterexample_cfg(tmp_path)).diagnostics == []

    def test_batch_too_large(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_experiment(counterexample_cfg(tmp_path, B=3))

    @pytest.mark.parametrize("field", ["K", "record_every"])
    def test_nonpositive_counts_rejected(self, tmp_path, field):
        with pytest.raises(ConfigurationError, match=field):
            run_experiment(counterexample_cfg(tmp_path, **{field: 0}))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("field,value,message", [
        ("optimizer", "bogus", "unknown optimizer 'bogus'"),
        ("seeds", (3, 3), "seeds must be distinct"),
        ("reference_tol", 0.0, "reference_tol must be > 0"),
    ])
    def test_bad_value_rejected_before_any_work(self, tmp_path, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(counterexample_cfg(tmp_path, **{field: value}))
        assert not list(tmp_path.iterdir())

    def test_unknown_trace_format_rejected_before_any_work(self, tmp_path):
        with pytest.raises(ConfigurationError, match="trace format 'json'"):
            run_experiment(counterexample_cfg(tmp_path, trace_format="json"))
        assert not list(tmp_path.iterdir())

    def test_unsound_lower_bound_rejected_before_any_work(self, tmp_path):
        cfg = counterexample_cfg(tmp_path, problem=ProblemSpec("fig1", n=10, d=3, f_floor=-1.0))
        with pytest.raises(ConfigurationError, match="zero lower bound"):
            run_experiment(cfg)
        assert not list(tmp_path.iterdir())
        # a rule without a Polyak target never uses the bound
        run_experiment(counterexample_cfg(tmp_path, problem=cfg.problem, optimizer="adam"))

    def test_exact_policy_on_logistic_batches_rejected(self, tmp_path):
        cfg = RunConfig(
            problem=ProblemSpec(name="synthetic", n=20, d=3),
            optimizer="sps_max",
            stepper=StepperConfig(f_star_policy="exact"),
            B=2, K=5, seeds=(0,), out_dir=str(tmp_path),
        )
        with pytest.raises(ConfigurationError):
            run_experiment(cfg)

    def test_json_lines_format(self, tmp_path):
        out = run_experiment(counterexample_cfg(tmp_path, trace_format="json-lines"))
        assert out.trace_path.endswith(".jsonl")
        recs = read_trace(out.trace_path, "json-lines")
        assert recs == list(out.records)


def columnar(seeds, ks, rows):
    """A Trace holding, for row r, the records (f_sub, f_sub_avg, dist_sq,
    gamma) listed in rows[r] at ks[0], ks[1], ..."""
    trace = Trace.empty(seeds, ks)
    for j in range(len(ks)):
        trace.record(j, *np.array([recs[j] for recs in rows]).T)
    return trace


class TestAggregate:
    def test_mean_and_std(self):
        recs = columnar((0, 1), [0], [[(1.0, 1.0, 1.0, 0.5)], [(3.0, 3.0, 3.0, 0.5)]])
        agg = aggregate_records(recs, "t")
        assert agg.ks.tolist() == [0]
        assert agg.mean["f_sub"][0] == 2.0
        assert agg.std["f_sub"][0] == 1.0

    def test_one_entry_per_recorded_k(self):
        recs = columnar((0, 1), [0, 5], [[(1.0, 1.0, 1.0, 0.5), (2.0, 1.0, 1.0, 0.5)],
                                         [(3.0, 3.0, 3.0, 0.5), (6.0, 3.0, 3.0, 0.5)]])
        agg = aggregate_records(recs, "t")
        assert agg.ks.tolist() == [0, 5]
        assert agg.mean["f_sub"].tolist() == [2.0, 4.0]
        assert agg.std["f_sub"].tolist() == [1.0, 2.0]


class TestCompareGrid:
    def test_sorted_summary(self, tmp_path):
        cfgs = [
            counterexample_cfg(tmp_path, optimizer=opt, label=opt, K=300)
            for opt in ("decsps", "sgd_decreasing", "adagrad_norm")
        ]
        table = compare_grid(cfgs)
        means = [row["final_f_sub_avg_mean"] for row in table]
        assert means == sorted(means)
        assert (tmp_path / "sweep_summary.csv").exists()

    def test_validates_before_reference_solve(self, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("reference solved before validation")

        monkeypatch.setattr(objectives, "solve_reference", no_solve)
        cfgs = [counterexample_cfg(tmp_path, K=0, label=str(i)) for i in range(2)]
        with pytest.raises(ConfigurationError, match="K must be >= 1"):
            compare_grid(cfgs)

    def test_mismatched_reference_tol_rejected(self, tmp_path):
        a = counterexample_cfg(tmp_path, label="a")
        b = counterexample_cfg(tmp_path, label="b", reference_tol=1e-3)
        with pytest.raises(ConfigurationError, match="reference_tol"):
            compare_grid([a, b])
        assert not list(tmp_path.iterdir())

    def test_colliding_outputs_rejected_before_any_work(self, tmp_path):
        a = counterexample_cfg(tmp_path, label="same")
        b = counterexample_cfg(tmp_path, optimizer="sgd_decreasing", label="same")
        with pytest.raises(ConfigurationError, match="'same'"):
            compare_grid([a, b])
        assert not list(tmp_path.iterdir())
        # the default label names problem and optimizer, so these two differ
        compare_grid([counterexample_cfg(tmp_path), counterexample_cfg(tmp_path, optimizer="adam")])

    def test_mismatched_grids_rejected(self, tmp_path):
        a = counterexample_cfg(tmp_path, K=10)
        b = counterexample_cfg(tmp_path, K=20)
        with pytest.raises(ConfigurationError):
            compare_grid([a, b])
