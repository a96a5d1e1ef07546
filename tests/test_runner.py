import json
import math
import os
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polystep import data_io, objectives
from polystep.core import stream
from polystep.data_io import METRICS, Trace, read_trace
from polystep.objectives import ShiftedAbsoluteObjective, make_counterexample_1d
from polystep.runner import (
    Aggregate,
    ProblemSpec,
    RunConfig,
    _run_grid,
    aggregate_records,
    build_problem,
    compare_grid,
    iterate_run,
    run_experiment,
    write_aggregate,
)
from polystep.steppers import (
    C_SCHEDULES,
    F_STAR_POLICIES,
    LOWER_BOUND_POLICIES,
    STEPPERS,
    ConfigurationError,
    StepperConfig,
    c_value,
)


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
        features = -obj.labels[:, None] * obj.rows  # rows_i = -y_i a_i under "standard"
        np.testing.assert_allclose(features.mean(axis=0), 0.0, atol=1e-12)

    def test_unknown_dataset_format(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,5\n-1,2,6\n")
        spec = ProblemSpec(name="dataset", dataset_path=str(p), dataset_format="csv")
        with pytest.raises(ConfigurationError, match="dataset format 'csv'"):
            build_problem(spec)

    def test_unknown_problem(self):
        with pytest.raises(ConfigurationError):
            build_problem(ProblemSpec(name="mystery"))

    def test_unknown_label_sign(self):
        with pytest.raises(ConfigurationError, match="unknown label sign 'bogus'"):
            build_problem(ProblemSpec(name="synthetic", n=10, d=2, label_sign="bogus"))


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
        assert recs.seeds == (0, 1)
        assert recs.ks.tolist() == list(range(50))
        manifest = json.loads(open(out.manifest_path).read())
        assert manifest["f_star"] == pytest.approx(2.0 / 3.0)
        assert manifest["diagnostics"] == []
        # the whole config, record_every, trace_format, x0_scale and label included
        assert manifest.items() >= json.loads(json.dumps(asdict(cfg))).items()

    def test_same_seed_same_x0_across_optimizers(self, tmp_path):
        a = run_experiment(counterexample_cfg(tmp_path, optimizer="decsps", label="a"))
        b = run_experiment(counterexample_cfg(tmp_path, optimizer="sgd_decreasing", label="b"))
        ra, rb = a.records.seeds.index(0), b.records.seeds.index(0)
        assert a.records.ks[0] == b.records.ks[0] == 0
        assert a.records.dist_sq[ra, 0] == b.records.dist_sq[rb, 0]  # identical starting point

    def test_record_every_thins_but_keeps_last(self, tmp_path):
        out = run_experiment(counterexample_cfg(tmp_path, record_every=7, K=50))
        assert out.records.ks.tolist() == [0, 7, 14, 21, 28, 35, 42, 49]

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
            r = out.records.seeds.index(d["seed"])
            finite = np.isfinite([getattr(out.records, m)[r] for m in METRICS]).all(axis=0)
            bad = out.records.ks[~finite]
            assert d["k"] == bad[0] and d["reason"].startswith("non-finite ")
        assert run_experiment(counterexample_cfg(tmp_path)).diagnostics == []

    def test_negative_stepsize_between_records_is_reported(self, tmp_path):
        # a constant bound above some batch minima: seed 9's sps_max row
        # takes one negative stepsize at k=3 and recovers before k=10
        stepper = StepperConfig(c_schedule="constant", lower_bound_policy="constant",
                                lower_bound_value=0.5)
        cfg = counterexample_cfg(tmp_path, optimizer="sps_max", stepper=stepper,
                                 K=30, seeds=(8, 9))
        gamma = run_experiment(cfg).records.gamma
        assert (gamma[0] >= 0).all() and np.flatnonzero(gamma[1] < 0).tolist() == [3]
        out = run_experiment(replace(cfg, record_every=10, label="sparse"))
        assert (out.records.gamma >= 0).all()
        assert out.diagnostics == [{"seed": 9, "k": 3, "reason": "negative stepsize"}]
        manifest = json.loads(Path(out.manifest_path).read_text())
        assert manifest["diagnostics"] == out.diagnostics

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
        # fig1 never reads the label sign, and a nan x0 scale made every record nan
        ("problem", ProblemSpec("fig1", n=5, d=2, label_sign="bogus"),
         "unknown label sign 'bogus'; expected one of standard, as_printed"),
        ("x0_scale", math.nan, "x0_scale must be finite, got nan"),
        ("x0_scale", math.inf, "x0_scale must be finite, got inf"),
        # a type the manifest's json.dump writes: an int, or a float for a
        # float field, never a bool, an np.int64 or an np.float32
        ("K", 2.5, "^K must be an int, got 2.5$"),
        ("K", True, "^K must be an int, got True$"),
        ("K", np.int64(6), r"^K must be an int, got np.int64\(6\)$"),
        ("record_every", 1.5, "^record_every must be an int, got 1.5$"),
        ("problem", ProblemSpec("synthetic", n=2.5), "^n must be an int, got 2.5$"),
        ("problem", ProblemSpec("counterexample", lam="0.1"), "^lam must be a number, got '0.1'$"),
        ("seeds", (np.int64(3),), r"^seeds must be ints, got \[np.int64\(3\)\]$"),
        ("stepper", StepperConfig(gamma_b=np.float32(2)),
         r"^gamma_b must be a number, got np.float32\(2.0\)$"),
        # a Path is no str: the manifest's json.dump failed on it after the run
        ("out_dir", Path("out"), r"^out_dir must be a str, got \w*Path\('out'\)$"),
        ("problem", ProblemSpec("dataset", dataset_path=Path("a.svm")),
         r"^dataset_path must be a str or None, got \w*Path\('a.svm'\)$"),
        ("label", 5, "^label must be a str, got 5$"),
        # "no" is truthy: it ran an interpolated problem
        ("problem", ProblemSpec("fig1", n=5, d=2, interpolated="no"),
         "^interpolated must be a bool, got 'no'$"),
        # open and os.makedirs refuse a path with a NUL byte, the latter after the run
        ("label", "a\0b", r"^label must hold no NUL byte, got 'a\\x00b'$"),
    ])
    def test_bad_value_rejected_before_any_work(self, tmp_path, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            run_experiment(counterexample_cfg(tmp_path, **{field: value}))
        assert not list(tmp_path.iterdir())

    def test_float64_setting_runs(self, tmp_path):
        # np.float64 is a float subclass, which the manifest's json.dump writes
        out = run_experiment(counterexample_cfg(tmp_path, K=3,
                                                stepper=StepperConfig(gamma_b=np.float64(2))))
        assert json.loads(Path(out.manifest_path).read_text())["stepper"]["gamma_b"] == 2.0

    def test_unknown_trace_format_rejected_before_any_work(self, tmp_path):
        with pytest.raises(ConfigurationError, match="trace format 'json'"):
            run_experiment(counterexample_cfg(tmp_path, trace_format="json"))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("label", ["a/b", "/abs", ".", "..", f"x{os.sep}y"])
    def test_label_that_is_no_file_name_rejected_before_any_work(self, tmp_path, label):
        cfg = counterexample_cfg(tmp_path / "out", label=label)
        with pytest.raises(ConfigurationError, match="not a plain file name") as err:
            run_experiment(cfg)
        assert "\n" not in str(err.value)
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

    def test_exact_target_on_the_absolute_sum(self, tmp_path):
        # a one-term batch of |x - s_i| has minimum 0, so the exact Polyak
        # target is the zero bound; a larger batch has no closed-form minimum
        obj = ShiftedAbsoluteObjective(np.array([-2.0, -0.5, 0.3, 1.0, 2.5]))

        def run(policy, B):
            return run_experiment(RunConfig(
                problem=ProblemSpec("shifted_absolute"), optimizer="decsps_ns",
                stepper=StepperConfig(lower_bound_policy=policy), B=B, K=40, seeds=(0, 1, 2),
                out_dir=str(tmp_path / f"{policy}_{B}")), obj=obj)

        exact, zero = run("exact", 1), run("zero", 1)
        assert Path(exact.trace_path).read_bytes() == Path(zero.trace_path).read_bytes()
        with pytest.raises(ConfigurationError, match="exact batch minimum only for B=1"):
            run("exact", 2)
        assert not (tmp_path / "exact_2").exists()

    def test_json_lines_format(self, tmp_path):
        out = run_experiment(counterexample_cfg(tmp_path, trace_format="json-lines"))
        assert out.trace_path.endswith(".jsonl")
        recs = read_trace(out.trace_path, "json-lines")
        assert recs.seeds == out.records.seeds
        for name in ("ks", *METRICS):
            assert getattr(recs, name).tobytes() == getattr(out.records, name).tobytes()


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


def per_row_aggregate_bytes(agg) -> bytes:
    """The _agg.csv bytes of one '%d' + ',%.17g' * 8 format per row."""
    header = "k," + ",".join(f"mean_{m},std_{m}" for m in METRICS) + "\n"
    columns = [agg.ks.tolist()]
    for m in METRICS:
        columns += [agg.mean[m].tolist(), agg.std[m].tolist()]
    row = "%d" + ",%.17g" * (2 * len(METRICS)) + "\n"
    return (header + "".join(row % r for r in zip(*columns))).encode()


class TestAggregateFile:
    @pytest.mark.parametrize("kwargs,shown", [
        (dict(seeds=(4,)), [b",0,"]),  # one seed: every std is 0
        (dict(K=1), []),
        (dict(problem=ProblemSpec("fig1", n=10, d=3), optimizer="sgd_constant",
              stepper=StepperConfig(eta=100.0), K=200, seeds=(0, 1, 2)), [b"inf", b"nan"]),
    ], ids=["one_seed", "one_step", "diverging"])
    def test_bytes_match_per_row_format(self, tmp_path, kwargs, shown):
        out = run_experiment(counterexample_cfg(tmp_path, **kwargs))
        data = Path(out.aggregate_path).read_bytes()
        assert data == per_row_aggregate_bytes(out.aggregate)
        assert all(text in data for text in shown)

    def test_special_values(self, tmp_path):
        values = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1])
        agg = Aggregate("t", np.array([0, 7, 10**12]), {m: np.roll(values, i)[:3] for i, m in
                                                         enumerate(METRICS)},
                        {m: np.roll(values, -i)[:3] for i, m in enumerate(METRICS)})
        write_aggregate(agg, str(tmp_path / "a.csv"))
        assert (tmp_path / "a.csv").read_bytes() == per_row_aggregate_bytes(agg)


class TestCompareGrid:
    def test_sorted_summary(self, tmp_path):
        cfgs = [
            counterexample_cfg(tmp_path, optimizer=opt, label=opt, K=300)
            for opt in ("decsps", "sgd_decreasing", "adagrad_norm")
        ]
        table = compare_grid(cfgs)
        means = [row["final_f_sub_avg_mean"] for row in table]
        assert means == sorted(means)
        want = "label,optimizer,final_k,final_f_sub_avg_mean,final_f_sub_avg_2std\n" + "".join(
            f"{r['label']},{r['optimizer']},{r['final_k']},"
            f"{r['final_f_sub_avg_mean']:.17g},{r['final_f_sub_avg_2std']:.17g}\n" for r in table)
        assert (tmp_path / "sweep_summary.csv").read_text() == want

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

    @pytest.mark.parametrize("labels,shared", [
        (("x_agg", "x"), "x_agg.csv"),  # the trace of x_agg, the aggregate of x
        (("sweep_summary", "other"), "sweep_summary.csv"),  # a trace, the summary
    ])
    def test_outputs_sharing_a_path_rejected_before_any_work(self, tmp_path, labels, shared):
        cfgs = [counterexample_cfg(tmp_path, label=label) for label in labels]
        with pytest.raises(ConfigurationError, match=f"'{labels[0]}'.*{shared}"):
            compare_grid(cfgs)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("run", [
        run_experiment, lambda cfg: compare_grid([cfg, replace(cfg, label="other")]),
    ], ids=["run_experiment", "compare_grid"])
    @pytest.mark.parametrize("field,value,message", [
        ("K", 0, "K must be >= 1"),
        ("seeds", (0, 0), "seeds must be distinct"),
        ("reference_tol", 0.0, "reference_tol must be > 0"),
    ])
    def test_config_checked_before_the_dataset_is_read(self, tmp_path, monkeypatch, run,
                                                       field, value, message):
        def load(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(data_io, "load_libsvm", load)
        problem = ProblemSpec("dataset", dataset_path=str(tmp_path / "absent.svm"))
        with pytest.raises(ConfigurationError, match=message):
            run(counterexample_cfg(tmp_path, problem=problem, **{field: value}))
        assert not list(tmp_path.iterdir())

    def test_mismatched_grids_rejected(self, tmp_path):
        a = counterexample_cfg(tmp_path, K=10)
        b = counterexample_cfg(tmp_path, K=20)
        with pytest.raises(ConfigurationError):
            compare_grid([a, b])

    @pytest.mark.parametrize("run", [
        compare_grid, lambda cfgs: _run_grid(cfgs, make_counterexample_1d()),
    ], ids=["compare_grid", "_run_grid"])
    @pytest.mark.parametrize("field,values", [("B", (1, 2)), ("record_every", (1, 2)),
                                              ("K", (10, 20))])
    def test_a_grid_has_one_run_shape(self, tmp_path, monkeypatch, run, field, values):
        # configs that differ in B, record_every or K are no grid: one line
        # naming the field, before the reference solve and any file
        def no_solve(*args, **kwargs):
            raise AssertionError("reference solved before validation")

        monkeypatch.setattr(objectives, "solve_reference", no_solve)
        cfgs = [counterexample_cfg(tmp_path, label=str(v), **{field: v}) for v in values]
        with pytest.raises(ConfigurationError,
                           match=f"^compare_grid: all configs must share {field}$"):
            run(cfgs)
        assert not list(tmp_path.iterdir())


# a value far from ordinary: of any magnitude up to 1e+-300, zero or negative,
# or not finite
EXTREME = st.one_of(st.floats(-1e300, 1e300), st.sampled_from(
    [0.0, -1.0, 1e-300, 1e-200, 1e200, 1e300, -1e300, math.inf, math.nan]))

ORDINARY = {  # setting -> its ordinary values
    "gamma_b": st.floats(0.5, 20.0), "gamma_ell": st.floats(1e-3, 0.5),
    "c0": st.floats(0.1, 4.0), "eta": st.floats(1e-3, 10.0), "b0": st.floats(0.01, 10.0),
    "beta2": st.floats(0.5, 0.999), "eps_adam": st.floats(1e-10, 1e-6),
    "lower_bound_value": st.floats(-2.0, 2.0),
    "f_floor": st.floats(0.0, 2.0), "lam": st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
    "K": st.integers(1, 20), "record_every": st.integers(1, 6),
}


@st.composite
def small_run_configs(draw):
    """A small run of any optimizer, policy and schedule on the
    counterexample, fig1 or synthetic logistic: every setting ordinary,
    except up to two that take an extreme value (a count takes 0 or -1)."""
    v = {name: draw(values) for name, values in ORDINARY.items()}
    for name in draw(st.lists(st.sampled_from(sorted(ORDINARY)), max_size=2)):
        v[name] = draw(st.integers(-1, 0) if name in ("K", "record_every") else EXTREME)
    problem = ProblemSpec(
        draw(st.sampled_from(["counterexample", "fig1", "synthetic"])),
        lam=v.pop("lam"), f_floor=v.pop("f_floor"),
        label_sign=draw(st.sampled_from(["standard", "as_printed"])),
        n=draw(st.integers(1, 12)), d=draw(st.integers(1, 3)),
        interpolated=draw(st.booleans()), gen_seed=draw(st.integers(0, 3)))
    K, record_every = v.pop("K"), v.pop("record_every")
    stepper = StepperConfig(
        c_schedule=draw(st.sampled_from(C_SCHEDULES)),
        f_star_policy=draw(st.sampled_from(F_STAR_POLICIES)),
        lower_bound_policy=draw(st.sampled_from(LOWER_BOUND_POLICIES)), **v)
    return RunConfig(
        problem, draw(st.sampled_from(sorted(STEPPERS))), stepper, B=draw(st.integers(1, 3)),
        K=K, seeds=tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))),
        trace_format=draw(st.sampled_from(["csv", "json-lines"])), record_every=record_every)


@settings(max_examples=300, deadline=None)
@given(cfg=small_run_configs())
# b0 squared overflows: a rule that never reads it must still run
@example(cfg=RunConfig(ProblemSpec("counterexample"), "decsps", StepperConfig(b0=1e200), K=3))
def test_a_config_fails_cleanly_or_runs_with_every_failure_diagnosed(cfg):
    # a random config raises a one-line ConfigurationError before writing
    # anything, or runs; then every seed whose trace holds an inf or a nan,
    # or that took a negative stepsize at any step, is in the diagnostics
    took_negative = np.zeros(len(cfg.seeds), dtype=bool)
    rule = STEPPERS[cfg.optimizer]

    def watching(*args):
        U, gamma = rule(*args)
        took_negative[:] |= gamma < 0
        return U, gamma

    with tempfile.TemporaryDirectory() as tmp:
        cfg = replace(cfg, out_dir=str(Path(tmp) / "out"))
        STEPPERS[cfg.optimizer] = watching
        try:
            out = run_experiment(cfg)
        except ConfigurationError as e:
            assert "\n" not in str(e)
            assert not Path(cfg.out_dir).exists()
            return
        finally:
            STEPPERS[cfg.optimizer] = rule
    values = np.stack([getattr(out.records, m) for m in METRICS])  # (metric, row, j)
    failed = ~np.isfinite(values).all(axis=(0, 2)) | took_negative
    assert {seed for seed, bad in zip(cfg.seeds, failed) if bad} == \
        {d["seed"] for d in out.diagnostics}
