"""Experiment orchestration: builds problems, runs (optimizer x seed) grids,
records per-iteration metrics and writes traces, aggregates and a manifest."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import data_io, objectives
from .core import sample_batch, stream
from .data_io import IterationRecord
from .steppers import (
    STEPPERS,
    ConfigurationError,
    StepperConfig,
    ZeroGradient,
    init_state,
    validate,
)


class ResampleExhausted(RuntimeError):
    """Every resampled batch at some iteration had a zero gradient."""

    def __init__(self, k: int, attempts: int):
        super().__init__(f"zero gradient persisted for {attempts} batches at step {k}")
        self.k = k
        self.attempts = attempts


@dataclass(frozen=True)
class ProblemSpec:
    name: str  # counterexample | fig1 | synthetic | dataset
    lam: float = 0.0
    label_sign: str = "standard"
    dataset_path: str | None = None
    dataset_format: str = "libsvm"  # libsvm | delimited
    n: int = 500
    d: int = 100
    interpolated: bool = False
    f_floor: float = 1.0
    gen_seed: int = 0
    standardize: bool = True


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    optimizer: str
    stepper: StepperConfig = StepperConfig()
    B: int = 1
    K: int = 1000
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    reference_tol: float = 1e-10
    out_dir: str = "out"
    trace_format: str = "csv"
    record_every: int = 1
    x0_scale: float = 1.0
    label: str = ""


@dataclass
class Aggregate:
    label: str
    ks: np.ndarray
    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]


@dataclass
class RunOutput:
    trace_path: str
    aggregate_path: str
    manifest_path: str
    aggregate: Aggregate
    records: list[IterationRecord] = field(repr=False, default_factory=list)


def build_problem(spec: ProblemSpec):
    if spec.name == "counterexample":
        return objectives.make_counterexample_1d()
    if spec.name == "fig1":
        return objectives.make_fig1_problem(
            stream(spec.gen_seed), spec.d, spec.n, spec.interpolated, spec.f_floor
        )
    if spec.name == "synthetic":
        ds = data_io.make_synthetic(stream(spec.gen_seed), spec.n, spec.d)
        return objectives.LogisticObjective(ds.features, ds.labels, spec.lam, spec.label_sign)
    if spec.name == "dataset":
        if spec.dataset_path is None:
            raise ConfigurationError("dataset problem needs a dataset path")
        if spec.dataset_format == "libsvm":
            ds = data_io.load_libsvm(spec.dataset_path)
        else:
            ds = data_io.load_delimited(spec.dataset_path)
        if spec.standardize:
            ds = data_io.standardize(ds)
        return objectives.LogisticObjective(ds.features, ds.labels, spec.lam, spec.label_sign)
    raise ConfigurationError(f"unknown problem {spec.name!r}")


def iterate_run(obj, method, cfg, x0, K, B, rng, max_resample=None):
    """Drive one run; yields (k, x_k, gamma_k) with x_k the pre-step iterate.

    A zero-gradient batch is resampled up to ``max_resample`` times (default:
    the component count); exhaustion raises ResampleExhausted.
    """
    step_fn = STEPPERS[method]
    state = init_state(cfg, method, obj.d)
    x = x0
    attempts_cap = max_resample if max_resample is not None else obj.n
    for k in range(K):
        res = None
        for _ in range(attempts_cap):
            S = sample_batch(rng, obj.n, B)
            try:
                res = step_fn(cfg, state, obj, S, x)
            except ZeroGradient:
                continue
            break
        if res is None:
            raise ResampleExhausted(k, attempts_cap)
        yield k, x, res.gamma
        x = res.x_next
        state = res.state


def _check_config(cfg: RunConfig, obj) -> None:
    validate(cfg.stepper, cfg.optimizer)
    if cfg.K < 1:
        raise ConfigurationError(f"iteration count K must be >= 1, got {cfg.K}")
    if cfg.record_every < 1:
        raise ConfigurationError(f"record_every must be >= 1, got {cfg.record_every}")
    if cfg.B > obj.n:
        raise ConfigurationError(f"batch size {cfg.B} exceeds n={obj.n}")
    # fail early on exact-minimum policies the objective cannot serve
    needs_exact = (
        cfg.optimizer == "sps_max" and cfg.stepper.f_star_policy == "exact"
    ) or cfg.stepper.lower_bound_policy == "exact"
    if needs_exact:
        probe = np.arange(cfg.B)
        try:
            obj.batch_min_value(probe)
        except objectives.UnavailableExactMinimum as e:
            raise ConfigurationError(str(e)) from e


def run_experiment(cfg: RunConfig, obj=None, reference=None) -> RunOutput:
    if obj is None:
        obj = build_problem(cfg.problem)
    _check_config(cfg, obj)
    if reference is None:
        reference = objectives.solve_reference(obj, cfg.reference_tol)
    x_star, f_star = reference.x_star, reference.f_star
    f_sub = objectives.suboptimality(obj, reference)

    records: list[IterationRecord] = []
    diagnostics = []
    for run_index, seed in enumerate(cfg.seeds):
        rng = stream(seed)
        x0 = cfg.x0_scale * rng.standard_normal(obj.d)
        xbar_sum = np.zeros(obj.d)
        try:
            for k, x, gamma in iterate_run(
                obj, cfg.optimizer, cfg.stepper, x0, cfg.K, cfg.B, rng
            ):
                xbar_sum += x
                if k % cfg.record_every == 0 or k == cfg.K - 1:
                    dx = x - x_star
                    records.append(IterationRecord(
                        seed=seed,
                        k=k,
                        f_sub=f_sub(x),
                        f_sub_avg_iterate=f_sub(xbar_sum / (k + 1)),
                        dist_sq=float(np.dot(dx, dx)),
                        gamma=gamma,
                    ))
        except ResampleExhausted as e:
            diagnostics.append({"seed": seed, "halted_at": e.k, "reason": str(e)})

    label = cfg.label or f"{cfg.problem.name}_{cfg.optimizer}"
    os.makedirs(cfg.out_dir, exist_ok=True)
    ext = "csv" if cfg.trace_format == "csv" else "jsonl"
    trace_path = os.path.join(cfg.out_dir, f"{label}.{ext}")
    data_io.write_trace(records, trace_path, cfg.trace_format)

    agg = aggregate_records(records, label)
    agg_path = os.path.join(cfg.out_dir, f"{label}_agg.csv")
    write_aggregate(agg, agg_path)

    manifest_path = os.path.join(cfg.out_dir, f"{label}_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump({
            "problem": asdict(cfg.problem),
            "optimizer": cfg.optimizer,
            "stepper": asdict(cfg.stepper),
            "B": cfg.B,
            "K": cfg.K,
            "seeds": list(cfg.seeds),
            "n": obj.n,
            "d": obj.d,
            "f_star": f_star,
            "reference_grad_norm": reference.grad_norm,
            "reference_tol": reference.tol,
            "diagnostics": diagnostics,
        }, fh, indent=2)
    return RunOutput(trace_path, agg_path, manifest_path, agg, records)


_METRICS = ("f_sub", "f_sub_avg_iterate", "dist_sq", "gamma")


def aggregate_records(records, label: str) -> Aggregate:
    """Per-k mean and std across seeds; only ks reached by every seed."""
    by_seed: dict[int, dict[int, IterationRecord]] = {}
    for r in records:
        by_seed.setdefault(r.seed, {})[r.k] = r
    if not by_seed:
        return Aggregate(label, np.array([], dtype=int),
                         {m: np.array([]) for m in _METRICS},
                         {m: np.array([]) for m in _METRICS})
    common = set.intersection(*(set(d) for d in by_seed.values()))
    ks = np.array(sorted(common), dtype=int)
    mean, std = {}, {}
    for m in _METRICS:
        table = np.array([[getattr(by_seed[s][k], m) for k in ks] for s in by_seed])
        mean[m] = table.mean(axis=0)
        std[m] = table.std(axis=0)
    return Aggregate(label, ks, mean, std)


def write_aggregate(agg: Aggregate, path: str) -> None:
    cols = ["k"]
    for m in _METRICS:
        cols += [f"mean_{m}", f"std_{m}"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i, k in enumerate(agg.ks):
            row = [str(int(k))]
            for m in _METRICS:
                row += [f"{agg.mean[m][i]:.17g}", f"{agg.std[m][i]:.17g}"]
            fh.write(",".join(row) + "\n")


def compare_grid(cfgs: list[RunConfig]) -> list[dict]:
    """Run aligned configs (shared problem, seeds and K) and return a summary
    table of final suboptimality mean +- 2 std, one row per config."""
    if not cfgs:
        return []
    first = cfgs[0]
    for c in cfgs[1:]:
        if c.K != first.K:
            raise ConfigurationError("compare_grid: all configs must share K")
        if c.seeds != first.seeds:
            raise ConfigurationError("compare_grid: all configs must share seeds")
        if c.problem != first.problem:
            raise ConfigurationError("compare_grid: all configs must share the problem")
    obj = build_problem(first.problem)
    for c in cfgs:
        _check_config(c, obj)
    reference = objectives.solve_reference(obj, first.reference_tol)
    table = []
    for c in cfgs:
        out = run_experiment(c, obj=obj, reference=reference)
        agg = out.aggregate
        final = -1
        table.append({
            "label": agg.label,
            "optimizer": c.optimizer,
            "final_k": int(agg.ks[final]),
            "final_f_sub_avg_mean": float(agg.mean["f_sub_avg_iterate"][final]),
            "final_f_sub_avg_2std": 2.0 * float(agg.std["f_sub_avg_iterate"][final]),
            "trace": out.trace_path,
        })
    table.sort(key=lambda row: row["final_f_sub_avg_mean"])
    summary_path = os.path.join(first.out_dir, "sweep_summary.csv")
    with open(summary_path, "w") as fh:
        fh.write("label,optimizer,final_k,final_f_sub_avg_mean,final_f_sub_avg_2std\n")
        for row in table:
            fh.write(
                f"{row['label']},{row['optimizer']},{row['final_k']},"
                f"{row['final_f_sub_avg_mean']:.17g},{row['final_f_sub_avg_2std']:.17g}\n"
            )
    return table
