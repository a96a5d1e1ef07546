"""Experiment orchestration: builds problems, runs (optimizer x seed) grids,
records per-iteration metrics and writes traces, aggregates and a manifest.

Every (config, seed) row of a grid advances in lockstep (``grid_lockstep``):
the iterates form one (R, d) array and every step makes one batch draw, one
evaluation and one record pass over all rows, then one rule call per
config on its slice of rows. Each row draws from its own seed's stream, one
x0 draw and then one batch draw per step, so a row's trace does not depend
on which rows run beside it. ``run_experiment`` is the grid of one
config, ``lockstep`` the engine on one group of rows and ``iterate_run`` on
one row.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import data_io, objectives
from .core import sample_batch, stream
from .data_io import Trace
from .steppers import (
    STEPPERS,
    ConfigurationError,
    StepperConfig,
    batch_target,
    init_state,
    validate,
)


@dataclass(frozen=True)
class ProblemSpec:
    name: str  # counterexample | fig1 | synthetic | dataset
    lam: float = 0.0
    label_sign: str = "standard"
    dataset_path: str | None = None
    dataset_format: str = "libsvm"  # one of DATASET_FORMATS
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
    records: Trace = field(repr=False)
    diagnostics: list[dict]  # one entry per seed with a non-finite record


DATASET_FORMATS = ("libsvm", "delimited")


def build_problem(spec: ProblemSpec):
    if spec.dataset_format not in DATASET_FORMATS:
        raise ConfigurationError(
            f"unknown dataset format {spec.dataset_format!r}; "
            f"expected one of {', '.join(DATASET_FORMATS)}")
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
        load = data_io.load_libsvm if spec.dataset_format == "libsvm" else data_io.load_delimited
        try:
            ds = load(spec.dataset_path)
        except OSError as e:
            raise data_io.LoadError(f"cannot read dataset: {e}") from e
        if spec.standardize:
            ds = data_io.standardize(ds)
        return objectives.LogisticObjective(ds.features, ds.labels, spec.lam, spec.label_sign)
    raise ConfigurationError(f"unknown problem {spec.name!r}")


BLOCK = 4096  # most B=1 indices drawn ahead per seed


class SeedBatches:
    """Minibatches for R rows, row r drawing from ``rngs[r]`` alone.

    For B=1, ``rng.integers(0, n, m)`` yields the same indices, and leaves
    the stream in the same state, as m successive ``sample_batch`` calls, so
    single indices are drawn ahead in blocks of ``block`` per row. A B>1
    batch is one ``sample_batch`` call on its row's stream.
    """

    def __init__(self, rngs, n: int, B: int, block: int = BLOCK):
        if not 1 <= B <= n:
            raise ValueError(f"SeedBatches: need 1 <= B <= n, got B={B}, n={n}")
        self.rngs, self.n, self.B, self.block = list(rngs), n, B, block
        self._ahead = np.empty((len(self.rngs), block if B == 1 else 0), dtype=np.int64)
        self._used = block  # indices of the current block consumed, by every row

    def draw(self) -> np.ndarray:
        """The next batch of every row: an (R, B) block."""
        if self.B > 1:
            return np.stack([sample_batch(rng, self.n, self.B) for rng in self.rngs])
        if self._used == self.block:
            for r, rng in enumerate(self.rngs):
                self._ahead[r] = rng.integers(0, self.n, size=self.block)
            self._used = 0
        self._used += 1
        return self._ahead[:, [self._used - 1]]


def grid_lockstep(obj, groups, X0, K, B, rngs):
    """Advance the R rows of X0 (R, d) together for K steps, row r drawing
    its batches from ``rngs[r]``.

    ``groups`` lists ``(method, cfg, size)``: the rows of X0 split, in order,
    into consecutive groups that each follow one rule with one config. Every
    step makes one batch draw and one evaluation over all rows, then one
    rule call per group on its row slice.

    Yields ``(k, X, gamma)`` at every step: ``X`` holds the pre-step iterates
    x_k of all rows and ``gamma`` their stepsizes gamma_k. A row whose batch
    gradient is zero stays where it is: its Polyak ratio is +inf, so the
    rule's cap binds, and ``X - gamma * 0`` is X.
    """
    bounds = np.cumsum([0] + [size for _, _, size in groups])  # group g: rows bounds[g]:bounds[g+1]
    # look the rules up when the pass starts, not at import, so that a caller
    # may swap entries of STEPPERS in place (e.g. to time or count them)
    rules = [(STEPPERS[method], cfg, batch_target(cfg, method, obj)) for method, cfg, _ in groups]
    states = [init_state(cfg, method, obj.d, rows=size) for method, cfg, size in groups]
    batches = SeedBatches(rngs, obj.n, B, block=min(K, BLOCK))
    X = X0
    for k in range(K):
        S = batches.draw()
        F, G = obj.value_and_grad(S, X)
        g2 = np.vecdot(G, G)
        steps = []
        for g, ((rule, cfg, target), a, b) in enumerate(zip(rules, bounds, bounds[1:])):
            m = None if target is None else target(S[a:b])
            X_g, gamma_g, states[g] = rule(cfg, states[g], X[a:b], F[a:b], G[a:b], g2[a:b], m)
            steps.append((X_g, gamma_g))
        X_next, gamma = steps[0] if len(steps) == 1 else map(np.concatenate, zip(*steps))
        yield k, X, gamma
        X = X_next


def lockstep(obj, method, cfg, X0, K, B, rngs):
    """``grid_lockstep`` with every row of X0 in one group: one rule, one config."""
    return grid_lockstep(obj, [(method, cfg, len(X0))], X0, K, B, rngs)


def iterate_run(obj, method, cfg, x0, K, B, rng):
    """``lockstep`` on one row: yields (k, x_k, gamma_k) with x_k the pre-step iterate."""
    for k, X, gamma in lockstep(obj, method, cfg, np.asarray(x0)[None], K, B, [rng]):
        yield k, X[0], float(gamma[0])


def _check_config(cfg: RunConfig, obj) -> None:
    validate(cfg.stepper, cfg.optimizer)
    if cfg.K < 1:
        raise ConfigurationError(f"iteration count K must be >= 1, got {cfg.K}")
    if cfg.record_every < 1:
        raise ConfigurationError(f"record_every must be >= 1, got {cfg.record_every}")
    if not cfg.seeds:
        raise ConfigurationError("a run needs at least one seed")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigurationError(f"seeds must be distinct, got {list(cfg.seeds)}")
    if cfg.trace_format not in data_io.TRACE_FORMATS:
        raise ConfigurationError(
            f"unknown trace format {cfg.trace_format!r}; "
            f"expected one of {', '.join(data_io.TRACE_FORMATS)}")
    if not 1 <= cfg.B <= obj.n:
        raise ConfigurationError(f"batch size {cfg.B} is not in [1, n={obj.n}]")
    # certify the Polyak target before any work: a batch-independent lower
    # bound once, an exact minimum on one probe batch
    try:
        target = batch_target(cfg.stepper, cfg.optimizer, obj)
        if target is not None:
            target(np.arange(cfg.B)[None])
    except (objectives.UnavailableExactMinimum, objectives.UnsoundLowerBound,
            objectives.SingularSystem) as e:
        raise ConfigurationError(str(e)) from e


def _label(cfg: RunConfig) -> str:
    return cfg.label or f"{cfg.problem.name}_{cfg.optimizer}"


def _run_pass(obj, reference, cfgs: list[RunConfig]) -> list[Trace]:
    """Advance every (config, seed) row of ``cfgs``, which share B, K and
    record_every, in one ``grid_lockstep``: config c's seeds form one group
    of rows with its own rule, stepper config and fresh ``stream(seed)``
    generators. Returns each config's records."""
    first = cfgs[0]
    x_star = reference.x_star
    f_sub = objectives.suboptimality(obj, reference)
    seeds = [seed for c in cfgs for seed in c.seeds]
    rngs = [stream(seed) for seed in seeds]
    scales = [c.x0_scale for c in cfgs for _ in c.seeds]
    X0 = np.array([scale * rng.standard_normal(obj.d) for scale, rng in zip(scales, rngs)])
    groups = [(c.optimizer, c.stepper, len(c.seeds)) for c in cfgs]
    # record every record_every-th step and the last
    ks = np.union1d(np.arange(0, first.K, first.record_every), [first.K - 1])
    records = Trace.empty(seeds, ks)
    record_at = ks.tolist()
    xbar_sum = np.zeros_like(X0)
    j = 0  # next record
    for k, X, gamma in grid_lockstep(obj, groups, X0, first.K, first.B, rngs):
        xbar_sum += X
        if k == record_at[j]:
            E = X - x_star
            records.record(j, f_sub(X), f_sub(xbar_sum / (k + 1)), np.vecdot(E, E), gamma)
            j += 1
    stops = np.cumsum([len(c.seeds) for c in cfgs])
    return [records.slice(stop - len(c.seeds), stop) for c, stop in zip(cfgs, stops)]


def _diagnostics(records: Trace) -> list[dict]:
    """One entry per seed whose records hold an inf or a nan, at the first
    recorded k where one shows."""
    bad = ~np.isfinite(np.stack([getattr(records, m) for m in _METRICS]))  # (metric, row, j)
    out = []
    for r in np.flatnonzero(bad.any(axis=(0, 2))):
        j = int(bad[:, r].any(axis=0).argmax())
        names = [m for m, b in zip(_METRICS, bad[:, r, j]) if b]
        out.append({"seed": records.seeds[r], "k": int(records.ks[j]),
                    "reason": f"non-finite {', '.join(names)}"})
    return out


def _write_run(cfg: RunConfig, obj, reference, records: Trace) -> RunOutput:
    """Write one config's trace, aggregate and manifest."""
    label = _label(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    ext = data_io.TRACE_FORMATS[cfg.trace_format]
    trace_path = os.path.join(cfg.out_dir, f"{label}.{ext}")
    data_io.write_trace(records, trace_path, cfg.trace_format)

    agg = aggregate_records(records, label)
    agg_path = os.path.join(cfg.out_dir, f"{label}_agg.csv")
    write_aggregate(agg, agg_path)

    diagnostics = _diagnostics(records)
    manifest_path = os.path.join(cfg.out_dir, f"{label}_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump({
            **asdict(cfg),
            "n": obj.n,
            "d": obj.d,
            "f_star": reference.f_star,
            "reference_grad_norm": reference.grad_norm,
            "reference_tol": reference.tol,
            "diagnostics": diagnostics,
        }, fh, indent=2)
    return RunOutput(trace_path, agg_path, manifest_path, agg, records, diagnostics)


def _run_grid(cfgs: list[RunConfig], obj, reference=None) -> list[RunOutput]:
    """Check every config, solve the reference unless given, then run the
    configs, which share K, in one engine pass per distinct (B, record_every)
    and write each config's outputs. Returns the outputs in the order of
    ``cfgs``. A diverging row records inf or nan, without a floating-point
    warning, and its config's ``diagnostics`` name it."""
    for c in cfgs:
        _check_config(c, obj)
    if reference is None:
        reference = objectives.solve_reference(obj, cfgs[0].reference_tol)
    passes: dict[tuple, list[int]] = {}
    for i, c in enumerate(cfgs):
        passes.setdefault((c.B, c.record_every), []).append(i)
    outs = [None] * len(cfgs)
    with np.errstate(over="ignore", invalid="ignore"):
        for members in passes.values():
            group = [cfgs[i] for i in members]
            for i, c, records in zip(members, group, _run_pass(obj, reference, group)):
                outs[i] = _write_run(c, obj, reference, records)
    return outs


def run_experiment(cfg: RunConfig, obj=None, reference=None) -> RunOutput:
    """Run one config over its seeds: the grid of one config."""
    if obj is None:
        obj = build_problem(cfg.problem)
    return _run_grid([cfg], obj, reference)[0]


_METRICS = data_io.METRICS


def aggregate_records(records: Trace, label: str) -> Aggregate:
    """Per-k mean and std across seeds."""
    return Aggregate(label, records.ks,
                     {m: getattr(records, m).mean(axis=0) for m in _METRICS},
                     {m: getattr(records, m).std(axis=0) for m in _METRICS})


_AGG_ROW = "%d" + ",%.17g" * (2 * len(_METRICS)) + "\n"


def write_aggregate(agg: Aggregate, path: str) -> None:
    cols = ["k"]
    for m in _METRICS:
        cols += [f"mean_{m}", f"std_{m}"]
    columns = [agg.ks.tolist()]
    for m in _METRICS:
        columns += [agg.mean[m].tolist(), agg.std[m].tolist()]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(_AGG_ROW % row for row in zip(*columns))


def compare_grid(cfgs: list[RunConfig]) -> list[dict]:
    """Run aligned configs (shared problem, seeds, K and reference tolerance)
    and return a summary table of final suboptimality mean +- 2 std, one row
    per config, with its manifest diagnostics. Every (config, seed) row
    advances in one engine pass per distinct (B, record_every); each config's
    outputs are those of its solo ``run_experiment``. Two configs may not
    share an out_dir and a label."""
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
        if c.reference_tol != first.reference_tol:
            raise ConfigurationError("compare_grid: all configs must share reference_tol")
    outputs = set()  # (out_dir, label) pairs
    for c in cfgs:
        where = (os.path.abspath(c.out_dir), _label(c))
        if where in outputs:
            raise ConfigurationError(
                f"compare_grid: two configs would write {_label(c)!r} in {c.out_dir!r}; "
                "give each config its own label or out_dir")
        outputs.add(where)
    table = []
    for c, out in zip(cfgs, _run_grid(cfgs, build_problem(first.problem))):
        agg = out.aggregate
        final = -1
        table.append({
            "label": agg.label,
            "optimizer": c.optimizer,
            "final_k": int(agg.ks[final]),
            "final_f_sub_avg_mean": float(agg.mean["f_sub_avg_iterate"][final]),
            "final_f_sub_avg_2std": 2.0 * float(agg.std["f_sub_avg_iterate"][final]),
            "trace": out.trace_path,
            "diagnostics": out.diagnostics,
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
