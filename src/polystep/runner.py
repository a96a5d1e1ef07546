"""Experiment orchestration: builds problems, runs (optimizer x seed) grids,
records per-iteration metrics and writes traces, aggregates and a manifest.

All seeds of a run advance in lockstep (``lockstep``): their iterates form one
(R, d) array and every step is one pass of array operations over all rows.
Each row draws from its own seed's stream, one x0 draw and then one batch
draw per attempted batch, so a seed's trace does not depend on which seeds
run beside it; ``iterate_run`` is the same engine on one row.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import data_io, objectives
from .core import sample_batch, stream
from .data_io import Trace
from .steppers import (  # STEPPERS stays importable here for benchmarks/tracer.py
    RULES,
    STEPPERS,
    ConfigurationError,
    StepperConfig,
    batch_target,
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
        if spec.dataset_format == "libsvm":
            ds = data_io.load_libsvm(spec.dataset_path)
        else:
            ds = data_io.load_delimited(spec.dataset_path)
        if spec.standardize:
            ds = data_io.standardize(ds)
        return objectives.LogisticObjective(ds.features, ds.labels, spec.lam, spec.label_sign)
    raise ConfigurationError(f"unknown problem {spec.name!r}")


BLOCK = 4096  # most B=1 indices drawn ahead per seed


class SeedBatches:
    """Minibatches for R rows, row r drawing from ``rngs[r]`` alone.

    For B=1, ``rng.integers(0, n, m)`` yields the same indices, and leaves
    the stream in the same state, as m successive ``sample_batch`` calls, so
    single indices are drawn ahead in blocks of ``block`` per row, in
    whatever order the rows ask for them. A B>1 batch is one ``sample_batch``
    call on its row's stream.
    """

    def __init__(self, rngs, n: int, B: int, block: int = BLOCK):
        if not 1 <= B <= n:
            raise ValueError(f"SeedBatches: need 1 <= B <= n, got B={B}, n={n}")
        self.rngs, self.n, self.B, self.block = list(rngs), n, B, block
        self._ahead = np.empty((len(self.rngs), block if B == 1 else 0), dtype=np.int64)
        self._used = np.full(len(self.rngs), block)  # per row: indices consumed

    def draw(self, rows: np.ndarray) -> np.ndarray:
        """The next batch of each of ``rows`` (distinct): an (len(rows), B) block."""
        if self.B > 1:
            S = np.empty((len(rows), self.B), dtype=np.int64)
            for i, r in enumerate(rows):
                S[i] = sample_batch(self.rngs[r], self.n, self.B)
            return S
        used = self._used[rows]
        for r in rows[used == self.block]:
            self._ahead[r] = self.rngs[r].integers(0, self.n, size=self.block)
        used %= self.block
        self._used[rows] = used + 1
        return self._ahead[rows, used][:, None]


def lockstep(obj, method, cfg, X0, K, B, rngs):
    """Advance the R rows of X0 (R, d) together for K steps, row r drawing
    its batches from ``rngs[r]``.

    Yields ``(k, rows, X, gamma, halted)`` at every step: ``X`` holds the
    pre-step iterates x_k of the live rows ``rows`` and ``gamma`` their
    stepsizes gamma_k. A Polyak rule redraws the batch of each row whose
    gradient is zero, up to n attempts in all, n the component count.
    ``halted`` lists the rows that ran out at step k; they leave ``rows``
    from step k on.
    """
    rule = RULES[method]
    state = init_state(cfg, method, obj.d, rows=len(X0))
    target = batch_target(cfg, method, obj)
    batches = SeedBatches(rngs, obj.n, B, block=min(K, BLOCK))
    rows = np.arange(len(X0))
    no_halts = rows[:0]
    X = X0
    for k in range(K):
        S = batches.draw(rows)
        F, G = obj.value_and_grad(S, X)
        g2 = np.vecdot(G, G)
        halted, m = no_halts, None
        if target is not None:
            zero = g2 == 0.0
            attempts = 1
            while zero.any():
                if attempts == obj.n:
                    halted, keep = rows[zero], ~zero
                    rows, X, S, F, G, g2 = (a[keep] for a in (rows, X, S, F, G, g2))
                    state = state.take(keep)
                    break
                redo = np.flatnonzero(zero)
                S[redo] = batches.draw(rows[redo])
                F[redo], G[redo] = obj.value_and_grad(S[redo], X[redo])
                g2[redo] = np.vecdot(G[redo], G[redo])
                zero[redo] = g2[redo] == 0.0
                attempts += 1
            m = target(S)
        X_next, gamma, state = rule(cfg, state, X, F, G, g2, m)
        yield k, rows, X, gamma, halted
        if not rows.size:
            return
        X = X_next


def iterate_run(obj, method, cfg, x0, K, B, rng):
    """Drive one run; yields (k, x_k, gamma_k) with x_k the pre-step iterate.

    This is ``lockstep`` on one row. A zero-gradient batch is resampled up
    to n times, n the component count; exhaustion raises ResampleExhausted.
    """
    X0 = np.asarray(x0)[None]
    for k, _, X, gamma, halted in lockstep(obj, method, cfg, X0, K, B, [rng]):
        if halted.size:
            raise ResampleExhausted(k, obj.n)
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
    except (objectives.UnavailableExactMinimum, objectives.UnsoundLowerBound) as e:
        raise ConfigurationError(str(e)) from e


def run_experiment(cfg: RunConfig, obj=None, reference=None) -> RunOutput:
    if obj is None:
        obj = build_problem(cfg.problem)
    _check_config(cfg, obj)
    if reference is None:
        reference = objectives.solve_reference(obj, cfg.reference_tol)
    x_star, f_star = reference.x_star, reference.f_star
    f_sub = objectives.suboptimality(obj, reference)

    rngs = [stream(seed) for seed in cfg.seeds]
    X0 = np.array([cfg.x0_scale * rng.standard_normal(obj.d) for rng in rngs])
    # record every record_every-th step and the last
    ks = np.union1d(np.arange(0, cfg.K, cfg.record_every), [cfg.K - 1])
    records = Trace.empty(cfg.seeds, ks)
    record_at = ks.tolist()
    xbar_sum = np.zeros_like(X0)
    halts = []
    j = 0  # next record
    for k, rows, X, gamma, halted in lockstep(
        obj, cfg.optimizer, cfg.stepper, X0, cfg.K, cfg.B, rngs
    ):
        if halted.size:
            halts += [(r, k) for r in halted.tolist()]
        xbar_sum[rows] += X
        if k == record_at[j]:
            E = X - x_star
            records.record(rows, j, f_sub(X), f_sub(xbar_sum[rows] / (k + 1)),
                           np.vecdot(E, E), gamma)
            j += 1
    diagnostics = [
        {"seed": cfg.seeds[r], "halted_at": k, "reason": str(ResampleExhausted(k, obj.n))}
        for r, k in sorted(halts)
    ]

    label = cfg.label or f"{cfg.problem.name}_{cfg.optimizer}"
    os.makedirs(cfg.out_dir, exist_ok=True)
    ext = data_io.TRACE_FORMATS[cfg.trace_format]
    trace_path = os.path.join(cfg.out_dir, f"{label}.{ext}")
    data_io.write_trace(records, trace_path, cfg.trace_format)

    agg = aggregate_records(records, label)
    agg_path = os.path.join(cfg.out_dir, f"{label}_agg.csv")
    write_aggregate(agg, agg_path)

    manifest_path = os.path.join(cfg.out_dir, f"{label}_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump({
            **asdict(cfg),
            "n": obj.n,
            "d": obj.d,
            "f_star": f_star,
            "reference_grad_norm": reference.grad_norm,
            "reference_tol": reference.tol,
            "diagnostics": diagnostics,
        }, fh, indent=2)
    return RunOutput(trace_path, agg_path, manifest_path, agg, records)


_METRICS = data_io.METRICS


def aggregate_records(records: Trace, label: str) -> Aggregate:
    """Per-k mean and std across seeds; only ks reached by every seed. A seed
    without records is left out."""
    rows = np.flatnonzero(records.counts > 0)
    if not rows.size:
        return Aggregate(label, np.array([], dtype=int),
                         {m: np.array([]) for m in _METRICS},
                         {m: np.array([]) for m in _METRICS})
    reached = int(records.counts[rows].min())
    mean, std = {}, {}
    for m in _METRICS:
        table = getattr(records, m)[rows, :reached]
        mean[m] = table.mean(axis=0)
        std[m] = table.std(axis=0)
    return Aggregate(label, records.ks[:reached], mean, std)


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
    """Run aligned configs (shared problem, seeds, K and reference tolerance)
    and return a summary table of final suboptimality mean +- 2 std, one row
    per config."""
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
