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

import copy
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import data_io, objectives
from .core import check_fields, sample_batch, stream
from .data_io import METRICS, Trace
from .steppers import (
    STEPPERS,
    ConfigurationError,
    StepperConfig,
    batch_target,
    init_state,
    validate,
)


PROBLEMS = ("counterexample", "fig1", "synthetic", "dataset")
DATASET_FORMATS = ("libsvm", "delimited")


@dataclass(frozen=True)
class ProblemSpec:
    name: str = field(metadata={"choices": PROBLEMS, "setting": "problem"})
    lam: float = 0.0
    label_sign: str = field(default="standard", metadata={"choices": objectives.LABEL_SIGNS})
    dataset_path: str | None = None
    dataset_format: str = field(default="libsvm", metadata={"choices": DATASET_FORMATS})
    n: int = 500
    d: int = 100
    interpolated: bool = False
    f_floor: float = 1.0
    gen_seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    optimizer: str = field(metadata={"choices": tuple(sorted(STEPPERS))})
    stepper: StepperConfig = StepperConfig()
    B: int = 1
    K: int = 1000
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    reference_tol: float = 1e-10
    out_dir: str = "out"
    trace_format: str = field(default="csv", metadata={"choices": tuple(data_io.TRACE_FORMATS)})
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
    diagnostics: list[dict]  # per seed, a non-finite record and a negative stepsize


def build_problem(spec: ProblemSpec):
    check_fields(spec)
    if spec.lam < 0:
        raise ConfigurationError(f"lam must be finite and >= 0, got {spec.lam}")
    if spec.gen_seed < 0:
        raise ConfigurationError(f"gen_seed must be >= 0, got {spec.gen_seed}")
    if spec.name in ("fig1", "synthetic") and min(spec.n, spec.d) < 1:
        raise ConfigurationError(f"n and d must be >= 1, got n={spec.n}, d={spec.d}")
    if spec.name == "counterexample":
        return objectives.make_counterexample_1d()
    if spec.name == "fig1":
        return objectives.make_fig1_problem(
            stream(spec.gen_seed), spec.d, spec.n, spec.interpolated, spec.f_floor
        )
    if spec.name == "synthetic":
        ds = data_io.make_synthetic(stream(spec.gen_seed), spec.n, spec.d)
        return objectives.LogisticObjective(ds.features, ds.labels, spec.lam, spec.label_sign)
    if spec.dataset_path is None:  # the dataset problem, the one name left
        raise ConfigurationError("dataset problem needs a dataset path")
    load = data_io.load_libsvm if spec.dataset_format == "libsvm" else data_io.load_delimited
    try:
        ds = load(spec.dataset_path)
    except OSError as e:
        raise data_io.LoadError(f"cannot read dataset: {e}") from e
    ds = data_io.standardize(ds)
    return objectives.LogisticObjective(ds.features, ds.labels, spec.lam, spec.label_sign)


BLOCK = 4096  # B * B <= BLOCK: batches are drawn ahead, BLOCK // B per row at a time


def _floyd_bounds(n: int, B: int) -> np.ndarray:
    """The exclusive bounds of the draws ``Generator.choice(n, B,
    replace=False)`` makes: j + 1 for j = n-B..n-1 (Floyd's sample), then
    i + 1 for i = B-1..1 (the Fisher-Yates shuffle of the sample)."""
    return np.concatenate([np.arange(n - B + 1, n + 1), np.arange(B, 1, -1)])


def _replay_floyd(n: int, U: np.ndarray) -> np.ndarray:
    """The batches ``choice`` builds from the draws U (M, 2B-1), one row of
    draws per batch, built in place in U[:, :B] and returned as that view:
    Floyd's algorithm keeps draw p unless an earlier position holds it, in
    which case position p takes n-B+p, and the shuffle then swaps position i
    with position U[:, B + (B-1-i)] for i = B-1..1. Each step acts on all M
    batches at once."""
    B = (U.shape[1] + 1) // 2
    S = U[:, :B]
    for p in range(1, B):
        S[(S[:, :p] == S[:, p, None]).any(axis=1), p] = n - B + p
    rows = np.arange(len(S))
    for i, j in zip(range(B - 1, 0, -1), U[:, B:].T):
        S[rows, j], S[:, i] = S[:, i].copy(), S[rows, j]
    return S


class SeedBatches:
    """Minibatches for R rows, row r drawing from ``rngs[r]`` alone.

    For B * B <= BLOCK, each row's next ``steps`` batches come from one
    ``rng.integers(0, bounds)`` call, which makes the bounded draws that
    ``steps`` calls of ``sample_batch`` (``Generator.choice(n, B,
    replace=False)``) make, in their order, and so leaves the stream where
    they leave it; ``_replay_floyd`` then rebuilds the batches from the draws.
    (``choice`` takes its other branch, a partial shuffle of range(n), only
    for n > 10000 and B > n // 50, so never for B <= 64.) Once per instance,
    a probe on copies of row 0's stream checks that the replay gives what
    ``sample_batch`` gives; if not, or if B is larger, every batch is one
    ``sample_batch`` call on its row's stream.
    """

    def __init__(self, rngs, n: int, B: int, steps: int = BLOCK):
        if not 1 <= B <= n:
            raise ValueError(f"SeedBatches: need 1 <= B <= n, got B={B}, n={n}")
        self.rngs, self.n, self.B = list(rngs), n, B
        self.steps = max(1, min(steps, BLOCK // B))  # batches drawn ahead per row
        self.replay = B * B <= BLOCK and np.array_equal(
            self._replay(copy.deepcopy(self.rngs[:1]), 1)[0, 0],
            sample_batch(copy.deepcopy(self.rngs[0]), n, B))
        self._ahead = np.empty((len(self.rngs), 0, B), dtype=np.int64)
        self._used = 0  # batches of the current block handed out

    def _replay(self, rngs, steps: int) -> np.ndarray:
        """The next ``steps`` batches of each of ``rngs``: an (R, steps, B) block."""
        bounds = np.tile(_floyd_bounds(self.n, self.B), steps)
        U = np.empty((len(rngs), len(bounds)), dtype=np.int64)
        for r, rng in enumerate(rngs):
            U[r] = rng.integers(0, bounds)
        S = _replay_floyd(self.n, U.reshape(len(rngs) * steps, 2 * self.B - 1))
        return S.reshape(len(rngs), steps, self.B)

    def draw(self) -> np.ndarray:
        """The next batch of every row: an (R, B) block."""
        if not self.replay:
            return np.stack([sample_batch(rng, self.n, self.B) for rng in self.rngs])
        if self._used == self._ahead.shape[1]:
            self._ahead, self._used = self._replay(self.rngs, self.steps), 0
        self._used += 1
        return self._ahead[:, self._used - 1]


def grid_lockstep(obj, groups, X0, K, B, rngs):
    """Advance the R rows of X0 (R, d) together for K steps, row r drawing
    its batches from ``rngs[r]``.

    ``groups`` lists ``(method, cfg, size)``: the rows of X0 split, in order,
    into consecutive groups that each follow one rule with one config. Every
    step makes one batch draw and one evaluation over all rows, then one
    rule call per group on its row slice, given the step index k: the rules
    count no steps themselves.

    Yields ``(k, X, gamma)`` at every step: ``X`` holds the pre-step iterates
    x_k of all rows and ``gamma`` their stepsizes gamma_k. A row whose batch
    gradient is zero stays where it is: its Polyak ratio is +inf, so the
    rule's cap binds, and ``X - gamma * 0`` is X.
    """
    bounds = np.cumsum([0] + [size for _, _, size in groups])  # group g: rows bounds[g]:bounds[g+1]
    # init_state first, as it rejects an unknown method; the rules are looked up when the
    # pass starts, not at import, so a caller may swap entries of STEPPERS (e.g. to time them)
    rules = [(init_state(cfg, method, obj.d, rows=size), STEPPERS[method], cfg,
              batch_target(cfg, method, obj)) for method, cfg, size in groups]
    batches = SeedBatches(rngs, obj.n, B, steps=K)
    X = X0
    for k in range(K):
        S = batches.draw()
        F, G = obj.value_and_grad(S, X)
        g2 = np.vecdot(G, G)
        # fresh at every step: a caller may keep the X and gamma it was yielded
        X_next, gamma = np.empty(X.shape), np.empty(len(X))
        for (state, rule, cfg, target), a, b in zip(rules, bounds, bounds[1:]):
            m = None if target is None else target(S[a:b])
            U, gamma[a:b] = rule(cfg, k, state, F[a:b], G[a:b], g2[a:b], m)
            np.subtract(X[a:b], U, out=X_next[a:b])
        yield k, X, gamma
        X = X_next


def lockstep(obj, method, cfg, X0, K, B, rngs):
    """``grid_lockstep`` with every row of X0 in one group: one rule, one config."""
    return grid_lockstep(obj, [(method, cfg, len(X0))], X0, K, B, rngs)


def iterate_run(obj, method, cfg, x0, K, B, rng):
    """``lockstep`` on one row: yields (k, x_k, gamma_k) with x_k the pre-step iterate."""
    for k, X, gamma in lockstep(obj, method, cfg, np.asarray(x0)[None], K, B, [rng]):
        yield k, X[0], float(gamma[0])


def _check_config(cfg: RunConfig) -> None:
    check_fields(cfg)
    validate(cfg.stepper, cfg.optimizer)
    if cfg.K < 1:
        raise ConfigurationError(f"iteration count K must be >= 1, got {cfg.K}")
    if cfg.record_every < 1:
        raise ConfigurationError(f"record_every must be >= 1, got {cfg.record_every}")
    if not cfg.seeds:
        raise ConfigurationError("a run needs at least one seed")
    if any(isinstance(s, bool) or not isinstance(s, int) for s in cfg.seeds):
        raise ConfigurationError(f"seeds must be ints, got {list(cfg.seeds)}")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigurationError(f"seeds must be distinct, got {list(cfg.seeds)}")
    if min(cfg.seeds) < 0:
        raise ConfigurationError(f"seeds must be >= 0, got {list(cfg.seeds)}")
    objectives._check_tol(cfg.reference_tol)
    # the label names the output files inside out_dir, so it is one file name
    seps = {"/", os.sep, os.altsep} - {None}
    if cfg.label in (".", "..") or any(sep in cfg.label for sep in seps):
        raise ConfigurationError(f"label {cfg.label!r} is not a plain file name")
    # the nearest existing path on the way to out_dir must be a directory, or
    # writing the outputs would fail after the whole run
    existing = cfg.out_dir
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ConfigurationError(f"out_dir {cfg.out_dir!r}: {existing!r} is not a directory")


def _label(cfg: RunConfig) -> str:
    return cfg.label or f"{cfg.problem.name}_{cfg.optimizer}"


def _run_pass(obj, reference, cfgs: list[RunConfig]) -> list[tuple[Trace, list[dict]]]:
    """Advance every (config, seed) row of ``cfgs``, which share B, K and
    record_every, in one ``grid_lockstep``: config c's seeds form one group
    of rows with its own rule, stepper config and fresh ``stream(seed)``
    generators. Returns each config's records and diagnostics."""
    first = cfgs[0]
    x_star = reference.x_star
    f_sub = objectives.suboptimality(obj, reference)
    seeds = [seed for c in cfgs for seed in c.seeds]
    rngs = [stream(seed) for seed in seeds]
    scales = [c.x0_scale for c in cfgs for _ in c.seeds]
    X0 = np.array([scale * rng.standard_normal(obj.d) for scale, rng in zip(scales, rngs)])
    groups = [(c.optimizer, c.stepper, len(c.seeds)) for c in cfgs]
    # record every record_every-th step and the last
    ks = np.append(np.arange(0, first.K - 1, first.record_every), first.K - 1)
    records = Trace.empty(seeds, ks)
    record_at = ks.tolist()
    xbar_sum = np.zeros_like(X0)
    first_negative = np.full(len(seeds), -1)  # per row, the first k with gamma_k < 0
    j = 0  # next record
    for k, X, gamma in grid_lockstep(obj, groups, X0, first.K, first.B, rngs):
        xbar_sum += X
        # at every step, as a row may step back to gamma >= 0; fmin skips a nan
        if np.fmin.reduce(gamma) < 0:
            first_negative[(gamma < 0) & (first_negative < 0)] = k
        if k == record_at[j]:
            E = X - x_star
            records.record(j, f_sub(X), f_sub(xbar_sum / (k + 1)), np.vecdot(E, E), gamma)
            j += 1
    results = []
    for c, stop in zip(cfgs, np.cumsum([len(c.seeds) for c in cfgs])):
        start = stop - len(c.seeds)
        trace = records.slice(start, stop)
        results.append((trace, _diagnostics(trace, first_negative[start:stop])))
    return results


NEGATIVE_STEPSIZE = "negative stepsize"


def _diagnostics(records: Trace, first_negative: np.ndarray) -> list[dict]:
    """Per seed, one entry for the first recorded k where its records hold an
    inf or a nan, and one for the first k where it took a negative stepsize
    (``first_negative``, -1 for none)."""
    bad = ~np.isfinite(np.stack([getattr(records, m) for m in METRICS]))  # (metric, row, j)
    nonfinite = bad.any(axis=(0, 2))
    out = []
    for r in np.flatnonzero(nonfinite | (first_negative >= 0)):
        seed = records.seeds[r]
        if nonfinite[r]:
            j = int(bad[:, r].any(axis=0).argmax())
            names = [m for m, b in zip(METRICS, bad[:, r, j]) if b]
            out.append({"seed": seed, "k": int(records.ks[j]),
                        "reason": f"non-finite {', '.join(names)}"})
        if first_negative[r] >= 0:
            out.append({"seed": seed, "k": int(first_negative[r]), "reason": NEGATIVE_STEPSIZE})
    return out


def _write_run(cfg: RunConfig, obj, reference, records: Trace,
               diagnostics: list[dict]) -> RunOutput:
    """Write one config's trace, aggregate and manifest."""
    label = _label(cfg)
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
            "f_star": reference.f_star,
            "reference_grad_norm": reference.grad_norm,
            "reference_tol": reference.tol,
            "diagnostics": diagnostics,
        }, fh, indent=2)
    return RunOutput(trace_path, agg_path, manifest_path, agg, records, diagnostics)


def _run_grid(cfgs: list[RunConfig], obj=None, reference=None) -> list[RunOutput]:
    """Check every config, so one bad on its own fails before a dataset is
    read; build the first one's problem unless ``obj`` is given; check each
    batch size and Polyak target on it; solve the reference unless given; run
    the configs, which share K, in one engine pass per distinct (B,
    record_every) and write and return their outputs, in the order of ``cfgs``.
    A diverging row records inf or nan, without a floating-point warning, and
    its config's ``diagnostics`` name it, as they name a negative stepsize."""
    for c in cfgs:
        _check_config(c)
    if obj is None:
        obj = build_problem(cfgs[0].problem)
    for c in cfgs:
        if not 1 <= c.B <= obj.n:
            raise ConfigurationError(f"batch size {c.B} is not in [1, n={obj.n}]")
        # certify the Polyak target: a batch-independent lower bound once, an
        # exact minimum on one probe batch
        target = batch_target(c.stepper, c.optimizer, obj)
        if target is not None:
            target(np.arange(c.B)[None])
    if reference is None:
        reference = objectives.solve_reference(obj, cfgs[0].reference_tol)
    passes: dict[tuple, list[int]] = {}
    for i, c in enumerate(cfgs):
        passes.setdefault((c.B, c.record_every), []).append(i)
    outs = [None] * len(cfgs)
    with np.errstate(over="ignore", invalid="ignore"):
        for members in passes.values():
            group = [cfgs[i] for i in members]
            for i, c, result in zip(members, group, _run_pass(obj, reference, group)):
                outs[i] = _write_run(c, obj, reference, *result)
    return outs


def run_experiment(cfg: RunConfig, obj=None, reference=None) -> RunOutput:
    """Run one config over its seeds: the grid of one config, on ``obj`` and
    ``reference`` where given, else on those ``_run_grid`` builds and solves."""
    return _run_grid([cfg], obj, reference)[0]


def aggregate_records(records: Trace, label: str) -> Aggregate:
    """Per-k mean and std across seeds."""
    return Aggregate(label, records.ks,
                     {m: getattr(records, m).mean(axis=0) for m in METRICS},
                     {m: getattr(records, m).std(axis=0) for m in METRICS})


def write_aggregate(agg: Aggregate, path: str) -> None:
    """One line per recorded k: k, then the mean and std of each metric."""
    header = ["k"] + [f"{stat}_{m}" for m in METRICS for stat in ("mean", "std")]
    with open(path, "wb") as fh:
        data_io.write_csv(fh, header,
                          [(["%d" % k for k in agg.ks.tolist()], np.arange(len(agg.ks)))],
                          [col for m in METRICS for col in (agg.mean[m], agg.std[m])])


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
    for name in ("K", "seeds", "problem", "reference_tol"):
        if any(getattr(c, name) != getattr(first, name) for c in cfgs[1:]):
            raise ConfigurationError(f"compare_grid: all configs must share {name}")
    outputs = set()  # (out_dir, label) pairs
    for c in cfgs:
        where = (os.path.abspath(c.out_dir), _label(c))
        if where in outputs:
            raise ConfigurationError(
                f"compare_grid: two configs would write {_label(c)!r} in {c.out_dir!r}; "
                "give each config its own label or out_dir")
        outputs.add(where)
    table = []
    for c, out in zip(cfgs, _run_grid(cfgs)):
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
    every = np.arange(len(table))
    with open(summary_path, "wb") as fh:
        data_io.write_csv(
            fh, ("label", "optimizer", "final_k", "final_f_sub_avg_mean", "final_f_sub_avg_2std"),
            [([row["label"] for row in table], every),
             ([row["optimizer"] for row in table], every),
             (["%d" % row["final_k"] for row in table], every)],
            [np.array([row[name] for row in table])
             for name in ("final_f_sub_avg_mean", "final_f_sub_avg_2std")])
    return table
