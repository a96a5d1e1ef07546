"""Experiment orchestration: builds problems, runs (optimizer x seed) grids,
records per-iteration metrics and writes traces, aggregates and a manifest.

Every (config, seed) row of a grid advances in lockstep (``grid_lockstep``):
the iterates form one (R, d) array and every step makes one batch draw and
one evaluation over all rows, then one rule call per config on its slice of
rows. A recorded step stores every row's stepsize and keeps its x_k and
running average; one stacked ``suboptimality`` call evaluates a whole
block of records (``_run_pass``). Each row draws from its own seed's stream,
one x0 draw and then one batch draw per step, and each record depends only
on its own iterate, so a row's trace does not depend on which rows run
beside it. A grid is one engine pass over configs of one run shape
(``_run_grid``). ``run_experiment`` is the grid of one config, ``lockstep`` the
engine on one group of rows and ``iterate_run`` on one row.
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
GENERATED = ("fig1", "synthetic")  # the problems built from n and d


@dataclass(frozen=True)
class ProblemSpec:
    name: str = field(metadata={"choices": PROBLEMS, "setting": "problem"})
    lam: float = field(default=0.0, metadata={"bound": ">= 0"})
    label_sign: str = field(default="standard", metadata={"choices": objectives.LABEL_SIGNS})
    dataset_path: str | None = None
    dataset_format: str = field(default="libsvm", metadata={"choices": DATASET_FORMATS})
    n: int = field(default=500, metadata={"bound": ">= 1", "read_by": GENERATED})
    d: int = field(default=100, metadata={"bound": ">= 1", "read_by": GENERATED})
    interpolated: bool = False
    f_floor: float = 1.0
    gen_seed: int = field(default=0, metadata={"bound": ">= 0"})


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    optimizer: str = field(metadata={"choices": tuple(sorted(STEPPERS))})
    stepper: StepperConfig = StepperConfig()
    B: int = field(default=1, metadata={"bound": ">= 1", "setting": "batch size"})
    K: int = field(default=1000, metadata={"bound": ">= 1", "setting": "iteration count K"})
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    reference_tol: float = 1e-10
    out_dir: str = "out"
    trace_format: str = field(default="csv", metadata={"choices": tuple(data_io.TRACE_FORMATS)})
    record_every: int = field(default=1, metadata={"bound": ">= 1"})
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
    check_fields(spec, spec.name)
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


# Batches are drawn ahead in blocks of at most BLOCK indices per row (B * B <=
# BLOCK: only B <= 64 is drawn ahead) and about TOTAL_BLOCK indices over all
# rows, but at least MIN_BLOCK_STEPS steps per block: a block's fixed cost is one
# ``rng.integers`` call per row, so many rows take short blocks, not tiny ones.
BLOCK, TOTAL_BLOCK, MIN_BLOCK_STEPS = 4096, 1 << 16, 256


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
    if B > 1:  # no swap runs at B = 1, so no row index is built there
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

    A block is one C-contiguous (steps, R, B) array, so each ``draw`` hands
    out a contiguous (R, B) block. It holds at most BLOCK // B steps, and
    TOTAL_BLOCK // (R * B) but no fewer than MIN_BLOCK_STEPS, so its size is
    bounded in total, not per row.
    """

    def __init__(self, rngs, n: int, B: int, steps: int = BLOCK):
        if not 1 <= B <= n:
            raise ValueError(f"SeedBatches: need 1 <= B <= n, got B={B}, n={n}")
        self.rngs, self.n, self.B = list(rngs), n, B
        total = max(MIN_BLOCK_STEPS, TOTAL_BLOCK // (len(self.rngs) * B))
        self.steps = max(1, min(steps, BLOCK // B, total))  # batches drawn ahead per row
        self.replay = B * B <= BLOCK and np.array_equal(
            self._replay(copy.deepcopy(self.rngs[:1]), 1)[0, 0],
            sample_batch(copy.deepcopy(self.rngs[0]), n, B))
        self._ahead = np.empty((0, len(self.rngs), B), dtype=np.int64)
        self._used = 0  # batches of the current block handed out

    def _replay(self, rngs, steps: int) -> np.ndarray:
        """The next ``steps`` batches of each of ``rngs``: a C-contiguous
        (steps, R, B) block."""
        width = 2 * self.B - 1  # draws per batch
        bounds = np.tile(_floyd_bounds(self.n, self.B), steps)
        U = np.empty((steps, len(rngs), width), dtype=np.int64)
        for r, rng in enumerate(rngs):
            U[:, r] = rng.integers(0, bounds).reshape(steps, width)
        S = _replay_floyd(self.n, U.reshape(steps * len(rngs), width))
        return np.ascontiguousarray(S).reshape(steps, len(rngs), self.B)

    def draw(self) -> np.ndarray:
        """The next batch of every row: a C-contiguous (R, B) block."""
        if not self.replay:
            return np.stack([sample_batch(rng, self.n, self.B) for rng in self.rngs])
        if self._used == len(self._ahead):
            self._ahead, self._used = self._replay(self.rngs, self.steps), 0
        self._used += 1
        return self._ahead[self._used - 1]


def grid_lockstep(obj, groups, X0, K, B, rngs):
    """Advance the R rows of X0 (R, d) together for K steps, row r drawing
    its batches from ``rngs[r]``.

    ``groups`` lists ``(method, cfg, size)``: the rows of X0 split, in order,
    into consecutive groups that each follow one rule with one config. The
    layout must agree with itself: one stream per row, and group sizes that
    sum to R; else a ``ValueError`` is raised before the first draw. Every
    step makes one batch draw and one evaluation over all rows, then one
    rule call per group on its row slice, given the step index k: the rules
    count no steps themselves. A single group takes the arrays whole.

    Yields ``(k, X, gamma)`` at every step: ``X`` holds the pre-step iterates
    x_k of all rows and ``gamma`` their stepsizes gamma_k. A row whose batch
    gradient is zero stays where it is: its Polyak ratio is +inf, so the
    rule's cap binds, and ``X - gamma * 0`` is X.
    """
    # init_state first, as it rejects an unknown method; the rules are looked up when the
    # pass starts, not at import, so a caller may swap entries of STEPPERS (e.g. to time them)
    rules, start = [], 0
    for method, cfg, size in groups:
        rules.append((slice(start, start + size), init_state(cfg, method, obj.d, rows=size),
                      STEPPERS[method], cfg, batch_target(cfg, method, obj)))
        start += size
    rngs = list(rngs)
    if not len(rngs) == start == len(X0):
        raise ValueError(f"grid_lockstep: need one stream per row and groups covering every row, "
                         f"got {len(rngs)} streams, groups of {start} rows and {len(X0)} rows")
    batches = SeedBatches(rngs, obj.n, B, steps=K)
    X = X0
    for k in range(K):
        S = batches.draw()
        F, G = obj.value_and_grad(S, X)
        g2 = np.vecdot(G, G)
        # fresh at every step: a caller may keep the X and gamma it was yielded
        if len(rules) == 1:
            _, state, rule, cfg, target = rules[0]
            U, gamma = rule(cfg, k, state, F, G, g2, None if target is None else target(S))
            X_next = X - U
        else:
            X_next, gamma = np.empty(X.shape), np.empty(len(X))
            for rows, state, rule, cfg, target in rules:
                m = None if target is None else target(S[rows])
                U, gamma[rows] = rule(cfg, k, state, F[rows], G[rows], g2[rows], m)
                np.subtract(X[rows], U, out=X_next[rows])
        yield k, X, gamma
        X = X_next


def lockstep(obj, method, cfg, X0, K, B, rngs):
    """``grid_lockstep`` with every row of X0 in one group: one rule, one config,
    and one stream of ``rngs`` per row."""
    return grid_lockstep(obj, [(method, cfg, len(X0))], X0, K, B, rngs)


def iterate_run(obj, method, cfg, x0, K, B, rng):
    """``lockstep`` on one row: yields (k, x_k, gamma_k) with x_k the pre-step iterate."""
    for k, X, gamma in lockstep(obj, method, cfg, np.asarray(x0)[None], K, B, [rng]):
        yield k, X[0], float(gamma[0])


def _check_config(cfg: RunConfig) -> None:
    check_fields(cfg)
    validate(cfg.stepper, cfg.optimizer)
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
    if not cfg.out_dir:
        raise ConfigurationError("out_dir is empty; name a directory for the outputs")
    # the nearest existing path on the way to out_dir must be a directory, or
    # writing the outputs would fail after the whole run
    existing = cfg.out_dir
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ConfigurationError(f"out_dir {cfg.out_dir!r}: {existing!r} is not a directory")


def _label(cfg: RunConfig) -> str:
    return cfg.label or f"{cfg.problem.name}_{cfg.optimizer}"


def _outputs(cfg: RunConfig) -> tuple[str, str, str]:
    """The paths of one config's trace, aggregate and manifest."""
    stem = os.path.join(cfg.out_dir, _label(cfg))
    ext = data_io.TRACE_FORMATS[cfg.trace_format]
    return f"{stem}.{ext}", f"{stem}_agg.csv", f"{stem}_manifest.json"


# One block of pending records holds at most this many records and this many
# bytes of iterates. The evaluators' temporaries are a few times the block, and
# at 1 MB they raised quadratic_grid's peak RSS by 0.2 MB; at 256 KB they do not.
RECORDS_PER_BLOCK, RECORD_BLOCK_BYTES = 64, 1 << 18


def _run_pass(obj, reference, cfgs: list[RunConfig],
              records: Trace) -> list[tuple[Trace, list[dict]]]:
    """Advance every (config, seed) row of a grid, ``cfgs`` of one run shape,
    in one ``grid_lockstep``: config c's seeds form one group of rows with its
    own rule, stepper config and fresh ``stream(seed)`` generators. Fills
    ``records``, the grid's table, and returns each config's rows and diagnostics.

    A record stores every row's gamma_k and keeps the yielded x_k and x̄_k; a
    full block of them, and the last, is stacked once for ``suboptimality``."""
    first = cfgs[0]
    f_sub = objectives.suboptimality(obj, reference)
    rngs = [stream(seed) for seed in records.seeds]
    scales = [c.x0_scale for c in cfgs for _ in c.seeds]
    X0 = np.array([scale * rng.standard_normal(obj.d) for scale, rng in zip(scales, rngs)])
    groups = [(c.optimizer, c.stepper, len(c.seeds)) for c in cfgs]
    record_at = records.ks.tolist()
    per_block = max(1, min(RECORDS_PER_BLOCK, RECORD_BLOCK_BYTES // (2 * X0.nbytes)))
    pending = []  # (x_k, x̄_k) of each record taken but not yet evaluated
    xbar_sum = np.zeros_like(X0)
    first_negative = np.full(len(X0), -1)  # per row, the first k with gamma_k < 0
    j = 0  # records taken
    for k, X, gamma in grid_lockstep(obj, groups, X0, first.K, first.B, rngs):
        xbar_sum += X
        # at every step, as a row may step back to gamma >= 0; fmin skips a nan
        if np.fmin.reduce(gamma) < 0:
            first_negative[(gamma < 0) & (first_negative < 0)] = k
        if k == record_at[j]:
            pending.append((X, xbar_sum / (k + 1)))
            records.gamma[:, j] = gamma
            j += 1
            if len(pending) == per_block or j == len(record_at):
                block = np.stack(pending, axis=2)  # (2, R, records, d)
                E = block[0] - reference.x_star
                # every metric but gamma, which each record stored as it was taken
                records.values[:3, :, j - len(pending):j] = (*f_sub(block), np.vecdot(E, E))
                pending = []
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
    bad = ~np.isfinite(records.values)  # (metric, row, j)
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
    """Write one config's trace, aggregate and manifest (``_outputs``)."""
    trace_path, agg_path, manifest_path = _outputs(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    data_io.write_trace(records, trace_path, cfg.trace_format)
    agg = aggregate_records(records, _label(cfg))
    write_aggregate(agg, agg_path)
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


def check_record_table(n_seeds: int, K: int, record_every: int) -> int:
    """The records per seed of a K-step run: every record_every-th step and
    the last. Raises ConfigurationError if an n_seeds-row table of them, one
    float per (metric, seed, record), has more bytes than numpy counts in an
    intp, so a seed count can be checked before its seeds are listed."""
    n_records = len(range(0, K - 1, record_every)) + 1
    if len(METRICS) * n_seeds * n_records > np.iinfo(np.intp).max // 8:
        raise ConfigurationError(f"cannot allocate the {n_seeds}x{n_records} record table")
    return n_records


def _run_grid(cfgs: list[RunConfig], obj=None, reference=None,
              summary: str | None = None) -> list[RunOutput]:
    """Run a grid in one engine pass. Before any work, check every config (so
    one bad on its own fails before a dataset is read), that all share problem,
    seeds, K, B, record_every and reference_tol (another shape is another
    grid), and that no two outputs (``_outputs`` and a caller's ``summary``)
    share a path; then allocate the record table. Then build the problem
    unless ``obj`` is given, check B against its n, certify each Polyak
    target, solve the reference unless given, make one ``_run_pass`` and write
    and return each config's outputs, in the order of ``cfgs``. A diverging row
    records inf or nan, without a floating-point warning, and its config's
    ``diagnostics`` name it, as they name a negative stepsize."""
    for c in cfgs:
        _check_config(c)
    first = cfgs[0]
    for name in ("K", "seeds", "problem", "reference_tol", "B", "record_every"):
        if any(getattr(c, name) != getattr(first, name) for c in cfgs[1:]):
            raise ConfigurationError(f"compare_grid: all configs must share {name}")
    writers = [(path, f"config {_label(c)!r}") for c in cfgs for path in _outputs(c)]
    if summary is not None:
        writers.append((summary, "the sweep summary"))
    owners = {}  # absolute path -> who writes it
    for path, who in writers:
        where = os.path.abspath(path)
        if where in owners:
            raise ConfigurationError(f"compare_grid: {owners[where]} and {who} would both "
                                     f"write {path!r}; give each config its own label or out_dir")
        owners[where] = who
    seeds = [seed for c in cfgs for seed in c.seeds]
    n_records = check_record_table(len(seeds), first.K, first.record_every)
    try:
        records = Trace.empty(seeds, np.append(
            np.arange(0, first.K - 1, first.record_every), first.K - 1))
    except MemoryError:
        raise ConfigurationError(
            f"cannot allocate the {len(seeds)}x{n_records} record table") from None
    if obj is None:
        obj = build_problem(first.problem)
    if not 1 <= first.B <= obj.n:
        raise ConfigurationError(f"batch size {first.B} is not in [1, n={obj.n}]")
    for c in cfgs:
        # certify the Polyak target: a batch-independent lower bound once, an
        # exact minimum on one probe batch
        target = batch_target(c.stepper, c.optimizer, obj)
        if target is not None:
            target(np.arange(first.B)[None])
    if reference is None:
        reference = objectives.solve_reference(obj, first.reference_tol)
    with np.errstate(over="ignore", invalid="ignore"):
        return [_write_run(c, obj, reference, *result)
                for c, result in zip(cfgs, _run_pass(obj, reference, cfgs, records))]


def run_experiment(cfg: RunConfig, obj=None, reference=None) -> RunOutput:
    """Run one config over its seeds: the grid of one config, on ``obj`` and
    ``reference`` where given, else on those ``_run_grid`` builds and solves."""
    return _run_grid([cfg], obj, reference)[0]


def aggregate_records(records: Trace, label: str) -> Aggregate:
    """Per-k mean and std across seeds, one metric at a time."""
    return Aggregate(label, records.ks,
                     {m: v.mean(axis=0) for m, v in zip(METRICS, records.values)},
                     {m: v.std(axis=0) for m, v in zip(METRICS, records.values)})


def write_aggregate(agg: Aggregate, path: str) -> None:
    """One line per recorded k: k, then the mean and std of each metric."""
    header = ["k"] + [f"{stat}_{m}" for m in METRICS for stat in ("mean", "std")]
    with open(path, "wb") as fh:
        data_io.write_csv(fh, header,
                          [(["%d" % k for k in agg.ks.tolist()], np.arange(len(agg.ks)))],
                          [col for m in METRICS for col in (agg.mean[m], agg.std[m])])


def compare_grid(cfgs: list[RunConfig]) -> list[dict]:
    """Run a grid (``_run_grid``: configs that share problem, seeds, K, B,
    record_every and reference tolerance, in one engine pass) and return a
    summary table of final suboptimality mean +- 2 std, one row per config,
    with its manifest diagnostics; each config's outputs are those of its
    solo ``run_experiment``."""
    if not cfgs:
        return []
    summary_path = os.path.join(cfgs[0].out_dir, "sweep_summary.csv")
    table = []
    for c, out in zip(cfgs, _run_grid(cfgs, summary=summary_path)):
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
