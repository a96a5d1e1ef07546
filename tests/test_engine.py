"""The lockstep engine against single-seed and single-config runs.

A seed's trace must not depend on which seeds or configs run beside it:
every check here compares a group of rows with the same rows run alone, and
a grid's outputs with each config's solo run, bit for bit.
"""

import csv
import io
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from polystep import runner, steppers
from polystep.core import sample_batch, stream
from polystep.data_io import METRICS, Trace, make_synthetic, write_trace
from polystep.objectives import (
    LogisticObjective,
    QuadraticObjective,
    ShiftedAbsoluteObjective,
    make_counterexample_1d,
    make_fig1_problem,
    make_random_strongly_convex,
    solve_reference,
)
from polystep.runner import (
    BLOCK,
    MIN_BLOCK_STEPS,
    ProblemSpec,
    RunConfig,
    SeedBatches,
    _run_grid,
    compare_grid,
    iterate_run,
    lockstep,
    run_experiment,
)
from polystep.steppers import STEPPERS, StepperConfig

OPTIMIZERS = sorted(STEPPERS)


def _logistic(seed, n, d, lam, label_sign="standard"):
    ds = make_synthetic(stream(seed), n, d)
    return LogisticObjective(ds.features, ds.labels, lam, label_sign)


@pytest.mark.parametrize("obj", [
    make_counterexample_1d(),
    make_fig1_problem(stream(1), d=6, n=12),
    make_fig1_problem(stream(7), d=20, n=100),  # the benchmark's shape
    make_fig1_problem(stream(8), d=100, n=30),  # the command line's default d
    make_random_strongly_convex(stream(2), 4, 9),
    make_random_strongly_convex(stream(9), 1, 9),
    _logistic(3, 40, 7, 1e-2),
    _logistic(4, 30, 120, 0.0, "as_printed"),
    ShiftedAbsoluteObjective(stream(5).standard_normal(9)),
], ids=["counterexample", "fig1", "fig1_d20", "fig1_d100", "strongly_convex",
        "strongly_convex_1d", "logistic", "logistic_wide", "absolute"])
@pytest.mark.parametrize("R,B", [(1, 1), (5, 1), (3, 2), (4, 7)])
def test_value_and_grad_rows_match_one_batch(obj, R, B):
    rng = stream(6)
    B = min(B, obj.n)
    S = np.stack([rng.choice(obj.n, size=B, replace=False) for _ in range(R)])
    X = 2.0 * rng.standard_normal((R, obj.d))
    F, G = obj.value_and_grad(S, X)
    assert F.shape == (R,) and G.shape == (R, obj.d)
    for r in range(R):
        assert F[r] == obj.batch_value(S[r], X[r])
        np.testing.assert_array_equal(G[r], obj.batch_grad(S[r], X[r]))


def _by_seed(trace_path):
    """Trace data lines grouped by their seed field."""
    lines = {}
    with open(trace_path, newline="") as fh:
        for line in list(fh)[1:]:
            lines.setdefault(line.split(",", 1)[0], []).append(line)
    return lines


def _assert_seeds_match_solo_runs(cfg, tmp_path, obj=None):
    group = run_experiment(cfg, obj=obj)
    grouped = _by_seed(group.trace_path)
    diagnostics = json.load(open(group.manifest_path))["diagnostics"]
    for seed in cfg.seeds:
        solo_cfg = replace(cfg, seeds=(seed,), out_dir=str(tmp_path / f"s{seed}"))
        solo = run_experiment(solo_cfg, obj=obj)
        assert grouped.get(str(seed), []) == _by_seed(solo.trace_path).get(str(seed), [])
        solo_diag = json.load(open(solo.manifest_path))["diagnostics"]
        assert [d for d in diagnostics if d["seed"] == seed] == solo_diag
    return group, diagnostics


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_each_seed_matches_its_solo_run_fig1(optimizer, tmp_path):
    stepper = StepperConfig(eta=0.05, f_star_policy="exact" if optimizer == "sps_max"
                            else "lower_bound")
    cfg = RunConfig(problem=ProblemSpec("fig1", n=10, d=4), optimizer=optimizer,
                    stepper=stepper, K=60, seeds=(0, 1, 2), out_dir=str(tmp_path / "group"),
                    label="t")
    _assert_seeds_match_solo_runs(cfg, tmp_path)


def test_each_seed_matches_its_solo_run_logistic_batches(tmp_path):
    cfg = RunConfig(problem=ProblemSpec("synthetic", n=60, d=5, lam=1e-3), optimizer="decsps",
                    B=10, K=60, seeds=(0, 1, 2), out_dir=str(tmp_path / "group"),
                    record_every=7, label="t")
    _assert_seeds_match_solo_runs(cfg, tmp_path)


def test_each_seed_matches_its_solo_run_absolute(tmp_path):
    obj = ShiftedAbsoluteObjective(np.array([-2.0, -0.5, 0.3, 1.0, 2.5]))
    cfg = RunConfig(problem=ProblemSpec("shifted_absolute"), optimizer="decsps_ns", K=60,
                    seeds=(0, 1, 2), out_dir=str(tmp_path / "group"), label="t")
    _assert_seeds_match_solo_runs(cfg, tmp_path, obj)


@pytest.mark.parametrize("K,every", [(1, 1), (150, 1), (150, 7)])
@pytest.mark.parametrize("problem", [ProblemSpec("fig1", n=10, d=4),
                                     ProblemSpec("synthetic", n=40, d=5, lam=1e-3)],
                         ids=["fig1", "logistic"])
def test_records_do_not_depend_on_the_record_blocks(problem, K, every, tmp_path):
    # 150 steps recorded at every step fill two blocks of 64 and leave a
    # partial third; a group of three rows evaluates three times as many
    # iterates per block, so each row sits elsewhere in every product
    cfg = RunConfig(problem=problem, optimizer="decsps", B=2, K=K, seeds=(0, 1, 2),
                    record_every=every, out_dir=str(tmp_path / "group"), label="t")
    _assert_seeds_match_solo_runs(cfg, tmp_path)


def test_logistic_records_do_not_depend_on_the_rows_beside_them(tmp_path, monkeypatch):
    # blocks of 8 iterates' bytes: one row takes 4 records per block, two
    # rows 2 and more rows 1, so the 9 records of R = 3..17 rows come in
    # blocks of 2R iterates, which fill the 16-wide chunks of the logistic
    # evaluator to every even count, over one to three chunks (at d=120,
    # OpenBLAS gives some columns other bits in a product of 31 or more)
    obj = _logistic(7, 40, 120, 1e-2)
    ref = solve_reference(obj)
    monkeypatch.setattr(runner, "RECORD_BLOCK_BYTES", 8 * 8 * obj.d)

    def trace_lines(seeds, out):
        cfg = RunConfig(problem=ProblemSpec("synthetic"), optimizer="decsps", B=3, K=9,
                        seeds=seeds, out_dir=str(tmp_path / out), label="t")
        return _by_seed(run_experiment(cfg, obj=obj, reference=ref).trace_path)

    solo = {}
    for seed in range(17):
        solo.update(trace_lines((seed,), f"solo{seed}"))
    for R in range(2, 18):
        assert trace_lines(tuple(range(R)), f"group{R}") == {str(s): solo[str(s)]
                                                              for s in range(R)}


def test_halted_seeds_leave_the_others_unchanged(tmp_path):
    # From x0 = 0 a first step on a shift-1 component lands exactly on its
    # kink, where those two components give a zero subgradient. A seed that
    # draws one of them there stays put, its Polyak ratio +inf so that the
    # carried clip c_{k-1} gamma_{k-1} sets gamma_k; every seed keeps
    # stepping, and each matches its solo run.
    obj = ShiftedAbsoluteObjective(np.array([1.0, 1.0, -5.0]))
    cfg = RunConfig(problem=ProblemSpec("shifted_absolute"), optimizer="decsps_ns", K=30,
                    seeds=tuple(range(10)), x0_scale=0.0, out_dir=str(tmp_path / "group"),
                    label="t")
    group, diagnostics = _assert_seeds_match_solo_runs(cfg, tmp_path, obj)
    assert diagnostics == []
    assert group.aggregate.ks.tolist() == list(range(30))
    # x* = 1, the kink itself: some seeds but not all sit there at k=1
    on_kink = {seed for seed, dist_sq in zip(group.records.seeds, group.records.dist_sq[:, 1])
               if dist_sq == 0.0}
    assert on_kink and on_kink != set(cfg.seeds)


def _assert_grid_matches_solo_runs(cfgs, obj=None):
    """Every config's trace, aggregate and manifest from one ``compare_grid``
    (the grid engine itself, ``_run_grid``, on a given ``obj``) equal,
    byte for byte, those its solo ``run_experiment`` writes to the same paths
    afterwards. Returns each config's manifest diagnostics."""
    if obj is None:
        compare_grid(cfgs)
    else:
        _run_grid(cfgs, obj)
    grid = {p.name: p.read_bytes() for p in Path(cfgs[0].out_dir).iterdir()}
    for cfg in cfgs:
        solo = run_experiment(cfg, obj=obj)
        for path in map(Path, (solo.trace_path, solo.aggregate_path, solo.manifest_path)):
            assert path.read_bytes() == grid[path.name], path.name
    return {cfg.label: json.loads(grid[f"{cfg.label}_manifest.json"])["diagnostics"]
            for cfg in cfgs}


def test_grid_of_all_rules_matches_solo_runs_fig1(tmp_path):
    # each config its own constants, so a rule run with another's config shows
    cfgs = [RunConfig(problem=ProblemSpec("fig1", n=10, d=4), optimizer=opt,
                      stepper=StepperConfig(eta=0.03 + 0.005 * i, c0=1.0 + 0.25 * i,
                                            f_star_policy="exact" if opt == "sps_max"
                                            else "lower_bound"),
                      K=60, seeds=(0, 1, 2), out_dir=str(tmp_path / "grid"), label=opt)
            for i, opt in enumerate(OPTIMIZERS)]
    _assert_grid_matches_solo_runs(cfgs)


def test_grid_matches_solo_runs_logistic_batches(tmp_path):
    cfgs = [RunConfig(problem=ProblemSpec("synthetic", n=60, d=5, lam=1e-3), optimizer=opt,
                      B=10, K=60, seeds=(0, 1, 2), out_dir=str(tmp_path / "grid"), label=opt)
            for opt in ("decsps", "sps_max")]
    _assert_grid_matches_solo_runs(cfgs)


def test_grid_with_a_halting_config_matches_solo_runs(tmp_path):
    # the kink construction of test_halted_seeds_leave_the_others_unchanged:
    # the decsps_ns rows that reach the kink stay there through a zero
    # subgradient, and with eta=1 the sgd rows reach it too and step on (by
    # zero) there; no config reports a row
    obj = ShiftedAbsoluteObjective(np.array([1.0, 1.0, -5.0]))
    cfgs = [RunConfig(problem=ProblemSpec("shifted_absolute"), optimizer=opt,
                      stepper=StepperConfig(eta=1.0), K=30, seeds=tuple(range(10)),
                      x0_scale=0.0, out_dir=str(tmp_path / "grid"), label=opt)
            for opt in ("sgd_constant", "decsps_ns", "sgd_decreasing", "amsgrad")]
    diagnostics = _assert_grid_matches_solo_runs(cfgs, obj)
    assert diagnostics == {cfg.label: [] for cfg in cfgs}


def test_grid_of_one_batched_shape_matches_solo_runs(tmp_path):
    # B > 1 and a sparse record schedule, with mixed rules and trace formats
    problem = ProblemSpec("synthetic", n=40, d=4, lam=1e-3)
    cfgs = [RunConfig(problem=problem, optimizer=opt, stepper=StepperConfig(eta=0.1), B=8,
                      K=50, seeds=(3, 1), record_every=7, out_dir=str(tmp_path / "grid"),
                      trace_format=fmt, label=opt)
            for opt, fmt in [("decsps", "csv"), ("adam", "json-lines"), ("sps_max", "csv"),
                             ("sgd_constant", "json-lines")]]
    _assert_grid_matches_solo_runs(cfgs)


def test_halted_row_leaves_the_other_rows_unchanged():
    # both components are minimised at 1: a row starting there has a zero
    # gradient on every batch, so it stays there with the clip alone,
    # gamma_k = c0 gamma_b / c_k, and the rows beside it run as they would alone
    obj = QuadraticObjective(np.ones((2, 1, 1)), np.ones((2, 1)), np.zeros(2))
    X0 = np.array([[0.2], [1.0], [-1.5]])
    cfg = StepperConfig()
    seen = {0: [], 1: [], 2: []}
    for k, X, gamma in lockstep(obj, "decsps", cfg, X0, 40, 1,
                                [stream(s) for s in range(3)]):
        for r, (x, g) in enumerate(zip(X, gamma)):
            seen[r].append((k, x.tolist(), float(g)))
    assert seen[1] == [(k, [1.0], cfg.c0 * cfg.gamma_b / steppers.c_value(cfg, k))
                        for k in range(40)]
    for r in (0, 2):
        solo = [(k, x.tolist(), g) for k, x, g in
                iterate_run(obj, "decsps", cfg, X0[r], 40, 1, stream(r))]
        assert seen[r] == solo


def test_rules_are_looked_up_when_a_pass_starts(tmp_path, monkeypatch):
    # an entry swapped into STEPPERS after import is the rule a run calls,
    # once per step k for all rows, given that k, and a transparent wrapper
    # changes no byte
    cfg = RunConfig(problem=ProblemSpec("counterexample"), optimizer="decsps", K=5,
                    seeds=(0, 1, 2), out_dir=str(tmp_path / "plain"), label="t")
    plain = Path(run_experiment(cfg).trace_path).read_bytes()
    rule, calls = steppers.STEPPERS["decsps"], []

    def counting(*args):
        calls.append((args[1], len(args[3])))  # k, rows in F
        return rule(*args)

    monkeypatch.setitem(steppers.STEPPERS, "decsps", counting)
    out = run_experiment(replace(cfg, out_dir=str(tmp_path / "counted")))
    assert calls == [(k, 3) for k in range(5)]
    assert Path(out.trace_path).read_bytes() == plain


@pytest.mark.parametrize("start", [
    lambda obj: lockstep(obj, "bogus", StepperConfig(), np.zeros((1, 1)), 3, 1, [stream(0)]),
    lambda obj: iterate_run(obj, "bogus", StepperConfig(), np.zeros(1), 3, 1, stream(0)),
], ids=["lockstep", "iterate_run"])
def test_unknown_method_is_a_configuration_error(start):
    # not a KeyError from the STEPPERS lookup
    with pytest.raises(steppers.ConfigurationError, match="^unknown optimizer 'bogus'$"):
        next(start(make_counterexample_1d()))


@pytest.mark.parametrize("n,B,steps", [
    (7, 1, 4), (2, 1, 4), (7, 3, 4),
    (3, 3, 4), (10, 5, 4), (20, 20, 4),  # many collisions in Floyd's sample
    (64, 64, 3), (200, 64, 3), (200, 65, 3),  # the largest replayed B, the smallest per-step one
    (12000, 20, 4), (5000, 20, BLOCK),  # n > 10000; whole default blocks
])
def test_block_draws_match_per_step_sample_batch(n, B, steps):
    seeds = (10, 11, 12)
    batches = SeedBatches([stream(s) for s in seeds], n, B, steps=steps)
    assert batches.replay == (B <= 64)
    # every row at every draw, across two block ends
    draws = [batches.draw() for _ in range(3 * batches.steps)]
    assert all(S.shape == (len(seeds), B) and S.flags.c_contiguous for S in draws)
    for r, seed in enumerate(seeds):
        ref = stream(seed)
        assert [S[r].tolist() for S in draws] == [sample_batch(ref, n, B).tolist()
                                                 for _ in draws]
        # each row used up whole blocks, so its stream is where per-step
        # draws leave it
        np.testing.assert_equal(batches.rngs[r].bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("R,B,K,steps", [
    (100, 1, 300, 300), (16, 1, 600, 600), (2, 20, 6000, BLOCK // 20),  # the benchmark's
    (1000, 1, 5000, MIN_BLOCK_STEPS), (100, 20, 6000, BLOCK // 20),
])
def test_block_steps(R, B, K, steps):
    assert SeedBatches([stream(s) for s in range(R)], 100, B, steps=K).steps == steps


def test_draw_ahead_block_is_bounded_over_all_rows():
    # 1000 rows at B = 1: a per-row bound of BLOCK steps alone drew blocks of
    # 32.8 MB; the total bound draws MIN_BLOCK_STEPS steps, a block of 2 MB
    batches = SeedBatches([stream(s) for s in range(1000)], 2, 1, steps=5000)
    tracemalloc.start()
    try:
        batches.draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_a_sampler_the_replay_does_not_match_is_called_per_step(monkeypatch):
    def permuted(rng, n, B):
        return rng.permutation(n)[:B]

    monkeypatch.setattr(runner, "sample_batch", permuted)
    seeds, n, B = (3, 4), 9, 4
    batches = SeedBatches([stream(s) for s in seeds], n, B, steps=4)
    assert not batches.replay
    draws = [batches.draw() for _ in range(10)]
    for r, seed in enumerate(seeds):
        ref = stream(seed)
        assert [S[r].tolist() for S in draws] == [permuted(ref, n, B).tolist() for _ in draws]


@pytest.mark.parametrize("method", OPTIMIZERS)
def test_yielded_arrays_are_fresh_at_every_step(method):
    # the rules update their state in place; what a step yields must not
    # change afterwards, nor be shared with another step
    obj = make_fig1_problem(stream(1), d=6, n=12)
    X0 = stream(2).standard_normal((3, obj.d))
    kept = [(X, gamma, X.copy(), gamma.copy()) for _, X, gamma in
            lockstep(obj, method, StepperConfig(eta=0.05), X0, 12, 2,
                     [stream(s) for s in range(3)])]
    for X, gamma, X_then, gamma_then in kept:
        assert X.tobytes() == X_then.tobytes()
        assert gamma.tobytes() == gamma_then.tobytes()
    for (X, gamma, *_), (X_next, gamma_next, *_) in zip(kept, kept[1:]):
        assert not np.shares_memory(X, X_next)
        assert not np.shares_memory(gamma, gamma_next)


def _rows(trace):
    """(seed, k, *metrics) per record, seed by seed, read off the columns one
    element at a time."""
    return [(seed, k, *(float(getattr(trace, m)[r, j]) for m in METRICS))
            for r, seed in enumerate(trace.seeds) for j, k in enumerate(trace.ks.tolist())]


def _csv_module_bytes(rows):
    """The trace bytes the csv module writes for these rows."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(("seed", "k") + METRICS)
    for r in rows:
        w.writerow([r[0], r[1]] + [f"{v:.17g}" for v in r[2:]])
    return buf.getvalue().encode()


def test_columnar_writer_matches_per_record_serialisation(tmp_path):
    rng = stream(12)
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
    trace = Trace.empty((4, 9, 2), [0, 5, 10, 12])
    for j in range(4):
        values = [rng.standard_normal(3) * 10.0 ** rng.integers(-20, 20, 3) for _ in METRICS]
        values[j % 4][j % 3] = specials[j]
        trace.record(j, *values)
    rows = _rows(trace)
    assert len(rows) == len(trace) == 12
    write_trace(trace, str(tmp_path / "t.csv"), "csv")
    assert (tmp_path / "t.csv").read_bytes() == _csv_module_bytes(rows)
    write_trace(trace, str(tmp_path / "t.jsonl"), "json-lines")
    want = "".join(json.dumps({"seed": seed, "k": k, "f_sub": f_sub,
                               "f_sub_avg_iterate": f_sub_avg_iterate,
                               "dist_sq": dist_sq, "gamma": gamma}) + "\n"
                   for seed, k, f_sub, f_sub_avg_iterate, dist_sq, gamma in rows)
    assert (tmp_path / "t.jsonl").read_text() == want
