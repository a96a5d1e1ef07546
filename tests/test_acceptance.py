"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line and
asserts the same condition, so the verdicts are visible in `pytest -v -s`
output as well as in the test results themselves.
"""

import math

import numpy as np
import pytest

from finite_diff import finite_diff_grad
from polystep.core import stream
from polystep.objectives import (
    LogisticObjective,
    ShiftedAbsoluteObjective,
    full_value,
    make_counterexample_1d,
    make_fig1_problem,
    make_random_strongly_convex,
    solve_reference,
)
from polystep.oracles import (
    bias_fixed_point,
    bounded_recursion_check,
    d_max_bound,
    estimate_sigma2,
    gamma_moment_identity,
    simulate_polyak_1d,
    variation_of_constants,
)
from polystep.data_io import make_synthetic, read_trace
from polystep.runner import (
    ProblemSpec,
    RunConfig,
    compare_grid,
    iterate_run,
    lockstep,
    run_experiment,
)
from polystep.steppers import StepperConfig, c_value


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_logistic(seed: int, n: int, d: int, lam: float) -> LogisticObjective:
    rng = stream(seed)
    ds = make_synthetic(rng, n, d)
    return LogisticObjective(ds.features, ds.labels, lam)


def _seed_rows(obj, seeds, run_index):
    """Each seed's stream, with its x0 drawn, and the x0 rows stacked."""
    rngs = [stream(seed, run_index=run_index) for seed in seeds]
    return rngs, np.array([rng.standard_normal(obj.d) for rng in rngs])


def test_criterion_01_decsps_stepsize_sandwich():
    problems = [make_random_strongly_convex(stream(100 + i), 3, 8) for i in range(10)]
    problems.append(_random_logistic(200, 60, 10, lam=0.05))
    cfg = StepperConfig()  # c0=1, gamma_b=10, sqrt schedule, zero lower bound
    K, n_seeds = 10_000, 10
    worst_slack = math.inf
    monotone = True
    for p_idx, obj in enumerate(problems):
        L_max = obj.curvature().L_max
        # all seeds of a problem in lockstep: gammas[k, r] is seed r's gamma_k
        rngs, X0 = _seed_rows(obj, range(n_seeds), p_idx + 1)
        gammas = []
        for k, _, gamma in lockstep(obj, "decsps", cfg, X0, K, 1, rngs):
            ck = c_value(cfg, k)
            upper = cfg.c0 * cfg.gamma_b / ck
            lower = min(1.0 / (2.0 * ck * L_max), upper)
            worst_slack = min(worst_slack, float(np.min(gamma - lower)),
                              float(np.min(upper - gamma)))
            gammas.append(gamma)
        monotone = monotone and bool(np.all(np.diff(gammas, axis=0) <= 0.0))
    ok = worst_slack >= -1e-12 and monotone
    _verdict(1, "decsps stepsize sandwich", ok,
             f"worst slack {worst_slack:.2e}, monotone={monotone}")


def test_criterion_02_decsps_ns_exact_sandwich():
    obj = ShiftedAbsoluteObjective(stream(210).standard_normal(30))
    cfg = StepperConfig(gamma_ell=0.05, gamma_b=10.0, c0=1.0)
    rng = stream(211)
    x0 = rng.standard_normal(1)
    ok = True
    for k, _, gamma in iterate_run(obj, "decsps_ns", cfg, x0, 10_000, 1, rng):
        ck = c_value(cfg, k)
        # the interval must hold exactly in floating point, no tolerance
        ok = ok and (cfg.c0 * cfg.gamma_ell) / ck <= gamma <= (cfg.c0 * cfg.gamma_b) / ck
    _verdict(2, "decsps-ns exact stepsize interval", ok)


def test_criterion_03_bias_fixed_points():
    obj = make_counterexample_1d()
    sps = simulate_polyak_1d(obj, "sps", steps=10_000, n_runs=1000,
                             rng=stream(300), c_schedule="linear_half")
    mean_sps = float(np.mean(sps["x"]))
    dec = simulate_polyak_1d(obj, "decsps", steps=10_000, n_runs=1000,
                             rng=stream(301), c_schedule="sqrt", c0=1.0, gamma_b=10.0)
    mean_dec = float(np.mean(dec["x"]))
    ok = abs(mean_sps - 0.0) < 0.05 and abs(mean_dec - 1.0 / 3.0) < 0.05
    _verdict(3, "scaled sps biased to 0, decsps finds 1/3", ok,
             f"sps mean {mean_sps:+.4f}, decsps mean {mean_dec:.4f}")


def test_criterion_04_exact_bias_variance():
    obj = make_counterexample_1d()
    sim = simulate_polyak_1d(obj, "sps", steps=1000, n_runs=100_000,
                             rng=stream(400), c_schedule="linear_half",
                             record_at=(10, 100, 1000))
    details = []
    ok = True
    for k in (10, 100, 1000):
        m2 = float(np.mean(sim["recorded"][k] ** 2))
        rel = abs(m2 - 1.0 / k) * k
        details.append(f"k={k}: rel {rel:.3f}")
        ok = ok and rel < 0.05
    _verdict(4, "bias variance law 1/k", ok, ", ".join(details))


def test_criterion_05_variation_of_constants():
    rng = stream(500)
    worst = 0.0
    for _ in range(500):  # scalar instances
        k = int(rng.integers(1, 25))
        A = rng.uniform(0.1, 1.0, k).tolist()
        eps = rng.uniform(0.1, 1.0, k).tolist()
        z0 = float(rng.uniform(0.1, 2.0))
        z = z0
        for j in range(k):
            z = A[j] * z + eps[j]
        closed = variation_of_constants(A, eps, z0, k)
        worst = max(worst, abs(closed - z) / abs(z))
    for _ in range(500):  # matrix instances
        k = int(rng.integers(1, 12))
        d = int(rng.integers(2, 5))
        A = [rng.uniform(0.0, 1.0, (d, d)) / (2 * d) for _ in range(k)]
        eps = [rng.uniform(0.1, 1.0, d) for _ in range(k)]
        z0 = rng.uniform(0.1, 2.0, d)
        z = z0.copy()
        for j in range(k):
            z = A[j] @ z + eps[j]
        closed = variation_of_constants(A, eps, z0, k)
        worst = max(worst, float(np.max(np.abs(closed - z) / np.abs(z))))
    _verdict(5, "variation-of-constants closed form", worst <= 1e-12,
             f"worst rel err {worst:.2e}")


def test_criterion_06_recursion_bound_never_violated():
    rng = stream(600)
    z0 = rng.uniform(1e-3, 10.0, 1000)
    a = rng.uniform(1e-3, 1.0, 1000)
    b = rng.uniform(1e-3, 5.0, 1000)
    max_obs, bound = bounded_recursion_check(z0, a, b, 10_000)
    # the sup b/a is approached but never attained, sometimes to within less
    # than one ulp; a 1e-12 relative envelope absorbs that representation gap
    violations = int(np.sum(max_obs > bound * (1.0 + 1e-12)))
    _verdict(6, "bounded recursion z_k <= max{z0, b/a}", violations == 0,
             f"{violations} violations / 1000")


def test_criterion_07_gamma_moment_identity():
    rng = stream(700)
    ok = True
    details = []
    for n in (5, 50):
        for shape in (1.0, 2.0):
            estimates = []
            for rate in (1.0, 3.0):
                total, count = 0.0, 0
                for _ in range(20):  # 20 x 50k = 1e6 samples, chunked
                    a = rng.gamma(shape, 1.0 / rate, size=(50_000, n))
                    total += float(np.sum((a**2).sum(1) / a.sum(1) ** 2))
                    count += 50_000
                estimates.append(total / count)
            ident = gamma_moment_identity(n, shape)
            rels = [abs(e - ident) / ident for e in estimates]
            ok = ok and max(rels) < 0.02
            details.append(f"n={n} k={shape:g}: rel {max(rels):.4f}")
    _verdict(7, "gamma ratio moment, rate-invariant", ok, "; ".join(details))


def test_criterion_08_interpolation_coincidence():
    obj = make_fig1_problem(stream(800), d=10, n=20, interpolated=True, f_floor=0.0)
    cfg_exact = StepperConfig(c_schedule="constant", gamma_b=2.0,
                              f_star_policy="exact")
    cfg_lb = StepperConfig(c_schedule="constant", gamma_b=2.0,
                           f_star_policy="lower_bound", lower_bound_policy="zero")

    def trajectory(cfg):
        rng = stream(801)
        x0 = rng.standard_normal(obj.d)
        xs, gs = [], []
        for _, x, g in iterate_run(obj, "sps_max", cfg, x0, 2000, 1, rng):
            xs.append(x)
            gs.append(g)
        return np.array(xs), np.array(gs)

    xa, ga = trajectory(cfg_exact)
    xb, gb = trajectory(cfg_lb)
    ok = np.array_equal(xa, xb) and np.array_equal(ga, gb)
    _verdict(8, "interpolated trajectories bit-identical", ok)


def test_criterion_09_neighborhood_ordering():
    obj = make_fig1_problem(stream(900), d=100, n=100, interpolated=False,
                            f_floor=1.0)
    ref = solve_reference(obj)
    K, n_seeds, record_every = 10_000, 10, 200

    def plateau(cfg):
        # tails[r] holds seed r's recorded f(x_k) - f*, all seeds in lockstep
        rngs, X0 = _seed_rows(obj, range(n_seeds), 9)
        tails = [[] for _ in range(n_seeds)]
        for k, X, _ in lockstep(obj, "sps_max", cfg, X0, K, 1, rngs):
            if k % record_every == 0 and k >= 0.9 * K:
                for tail, x in zip(tails, X):
                    tail.append(full_value(obj, x) - ref.f_star)
        return float(np.mean([np.mean(tail) for tail in tails]))

    exact = plateau(StepperConfig(c_schedule="constant", gamma_b=2.0,
                                  f_star_policy="exact"))
    loose = plateau(StepperConfig(c_schedule="constant", gamma_b=2.0,
                                  f_star_policy="lower_bound",
                                  lower_bound_policy="zero"))
    _verdict(9, "tighter target gives smaller plateau", exact <= loose,
             f"exact {exact:.4f} <= zero-bound {loose:.4f}")


def test_criterion_10_decsps_sublinear_rate():
    obj = _random_logistic(1000, 500, 100, lam=1e-4)
    ref = solve_reference(obj, tol=1e-10)
    cfg = StepperConfig()  # decsps defaults
    checkpoints = np.unique(np.logspace(2, 4, 16).astype(int))
    K = int(checkpoints[-1])
    logK, logF = [], []
    curves = {k: [] for k in checkpoints}
    rngs, X0 = _seed_rows(obj, range(5), 10)
    xbar_sum = np.zeros_like(X0)
    for k, X, _ in lockstep(obj, "decsps", cfg, X0, K, 20, rngs):
        xbar_sum += X
        if k + 1 in curves:
            curves[k + 1] += [full_value(obj, xbar) - ref.f_star
                              for xbar in xbar_sum / (k + 1)]
    for k in checkpoints:
        logK.append(math.log(k))
        logF.append(math.log(np.mean(curves[k])))
    slope = float(np.polyfit(logK, logF, 1)[0])
    ok = -1.2 <= slope <= -0.3
    _verdict(10, "decsps averaged-iterate sublinear rate", ok,
             f"log-log slope {slope:.3f}")


def test_criterion_11_bounded_iterates():
    obj = make_random_strongly_convex(stream(1100), 3, 8)
    ref = solve_reference(obj)
    info = obj.curvature()
    stats = estimate_sigma2(obj, ref.x_star, 1, policy="zero")
    cfg = StepperConfig()  # c_k = sqrt(k+1), c0=1, gamma_b=10
    rngs, X0 = _seed_rows(obj, range(100), 11)
    bounds = np.array([d_max_bound(info, x0, ref.x_star, cfg.gamma_b, cfg.c0,
                                   stats.sigma2_hat_B_max) for x0 in X0])
    worst_ratio = 0.0
    for _, X, _ in lockstep(obj, "decsps", cfg, X0, 10_000, 1, rngs):
        E = X - ref.x_star
        worst_ratio = max(worst_ratio, float(np.max(np.vecdot(E, E) / bounds)))
    ok = worst_ratio <= 1.0
    _verdict(11, "iterates stay inside the almost-sure ball", ok,
             f"max ||x-x*||^2 / bound = {worst_ratio:.3f}")


def test_criterion_12_gradient_correctness():
    rng = stream(1200)
    objs = [
        make_random_strongly_convex(stream(1201), 4, 6),
        _random_logistic(1202, 30, 5, lam=0.1),
        ShiftedAbsoluteObjective(stream(1203).standard_normal(12)),
    ]
    worst = 0.0
    for obj in objs:
        for _ in range(100):
            x = rng.standard_normal(obj.d) * 2.0
            B = int(rng.integers(1, obj.n + 1))
            S = rng.choice(obj.n, size=B, replace=False)
            fd = finite_diff_grad(lambda z: obj.batch_value(S, z), x, 1e-6)
            g = obj.batch_grad(S, x)
            rel = float(np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd)))
            worst = max(worst, rel)
    _verdict(12, "analytic gradients match finite differences", worst <= 1e-6,
             f"worst rel err {worst:.2e}")


def test_criterion_13_decsps_reaches_x_star_where_sps_stays_biased(tmp_path):
    # through the harness: compare_grid runs both rules and writes their
    # traces, which are read back. With c_k = sqrt(k+1) and the zero bound,
    # single-sample sps_max on the counterexample settles at the unweighted
    # offset mean (bias_fixed_point), so its squared distance to x* stays
    # near (x* - bias)^2, while decsps converges to x*.
    obj = make_counterexample_1d()
    bias_sq = (solve_reference(obj).x_star[0] - bias_fixed_point(obj)) ** 2  # 1/9
    K, seeds = 20_000, tuple(range(20))
    cfgs = [RunConfig(ProblemSpec("counterexample"), opt, StepperConfig(), B=1, K=K,
                      seeds=seeds, record_every=K // 20, out_dir=str(tmp_path))
            for opt in ("sps_max", "decsps")]
    traces = {row["optimizer"]: read_trace(row["trace"], "csv") for row in compare_grid(cfgs)}
    assert all(t.seeds == seeds and t.ks[-1] == K - 1 for t in traces.values())

    def final(opt, metric):
        """The mean over seeds of the last record, and its standard error."""
        v = getattr(traces[opt], metric)[:, -1]
        return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(len(v)))

    (sps, sps_se), (dec, dec_se) = final("sps_max", "dist_sq"), final("decsps", "dist_sq")
    (sps_f, sps_f_se), (dec_f, dec_f_se) = (final("sps_max", "f_sub_avg_iterate"),
                                            final("decsps", "f_sub_avg_iterate"))
    ok = (abs(sps - bias_sq) <= 3 * sps_se  # sps_max keeps its bias
          and dec + 3 * dec_se <= bias_sq / 10  # decsps ends ten times closer to x*
          and dec_f + 3 * dec_f_se <= sps_f - 3 * sps_f_se)  # and with a smaller average gap
    _verdict(13, "decsps reaches x*, sps_max stays at its bias", ok,
             f"dist_sq sps {sps:.3e}+-{sps_se:.1e} vs (x*-bias)^2 {bias_sq:.3e}, "
             f"decsps {dec:.3e}+-{dec_se:.1e}; f_sub_avg sps {sps_f:.2e}+-{sps_f_se:.1e} "
             f"decsps {dec_f:.2e}+-{dec_f_se:.1e}")


def test_criterion_14_decsps_keeps_falling_where_sps_stalls_on_logistic(tmp_path):
    # through the harness, as criterion 13, on synthetic logistic: from
    # k = K/2 to the end, the paper's O(1/sqrt(k)) rate would multiply the
    # averaged-iterate gap by sqrt(1/2). decsps falls faster than that, while
    # single-sample sps_max, biased without interpolation, stays flat
    K, seeds = 20_000, tuple(range(20))
    cfgs = [RunConfig(ProblemSpec("synthetic", lam=1e-2, n=200, d=10), opt, StepperConfig(),
                      B=1, K=K, seeds=seeds, record_every=K // 20, out_dir=str(tmp_path))
            for opt in ("sps_max", "decsps")]
    traces = {row["optimizer"]: read_trace(row["trace"], "csv") for row in compare_grid(cfgs)}
    assert all(t.seeds == seeds and t.ks[-1] == K - 1 for t in traces.values())
    mid = int(np.flatnonzero(traces["decsps"].ks == K // 2)[0])

    def mean_se(v):
        return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(len(v)))

    gap = {opt: t.f_sub_avg_iterate for opt, t in traces.items()}
    (sps_r, sps_r_se), (dec_r, dec_r_se) = (mean_se(gap[opt][:, -1] / gap[opt][:, mid])
                                            for opt in ("sps_max", "decsps"))
    (sps, sps_se), (dec, dec_se) = (mean_se(gap[opt][:, -1]) for opt in ("sps_max", "decsps"))
    rate = math.sqrt(1 / 2)
    ok = (dec_r + 3 * dec_r_se <= rate  # decsps falls faster than 1/sqrt(k)
          and sps_r - 3 * sps_r_se >= rate  # sps_max slower
          and dec + 3 * dec_se <= sps - 3 * sps_se)  # and ends with the smaller gap
    _verdict(14, "decsps keeps falling where sps_max stalls (logistic)", ok,
             f"end/mid f_sub_avg: sps {sps_r:.3f}+-{sps_r_se:.3f}, decsps {dec_r:.3f}+-"
             f"{dec_r_se:.3f} vs sqrt(1/2); final sps {sps:.2e}+-{sps_se:.1e} "
             f"decsps {dec:.2e}+-{dec_se:.1e}")


def test_criterion_14_decsps_ns_rate_on_an_absolute_sum(tmp_path):
    # DecSPS-NS on a non-smooth sum of 30 shifted absolute values, through
    # run_experiment, its trace read back: the log-log slope of the mean
    # averaged-iterate gap from k = K/20 on is at most the paper's -1/2, by
    # three jackknife standard errors over the seeds
    obj = ShiftedAbsoluteObjective(stream(1400).standard_normal(30))
    K, seeds = 20_000, tuple(range(20))
    out = run_experiment(RunConfig(ProblemSpec("shifted_absolute"), "decsps_ns",
                                   StepperConfig(gamma_ell=0.01), B=1, K=K, seeds=seeds,
                                   record_every=K // 20, out_dir=str(tmp_path)), obj=obj)
    trace = read_trace(out.trace_path, "csv")
    assert trace.seeds == seeds and trace.ks[-1] == K - 1
    late = trace.ks >= K // 20
    log_k = np.log(trace.ks[late] + 1.0)  # the record at k averages k + 1 iterates

    def slope(gaps):
        return float(np.polyfit(log_k, np.log(gaps[:, late].mean(axis=0)), 1)[0])

    gaps = trace.f_sub_avg_iterate
    s = slope(gaps)
    loo = np.array([slope(np.delete(gaps, i, axis=0)) for i in range(len(seeds))])
    se = math.sqrt((len(loo) - 1) / len(loo) * float(np.sum((loo - loo.mean()) ** 2)))
    ok = s + 3 * se <= -0.5
    _verdict(14, "decsps_ns averaged gap falls at least as 1/sqrt(k)", ok,
             f"log-log slope {s:.3f}+-{se:.3f} (jackknife), f_sub_avg "
             f"{gaps[:, late][:, 0].mean():.2e} -> {gaps[:, -1].mean():.2e}")
