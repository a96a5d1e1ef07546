import math

import numpy as np
import pytest

from polystep.core import stream
from polystep.objectives import (
    make_counterexample_1d,
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
    sps_bias_variance,
    variation_of_constants,
)
from polystep.runner import lockstep
from polystep.steppers import StepperConfig


class TestVariationOfConstants:
    def test_scalar_matches_recursion(self):
        rng = stream(0)
        A = rng.standard_normal(30).tolist()
        eps = rng.standard_normal(30).tolist()
        z = 0.7
        for k in range(30):
            closed = variation_of_constants(A, eps, 0.7, k)
            assert closed == pytest.approx(z, rel=1e-12, abs=1e-12)
            z = A[k] * z + eps[k]

    def test_matrix_matches_recursion(self):
        rng = stream(1)
        A = [rng.standard_normal((3, 3)) for _ in range(15)]
        eps = [rng.standard_normal(3) for _ in range(15)]
        z0 = rng.standard_normal(3)
        z = z0.copy()
        for k in range(15):
            closed = variation_of_constants(A, eps, z0, k)
            np.testing.assert_allclose(closed, z, rtol=1e-10, atol=1e-10)
            z = A[k] @ z + eps[k]

    def test_homogeneous_case(self):
        # eps = 0 collapses to the plain product
        assert variation_of_constants([2.0, 3.0], [0.0, 0.0], 1.5, 2) == pytest.approx(9.0)

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            variation_of_constants([1.0], [1.0], 0.0, 2)

    def test_mean_dynamics_vanish_for_linear_half_schedule(self):
        # A_k = 1 - 1/(2 c_k) with c_k = (k+1)/2 gives A_0 = 0: the mean
        # iterate is erased after one step regardless of the start
        A = [1.0 - 1.0 / (k + 1) for k in range(20)]
        eps = [0.0] * 20
        assert variation_of_constants(A, eps, 123.0, 20) == 0.0


class TestBiasFormulas:
    def test_variance_decay(self):
        assert sps_bias_variance(0, 1.0) == 1.0
        assert sps_bias_variance(9, 1.0) == pytest.approx(0.1)
        assert sps_bias_variance(9, 2.5) == pytest.approx(0.25)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sps_bias_variance(-1, 1.0)
        with pytest.raises(ValueError):
            sps_bias_variance(3, -1.0)

    def test_fixed_point_is_offset_mean(self):
        obj = make_counterexample_1d()
        assert bias_fixed_point(obj) == 0.0  # != x* = 1/3

    def test_fixed_point_needs_1d_quadratic(self):
        obj = make_random_strongly_convex(stream(2), 2, 3)
        with pytest.raises(ValueError):
            bias_fixed_point(obj)


class TestBoundedRecursion:
    def test_scalar_never_violated(self):
        max_obs, bound = bounded_recursion_check(2.0, 0.5, 3.0, 5000)
        assert max_obs <= bound == 6.0

    def test_large_start_dominates(self):
        max_obs, bound = bounded_recursion_check(50.0, 1.0, 1.0, 1000)
        assert bound == 50.0
        assert max_obs <= 50.0

    def test_rejects_bad_ranges(self):
        for z0, a, b in [(0.0, 0.5, 1.0), (1.0, 0.0, 1.0), (1.0, 1.5, 1.0), (1.0, 0.5, 0.0)]:
            with pytest.raises(ValueError):
                bounded_recursion_check(z0, a, b, 10)

    def test_array_form(self):
        rng = stream(3)
        z0 = rng.uniform(0.1, 5.0, 200)
        a = rng.uniform(0.05, 1.0, 200)
        b = rng.uniform(0.1, 3.0, 200)
        max_obs, bound = bounded_recursion_check(z0, a, b, 3000)
        # few-ulp envelope: the sup can be approached below fp resolution
        assert (max_obs <= bound * (1.0 + 1e-12)).all()


class TestDMaxBound:
    def test_counterexample_hand_value(self):
        obj = make_counterexample_1d()
        info = obj.curvature()
        x_star = np.array([1.0 / 3.0])
        # mu=1, L=2: denom = min(1/4, 10) = 1/4; 2*1*10*(8/9)/(1/4) = 640/9
        bound = d_max_bound(info, np.zeros(1), x_star, 10.0, 1.0, 8.0 / 9.0)
        assert bound == pytest.approx(640.0 / 9.0)

    def test_initial_distance_dominates(self):
        obj = make_counterexample_1d()
        info = obj.curvature()
        x0 = np.array([1000.0])
        bound = d_max_bound(info, x0, np.array([1.0 / 3.0]), 10.0, 1.0, 8.0 / 9.0)
        assert bound == pytest.approx(float((x0[0] - 1.0 / 3.0) ** 2))

    def test_requires_strong_convexity(self):
        from polystep.objectives import CurvatureInfo

        with pytest.raises(ValueError):
            d_max_bound(CurvatureInfo(2.0, 0.0), np.zeros(1), np.zeros(1), 1.0, 1.0, 1.0)


class TestSigma2:
    def test_counterexample_single_sample(self):
        obj = make_counterexample_1d()
        x_star = solve_reference(obj).x_star
        stats = estimate_sigma2(obj, x_star, 1, policy="zero")
        assert stats.sigma2_B == pytest.approx(2.0 / 3.0)
        assert stats.sigma2_hat_B == pytest.approx(2.0 / 3.0)  # floors are 0
        assert stats.sigma2_hat_B_max == pytest.approx(8.0 / 9.0)  # f2(1/3)
        assert not stats.sampled

    def test_full_batch_interpolates(self):
        obj = make_counterexample_1d()
        x_star = solve_reference(obj).x_star
        stats = estimate_sigma2(obj, x_star, 2, policy="zero")
        assert stats.sigma2_B == pytest.approx(0.0, abs=1e-12)
        assert stats.sigma2_hat_B == pytest.approx(2.0 / 3.0)

    def test_monte_carlo_close_to_enumeration(self):
        obj = make_random_strongly_convex(stream(4), 2, 12)
        x_star = solve_reference(obj).x_star
        exact = estimate_sigma2(obj, x_star, 2, policy="constant")
        mc = estimate_sigma2(
            obj, x_star, 2, policy="constant", mode="monte_carlo",
            n_samples=20_000, rng=stream(5),
        )
        assert mc.sampled
        assert mc.sigma2_hat_B == pytest.approx(exact.sigma2_hat_B, rel=0.05)
        assert mc.sigma2_hat_B_max <= exact.sigma2_hat_B_max + 1e-12

    def test_logistic_batches_report_none(self):
        rng = stream(6)
        from polystep.objectives import LogisticObjective

        # small ridge term keeps the minimizer finite even if separable
        obj = LogisticObjective(rng.standard_normal((8, 2)),
                                rng.choice([-1.0, 1.0], 8), lam=0.05)
        x_star = solve_reference(obj, tol=1e-8).x_star
        stats = estimate_sigma2(obj, x_star, 2, policy="zero")
        assert stats.sigma2_B is None
        assert stats.sigma2_hat_B >= 0.0

    @pytest.mark.parametrize("mode", ["exact_enumeration", "monte_carlo"])
    @pytest.mark.parametrize("B", [0, 3])
    def test_batch_size_outside_1_to_n_rejected(self, mode, B):
        # refused before any batch is built: B=3 would divide by C(2, 3) = 0
        # batches, and B=0 would index with an empty batch
        want = rf"^estimate_sigma2: need 1 <= B <= n, got B={B}, n=2$"
        with pytest.raises(ValueError, match=want):
            estimate_sigma2(make_counterexample_1d(), np.zeros(1), B, mode=mode, rng=stream(0))

    def test_enumeration_cap(self):
        obj = make_random_strongly_convex(stream(7), 2, 30)
        with pytest.raises(ValueError):
            estimate_sigma2(obj, np.zeros(2), 15, policy="constant", enum_cap=100)


class TestGammaMoment:
    def test_closed_form_values(self):
        assert gamma_moment_identity(5, 1.0) == pytest.approx(2.0 / 6.0)
        assert gamma_moment_identity(50, 2.0) == pytest.approx(3.0 / 101.0)

    def test_monte_carlo_and_rate_invariance(self):
        rng = stream(8)
        for n, shape in [(5, 1.0), (10, 2.0)]:
            for rate in (1.0, 3.0):
                a = rng.gamma(shape, 1.0 / rate, size=(100_000, n))
                mc = float(np.mean((a**2).sum(1) / a.sum(1) ** 2))
                assert mc == pytest.approx(gamma_moment_identity(n, shape), rel=0.02)


class TestSimulator:
    def test_exact_variance_law(self):
        obj = make_counterexample_1d()
        sim = simulate_polyak_1d(obj, "sps", steps=100, n_runs=100_000,
                                 rng=stream(9), record_at=(10, 100))
        for k in (10, 100):
            m2 = float(np.mean(sim["recorded"][k] ** 2))
            assert m2 == pytest.approx(sps_bias_variance(k - 1, 1.0), rel=0.03)

    def test_decsps_converges_to_true_optimum(self):
        obj = make_counterexample_1d()
        sim = simulate_polyak_1d(obj, "decsps", steps=3000, n_runs=20_000,
                                 rng=stream(10), c_schedule="sqrt")
        assert float(np.mean(sim["x"])) == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_matches_real_stepper_statistics(self):
        # the vectorized simulator and the per-step rule must agree in law.
        # With constant c = 1 each update is the exact half-Polyak step
        # x <- (x + o_i)/2, whose stationary law has mean 0 and second
        # moment sum 4^-j = 1/3; both routes are checked against it.
        obj = make_counterexample_1d()
        steps, n_seeds = 300, 400
        cfg = StepperConfig(c_schedule="constant",
                            f_star_policy="exact")
        # all seeds in lockstep; finals[r] is seed r's last pre-step iterate
        rngs = [stream(seed, run_index=1) for seed in range(n_seeds)]
        X0 = np.array([rng.standard_normal(1) for rng in rngs])
        for _, X, _ in lockstep(obj, "sps_max", cfg, X0, steps, 1, rngs):
            pass
        finals = X[:, 0]
        sim = simulate_polyak_1d(obj, "sps", steps=steps, n_runs=200_000,
                                 rng=stream(11), c_schedule="constant", c0=1.0)
        m2_stepper = float(np.mean(np.square(finals)))
        m2_sim = float(np.mean(sim["x"] ** 2))
        assert m2_sim == pytest.approx(1.0 / 3.0, rel=0.02)
        assert m2_stepper == pytest.approx(1.0 / 3.0, rel=0.15)
        assert float(np.mean(finals)) == pytest.approx(0.0, abs=0.05)

    def test_rejects_multidim(self):
        obj = make_random_strongly_convex(stream(12), 2, 3)
        with pytest.raises(ValueError):
            simulate_polyak_1d(obj, "sps", 10, 10, stream(13))
