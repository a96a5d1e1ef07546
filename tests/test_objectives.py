import numpy as np
import pytest

from polystep.core import finite_diff_grad, stream
from polystep.objectives import (
    LogisticObjective,
    QuadraticObjective,
    ShiftedAbsoluteObjective,
    SolverFailure,
    UnavailableExactMinimum,
    UnsoundLowerBound,
    full_grad,
    full_value,
    lower_bound,
    make_counterexample_1d,
    make_fig1_problem,
    make_random_strongly_convex,
    solve_reference,
    suboptimality,
)


def small_logistic(seed=0, n=20, d=4, lam=0.1, label_sign="standard"):
    rng = stream(seed)
    X = rng.standard_normal((n, d))
    y = rng.choice([-1.0, 1.0], size=n)
    return LogisticObjective(X, y, lam, label_sign)


class TestLogistic:
    def test_value_at_zero_is_log2(self):
        obj = small_logistic(lam=0.0)
        assert full_value(obj, np.zeros(obj.d)) == pytest.approx(np.log(2.0))

    def test_regularizer_added(self):
        obj = small_logistic(lam=0.5)
        x = np.ones(obj.d)
        base = small_logistic(lam=0.0)
        assert obj.batch_value(np.arange(obj.n), x) == pytest.approx(
            base.batch_value(np.arange(obj.n), x) + 0.25 * obj.d
        )

    def test_label_sign_flips_margin(self):
        std = small_logistic(label_sign="standard", lam=0.0)
        flip = small_logistic(label_sign="as_printed", lam=0.0)
        x = stream(9).standard_normal(std.d)
        # as_printed on x equals standard on -x
        assert flip.batch_value(np.arange(std.n), x) == pytest.approx(
            std.batch_value(np.arange(std.n), -x)
        )

    def test_batch_min_value_single_unregularized(self):
        obj = small_logistic(lam=0.0)
        assert obj.batch_min_value(np.array([3])) == 0.0

    @pytest.mark.parametrize("S,lam", [(np.array([0, 1]), 0.0), (np.array([0]), 0.1)])
    def test_batch_min_value_unavailable(self, S, lam):
        obj = small_logistic(lam=lam)
        with pytest.raises(UnavailableExactMinimum):
            obj.batch_min_value(S)

    def test_lower_bound_policies(self):
        obj = small_logistic(lam=0.0)
        S = np.array([[0, 5], [1, 2]])
        assert lower_bound(obj, "zero")(S) == 0.0
        assert lower_bound(obj, "constant", 0.25)(S) == 0.25
        np.testing.assert_array_equal(lower_bound(obj, "exact")(S[:, :1]), [0.0, 0.0])
        with pytest.raises(UnavailableExactMinimum):
            lower_bound(obj, "exact")(S)
        with pytest.raises(ValueError, match="unknown lower-bound policy"):
            lower_bound(obj, "median")

    def test_curvature_constants(self):
        obj = small_logistic(lam=0.3)
        info = obj.curvature()
        row_norms = (obj.features**2).sum(axis=1)
        assert info.L_max == pytest.approx(row_norms.max() / 4.0 + 0.3)
        assert info.mu_min == pytest.approx(0.3)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LogisticObjective(np.ones((2, 2)), np.array([0.0, 1.0]))


class TestQuadratic:
    def test_counterexample_values(self):
        obj = make_counterexample_1d()
        x = np.array([1.0 / 3.0])
        assert full_value(obj, x) == pytest.approx(2.0 / 3.0)
        assert full_value(obj, np.array([0.0])) == pytest.approx(0.75)
        x_star, f_star = obj.batch_optimum(np.arange(2))
        assert x_star[0] == pytest.approx(1.0 / 3.0)
        assert f_star == pytest.approx(2.0 / 3.0)

    def test_batch_min_value_single_is_floor(self):
        obj = make_random_strongly_convex(stream(5), 3, 6, floor_range=(0.2, 0.9))
        for i in range(obj.n):
            assert obj.batch_min_value(np.array([i])) == obj.floors[i]

    def test_batch_optimum_beats_nearby_points(self):
        obj = make_random_strongly_convex(stream(6), 4, 8)
        S = np.array([0, 2, 5])
        x_s, f_s = obj.batch_optimum(S)
        rng = stream(7)
        for _ in range(20):
            assert obj.batch_value(S, x_s + 0.1 * rng.standard_normal(4)) >= f_s

    def test_zero_lower_bound_needs_nonnegative_floors(self):
        obj = QuadraticObjective(
            np.ones((1, 1, 1)), np.zeros((1, 1)), np.array([-0.5])
        )
        with pytest.raises(UnsoundLowerBound):
            lower_bound(obj, "zero")  # certified when the map is built
        nonneg = QuadraticObjective(np.ones((2, 1, 1)), np.zeros((2, 1)), np.array([0.0, 0.5]))
        assert lower_bound(nonneg, "zero")(np.array([[0], [1]])) == 0.0
        np.testing.assert_array_equal(lower_bound(nonneg, "exact")(np.array([[1], [0]])),
                                      [0.5, 0.0])

    def test_curvature_eigs(self):
        obj = make_random_strongly_convex(stream(8), 3, 5, eig_range=(0.5, 2.0))
        info = obj.curvature()
        assert 0.5 - 1e-9 <= info.mu_min <= info.L_max <= 2.0 + 1e-9


class TestShiftedAbsolute:
    def test_values_and_subgradient(self):
        obj = ShiftedAbsoluteObjective(np.array([-1.0, 0.0, 2.0]))
        S = np.arange(3)
        assert obj.batch_value(S, np.array([0.0])) == pytest.approx(1.0)
        assert obj.batch_grad(S, np.array([3.0]))[0] == pytest.approx(1.0)
        # subgradient at a kink uses 0 for that component
        assert obj.batch_grad(np.array([1]), np.array([0.0]))[0] == 0.0

    def test_reference_is_median(self):
        obj = ShiftedAbsoluteObjective(np.array([-3.0, 0.5, 1.0, 4.0, 9.0]))
        ref = solve_reference(obj)
        assert ref.x_star[0] == pytest.approx(1.0)


class TestGradients:
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_logistic_grad_matches_fd(self, lam):
        obj = small_logistic(lam=lam)
        rng = stream(11)
        S = np.array([1, 4, 7])
        for _ in range(5):
            x = rng.standard_normal(obj.d)
            fd = finite_diff_grad(lambda z: obj.batch_value(S, z), x, 1e-6)
            np.testing.assert_allclose(obj.batch_grad(S, x), fd, rtol=1e-6, atol=1e-8)

    def test_quadratic_grad_matches_fd(self):
        obj = make_random_strongly_convex(stream(12), 4, 6)
        rng = stream(13)
        S = np.array([0, 3])
        for _ in range(5):
            x = rng.standard_normal(4)
            fd = finite_diff_grad(lambda z: obj.batch_value(S, z), x, 1e-6)
            np.testing.assert_allclose(obj.batch_grad(S, x), fd, rtol=1e-6, atol=1e-8)


class TestSolveReference:
    def test_logistic_reaches_tolerance(self):
        obj = small_logistic(lam=0.05)
        ref = solve_reference(obj, tol=1e-10)
        assert ref.grad_norm <= 1e-10
        assert np.linalg.norm(full_grad(obj, ref.x_star)) <= 1e-10

    def test_logistic_solver_failure_surfaces_grad_norm(self):
        obj = small_logistic(lam=0.05)
        with pytest.raises(SolverFailure) as exc:
            solve_reference(obj, tol=1e-14, max_iter=3)
        assert exc.value.grad_norm > 1e-14

    def test_logistic_one_gradient_per_iterate(self, monkeypatch):
        obj = small_logistic(lam=0.05)
        # reference sequence: plain gradient descent with step 1/L
        L = float(np.linalg.eigvalsh(obj.features.T @ obj.features / obj.n)[-1]) / 4.0 + obj.lam
        step = 1.0 / L
        x, iters = np.zeros(obj.d), 0
        while np.linalg.norm(full_grad(obj, x)) > 1e-10:
            x = x - step * full_grad(obj, x)
            iters += 1
        calls = []
        batch_grad = LogisticObjective.batch_grad

        def counted(self, S, z):
            calls.append(1)
            return batch_grad(self, S, z)

        monkeypatch.setattr(LogisticObjective, "batch_grad", counted)
        ref = solve_reference(obj, tol=1e-10)
        np.testing.assert_array_equal(ref.x_star, x)
        assert len(calls) == iters + 1

    def test_quadratic_direct(self):
        obj = make_random_strongly_convex(stream(14), 5, 7)
        ref = solve_reference(obj)
        np.testing.assert_allclose(full_grad(obj, ref.x_star), 0.0, atol=1e-9)


def full_batch_cases():
    rng = stream(30)
    return [
        small_logistic(seed=31, n=50, d=6, lam=1e-3),
        # a Fortran-order input is stored C-order, so its view matches the gather
        LogisticObjective(np.asfortranarray(rng.standard_normal((40, 5))),
                          rng.choice([-1.0, 1.0], size=40), 0.0),
        make_counterexample_1d(),
        make_fig1_problem(stream(32), d=6, n=15),
        make_random_strongly_convex(stream(33), 4, 9),
        ShiftedAbsoluteObjective(rng.standard_normal(11)),
    ]


class TestFullBatch:
    @pytest.mark.parametrize("obj", full_batch_cases(), ids=lambda o: o.kind)
    def test_bit_identical_to_index_gather(self, obj):
        rng = stream(34)
        S = np.arange(obj.n)
        for _ in range(5):
            x = rng.standard_normal(obj.d)
            assert full_value(obj, x) == obj.batch_value(S, x)
            np.testing.assert_array_equal(full_grad(obj, x), obj.batch_grad(S, x))


class TestSuboptimality:
    @pytest.mark.parametrize("obj", [
        make_fig1_problem(stream(40), d=20, n=100),
        make_random_strongly_convex(stream(41), 5, 12),
    ], ids=["fig1", "strongly_convex"])
    def test_quadratic_matches_full_value(self, obj):
        ref = solve_reference(obj)
        f_sub = suboptimality(obj, ref)
        tol = 1e-12 * max(1.0, abs(ref.f_star))
        rng = stream(42)
        for scale in (1e-3, 1.0, 3.0):
            for _ in range(5):
                x = ref.x_star + scale * rng.standard_normal(obj.d)
                assert abs(f_sub(x) - (full_value(obj, x) - ref.f_star)) <= tol

    def test_quadratic_exact_near_minimiser(self):
        obj = make_fig1_problem(stream(43), d=20, n=100)
        ref = solve_reference(obj)
        f_sub = suboptimality(obj, ref)
        H_bar = obj.curvatures.mean(axis=0)
        rng = stream(44)
        t = 1e-7
        for _ in range(5):
            v = rng.standard_normal(obj.d)
            got = f_sub(ref.x_star + t * v)
            want = 0.5 * t**2 * float(v @ H_bar @ v)
            assert got >= 0.0
            assert got == pytest.approx(want, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("obj", [
        make_fig1_problem(stream(47), d=7, n=20),
        make_counterexample_1d(),
        small_logistic(seed=48, n=30, d=4, lam=0.05),
        ShiftedAbsoluteObjective(np.array([-1.0, 0.2, 0.7, 2.0, 3.5])),
    ], ids=["fig1", "counterexample", "logistic", "absolute"])
    def test_rows_match_one_iterate_at_a_time(self, obj):
        ref = solve_reference(obj)
        f_sub = suboptimality(obj, ref)
        X = ref.x_star + stream(49).standard_normal((6, obj.d))
        got = f_sub(X)
        assert got.shape == (6,)
        for r, x in enumerate(X):
            assert got[r] == f_sub(x)
            if obj.kind == "quadratic":  # the centred form, one iterate at a time
                e = x - ref.x_star
                half_hessian = 0.5 * obj.curvatures.mean(axis=0)
                assert got[r] == float(e @ (half_hessian @ e + full_grad(obj, ref.x_star)))
            else:
                assert got[r] == full_value(obj, x) - ref.f_star

    @pytest.mark.parametrize("obj", [
        small_logistic(seed=45, n=30, d=4, lam=0.05),
        ShiftedAbsoluteObjective(np.array([-1.0, 0.2, 0.7, 2.0, 3.5])),
    ], ids=["logistic", "absolute"])
    def test_other_kinds_are_full_value_minus_f_star(self, obj):
        ref = solve_reference(obj)
        f_sub = suboptimality(obj, ref)
        rng = stream(46)
        for _ in range(5):
            x = rng.standard_normal(obj.d)
            assert f_sub(x) == full_value(obj, x) - ref.f_star


class TestGenerators:
    def test_fig1_interpolated_shares_offsets(self):
        obj = make_fig1_problem(stream(20), d=4, n=6, interpolated=True, f_floor=0.0)
        assert np.ptp(obj.offsets, axis=0).max() == 0.0
        # at the shared offset every component attains its floor
        x = obj.offsets[0]
        for i in range(obj.n):
            assert obj.batch_value(np.array([i]), x) == pytest.approx(0.0)

    def test_fig1_curvature_psd(self):
        obj = make_fig1_problem(stream(21), d=5, n=4, f_floor=1.0)
        eigs = np.linalg.eigvalsh(obj.curvatures)
        assert eigs.min() >= -1e-10
        assert (obj.floors == 1.0).all()

    def test_fig1_reproducible(self):
        a = make_fig1_problem(stream(22), 3, 4)
        b = make_fig1_problem(stream(22), 3, 4)
        np.testing.assert_array_equal(a.curvatures, b.curvatures)
        np.testing.assert_array_equal(a.offsets, b.offsets)
