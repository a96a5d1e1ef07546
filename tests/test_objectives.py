import re

import numpy as np
import pytest

from explicit_logistic import ExplicitLogistic
from finite_diff import finite_diff_grad
from polystep.core import ConfigurationError, stream
from polystep.objectives import (
    LogisticObjective,
    QuadraticObjective,
    ShiftedAbsoluteObjective,
    SolverFailure,
    UnavailableExactMinimum,
    UnsoundLowerBound,
    FULL_BATCH,
    _sigmoid,
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
        row_norms = (obj.rows**2).sum(axis=1)  # a sign flip keeps each row's norm
        assert info.L_max == pytest.approx(row_norms.max() / 4.0 + 0.3)
        assert info.mu_min == pytest.approx(0.3)

    def test_rejects_bad_labels(self):
        with pytest.raises(ConfigurationError, match="labels must be in"):
            LogisticObjective(np.ones((2, 2)), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
    def test_rejects_negative_or_nonfinite_lam(self, lam):
        message = f"^lam must be >= 0, got {lam}$" if lam < 0 else f"^lam must be finite, got {lam}$"
        with pytest.raises(ConfigurationError, match=message):
            LogisticObjective(np.ones((2, 2)), np.array([-1.0, 1.0]), lam=lam)

    @pytest.mark.parametrize("features,labels", [
        (np.ones(3), np.array([-1.0, 1.0, 1.0])),  # 1-d features: rows would be 3 x 3
        (np.ones((3, 2)), np.array([1.0])),  # one label would broadcast over every row
        (np.ones((3, 2)), np.ones((3, 1))),
        (np.ones((3, 2)), np.ones(4)),
        (np.ones((1, 3, 2)), np.ones(1)),
    ], ids=["1d_features", "one_label", "column_labels", "more_labels", "3d_features"])
    def test_rejects_bad_shapes(self, features, labels):
        message = (rf"^features must be \(n, d\) and labels \(n,\), got "
                   rf"{re.escape(str(features.shape))} and {re.escape(str(labels.shape))}$")
        with pytest.raises(ConfigurationError, match=message):
            LogisticObjective(features, labels)

    def test_stores_only_the_margin_rows(self):
        obj = small_logistic()
        assert not any(hasattr(obj, name) for name in ("features", "labels", "signed_labels"))
        assert obj.rows.flags.c_contiguous and obj.rows.shape == (obj.n, obj.d)

    def test_labels_from_a_list(self):
        X, y = np.arange(6.0).reshape(3, 2), [1, -1, 1]
        got, want = LogisticObjective(X, y), LogisticObjective(X, np.array(y, dtype=float))
        assert got.rows.tobytes() == want.rows.tobytes() and got != want


def signed_zero_data():
    """Features with +0 and -0 entries, an all-zero row and an all-zero
    column, and labels of both signs."""
    rng = stream(60)
    F = rng.standard_normal((37, 5))
    F[rng.random(F.shape) < 0.2] = 0.0
    F[rng.random(F.shape) < 0.2] = -0.0
    F[4] = 0.0
    F[:, 3] = -0.0
    return F, rng.choice([-1.0, 1.0], size=37)


LAYOUTS = {
    "c": lambda F: F,
    "fortran": np.asfortranarray,
    "strided": lambda F: np.repeat(np.repeat(F, 2, axis=0), 3, axis=1)[::2, ::3],
}


class TestMarginRows:
    """The kernels on the stored margin rows against the explicit-label
    forms, byte for byte: a sign flip folded into the rows changes no bit,
    of a signed zero either."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("label_sign", ["standard", "as_printed"])
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_bit_identical_to_explicit_labels(self, layout, label_sign, lam):
        F, y = signed_zero_data()
        obj = LogisticObjective(LAYOUTS[layout](F), y, lam, label_sign)
        want = ExplicitLogistic(F, y, lam, label_sign)
        rng = stream(61)
        X = rng.standard_normal((6, obj.d))
        X[0] = 0.0  # every margin a signed zero
        X[1, ::2] = -0.0
        S = np.stack([rng.choice(obj.n, size=7, replace=False) for _ in range(len(X))])
        for batch in (FULL_BATCH, np.arange(obj.n), S[2]):
            for x in X:
                assert (np.float64(obj.batch_value(batch, x)).tobytes()
                        == np.float64(want.batch_value(batch, x)).tobytes())
                assert obj.batch_grad(batch, x).tobytes() == want.batch_grad(batch, x).tobytes()
        for got, expected in zip(obj.value_and_grad(S, X), want.value_and_grad(S, X)):
            assert got.tobytes() == expected.tobytes()
        ref = solve_reference(obj, tol=1e-10)
        x_star, f_star, grad_norm = want.solve(1e-10)
        assert ref.x_star.tobytes() == x_star.tobytes()
        assert (ref.f_star, ref.grad_norm) == (f_star, grad_norm)
        Y = np.concatenate([X, ref.x_star + rng.standard_normal((13, obj.d))])  # two chunks
        assert suboptimality(obj, ref)(Y).tobytes() == want.suboptimality(Y, f_star).tobytes()


def masked_sigmoid(t):
    """The per-branch reference: each branch evaluated on its own elements."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-320, -1e-320,
             745.2, -745.2, 800.0, -800.0]

    def test_bit_identical_to_masked_on_edges(self):
        t = np.array(self.EDGES)
        with np.errstate(over="ignore", invalid="ignore"):
            want = masked_sigmoid(t)
        assert _sigmoid(t).tobytes() == want.tobytes()  # NaN sign bits included

    def test_bit_identical_to_masked_on_random(self):
        rng = stream(11)
        t = rng.standard_normal((3, 4000)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, 4000))
        assert _sigmoid(t).tobytes() == masked_sigmoid(t).tobytes()


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

    @pytest.mark.parametrize("d,n,R,B", [
        (1, 2, 5, 2), (1, 9, 4, 7), (4, 10, 3, 2),
        (20, 100, 16, 1), (20, 100, 4, 7),  # quadratic_grid's shape, and B > 1
        (100, 30, 2, 1), (100, 30, 2, 20),
    ])
    def test_value_and_grad_match_the_einsum_forms(self, d, n, R, B):
        # value_and_grad forms H_i e_i once and takes both the values and the
        # gradients from it; the gradients are the two-operand einsum's bit
        # for bit, the values the three-operand einsum's up to rounding
        obj = make_fig1_problem(stream(d), d, n)
        rng = stream(12)
        S = np.stack([rng.choice(n, size=B, replace=False) for _ in range(R)])
        X = 3.0 * rng.standard_normal((R, d))
        F, G = obj.value_and_grad(S, X)
        H, diff = obj.curvatures[S], X[:, None, :] - obj.offsets[S]
        q = np.einsum("rbij,rbi,rbj->rb", H, diff, diff)
        want = np.add.reduce(0.5 * q + obj.floors[S], axis=1) / B
        if d == 1:
            assert F.tobytes() == want.tobytes()
        np.testing.assert_allclose(F, want, rtol=0, atol=1e-14 * max(1.0, np.abs(q).max()))
        # at d = 1 einsum sums a batch of three or more members in another order
        if d > 1 or B <= 2:
            assert G.tobytes() == (np.einsum("rbij,rbj->ri", H, diff) / B).tobytes()

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


def gradient_iterates(monkeypatch):
    """Wrap LogisticObjective.batch_grad so that each call appends its
    iterate to the returned list."""
    calls = []
    batch_grad = LogisticObjective.batch_grad

    def counted(self, S, x):
        calls.append(x.copy())
        return batch_grad(self, S, x)

    monkeypatch.setattr(LogisticObjective, "batch_grad", counted)
    return calls


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

    def test_logistic_matches_gradient_descent(self):
        obj = small_logistic(lam=0.05)
        # plain gradient descent with step 1/L, L of the mean objective
        # the margin rows have the features' Gram matrix: each row's sign squares away
        L = float(np.linalg.eigvalsh(obj.rows.T @ obj.rows / obj.n)[-1]) / 4.0 + obj.lam
        x = np.zeros(obj.d)
        while np.linalg.norm(full_grad(obj, x)) > 1e-10:
            x = x - full_grad(obj, x) / L
        ref = solve_reference(obj, tol=1e-10)
        np.testing.assert_allclose(ref.x_star, x, rtol=0.0, atol=1e-7)

    def test_logistic_few_gradients(self, monkeypatch):
        calls = gradient_iterates(monkeypatch)
        ref = solve_reference(small_logistic(lam=0.05), tol=1e-10)
        assert ref.grad_norm <= 1e-10
        assert 1 <= len(calls) <= 10

    def test_logistic_steps_below_the_rounding_of_f(self):
        # near x* the decrease of a Newton step is below f's rounding, so
        # the line search cannot see it; the full step is taken there
        obj = small_logistic(lam=0.05)
        assert solve_reference(obj, tol=1e-15).grad_norm <= 1e-15

    def test_stalled_line_search_fails(self, monkeypatch):
        # f reads +inf away from x0 = 0: no step length passes the Armijo test
        batch_value = LogisticObjective.batch_value
        monkeypatch.setattr(LogisticObjective, "batch_value",
                            lambda self, S, x: np.inf if x.any() else batch_value(self, S, x))
        with pytest.raises(SolverFailure, match="line search stalled") as exc:
            solve_reference(small_logistic(lam=0.05))
        assert exc.value.grad_norm > 1e-10

    def test_separation_stops_the_first_step_that_separates(self, monkeypatch):
        # unregularized and separable: the margins of some Newton iterate are
        # all negative, and the solve stops there without another step
        rng = stream(15)
        X = rng.standard_normal((30, 3))
        y = np.where(X @ np.array([1.0, -2.0, 0.5]) > 0, 1.0, -1.0)
        obj = LogisticObjective(X, y, 0.0)
        calls = gradient_iterates(monkeypatch)
        with pytest.raises(SolverFailure, match="linearly separable"):
            solve_reference(obj)
        separates = [bool((-y * (X @ x) < 0.0).all()) for x in calls]
        assert separates[-1] and not any(separates[:-1])

    def test_singular_hessian_takes_the_minimum_norm_step(self):
        # without regularization an all-zero feature column makes the Hessian
        # exactly singular; its coordinate never moves and the rest converges
        rng = stream(16)
        X = rng.standard_normal((40, 5))
        X[:, 2] = 0.0
        obj = LogisticObjective(X, rng.choice([-1.0, 1.0], size=40), 0.0)
        ref = solve_reference(obj, tol=1e-10)
        assert ref.grad_norm <= 1e-10
        assert np.linalg.norm(full_grad(obj, ref.x_star)) <= 1e-10
        assert abs(ref.x_star[2]) <= 1e-12

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
        # enough terms for numpy's pairwise summation to split each sum
        ShiftedAbsoluteObjective(stream(50).standard_normal(1000)),
    ], ids=["fig1", "counterexample", "logistic", "absolute", "absolute_n1000"])
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
            elif obj.kind == "logistic":  # the stacked evaluator, to rounding
                tol = 1e-12 * max(1.0, abs(ref.f_star))
                assert abs(got[r] - (full_value(obj, x) - ref.f_star)) <= tol
            else:
                assert got[r] == full_value(obj, x) - ref.f_star

    @pytest.mark.parametrize("obj", [
        small_logistic(seed=45, n=30, d=4, lam=0.05),
        ShiftedAbsoluteObjective(np.array([-1.0, 0.2, 0.7, 2.0, 3.5])),
    ], ids=["logistic", "absolute"])
    def test_other_kinds_are_full_value_minus_f_star(self, obj):
        # the stacked absolute sum gives full_value's bits; the stacked
        # logistic evaluator agrees with it to the goldens' bound
        ref = solve_reference(obj)
        f_sub = suboptimality(obj, ref)
        rng = stream(46)
        for _ in range(5):
            x = rng.standard_normal(obj.d)
            want = full_value(obj, x) - ref.f_star
            if obj.kind == "logistic":
                assert abs(f_sub(x) - want) <= 1e-12 * max(1.0, abs(ref.f_star))
            else:
                assert f_sub(x) == want


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


@pytest.mark.parametrize("make", [
    small_logistic,
    lambda seed: make_fig1_problem(stream(seed), 3, 10),
    lambda seed: ShiftedAbsoluteObjective(stream(seed).standard_normal(5)),
], ids=["logistic", "quadratic", "absolute"])
def test_objectives_compare_by_identity(make):
    # a field-wise == would compare arrays: ambiguous, and unhashable
    a, b = make(0), make(1)
    assert a == a and a != b
    assert len({a, b}) == 2
