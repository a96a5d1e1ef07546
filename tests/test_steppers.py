import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystep.core import stream
from polystep.objectives import (
    ShiftedAbsoluteObjective,
    make_counterexample_1d,
    make_random_strongly_convex,
)
from polystep.runner import lockstep
from polystep.steppers import (
    STEPPERS,
    ConfigurationError,
    F_STAR_POLICIES,
    StepperConfig,
    batch_target,
    c_value,
    init_state,
    validate,
)


def step(method, cfg, k, state, obj, S, x):
    """One rule call at step k on one row: batch S at x, passed as (1, B) and
    (1, d) arrays. Returns x_next (d,), gamma as a float and the state, updated
    in place."""
    S, X = np.asarray(S)[None], np.asarray(x, dtype=np.float64)[None]
    F, G = obj.value_and_grad(S, X)
    target = batch_target(cfg, method, obj)
    m = None if target is None else target(S)
    U, gamma = STEPPERS[method](cfg, k, state, F, G, np.vecdot(G, G), m)
    return (X - U)[0], float(gamma[0]), state


def drive(obj, method, cfg, x0, K, seeds=(0, 1, 2), B=1):
    """K lockstep steps with one row per seed, every row from x0. Returns
    each row's stepsizes gamma_0, ..., gamma_{K-1} as an array."""
    X0 = np.tile(np.asarray(x0, dtype=np.float64), (len(seeds), 1))
    gammas = [gamma for _, _, gamma in lockstep(obj, method, cfg, X0, K, B, map(stream, seeds))]
    return list(np.array(gammas).T)


class TestCSchedule:
    def test_values(self):
        cfg = StepperConfig(c0=2.0, c_schedule="constant")
        assert c_value(cfg, 5) == 2.0
        cfg = StepperConfig(c0=2.0, c_schedule="sqrt")
        assert c_value(cfg, 3) == pytest.approx(4.0)
        cfg = StepperConfig(c_schedule="linear_half")
        assert c_value(cfg, 7) == pytest.approx(4.0)


class TestValidate:
    @pytest.mark.parametrize("method,kwargs", [
        ("sps_max", {"gamma_b": 0.0}),
        ("sps_max", {"c0": -1.0}),
        ("decsps", {"c0": 0.0}),
        ("decsps", {"c_schedule": "cubic"}),
        ("decsps_ns", {"gamma_ell": 0.0}),
        ("decsps_ns", {"gamma_ell": 11.0}),  # exceeds gamma_b default 10
        ("adam", {"beta2": 1.0}),
        ("amsgrad", {"eps_adam": 0.0}),
        ("adagrad_norm", {"b0": 0.0}),
        *(("decsps", {name: np.nan}) for name in ("gamma_b", "gamma_ell", "c0", "eta", "b0",
                                                  "beta2", "eps_adam", "lower_bound_value")),
        ("sps_max", {"gamma_b": np.inf}),
        ("sgd_constant", {"lower_bound_value": -np.inf}),
        *((method, {"eta": 0.0}) for method in ("sgd_constant", "sgd_decreasing",
                                                "adagrad_norm", "adam", "amsgrad")),
    ])
    def test_rejects(self, method, kwargs):
        with pytest.raises(ConfigurationError):
            validate(StepperConfig(**kwargs), method)

    def test_defaults_pass_for_all_methods(self):
        for method in STEPPERS:
            validate(StepperConfig(), method)


class TestSpsMax:
    def test_single_step_hand_value(self):
        # component 0 of the two-quadratic problem at x=0: f=1, g=-2 so
        # gamma = 1/(1*4) = 0.25 and the step lands at 0.5
        obj = make_counterexample_1d()
        cfg = StepperConfig(c_schedule="constant", c0=1.0, f_star_policy="exact")
        state = init_state(cfg, "sps_max", 1)
        x_next, gamma, _ = step("sps_max", cfg, 0, state, obj, [0], [0.0])
        assert gamma == pytest.approx(0.25)
        assert x_next[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("schedule,c3", [("constant", 2.0), ("sqrt", 4.0),
                                             ("linear_half", 2.0)])
    def test_divides_by_c_k(self, schedule, c3):
        # the same step as above at k=3 is scaled by c_3 under every
        # schedule, by c0 under the constant one
        obj = make_counterexample_1d()
        cfg = StepperConfig(c_schedule=schedule, c0=2.0, f_star_policy="exact")
        state = init_state(cfg, "sps_max", 1)
        _, gamma, _ = step("sps_max", cfg, 3, state, obj, [0], [0.0])
        assert gamma == 0.25 / c3

    def test_cap_applies(self):
        obj = make_counterexample_1d()
        cfg = StepperConfig(gamma_b=0.1, c_schedule="constant",
                            f_star_policy="exact")
        state = init_state(cfg, "sps_max", 1)
        _, gamma, _ = step("sps_max", cfg, 0, state, obj, [0], [0.0])
        assert gamma == 0.1

    def test_gamma_never_exceeds_cap(self):
        obj = make_random_strongly_convex(stream(1), 3, 10)
        cfg = StepperConfig(gamma_b=0.7, c_schedule="constant",
                            lower_bound_policy="exact")
        gammas = drive(obj, "sps_max", cfg, stream(2).standard_normal(3), 300)
        assert max(g.max() for g in gammas) <= 0.7

    def test_quadratic_polyak_step_is_half_curvature(self):
        # uncapped single-sample step on a 1-d quadratic is 1/(2a)
        obj = make_counterexample_1d()
        cfg = StepperConfig(gamma_b=100.0, c_schedule="constant",
                            f_star_policy="exact")
        state = init_state(cfg, "sps_max", 1)
        for i, a in enumerate([2.0, 1.0]):
            _, gamma, _ = step("sps_max", cfg, i, state, obj, [i], [5.0])
            assert gamma == pytest.approx(1.0 / (2.0 * a))


class TestDecSps:
    def test_first_two_steps_hand_values(self):
        obj = make_counterexample_1d()
        cfg = StepperConfig(c0=1.0, gamma_b=10.0, c_schedule="sqrt")
        state = init_state(cfg, "decsps", 1)
        x1, gamma0, state = step("decsps", cfg, 0, state, obj, [0], [0.0])
        assert gamma0 == pytest.approx(0.25)  # min(1/4, 10) / sqrt(1)
        assert x1[0] == pytest.approx(0.5)
        _, gamma1, _ = step("decsps", cfg, 1, state, obj, [0], x1)
        assert gamma1 == pytest.approx(0.25 / math.sqrt(2.0))

    def test_gamma_monotone_nonincreasing_exact(self):
        obj = make_random_strongly_convex(stream(3), 4, 12)
        cfg = StepperConfig()
        gammas = drive(obj, "decsps", cfg, stream(4).standard_normal(4), 2000, B=3)
        assert all((np.diff(g) <= 0.0).all() for g in gammas)  # exact, no tolerance

    def test_sandwich_bounds(self):
        obj = make_random_strongly_convex(stream(5), 3, 8)
        info = obj.curvature()
        cfg = StepperConfig(c0=1.5, gamma_b=4.0)
        for g in drive(obj, "decsps", cfg, stream(6).standard_normal(3), 1500):
            ck = cfg.c0 * np.sqrt(np.arange(1, len(g) + 1))
            upper = cfg.c0 * cfg.gamma_b / ck
            lower = np.minimum(1.0 / (2.0 * ck * info.L_max), upper)
            assert (lower - 1e-12 <= g).all()
            assert (g <= upper + 1e-15).all()

    def test_first_ratio_clipped_by_c0_gamma_b(self):
        obj = make_counterexample_1d()
        cfg = StepperConfig(c0=1.0, gamma_b=0.01)
        state = init_state(cfg, "decsps", 1)
        _, gamma, _ = step("decsps", cfg, 0, state, obj, [0], [0.0])
        assert gamma == pytest.approx(0.01)


def _assert_in_floor_interval(gammas, cfg):
    """c0 gamma_ell / c_k <= gamma_k <= c0 gamma_b / c_k at every step k of
    every row."""
    for g in gammas:
        ck = np.array([c_value(cfg, k) for k in range(len(g))])
        assert (cfg.c0 * cfg.gamma_ell / ck <= g).all()
        assert (g <= cfg.c0 * cfg.gamma_b / ck).all()


class TestDecSpsNs:
    def test_exact_interval(self):
        obj = ShiftedAbsoluteObjective(stream(7).standard_normal(30))
        cfg = StepperConfig(gamma_ell=0.05, gamma_b=2.0, c0=1.0)
        gammas = drive(obj, "decsps_ns", cfg, [3.0], 2000, seeds=(8, 9, 10))
        _assert_in_floor_interval(gammas, cfg)

    def test_floor_engages(self):
        # batch value ~0 near a shift: the raw ratio vanishes but gamma stays
        # at the floor c0*gamma_ell/c_k
        obj = ShiftedAbsoluteObjective(np.array([0.0, 10.0]))
        cfg = StepperConfig(gamma_ell=0.5, gamma_b=5.0, c0=1.0)
        state = init_state(cfg, "decsps_ns", 1)
        _, gamma, _ = step("decsps_ns", cfg, 0, state, obj, [0], [1e-12])
        assert gamma == pytest.approx(0.5)


@pytest.mark.filterwarnings("error")
class TestZeroGradient:
    """At a zero batch gradient the Polyak ratio takes its limit +inf,
    without a division warning: the rule's cap sets gamma and x stays put.
    Each batch here is one component at its minimiser (or kink), where the
    numerator is 0 too."""

    def test_sps_max_takes_gamma_b(self):
        obj = make_counterexample_1d()  # component 0 is minimised at x = 1
        for policy in F_STAR_POLICIES:
            cfg = StepperConfig(gamma_b=3.0, f_star_policy=policy)
            state = init_state(cfg, "sps_max", 1)
            x_next, gamma, state = step("sps_max", cfg, 5, state, obj, [0], [1.0])
            assert (x_next.tolist(), gamma) == ([1.0], 3.0)

    def test_decsps_carries_the_clip(self):
        obj = make_counterexample_1d()
        cfg = StepperConfig(c0=2.0)
        state = replace(init_state(cfg, "decsps", 1), scaled_prev=np.array([0.3]))
        x_next, gamma, state = step("decsps", cfg, 3, state, obj, [1], [-1.0])
        assert x_next.tolist() == [-1.0]
        assert gamma == 0.3 / c_value(cfg, 3) == 0.3 / 4.0
        assert state.scaled_prev.tolist() == [0.3]

    def test_decsps_ns_carries_the_clip_over_the_floor(self):
        obj = ShiftedAbsoluteObjective(np.array([1.0, 1.0]))  # common kink at 1
        cfg = StepperConfig(gamma_ell=0.5, gamma_b=5.0)
        state = init_state(cfg, "decsps_ns", 1)
        x_next, gamma, state = step("decsps_ns", cfg, 0, state, obj, [0], [1.0])
        assert (x_next.tolist(), gamma) == ([1.0], 5.0)  # c0 gamma_b / c_0
        assert state.scaled_prev.tolist() == [5.0]


class TestSgdAndAdaptive:
    def setup_method(self):
        self.obj = make_random_strongly_convex(stream(9), 3, 6)
        self.x = stream(10).standard_normal(3)

    def test_sgd_constant(self):
        cfg = StepperConfig(eta=0.3)
        state = init_state(cfg, "sgd_constant", 3)
        x_next, _, _ = step("sgd_constant", cfg, 0, state, self.obj, [0], self.x)
        g = self.obj.batch_grad(np.array([0]), self.x)
        np.testing.assert_allclose(x_next, self.x - 0.3 * g)

    def test_sgd_decreasing_schedule(self):
        cfg = StepperConfig(eta=1.0)
        gammas = drive(self.obj, "sgd_decreasing", cfg, self.x, 9)
        expected = [1.0 / math.sqrt(k + 1) for k in range(9)]
        for g in gammas:
            np.testing.assert_allclose(g, expected)

    def test_adagrad_norm_accumulates(self):
        cfg = StepperConfig(eta=1.0, b0=0.1)
        state = init_state(cfg, "adagrad_norm", 3)
        S = np.array([1])
        g = self.obj.batch_grad(S, self.x)
        g2 = float(np.dot(g, g))
        _, gamma, state = step("adagrad_norm", cfg, 0, state, self.obj, S, self.x)
        assert gamma == pytest.approx(1.0 / math.sqrt(0.01 + g2))
        assert state.accum[0] == pytest.approx(0.01 + g2)

    def test_adagrad_gamma_nonincreasing(self):
        cfg = StepperConfig(eta=0.5)
        gammas = drive(self.obj, "adagrad_norm", cfg, self.x, 400)
        assert all((np.diff(g) <= 0).all() for g in gammas)

    def test_adam_first_step_normalizes(self):
        cfg = StepperConfig(eta=0.1, beta2=0.99, eps_adam=1e-8)
        state = init_state(cfg, "adam", 3)
        S = np.array([2])
        g = self.obj.batch_grad(S, self.x)
        x_next, _, _ = step("adam", cfg, 0, state, self.obj, S, self.x)
        # bias-corrected vhat equals g^2 on the first step
        np.testing.assert_allclose(x_next, self.x - 0.1 * g / (np.abs(g) + 1e-8))

    def test_amsgrad_vhat_monotone(self, monkeypatch):
        # the engine looks its rules up when a pass starts, so a wrapper
        # swapped into STEPPERS sees the state after every rule call
        rule, vhats = STEPPERS["amsgrad"], []

        def recording(cfg, k, state, *args):
            out = rule(cfg, k, state, *args)
            vhats.append(state.vhat.copy())
            return out

        monkeypatch.setitem(STEPPERS, "amsgrad", recording)
        drive(self.obj, "amsgrad", StepperConfig(eta=0.1), self.x, 50, seeds=(11, 12, 13), B=2)
        assert len(vhats) == 50
        assert (np.diff(np.array(vhats), axis=0) >= 0).all()
        assert (vhats[0] >= 0).all()


@settings(max_examples=30, deadline=None)
@given(
    c0=st.floats(0.25, 4.0),
    gamma_b=st.floats(0.5, 20.0),
    seed=st.integers(0, 100),
)
def test_decsps_monotone_property(c0, gamma_b, seed):
    obj = make_counterexample_1d()
    cfg = StepperConfig(c0=c0, gamma_b=gamma_b)
    for g in drive(obj, "decsps", cfg, [2.0], 200, seeds=(seed, seed + 101, seed + 202)):
        assert (np.diff(g) <= 0.0).all()
        # gamma_0 <= c0 gamma_b / c_0 with c_0 = c0 for the sqrt schedule
        assert g[0] <= gamma_b


@settings(max_examples=30, deadline=None)
@given(
    gamma_ell=st.floats(0.01, 0.5),
    gamma_b=st.floats(0.5, 5.0),
    seed=st.integers(0, 100),
)
def test_decsps_ns_interval_property(gamma_ell, gamma_b, seed):
    obj = ShiftedAbsoluteObjective(stream(seed).standard_normal(10))
    cfg = StepperConfig(gamma_ell=gamma_ell, gamma_b=gamma_b, c0=1.0)
    gammas = drive(obj, "decsps_ns", cfg, [1.5], 100, seeds=(seed + 1, seed + 102, seed + 203))
    _assert_in_floor_interval(gammas, cfg)
