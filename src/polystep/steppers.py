"""Per-iteration stepsize rules.

Each rule is a pure function ``(cfg, state, obj, S, x) -> StepResult``; the
returned state replaces the old one. Rules never divide by a zero gradient
norm: they raise ``ZeroGradient`` and the caller resamples the batch.

Implemented rules:

* ``sps_max``      gamma = min{(f_S(x) - m_S) / (c ||g||^2), gamma_b}, where
                   m_S is the exact batch minimum or a lower bound on it
* ``decsps``       gamma_k = (1/c_k) min{(f_S(x) - l_S) / ||g||^2, c_{k-1} gamma_{k-1}}
* ``decsps_ns``    subgradient variant with floor:
                   gamma_k = (1/c_k) min{max{c0 gamma_ell, ratio}, c_{k-1} gamma_{k-1}}
* ``sgd_constant`` gamma = eta
* ``sgd_decreasing`` gamma = eta / sqrt(k+1)
* ``adagrad_norm`` b_{k+1}^2 = b_k^2 + ||g||^2, gamma = eta / b_{k+1}
* ``adam``         second-moment EMA with bias correction, fixed eta, no momentum
* ``amsgrad``      running-max second moment, eta / sqrt(k+1), no momentum

For ``decsps``/``decsps_ns`` the clip value c_{k-1} gamma_{k-1} is carried in
the state as a single number (``scaled_prev``) instead of being recomputed as
a product, so the sandwich bounds of both rules hold exactly in floating
point, not just up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .core import MiniBatch, Vector, norm_sq


class ZeroGradient(Exception):
    """Batch gradient is exactly zero: resample instead of stepping."""


class ConfigurationError(ValueError):
    """Invalid or inconsistent stepper configuration."""


C_SCHEDULES = ("constant", "sqrt", "linear_half")


@dataclass(frozen=True)
class StepperConfig:
    gamma_b: float = 10.0
    gamma_ell: float = 0.01  # decsps_ns stepsize floor
    c0: float = 1.0
    c_schedule: str = "sqrt"  # constant | sqrt | linear_half
    c_sps: float = 1.0  # the constant c of sps_max
    eta: float = 1.0  # sgd / adagrad / adam scale
    b0: float = 0.1  # adagrad_norm initial accumulator
    beta2: float = 0.99
    eps_adam: float = 1e-8
    f_star_policy: str = "lower_bound"  # sps_max: exact | lower_bound
    lower_bound_policy: str = "zero"  # zero | exact | constant
    lower_bound_value: float = 0.0


@dataclass(frozen=True)
class StepperState:
    k: int = 0
    gamma_prev: float = 0.0
    scaled_prev: float = 0.0  # c_{k-1} * gamma_{k-1}, carried exactly
    accum: float = 0.0  # adagrad_norm b_k^2
    v: np.ndarray | None = field(default=None, repr=False)
    vhat: np.ndarray | None = field(default=None, repr=False)
    # Init-only and discarded: scaled_prev carries c_{k-1} gamma_{k-1}.
    # benchmarks/roadmap_check.py still passes c_prev when it times replace().
    c_prev: InitVar[float] = 0.0


@dataclass(frozen=True)
class StepResult:
    x_next: Vector
    gamma: float
    state: StepperState


def c_value(cfg: StepperConfig, k: int) -> float:
    """Scaling sequence c_k."""
    if cfg.c_schedule == "constant":
        return cfg.c0
    if cfg.c_schedule == "sqrt":
        return cfg.c0 * math.sqrt(k + 1)
    if cfg.c_schedule == "linear_half":
        return (k + 1) / 2.0
    raise ConfigurationError(f"unknown c_schedule {cfg.c_schedule!r}")


def _sps_scale(cfg: StepperConfig, k: int) -> float:
    # sps_max with a constant schedule uses the plain constant c; a growing
    # schedule turns it into the scaled-down variant of the bias analysis.
    if cfg.c_schedule == "constant":
        return cfg.c_sps
    return c_value(cfg, k)


def validate(cfg: StepperConfig, method: str) -> None:
    if cfg.gamma_b <= 0:
        raise ConfigurationError("gamma_b must be positive")
    if cfg.c_schedule not in C_SCHEDULES:
        raise ConfigurationError(f"unknown c_schedule {cfg.c_schedule!r}")
    if method in ("decsps", "decsps_ns") and cfg.c0 <= 0:
        raise ConfigurationError("c0 must be positive")
    if method == "decsps_ns":
        if cfg.gamma_ell <= 0:
            raise ConfigurationError("gamma_ell must be positive")
        if cfg.gamma_ell > cfg.gamma_b:
            raise ConfigurationError("gamma_ell must not exceed gamma_b")
    if method == "sps_max" and cfg.c_sps <= 0:
        raise ConfigurationError("c_sps must be positive")
    if method in ("adam", "amsgrad") and not 0 < cfg.beta2 < 1:
        raise ConfigurationError("beta2 must be in (0, 1)")
    if method in ("adam", "amsgrad") and cfg.eps_adam <= 0:
        raise ConfigurationError("eps_adam must be positive")
    if method == "adagrad_norm" and cfg.b0 <= 0:
        raise ConfigurationError("b0 must be positive")


def init_state(cfg: StepperConfig, method: str, d: int) -> StepperState:
    validate(cfg, method)
    state = StepperState(
        k=0,
        gamma_prev=cfg.gamma_b,
        scaled_prev=cfg.c0 * cfg.gamma_b,
        accum=cfg.b0**2,
    )
    if method in ("adam", "amsgrad"):
        state = replace(state, v=np.zeros(d), vhat=np.zeros(d))
    return state


def _batch_target(cfg: StepperConfig, obj, S: MiniBatch) -> float:
    """The value m_S subtracted in the sps_max numerator."""
    if cfg.f_star_policy == "exact":
        return obj.batch_min_value(S)
    if cfg.f_star_policy == "lower_bound":
        return obj.lower_bound(S, cfg.lower_bound_policy, cfg.lower_bound_value)
    raise ConfigurationError(f"unknown f_star_policy {cfg.f_star_policy!r}")


def sps_max_step(cfg, state, obj, S, x) -> StepResult:
    g = obj.batch_grad(S, x)
    g2 = norm_sq(g)
    if g2 == 0.0:
        raise ZeroGradient
    m = _batch_target(cfg, obj, S)
    c = _sps_scale(cfg, state.k)
    gamma = min((obj.batch_value(S, x) - m) / (c * g2), cfg.gamma_b)
    return StepResult(x - gamma * g, gamma, replace(state, k=state.k + 1, gamma_prev=gamma))


def decsps_step(cfg, state, obj, S, x) -> StepResult:
    g = obj.batch_grad(S, x)
    g2 = norm_sq(g)
    if g2 == 0.0:
        raise ZeroGradient
    ell = obj.lower_bound(S, cfg.lower_bound_policy, cfg.lower_bound_value)
    ratio = (obj.batch_value(S, x) - ell) / g2
    ck = c_value(cfg, state.k)
    scaled = min(ratio, state.scaled_prev)
    gamma = scaled / ck
    next_state = replace(state, k=state.k + 1, gamma_prev=gamma, scaled_prev=scaled)
    return StepResult(x - gamma * g, gamma, next_state)


def decsps_ns_step(cfg, state, obj, S, x) -> StepResult:
    g = obj.batch_grad(S, x)
    g2 = norm_sq(g)
    if g2 == 0.0:
        raise ZeroGradient
    ell = obj.lower_bound(S, cfg.lower_bound_policy, cfg.lower_bound_value)
    ratio = (obj.batch_value(S, x) - ell) / g2
    ck = c_value(cfg, state.k)
    scaled = min(max(cfg.c0 * cfg.gamma_ell, ratio), state.scaled_prev)
    gamma = scaled / ck
    next_state = replace(state, k=state.k + 1, gamma_prev=gamma, scaled_prev=scaled)
    return StepResult(x - gamma * g, gamma, next_state)


def sgd_constant_step(cfg, state, obj, S, x) -> StepResult:
    g = obj.batch_grad(S, x)
    gamma = cfg.eta
    return StepResult(x - gamma * g, gamma, replace(state, k=state.k + 1, gamma_prev=gamma))


def sgd_decreasing_step(cfg, state, obj, S, x) -> StepResult:
    g = obj.batch_grad(S, x)
    gamma = cfg.eta / math.sqrt(state.k + 1)
    return StepResult(x - gamma * g, gamma, replace(state, k=state.k + 1, gamma_prev=gamma))


def adagrad_norm_step(cfg, state, obj, S, x) -> StepResult:
    g = obj.batch_grad(S, x)
    b2 = state.accum + norm_sq(g)
    gamma = cfg.eta / math.sqrt(b2)
    next_state = replace(state, k=state.k + 1, gamma_prev=gamma, accum=b2)
    return StepResult(x - gamma * g, gamma, next_state)


def adam_step(cfg, state, obj, S, x) -> StepResult:
    g = obj.batch_grad(S, x)
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    vhat = v / (1.0 - cfg.beta2 ** (state.k + 1))
    denom = np.sqrt(vhat) + cfg.eps_adam
    x_next = x - cfg.eta * g / denom
    gamma = float(np.mean(cfg.eta / denom))  # mean per-coordinate stepsize
    next_state = replace(state, k=state.k + 1, gamma_prev=gamma, v=v)
    return StepResult(x_next, gamma, next_state)


def amsgrad_step(cfg, state, obj, S, x) -> StepResult:
    g = obj.batch_grad(S, x)
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    vhat = np.maximum(state.vhat, v)
    denom = np.sqrt(vhat) + cfg.eps_adam
    eta_k = cfg.eta / math.sqrt(state.k + 1)
    x_next = x - eta_k * g / denom
    gamma = float(np.mean(eta_k / denom))
    next_state = replace(state, k=state.k + 1, gamma_prev=gamma, v=v, vhat=vhat)
    return StepResult(x_next, gamma, next_state)


STEPPERS = {
    "sps_max": sps_max_step,
    "decsps": decsps_step,
    "decsps_ns": decsps_ns_step,
    "sgd_constant": sgd_constant_step,
    "sgd_decreasing": sgd_decreasing_step,
    "adagrad_norm": adagrad_norm_step,
    "adam": adam_step,
    "amsgrad": amsgrad_step,
}
