"""Per-iteration stepsize rules.

Every rule is written once over R rows that advance together: batch values
F (R,), gradients G (R, d), squared gradient norms g2 (R,), and a state whose
scalars are (R,) arrays. A rule ``STEPPERS[method](cfg, k, state, F, G, g2,
m) -> (U, gamma)`` gets the step index k from the engine and m, the Polyak
target of each row's batch, from ``batch_target``. It updates in place only
what its recursion carries and returns two fresh arrays: the update U (R, d),
which the caller subtracts from the iterates, and the stepsizes gamma (R,).
Where a row's gradient is zero, its Polyak ratio takes its limit +inf, so the
cap binds and U is zero (as in ``oracles.simulate_polyak_1d``).

Implemented rules:

* ``sps_max``      gamma_k = min{(f_S(x) - m_S) / (c_k ||g||^2), gamma_b}, where
                   m_S is the exact batch minimum or a lower bound on it
* ``decsps``       gamma_k = (1/c_k) min{(f_S(x) - l_S) / ||g||^2, c_{k-1} gamma_{k-1}}
* ``decsps_ns``    subgradient variant with floor:
                   gamma_k = (1/c_k) min{max{c0 gamma_ell, ratio}, c_{k-1} gamma_{k-1}}
* ``sgd_constant`` gamma = eta
* ``sgd_decreasing`` gamma = eta / sqrt(k+1)
* ``adagrad_norm`` b_{k+1}^2 = b_k^2 + ||g||^2, gamma = eta / b_{k+1}
* ``adam``         second-moment EMA with bias correction, fixed eta, no momentum
* ``amsgrad``      running-max second moment, eta / sqrt(k+1), no momentum

The three Polyak rules share c_k (``c_value``): under the constant schedule
c_k = c0, so ``sps_max`` is then SPS_max with c = c0.

Each rule's conditions on its settings are declared on the ``StepperConfig``
fields: ``read_by`` names the rules that read a field, and ``validate`` checks
a field's ``bound`` only for them, then gamma_ell <= gamma_b for ``decsps_ns``
and a positive, finite b0^2 for ``adagrad_norm``.

For ``decsps``/``decsps_ns`` the clip value c_{k-1} gamma_{k-1} is carried in
the state as a single number per row (``scaled_prev``) instead of being
recomputed as a product, and min/max act elementwise, so the sandwich bounds
of both rules hold exactly in floating point, not just up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import partial

import numpy as np

from .core import ConfigurationError, check_fields
from .objectives import lower_bound


C_SCHEDULES = ("constant", "sqrt", "linear_half")
F_STAR_POLICIES = ("exact", "lower_bound")
LOWER_BOUND_POLICIES = ("zero", "exact", "constant")
POLYAK = ("sps_max", "decsps", "decsps_ns")
DIAGONAL = ("adam", "amsgrad")
SCALED_BY_ETA = ("sgd_constant", "sgd_decreasing", "adagrad_norm", *DIAGONAL)


@dataclass(frozen=True)
class StepperConfig:
    gamma_b: float = field(default=10.0, metadata={"bound": "positive", "read_by": POLYAK})
    gamma_ell: float = field(  # decsps_ns stepsize floor
        default=0.01, metadata={"bound": "positive", "read_by": ("decsps_ns",)})
    c0: float = field(default=1.0, metadata={"bound": "positive", "read_by": POLYAK})
    c_schedule: str = field(default="sqrt", metadata={"choices": C_SCHEDULES, "read_by": POLYAK})
    eta: float = field(default=1.0, metadata={"bound": "positive", "read_by": SCALED_BY_ETA})
    b0: float = field(  # adagrad_norm initial accumulator
        default=0.1, metadata={"bound": "positive", "read_by": ("adagrad_norm",)})
    beta2: float = field(default=0.99, metadata={"bound": "in (0, 1)", "read_by": DIAGONAL})
    eps_adam: float = field(default=1e-8, metadata={"bound": "positive", "read_by": DIAGONAL})
    # "exact" is lower_bound_policy="exact". No flag: kept for the
    # quadratic_grid sps_max row of benchmarks/workloads.py (ROADMAP item 1).
    f_star_policy: str = field(default="lower_bound", metadata={
        "choices": F_STAR_POLICIES, "read_by": ("sps_max",)})
    lower_bound_policy: str = field(default="zero", metadata={
        "choices": LOWER_BOUND_POLICIES, "read_by": POLYAK})
    lower_bound_value: float = field(default=0.0, metadata={"read_by": POLYAK})


@dataclass
class StepperState:
    """What each rule's recursion carries from one step to the next, per row:
    the scalars are (R,) arrays and ``v``/``vhat`` are (R, d). The rules update
    it in place; the step index is not kept here but passed to every call."""

    scaled_prev: np.ndarray | float = 0.0  # c_{k-1} * gamma_{k-1}, carried exactly
    accum: np.ndarray | float = 0.0  # adagrad_norm b_k^2
    v: np.ndarray | None = field(default=None, repr=False)
    vhat: np.ndarray | None = field(default=None, repr=False)
    # Init-only and discarded: k is passed to each call, no rule reads the last
    # gamma and scaled_prev carries c_{k-1} gamma_{k-1}. benchmarks/roadmap_check.py
    # passes all three when it times replace().
    k: InitVar[int] = 0
    gamma_prev: InitVar[float] = 0.0
    c_prev: InitVar[float] = 0.0


def c_value(cfg: StepperConfig, k: int) -> float:
    """Scaling sequence c_k."""
    if cfg.c_schedule == "constant":
        return cfg.c0
    if cfg.c_schedule == "sqrt":
        return cfg.c0 * math.sqrt(k + 1)
    if cfg.c_schedule == "linear_half":
        return (k + 1) / 2.0
    raise ConfigurationError(f"unknown c_schedule {cfg.c_schedule!r}")


def validate(cfg: StepperConfig, method: str) -> None:
    """Check ``cfg`` as declared, for the fields ``method`` reads, then across fields."""
    if method not in STEPPERS:
        raise ConfigurationError(f"unknown optimizer {method!r}")
    check_fields(cfg, method)
    if method == "decsps_ns" and cfg.gamma_ell > cfg.gamma_b:
        raise ConfigurationError("gamma_ell must not exceed gamma_b")
    if method == "adagrad_norm" and not 0 < cfg.b0 * cfg.b0 < math.inf:
        raise ConfigurationError(f"b0 squared must be positive and finite, got b0={cfg.b0}")


def init_state(cfg: StepperConfig, method: str, d: int, rows: int = 1) -> StepperState:
    validate(cfg, method)
    state = StepperState(
        scaled_prev=np.full(rows, cfg.c0 * cfg.gamma_b),
        accum=np.full(rows, cfg.b0 * cfg.b0),
    )
    if method in DIAGONAL:
        state.v, state.vhat = np.zeros((rows, d)), np.zeros((rows, d))
    return state


def batch_target(cfg: StepperConfig, method: str, obj):
    """The ``objectives.lower_bound`` map from index blocks S (R, B) to the
    values m_S that a Polyak rule subtracts in its numerator, or None for the
    other rules. ``sps_max`` with the exact f* policy uses each row's batch
    minimum; every other Polyak target follows ``lower_bound_policy``.
    """
    if method not in POLYAK:
        return None
    policy = "exact" if method == "sps_max" and cfg.f_star_policy == "exact" \
        else cfg.lower_bound_policy
    return lower_bound(obj, policy, cfg.lower_bound_value)


def _smaller(a, b):
    """Python's min(a, b) elementwise: b where b < a, else a."""
    return np.where(b < a, b, a)


def _larger(a, b):
    """Python's max(a, b) elementwise: b where b > a, else a."""
    return np.where(b > a, b, a)


def _ratio(num, den):
    """num / den per row, and +inf where den is zero: the limit of a Polyak
    ratio as the gradient norm goes to zero, which the rule's cap then clips."""
    if np.count_nonzero(den) == len(den):
        return num / den
    return np.divide(num, den, out=np.full(len(den), np.inf), where=den != 0)


def _descend(G, gamma):
    """The update gamma g per row, and gamma."""
    return gamma[:, None] * G, gamma


def _sps_max(cfg, k, state, F, G, g2, m):
    return _descend(G, _smaller(_ratio(F - m, c_value(cfg, k) * g2), cfg.gamma_b))


def _decsps(cfg, k, state, F, G, g2, m, floored=False):
    ratio = _ratio(F - m, g2)
    if floored:
        ratio = _larger(cfg.c0 * cfg.gamma_ell, ratio)
    state.scaled_prev = _smaller(ratio, state.scaled_prev)
    return _descend(G, state.scaled_prev / c_value(cfg, k))


def _sgd_constant(cfg, k, state, F, G, g2, m):
    return _descend(G, np.full(len(F), cfg.eta))


def _sgd_decreasing(cfg, k, state, F, G, g2, m):
    return _descend(G, np.full(len(F), cfg.eta / math.sqrt(k + 1)))


def _adagrad_norm(cfg, k, state, F, G, g2, m):
    state.accum += g2
    return _descend(G, cfg.eta / np.sqrt(state.accum))


def _diagonal(cfg, G, eta, moment):
    """The update eta g / (sqrt(moment) + eps); gamma is the mean per-coordinate stepsize."""
    denom = np.sqrt(moment) + cfg.eps_adam
    return eta * G / denom, np.add.reduce(eta / denom, axis=1) / G.shape[1]


def _second_moment(cfg, state, G):
    """v <- beta2 v + (1 - beta2) g * g, in place."""
    state.v *= cfg.beta2
    state.v += (1.0 - cfg.beta2) * G * G
    return state.v


def _adam(cfg, k, state, F, G, g2, m):
    vhat = _second_moment(cfg, state, G) / (1.0 - cfg.beta2 ** (k + 1))
    return _diagonal(cfg, G, cfg.eta, vhat)


def _amsgrad(cfg, k, state, F, G, g2, m):
    vhat = np.maximum(state.vhat, _second_moment(cfg, state, G), out=state.vhat)
    return _diagonal(cfg, G, cfg.eta / math.sqrt(k + 1), vhat)


STEPPERS = {
    "sps_max": _sps_max,
    "decsps": _decsps,
    "decsps_ns": partial(_decsps, floored=True),
    "sgd_constant": _sgd_constant,
    "sgd_decreasing": _sgd_decreasing,
    "adagrad_norm": _adagrad_norm,
    "adam": _adam,
    "amsgrad": _amsgrad,
}
