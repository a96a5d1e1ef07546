"""Analytical formulas and independent simulators used as ground truth.

These functions deliberately avoid the stepper implementations: they encode
closed forms (variation of constants, the exact bias variance of scaled
Polyak steps on 1-d quadratics, the almost-sure iterate bound, a Gamma
moment identity) plus vectorized Monte-Carlo simulators for the 1-d
quadratic dynamics, so the library can be checked against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Vector
from .objectives import CurvatureInfo, QuadraticObjective, UnavailableExactMinimum, lower_bound


@dataclass(frozen=True)
class SuboptimalityStats:
    """Batch suboptimality measures at a fixed batch size.

    ``sigma2_B`` is None when exact batch minima are unavailable.
    ``sigma2_hat_B_max`` is a lower estimate of the true max when sampled.
    """

    sigma2_B: float | None
    sigma2_hat_B: float
    sigma2_hat_B_max: float
    sampled: bool = False


def variation_of_constants(A_seq, eps_seq, z0, k: int):
    """Closed-form solution of z_{j+1} = A_j z_j + eps_j after k steps.

    z_k = (prod_{j<k} A_j) z0 + sum_{i<k} (prod_{i<j<k} A_j) eps_i.
    Accepts scalar or square-matrix A_j (with vector eps_j and z0).
    """
    if k > len(A_seq) or k > len(eps_seq):
        raise ValueError("k exceeds the sequence length")
    scalar = np.isscalar(z0) or np.ndim(z0) == 0
    if scalar:
        # suffix[i] = prod_{j=i}^{k-1} A_j, suffix[k] = 1
        suffix = [1.0] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = A_seq[i] * suffix[i + 1]
        z = suffix[0] * z0
        for i in range(k):
            z += suffix[i + 1] * eps_seq[i]
        return z
    d = len(z0)
    suffix = [np.eye(d)] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] @ A_seq[i]
    z = suffix[0] @ z0
    for i in range(k):
        z = z + suffix[i + 1] @ eps_seq[i]
    return z


def sps_bias_variance(k: int, second_moment_offsets: float) -> float:
    """Exact E|x^{k+1} - x~|^2 for single-sample Polyak steps scaled by
    c_k = (k+1)/2 on 1-d quadratics with exact floors: the value is
    E|o_i - x~|^2 / (k+1), independent of the starting point."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if second_moment_offsets < 0:
        raise ValueError("second_moment_offsets must be >= 0")
    return second_moment_offsets / (k + 1)


def bias_fixed_point(obj: QuadraticObjective) -> float:
    """Unweighted mean of the component minimizers: the limit of scaled
    single-sample Polyak steps on 1-d quadratics (generally != x*, the
    curvature-weighted mean)."""
    if obj.kind != "quadratic" or obj.d != 1:
        raise ValueError("bias fixed point is defined for 1-d quadratic sums")
    return float(np.mean(obj.offsets[:, 0]))


def bounded_recursion_check(z0, a, b, K: int):
    """Run z_{k+1} = (1 - a/sqrt(k+1)) z_k + b/sqrt(k+1) for K steps.

    Returns (max over the trajectory, the bound max{z0, b/a}). Inputs may be
    scalars or equally-shaped arrays (checked elementwise). The trajectory is
    accumulated in extended precision to keep roundoff in the recursion small;
    note that the trajectory can approach the bound closer than machine
    precision (the sup is b/a but is never attained), so callers comparing the
    two should allow a relative envelope of a few ulps.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(z0 <= 0) or np.any(a <= 0) or np.any(a > 1) or np.any(b <= 0):
        raise ValueError("need z0 > 0, 0 < a <= 1, b > 0")
    z = z0.astype(np.longdouble)
    a_l = a.astype(np.longdouble)
    b_l = b.astype(np.longdouble)
    max_obs = z.copy()
    for k in range(K):
        s = np.longdouble(k + 1) ** np.longdouble(0.5)
        z = (1.0 - a_l / s) * z + b_l / s
        np.maximum(max_obs, z, out=max_obs)
    bound = np.maximum(z0.astype(np.longdouble), b_l / a_l).astype(np.float64)
    max_obs = max_obs.astype(np.float64)
    if max_obs.ndim == 0:
        return float(max_obs), float(bound)
    return max_obs, bound


def d_max_bound(
    curvature: CurvatureInfo,
    x0: Vector,
    x_star: Vector,
    gamma_b: float,
    c0: float,
    sigma2_hat_B_max: float,
) -> float:
    """Almost-sure squared-distance bound for decsps with c_k = sqrt(k+1):
    max{ ||x0 - x*||^2, 2 c0 gamma_b s2max / min{mu/(2L), mu gamma_b} }."""
    mu, L = curvature.mu_min, curvature.L_max
    if mu <= 0:
        raise ValueError("d_max_bound requires strong convexity (mu_min > 0)")
    init = float(np.dot(x0 - x_star, x0 - x_star))
    denom = min(mu / (2.0 * L), mu * gamma_b)
    return max(init, 2.0 * c0 * gamma_b * sigma2_hat_B_max / denom)


def estimate_sigma2(
    obj,
    x_star: Vector,
    B: int,
    policy: str = "zero",
    mode: str = "exact_enumeration",
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
    enum_cap: int = 200_000,
    lower_bound_value: float = 0.0,
) -> SuboptimalityStats:
    """sigma^2_B = f(x*) - E_S[f_S*], sigma_hat^2_B = f(x*) - E_S[l_S*] and
    the max over batches of f_S(x*) - l_S*.

    ``exact_enumeration`` walks all C(n, B) batches (must fit under
    ``enum_cap``); ``monte_carlo`` samples ``n_samples`` batches and reports
    the max as a lower estimate. B must lie in [1, n] (else ``ValueError``).
    """
    n = obj.n
    if not 1 <= B <= n:
        raise ValueError(f"estimate_sigma2: need 1 <= B <= n, got B={B}, n={n}")
    if mode == "exact_enumeration":
        total = math.comb(n, B)
        if total > enum_cap:
            raise ValueError(f"C({n},{B}) = {total} exceeds enumeration cap {enum_cap}")
        batches = (np.array(S) for S in itertools.combinations(range(n), B))
        sampled = False
    elif mode == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo mode needs an rng")
        total = n_samples
        batches = (rng.choice(n, size=B, replace=False) for _ in range(n_samples))
        sampled = True
    else:
        raise ValueError(f"unknown mode {mode!r}")
    target = lower_bound(obj, policy, lower_bound_value)

    f_at_star_sum = 0.0
    fs_star_sum = 0.0
    ell_sum = 0.0
    gap_max = -math.inf
    have_exact = True
    for S in batches:
        f_at = obj.batch_value(S, x_star)
        ell = np.asarray(target(S[None])).item()  # one row
        f_at_star_sum += f_at
        ell_sum += ell
        gap_max = max(gap_max, f_at - ell)
        if have_exact:
            try:
                fs_star_sum += obj.batch_min_value(S)
            except UnavailableExactMinimum:
                have_exact = False
    mean_f = f_at_star_sum / total
    sigma2 = mean_f - fs_star_sum / total if have_exact else None
    return SuboptimalityStats(sigma2, mean_f - ell_sum / total, gap_max, sampled)


def gamma_moment_identity(n: int, shape_k: float) -> float:
    """E[sum a_i^2 / (sum a_i)^2] for i.i.d. a_i ~ Gamma(shape_k, rate):
    equals (shape_k + 1)/(shape_k n + 1), independent of the rate."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if shape_k <= 0:
        raise ValueError("shape_k must be positive")
    return (shape_k + 1.0) / (shape_k * n + 1.0)


def simulate_polyak_1d(
    obj: QuadraticObjective,
    method: str,
    steps: int,
    n_runs: int,
    rng: np.random.Generator,
    c_schedule: str = "linear_half",
    c0: float = 1.0,
    gamma_b: float = 10.0,
    x0: Vector | None = None,
    record_at: tuple[int, ...] = (),
) -> dict:
    """Vectorized Monte Carlo of single-sample Polyak dynamics on a 1-d
    quadratic finite sum, all runs advanced in lockstep.

    ``method`` is "sps" (scaled by c_k from the schedule, capped at gamma_b,
    exact floors) or "decsps" (lower bound 0, clip by c_{k-1} gamma_{k-1}).
    Returns {"x": final iterates (n_runs,), "recorded": {k: iterates}}.
    """
    if obj.kind != "quadratic" or obj.d != 1:
        raise ValueError("simulator covers 1-d quadratic sums only")
    if method not in ("sps", "decsps"):
        raise ValueError(f"unknown method {method!r}")
    a = obj.curvatures[:, 0, 0]
    offs = obj.offsets[:, 0]
    floors = obj.floors
    if (method == "decsps") and not (floors >= 0).all():
        raise ValueError("decsps simulation uses the zero lower bound: floors must be >= 0")

    def c_at(k: int) -> float:
        if c_schedule == "constant":
            return c0
        if c_schedule == "sqrt":
            return c0 * math.sqrt(k + 1)
        if c_schedule == "linear_half":
            return c0 * ((k + 1) / 2.0)
        raise ValueError(f"unknown c_schedule {c_schedule!r}")

    x = rng.standard_normal(n_runs) if x0 is None else np.full(n_runs, float(x0))
    scaled_prev = np.full(n_runs, c0 * gamma_b)
    recorded = {}
    for k in range(steps):
        idx = rng.integers(0, obj.n, size=n_runs)
        ai, oi, fi = a[idx], offs[idx], floors[idx]
        s = x - oi
        g = ai * s
        g2 = g * g
        live = g2 > 0.0  # zero gradient: leave the iterate unchanged
        ck = c_at(k)
        if method == "sps":
            fval = 0.5 * ai * s * s + fi
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = (fval - fi) / (ck * g2)
            gamma = np.minimum(np.where(live, ratio, 0.0), gamma_b)
        else:
            fval = 0.5 * ai * s * s + fi
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = fval / g2  # lower bound 0
            scaled = np.minimum(np.where(live, ratio, scaled_prev), scaled_prev)
            gamma = scaled / ck
            scaled_prev = np.where(live, scaled, scaled_prev)
        x = np.where(live, x - gamma * g, x)
        if (k + 1) in record_at:
            recorded[k + 1] = x.copy()
    return {"x": x, "recorded": recorded}
