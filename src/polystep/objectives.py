"""Finite-sum objectives: regularized logistic regression, quadratic sums and
shifted absolute values, with per-batch values/gradients, curvature constants,
closed-form batch minima where available and full-batch reference solving.

All objectives expose the same surface:

* ``n``, ``d``, ``kind``
* ``batch_value(S, x)`` / ``batch_grad(S, x)`` -- mean over the members of S;
  S is an index array, or a slice for a copy-free full-batch pass
* ``value_and_grad(S, X)`` -- both at once for R rows: index blocks S of
  shape (R, B) and iterates X of shape (R, d) give values (R,) and gradients
  (R, d), each row bit-identical to ``batch_value(S[r], X[r])`` and
  ``batch_grad(S[r], X[r])``
* ``batch_min_value(S)`` -- exact f_S* where closed-form (else raises)
* ``nonnegative`` -- whether zero bounds every component f_i from below

``lower_bound(obj, policy)`` turns those facts into the target m_S that a
Polyak rule subtracts.

``value_and_grad`` is the step kernel: it gathers the batch's component
arrays with ``take``. The logistic kernels read only the margin rows R, so
z = R_S x and the gradient is R_S^T sigmoid(z) / |S| + lam x. The quadratic
kernel forms e = x - o_i and H_i e once per row and batch member (one einsum),
then takes the value e^T H_i e / 2 from a ``vecdot`` and the gradient as the
in-order sum of the H_i e over the batch; ``batch_value`` and ``batch_grad``
use the same forms. It makes no BLAS ``matmul``, whose bits would depend on
the thread count.

The batch loss is f_S(x) = (1/|S|) sum_{i in S} f_i(x).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

from .core import ConfigurationError, MiniBatch, Vector, check_fields


class UnavailableExactMinimum(ConfigurationError):
    """Exact batch minimum is not computable for this objective/batch."""


class UnsoundLowerBound(ConfigurationError):
    """Requested lower-bound policy is not certified for this objective."""


class SingularSystem(ConfigurationError):
    """The batch normal equations are singular."""


class SolverFailure(ConfigurationError):
    """The reference solve cannot reach its tolerance: the iteration cap, a
    stalled line search, or separable data without a minimizer."""

    def __init__(self, msg: str, grad_norm: float):
        super().__init__(msg)
        self.grad_norm = grad_norm


@dataclass(frozen=True)
class CurvatureInfo:
    """Extreme per-component curvature constants (diagnostic use only)."""

    L_max: float
    mu_min: float


@dataclass(frozen=True)
class ReferenceSolution:
    x_star: Vector
    f_star: float
    grad_norm: float
    tol: float


def _store_c_order(obj, *names: str) -> None:
    """Keep the named component arrays C-contiguous. A full-batch pass reads
    them through a basic-slice view, and a view with the layout of the copy
    an index gather makes gives bit-identical sums."""
    for name in names:
        object.__setattr__(obj, name, np.ascontiguousarray(getattr(obj, name)))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)), with exp's argument -t where t >= 0 and t elsewhere
    so it never overflows. Both branches share one quotient: its numerator is 1
    where t >= 0 and e elsewhere, its denominator 1 + e, so each element gets
    the bits it would get from its branch alone, in 7 ufunc calls. The argument
    keeps ``np.where``: -|t| would flip the sign bit of a NaN."""
    pos = t >= 0
    e = np.exp(np.where(pos, -t, t))
    return np.where(pos, 1.0, e) / (1.0 + e)


LABEL_SIGNS = ("standard", "as_printed")


@dataclass(frozen=True, eq=False)
class LogisticObjective:
    """Regularized binary logistic loss over n datapoints.

    With the default ``standard`` label convention,
    f_i(x) = log(1 + exp(-y_i a_i^T x)) + (lam/2) ||x||^2.
    ``as_printed`` flips the margin sign (+y_i a_i^T x). The margin rows
    r_i = s y_i a_i (s = -1 for ``standard``) are kept in place of the features
    and the labels, so z_i = r_i^T x; as a sign flip is exact, each kernel gets
    the bits that multiplying the signed labels in would give.
    """

    features: InitVar[np.ndarray]  # (n, d)
    labels: InitVar[np.ndarray]  # (n,), values in {-1, +1}
    lam: float = field(default=0.0, metadata={"bound": ">= 0"})
    label_sign: str = field(default="standard", metadata={"choices": LABEL_SIGNS})
    rows: np.ndarray = field(init=False, repr=False)  # (n, d)

    kind = "logistic"
    nonnegative = True  # logaddexp >= 0 and the L2 term is >= 0

    def __post_init__(self, features, labels):
        labels = np.asarray(labels)
        if np.ndim(features) != 2 or labels.shape != np.shape(features)[:1]:
            raise ConfigurationError(f"features must be (n, d) and labels (n,), got "
                                     f"{np.shape(features)} and {labels.shape}")
        sign = -1.0 if self.label_sign == "standard" else 1.0
        rows = np.multiply((sign * labels)[:, None], features, order="C")
        object.__setattr__(self, "rows", rows)
        check_fields(self)
        if not np.isin(labels, (-1.0, 1.0)).all():
            raise ConfigurationError("labels must be in {-1, +1}")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def batch_value(self, S: MiniBatch, x: Vector) -> float:
        z = self.rows[S] @ x
        return float(np.mean(np.logaddexp(0.0, z))) + 0.5 * self.lam * float(np.dot(x, x))

    def batch_grad(self, S: MiniBatch, x: Vector) -> Vector:
        A = self.rows[S]
        return A.T @ _sigmoid(A @ x) / A.shape[0] + self.lam * x

    def value_and_grad(self, S: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        A = self.rows.take(S, axis=0)  # (R, B, d)
        z = (A @ X[:, :, None])[..., 0]
        B = A.shape[1]
        values = np.add.reduce(np.logaddexp(0.0, z), axis=1) / B + 0.5 * self.lam * np.vecdot(X, X)
        grads = (A.transpose(0, 2, 1) @ _sigmoid(z)[:, :, None])[..., 0] / B + self.lam * X
        return values, grads

    def batch_min_value(self, S: MiniBatch) -> float:
        # Closed form only for a single unregularized datapoint: the loss
        # decays to 0 along the margin direction.
        if len(S) == 1 and self.lam == 0.0:
            return 0.0
        raise UnavailableExactMinimum(
            "exact batch minimum for logistic losses is only available for "
            "B=1 with lam=0"
        )

    def curvature(self) -> CurvatureInfo:
        L = np.einsum("ij,ij->i", self.rows, self.rows) / 4.0 + self.lam
        return CurvatureInfo(float(L.max()), float(self.lam))


@dataclass(frozen=True)
class QuadraticObjective:
    """n quadratics f_i(x) = (1/2)(x - o_i)^T H_i (x - o_i) + floor_i."""

    curvatures: np.ndarray  # (n, d, d), each symmetric PSD
    offsets: np.ndarray  # (n, d)
    floors: np.ndarray  # (n,)

    kind = "quadratic"

    def __post_init__(self):
        _store_c_order(self, "curvatures", "offsets", "floors")

    @property
    def n(self) -> int:
        return self.curvatures.shape[0]

    @property
    def d(self) -> int:
        return self.curvatures.shape[1]

    @property
    def nonnegative(self) -> bool:
        return bool((self.floors >= 0).all())  # f_i >= floor_i

    def batch_value(self, S: MiniBatch, x: Vector) -> float:
        diff = x - self.offsets[S]
        q = np.vecdot(diff, np.einsum("bij,bj->bi", self.curvatures[S], diff))
        return float(np.add.reduce(0.5 * q + self.floors[S]) / len(q))

    def batch_grad(self, S: MiniBatch, x: Vector) -> Vector:
        diff = x - self.offsets[S]
        Hd = np.einsum("bij,bj->bi", self.curvatures[S], diff)
        return np.add.reduce(Hd, axis=0) / diff.shape[0]

    def value_and_grad(self, S: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diff = X[:, None, :] - self.offsets.take(S, axis=0)  # (R, B, d)
        Hd = np.einsum("rbij,rbj->rbi", self.curvatures.take(S, axis=0), diff)
        B = diff.shape[1]
        values = np.add.reduce(0.5 * np.vecdot(diff, Hd) + self.floors.take(S), axis=1) / B
        return values, np.add.reduce(Hd, axis=1) / B

    def batch_optimum(self, S: MiniBatch) -> tuple[Vector, float]:
        """Exact minimizer and minimum of f_S: solves (sum H_i) x = sum H_i o_i."""
        H = self.curvatures[S]
        A = H.sum(axis=0)
        rhs = np.einsum("bij,bj->i", H, self.offsets[S])
        try:
            x_s = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as e:
            raise SingularSystem(f"batch curvature sum is singular: {e}") from e
        return x_s, self.batch_value(S, x_s)

    def batch_min_value(self, S: MiniBatch) -> float:
        if len(S) == 1:
            return float(self.floors[S[0]])
        return self.batch_optimum(S)[1]

    def curvature(self) -> CurvatureInfo:
        eigs = np.linalg.eigvalsh(self.curvatures)  # (n, d), ascending
        return CurvatureInfo(float(eigs[:, -1].max()), float(eigs[:, 0].min()))


@dataclass(frozen=True)
class ShiftedAbsoluteObjective:
    """1-d non-smooth sum f_i(x) = |x - s_i|; used with subgradient steppers."""

    shifts: np.ndarray  # (n,)

    kind = "absolute"
    d = 1
    nonnegative = True

    def __post_init__(self):
        _store_c_order(self, "shifts")

    @property
    def n(self) -> int:
        return self.shifts.shape[0]

    def batch_value(self, S: MiniBatch, x: Vector) -> float:
        return float(np.mean(np.abs(x[0] - self.shifts[S])))

    def batch_grad(self, S: MiniBatch, x: Vector) -> Vector:
        # subgradient: sign(x - s_i), with 0 at the kink
        return np.array([np.mean(np.sign(x[0] - self.shifts[S]))])

    def value_and_grad(self, S: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diff = X[:, :1] - self.shifts.take(S)  # (R, B)
        B = diff.shape[1]
        return (np.add.reduce(np.abs(diff), axis=1) / B,
                (np.add.reduce(np.sign(diff), axis=1) / B)[:, None])

    def batch_min_value(self, S: MiniBatch) -> float:
        if len(S) == 1:
            return 0.0
        raise UnavailableExactMinimum("exact batch minimum only for B=1")


def lower_bound(
    obj, policy: str, value: float = 0.0
) -> Callable[[np.ndarray], np.ndarray | float]:
    """The map from index blocks S (R, B) to m_S, the value a Polyak rule
    subtracts from each row's batch loss f_S(x).

    ``exact`` gives each row's batch minimum f_S*. ``zero`` and ``constant``
    give a bound that does not depend on the batch, and it is certified here,
    once: a zero bound needs every component to be nonnegative, else this
    raises ``UnsoundLowerBound``. A ``constant`` bound is taken as given.
    """
    if policy == "exact":
        return lambda S: np.array([obj.batch_min_value(s) for s in S])
    if policy == "zero":
        if not obj.nonnegative:
            raise UnsoundLowerBound("zero lower bound requires all component floors >= 0")
        value = 0.0
    elif policy != "constant":
        raise ValueError(f"unknown lower-bound policy {policy!r}")
    return lambda S: value


# All n components as a basic slice: indexing with it gives views of the
# component arrays, not the copies an ``np.arange(n)`` gather makes.
FULL_BATCH = slice(None)


def full_value(obj, x: Vector) -> float:
    return obj.batch_value(FULL_BATCH, x)


def full_grad(obj, x: Vector) -> Vector:
    return obj.batch_grad(FULL_BATCH, x)


def _check_tol(tol: float) -> None:
    """The check of a reference tolerance, which a run and ``polystep reference``
    also make before they build the problem."""
    if not 0 < tol < np.inf:
        raise ConfigurationError(f"reference_tol must be > 0 and finite, got {tol}")


def solve_reference(obj, tol: float = 1e-10, max_iter: int = 100) -> ReferenceSolution:
    """Full-batch reference solution with ||grad f(x*)|| <= tol, a finite tol > 0.

    Quadratics use the direct linear solve; the 1-d absolute sum takes the
    median of the shifts. The logistic loss runs damped Newton with a
    backtracking line search on f (Boyd and Vandenberghe, Convex
    Optimization, 9.5), at most ``max_iter`` steps. A singular Hessian, as
    from an all-zero feature column without regularization, takes the
    minimum-norm step, which leaves such a coordinate at 0. Without
    regularization every step first checks whether its x separates the data
    (every margin term z_i < 0): the loss along t x then falls to 0 as t
    grows, so no minimizer exists.
    """
    _check_tol(tol)
    if obj.kind == "quadratic":
        x_star, f_star = obj.batch_optimum(FULL_BATCH)
        gn = float(np.linalg.norm(obj.batch_grad(FULL_BATCH, x_star)))
        return ReferenceSolution(x_star, f_star, gn, tol)

    if obj.kind == "absolute":
        x_star = np.array([float(np.median(obj.shifts))])
        return ReferenceSolution(x_star, obj.batch_value(FULL_BATCH, x_star), 0.0, tol)

    x = np.zeros(obj.d)
    g = obj.batch_grad(FULL_BATCH, x)
    gn = float(np.linalg.norm(g))
    for _ in range(max_iter):
        if gn <= tol:
            break
        x = _newton_step(obj, x, g, gn)
        g = obj.batch_grad(FULL_BATCH, x)
        gn = float(np.linalg.norm(g))
    if gn > tol:
        raise SolverFailure(
            f"reference solver: grad norm {gn:.3e} > tol {tol:.3e} "
            f"after {max_iter} Newton steps",
            gn,
        )
    return ReferenceSolution(x, obj.batch_value(FULL_BATCH, x), gn, tol)


ARMIJO, BACKTRACK, MIN_STEP = 0.25, 0.5, 1e-12


def _newton_step(obj, x: Vector, g: Vector, gn: float) -> Vector:
    """One damped Newton step of the full-batch logistic loss from x, whose
    gradient g has norm gn.

    The Hessian is R^T diag(p (1 - p)) R / n + lam I with p = sigmoid(R x).
    The step length t halves until f falls by at least ARMIJO t |g . dx|;
    once the Newton decrement -g . dx is within a few ulps of f, f's rounding
    hides any decrease and the full step is taken.
    """
    A = obj.rows
    z = A @ x
    if obj.lam == 0.0 and (z < 0.0).all():
        raise SolverFailure("reference solver: the data are linearly separable, so "
                            "the unregularized logistic loss has no minimizer; "
                            "use lam > 0 (--lambda)", gn)
    p = _sigmoid(z)
    H = A.T @ ((p * (1.0 - p))[:, None] * A) / obj.n
    H[np.diag_indices_from(H)] += obj.lam
    try:
        dx = -np.linalg.solve(H, g)
    except np.linalg.LinAlgError:  # exactly singular: the minimum-norm step
        dx = -np.linalg.lstsq(H, g)[0]
    f = obj.batch_value(FULL_BATCH, x)
    slope = float(g @ dx)  # minus the Newton decrement
    if abs(slope) <= 4.0 * np.spacing(abs(f)):
        return x + dx
    t = 1.0
    while obj.batch_value(FULL_BATCH, x + t * dx) > f + ARMIJO * t * slope:
        t *= BACKTRACK
        if t < MIN_STEP:
            raise SolverFailure(
                f"reference solver: line search stalled at grad norm {gn:.3e} "
                f"with Newton decrement {-slope:.3e}", gn)
    return x + t * dx


CHUNK = 16  # iterates per BLAS-3 product in the logistic evaluator, and per absolute sum


def suboptimality(obj, reference: ReferenceSolution) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> f(x) - f* of one run, set up once. It takes iterates
    stacked along leading axes, (..., d), and returns one value each, (...).
    Each value depends only on its own iterate, not on the others in the
    stack or on their number.

    A quadratic is its own second-order Taylor expansion around x*, so with
    e = x - x*, Hbar = mean_i H_i and g* = grad f(x*),
    f(x) - f* = e^T (Hbar e / 2 + g*) exactly. That costs O(d^2) instead of
    a full O(n d^2) pass, and near x* it is the small number itself rather
    than the difference of two O(1) values.

    The logistic loss is evaluated for all iterates together: one matrix
    product of the margin rows with CHUNK iterates at a time, the last chunk
    padded with zeros, then log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|))
    over all margins z at once, each iterate's n terms summed along a
    contiguous axis. OpenBLAS rounds a column differently at some product
    widths, and in the other operand order at some positions; at a fixed
    width, in this order, an iterate's bits do not depend on where it sits
    in the stack. The chunks also keep the temporaries at CHUNK x n values.
    The values differ from ``full_value(obj, x) - f*`` (a matrix-vector
    product and ``np.logaddexp``) in the last bits.

    The absolute sum is evaluated CHUNK iterates at a time, each iterate's n
    terms summed along a contiguous axis: ``full_value(obj, x) - f*``'s bits.
    """
    x_star, f_star = reference.x_star, reference.f_star
    if obj.kind == "quadratic":
        half_hessian = 0.5 * obj.curvatures.mean(axis=0)
        g_star = full_grad(obj, x_star)

        def centred(X: np.ndarray) -> np.ndarray:
            E = X - x_star
            return np.vecdot(E, (half_hessian @ E[..., None])[..., 0] + g_star)

        return centred

    if obj.kind == "logistic":
        def stacked_logistic(X: np.ndarray) -> np.ndarray:
            X = np.asarray(X)
            flat = X.reshape(-1, obj.d)
            padded = np.zeros((-(-len(flat) // CHUNK) * CHUNK, obj.d))
            padded[:len(flat)] = flat
            sums = np.empty(len(padded))
            for start in range(0, len(padded), CHUNK):
                # (CHUNK, n) margins, transposed out of the product so that
                # each iterate's terms are contiguous
                z = np.ascontiguousarray((obj.rows @ padded[start:start + CHUNK].T).T)
                loss = np.abs(z)  # in place from here on: two CHUNK x n arrays
                np.log1p(np.exp(np.negative(loss, out=loss), out=loss), out=loss)
                loss += np.maximum(z, 0.0, out=z)
                sums[start:start + CHUNK] = np.add.reduce(loss, axis=1)
            values = sums[:len(flat)] / obj.n + 0.5 * obj.lam * np.vecdot(flat, flat)
            return (values - f_star).reshape(X.shape[:-1])

        return stacked_logistic

    def stacked_absolute(X: np.ndarray) -> np.ndarray:
        flat = np.reshape(X, (-1, 1))  # d = 1
        sums = [np.add.reduce(np.abs(flat[start:start + CHUNK] - obj.shifts), axis=1)
                for start in range(0, len(flat), CHUNK)]
        return (np.concatenate(sums) / obj.n - f_star).reshape(np.shape(X)[:-1])

    return stacked_absolute


def make_counterexample_1d() -> QuadraticObjective:
    """The two-component 1-d problem f = (1/2) f_1 + (1/2) f_2 with
    f_1 = (2/2)(x-1)^2, f_2 = (1/2)(x+1)^2: full-batch optimum 1/3, uniform
    offset mean 0."""
    H = np.array([[[2.0]], [[1.0]]])
    offsets = np.array([[1.0], [-1.0]])
    floors = np.zeros(2)
    return QuadraticObjective(H, offsets, floors)


def make_fig1_problem(
    rng: np.random.Generator,
    d: int,
    n: int,
    interpolated: bool = False,
    f_floor: float = 1.0,
) -> QuadraticObjective:
    """Random quadratic finite sum with H_i = A_i A_i^T / (3d), A_i standard
    Gaussian (d x 3d). Offsets are i.i.d. standard normal, shared across
    components when ``interpolated``."""
    try:
        H = np.empty((n, d, d))
    except (MemoryError, ValueError):  # ValueError: more bytes than an intp counts
        raise ConfigurationError(f"cannot allocate the {n}x{d}x{d} curvature array") from None
    for i in range(n):
        A = rng.standard_normal((d, 3 * d))
        H[i] = A @ A.T / (3 * d)
    if interpolated:
        shared = rng.standard_normal(d)
        offsets = np.tile(shared, (n, 1))
    else:
        offsets = rng.standard_normal((n, d))
    return QuadraticObjective(H, offsets, np.full(n, float(f_floor)))


def make_random_strongly_convex(
    rng: np.random.Generator,
    d: int,
    n: int,
    eig_range: tuple[float, float] = (0.5, 3.0),
    offset_scale: float = 1.0,
    floor_range: tuple[float, float] = (0.0, 1.0),
) -> QuadraticObjective:
    """Random PD quadratic finite sum with per-component eigenvalues drawn
    uniformly from ``eig_range``."""
    lo, hi = eig_range
    if lo <= 0:
        raise ValueError("eig_range must be positive for a PD problem")
    H = np.empty((n, d, d))
    for i in range(n):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = rng.uniform(lo, hi, size=d)
        H[i] = (Q * eigs) @ Q.T
    offsets = offset_scale * rng.standard_normal((n, d))
    floors = rng.uniform(*floor_range, size=n)
    return QuadraticObjective(H, offsets, floors)
