"""The logistic loss from its features and explicit labels, the tests'
byte-for-byte check of ``LogisticObjective``, which stores only the margin
rows. Each method gathers the signed labels and multiplies them into a
product of the features, in the operand order and layout of the objective's
own kernels, so a sign flip folded into the rows must change no bit."""

import numpy as np

from polystep.objectives import ARMIJO, BACKTRACK, CHUNK, FULL_BATCH, _sigmoid


class ExplicitLogistic:
    def __init__(self, features, labels, lam=0.0, label_sign="standard"):
        self.A = np.ascontiguousarray(features)
        self.sy = (-1.0 if label_sign == "standard" else 1.0) * np.asarray(labels)
        self.lam = lam
        self.n, self.d = self.A.shape

    def batch_value(self, S, x):
        z = self.sy[S] * (self.A[S] @ x)
        return float(np.mean(np.logaddexp(0.0, z))) + 0.5 * self.lam * float(np.dot(x, x))

    def batch_grad(self, S, x):
        A, sy = self.A[S], self.sy[S]
        w = sy * _sigmoid(sy * (A @ x))
        return A.T @ w / A.shape[0] + self.lam * x

    def value_and_grad(self, S, X):
        A, sy = self.A.take(S, axis=0), self.sy.take(S)  # (R, B, d), (R, B)
        z = sy * (A @ X[:, :, None])[..., 0]
        B = A.shape[1]
        values = np.add.reduce(np.logaddexp(0.0, z), axis=1) / B + 0.5 * self.lam * np.vecdot(X, X)
        w = sy * _sigmoid(z)
        return values, (A.transpose(0, 2, 1) @ w[:, :, None])[..., 0] / B + self.lam * X

    def solve(self, tol, max_iter=100):
        """Damped Newton from 0 until the gradient norm is at most tol:
        (x*, f*, ||grad f(x*)||). It makes none of the solver's checks for
        separable data or a stalled line search."""
        x = np.zeros(self.d)
        g = self.batch_grad(FULL_BATCH, x)
        gn = float(np.linalg.norm(g))
        for _ in range(max_iter):
            if gn <= tol:
                break
            p = _sigmoid(self.sy * (self.A @ x))
            H = self.A.T @ ((p * (1.0 - p))[:, None] * self.A) / self.n
            H[np.diag_indices_from(H)] += self.lam
            try:
                dx = -np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                dx = -np.linalg.lstsq(H, g)[0]
            f = self.batch_value(FULL_BATCH, x)
            slope = float(g @ dx)
            t = 1.0
            if abs(slope) > 4.0 * np.spacing(abs(f)):
                while self.batch_value(FULL_BATCH, x + t * dx) > f + ARMIJO * t * slope:
                    t *= BACKTRACK
            x = x + t * dx
            g = self.batch_grad(FULL_BATCH, x)
            gn = float(np.linalg.norm(g))
        return x, self.batch_value(FULL_BATCH, x), gn

    def suboptimality(self, X, f_star):
        """f(x) - f* for iterates X (m, d), CHUNK at a time as the stacked
        evaluator takes them."""
        padded = np.zeros((-(-len(X) // CHUNK) * CHUNK, self.d))
        padded[:len(X)] = X
        sums = np.empty(len(padded))
        for start in range(0, len(padded), CHUNK):
            z = np.multiply((self.A @ padded[start:start + CHUNK].T).T, self.sy, order="C")
            loss = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)
            sums[start:start + CHUNK] = np.add.reduce(loss, axis=1)
        return sums[:len(X)] / self.n + 0.5 * self.lam * np.vecdot(X, X) - f_star
