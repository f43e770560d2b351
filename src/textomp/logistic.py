"""L2-penalized logistic loss, gradients, and the support-restricted fit.

`value_and_gradient` is the one penalized-logistic kernel behind
`objective`, `gradient` and the `baselines` solvers. `penalty_mask` is the
one bias rule: the only place a penalty weight on the bias is zeroed.

The restricted fit is the inner solver of the greedy selection loops: a
dense Newton method over the active coordinates with backtracking line
search, falling back to a gradient step whenever the Hessian solve fails
or does not yield a descent direction. Active sets stay small (a few
thousand coordinates), so dense restricted Hessians are affordable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
# A predicted decrease below this fraction of (1 + |objective|) is under the
# objective's float resolution, so the Armijo test cannot judge the step.
_NOISE_FLOOR = 1e-10


class ActiveSet:
    """Ordered, duplicate-free set of feature indices.

    Iteration follows insertion order; ``ascending()`` gives the sorted
    view used to arrange restricted design matrices.
    """

    def __init__(self, indices=()):
        self._order = []
        self._members = set()
        for j in indices:
            self.add(j)

    def add(self, j):
        j = int(j)
        if j in self._members:
            raise ValueError(f"index {j} already active")
        self._members.add(j)
        self._order.append(j)

    def __contains__(self, j):
        return int(j) in self._members

    def __len__(self):
        return len(self._order)

    def __iter__(self):
        return iter(self._order)

    def __repr__(self):
        return f"ActiveSet({self._order!r})"

    def ascending(self):
        return sorted(self._members)

    def copy(self):
        return ActiveSet(self._order)

    def n_selected(self, bias_col=None):
        """Active count excluding the bias column."""
        n = len(self._order)
        if bias_col is not None and bias_col in self._members:
            n -= 1
        return n


@dataclass
class Model:
    """Weights over all d features, zero off the active set.

    converged is False when the inner solver hit its iteration cap; theta
    then holds the best iterate seen.
    """

    theta: np.ndarray
    active: ActiveSet
    lam: float
    converged: bool = True
    n_iter: int = 0


def sigmoid(z):
    """Logistic function, overflow-safe for any finite input."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(z):
    """log(1 + exp(z)) without overflow; returns z itself for z > 35."""
    z = np.asarray(z, dtype=np.float64)
    return np.where(z > 35.0, z, np.log1p(np.exp(np.minimum(z, 35.0))))


def loss(theta, x, y):
    """Per-sample logistic loss log(1 + exp(-y * theta^T x)), y in {-1,+1}."""
    margin = float(np.dot(np.asarray(theta, dtype=np.float64),
                          np.asarray(x, dtype=np.float64)))
    return float(softplus(-y * margin))


def penalty_mask(n_cols, bias_col, penalize_bias):
    """Penalty weights: 1.0, or 0.0 at the bias unless penalize_bias.

    L2 terms pass the caller's flag; the L1 term always passes False.
    """
    mask = np.ones(n_cols)
    if not penalize_bias and bias_col is not None:
        mask[bias_col] = 0.0
    return mask


def value_and_gradient(X, y, theta, lam, mask):
    """Logistic loss sum plus lam * sum(mask * theta**2), and its gradient.

    y and theta must be float64 arrays of X's row and column counts.
    """
    z = X.mat_vec(theta)
    s = sigmoid(-y * z)
    val = float(np.sum(softplus(-y * z)) + lam * np.sum(mask * theta ** 2))
    grad = X.correlations(-y * s) + 2.0 * lam * mask * theta
    return val, grad


def _as_checked(X, y, theta):
    """y and theta as float64 arrays, checked against X's shape."""
    y = np.asarray(y, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if y.shape != (X.n_rows,):
        raise ValueError(f"y length {y.shape} != ({X.n_rows},)")
    if theta.shape != (X.n_cols,):
        raise ValueError(f"theta length {theta.shape} != ({X.n_cols},)")
    return y, theta


def objective(X, y, theta, lam, penalize_bias=True):
    """Sum of logistic losses plus lam * ||theta||_2^2.

    The penalty covers every coordinate including the bias; pass
    penalize_bias=False to exempt it.
    """
    y, theta = _as_checked(X, y, theta)
    mask = penalty_mask(X.n_cols, X.bias_col, penalize_bias)
    return value_and_gradient(X, y, theta, lam, mask)[0]


def gradient(X, y, theta, lam, penalize_bias=True):
    """Gradient of objective(): X^T(-y * sigma(-y X theta)) + 2 lam theta."""
    y, theta = _as_checked(X, y, theta)
    mask = penalty_mask(X.n_cols, X.bias_col, penalize_bias)
    return value_and_gradient(X, y, theta, lam, mask)[1]


def residual(X, theta, y):
    """Prediction residual sigma(X theta) - 1[y == +1], componentwise in (-1, 1)."""
    y, theta = _as_checked(X, y, theta)
    return sigmoid(X.mat_vec(theta)) - (y > 0).astype(np.float64)


def _restricted_value(Xd, y, coef, lam, pen_mask):
    z = Xd @ coef
    return float(np.sum(softplus(-y * z)) + lam * np.sum(pen_mask * coef ** 2))


def fit_restricted(X, y, active, lam, tol=DEFAULT_TOL,
                   max_iter=DEFAULT_MAX_ITER, warm_start=None,
                   penalize_bias=True):
    """Minimize the L2-penalized logistic loss with support restricted to `active`.

    Newton steps on the active coordinates with Armijo backtracking; a
    plain gradient step is taken when the Hessian solve fails or is not
    a descent direction. A step whose predicted decrease is below the
    objective's float resolution is taken whole, since Armijo cannot tell
    it from rounding. Stops when the restricted gradient infinity-norm
    drops to `tol`. Non-convergence is flagged on the returned Model, which
    then carries the best iterate rather than raising.

    warm_start: optional full-length weight vector to initialize from
    (off-support entries are ignored; new coordinates start at 0).
    """
    if isinstance(active, ActiveSet):
        active = active.copy()
    else:
        active = ActiveSet(active)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.n_rows,):
        raise ValueError(f"y length {y.shape} != ({X.n_rows},)")
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    idx = active.ascending()
    for j in idx:
        if not 0 <= j < X.n_cols:
            raise IndexError(f"active index {j} out of range")

    theta = np.zeros(X.n_cols)
    if not idx:
        return Model(theta=theta, active=active, lam=float(lam))

    Xd = X.densify_columns(idx)
    pen_mask = penalty_mask(X.n_cols, X.bias_col, penalize_bias)[idx]

    coef = np.zeros(len(idx))
    if warm_start is not None:
        coef = np.asarray(warm_start, dtype=np.float64)[idx].copy()

    lam = float(lam)
    best_coef = coef.copy()
    best_val = val = _restricted_value(Xd, y, coef, lam, pen_mask)
    converged = False
    n_iter = 0

    for n_iter in range(1, max_iter + 1):
        z = Xd @ coef
        s = sigmoid(-y * z)
        grad = Xd.T @ (-y * s) + 2.0 * lam * pen_mask * coef
        if np.max(np.abs(grad)) <= tol:
            converged = True
            n_iter -= 1
            break

        w = s * (1.0 - s)
        H = Xd.T @ (Xd * w[:, None])
        H[np.diag_indices_from(H)] += 2.0 * lam * pen_mask
        step = None
        try:
            step = np.linalg.solve(H, -grad)
            if not np.all(np.isfinite(step)) or float(grad @ step) >= 0.0:
                step = None
        except np.linalg.LinAlgError:
            step = None
        if step is None:
            step = -grad  # fallback: gradient descent direction

        slope = float(grad @ step)
        below_noise = -slope <= _NOISE_FLOOR * (1.0 + abs(val))
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            cand_val = _restricted_value(Xd, y, coef + t * step, lam, pen_mask)
            if below_noise or cand_val <= val + _ARMIJO_C * t * slope:
                break
            t *= 0.5
        else:  # cap hit: t was halved past the last evaluated point
            cand_val = _restricted_value(Xd, y, coef + t * step, lam, pen_mask)
        coef = coef + t * step
        val = cand_val
        if val < best_val:
            best_val = val
            best_coef = coef.copy()

    if not converged:
        coef = best_coef

    theta[idx] = coef
    return Model(theta=theta, active=active, lam=lam,
                 converged=converged, n_iter=n_iter)
