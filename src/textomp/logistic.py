"""L2-penalized logistic loss, gradients, and the support-restricted fit.

`value_and_gradient` is the one penalized-logistic kernel behind
`objective`, `gradient` and the full-gradient KKT pass of the `baselines`
solver; it takes the L2 term, as `newton` does, as one per-column
curvature vector, ridge = penalty(X, 2 lam, penalize_bias). `penalty` is
the one bias rule: the only place a penalty weight on the bias is zeroed.

`newton` is the one damped-Newton loop, and `cg` the one conjugate-gradient
solver, of the refit below and of the `baselines`: truncated Newton with
backtracking (TRON, Lin, Weng & Keerthi, 2008; newGLMNET, Yuan, Ho & Lin,
2012). A caller supplies only how a step's direction is found. The loop
never accepts a step that fails Armijo: when no step length decreases the
objective the fit ends unconverged at its last accepted iterate, and a
trial whose objective overflows is halved like any other failed trial.

The restricted fit, the inner solver of the greedy loops, runs `newton`
over the active coordinates. It does not own the support: it takes the
caller's sequence of distinct indices (`omp.run_greedy` keeps the one
index list of a greedy run) and hands it back on the Model as an
`ActiveSet`, a read-only tuple in entry order. A `RefitState` carries
what consecutive refits of one run share: the dense active block, which
grows by the entering columns only, and a lagged inverse Hessian
P = H(w_ref)^-1 taken at some earlier iterate. Each entering column
borders P through its Schur complement (the bordering of Batch-OMP,
Rubinstein, Zibulevsky & Elad, 2008), and P preconditions `cg`. Only
when CG needs more than `_CG_MAX` steps, or P is missing, is the dense
Hessian rebuilt at O(n k^2) and inverted, so a whole greedy run builds
it a handful of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100  # Newton steps

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
# A predicted decrease below this fraction of (1 + |objective|) is under the
# objective's float resolution, so the Armijo test cannot judge the step.
_NOISE_FLOOR = 1e-10
# CG stops once its residual norm is at most this times min(0.5, sqrt|g|)|g|
# (an inexact-Newton forcing term, Nocedal & Wright ch. 7); past _CG_MAX
# steps the lagged preconditioner is stale and the Hessian is rebuilt.
_CG_FORCING = 1e-3
_CG_MAX = 8
# A Schur complement at most this fraction of its column's own curvature is
# cancellation noise: the column lies in the span of the active ones.
_SCHUR_FLOOR = 1e-10


class ActiveSet(tuple):
    """A fitted model's support: its feature indices, read-only, in the
    order they entered. ``ascending()`` gives the sorted view."""

    __slots__ = ()

    def ascending(self):
        return sorted(self)

    def n_selected(self, bias_col=None):
        """Active count excluding the bias column."""
        return len(self) - (bias_col is not None and bias_col in self)


def check_non_negative(name, value):
    """Raise unless value is finite and non-negative; written as a range
    test so that NaN is rejected too."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0")


def check_count(name, value, low=1):
    """Raise unless value is an integer of at least low: the one count
    rule. A float, even a whole or NaN one, is not a count."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


@dataclass(kw_only=True)
class RefitWork:
    """A solver call's work, on its Model and on each greedy record.

    converged is False when the solver stopped short of its tolerance, at
    its iteration cap or for want of a decrease. n_iter counts Newton
    steps; a restricted fit also counts its CG steps and dense Hessian
    builds."""

    converged: bool = True
    n_iter: int = 0
    cg_steps: int = 0
    hessian_builds: int = 0


@dataclass
class Model(RefitWork):
    """Weights over all d features, zero off the active set (the last
    accepted iterate when not converged), and the solver's RefitWork."""

    theta: np.ndarray
    active: ActiveSet


def sigmoid(z):
    """Logistic function, overflow-safe for any finite input."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) elsewhere
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def softplus(z):
    """log(1 + exp(z)) without overflow; returns z itself for z > 35."""
    z = np.asarray(z, dtype=np.float64)
    return np.where(z > 35.0, z, np.log1p(np.exp(np.minimum(z, 35.0))))


def penalty(X, strength, penalize_bias):
    """Per-column penalty weights of X: strength, or 0.0 at the bias unless
    penalize_bias. L2 terms pass 2 lam and the caller's flag; the L1 term
    passes its lambda and always False.
    """
    mask = np.ones(X.n_cols)
    if not penalize_bias and X.bias_col is not None:
        mask[X.bias_col] = 0.0
    return strength * mask


def value_and_gradient(X, y, theta, ridge):
    """Logistic loss sum plus sum(ridge * theta**2) / 2, and its gradient.

    ridge is the L2 term's per-column curvature, penalty(X, 2 lam, ...).
    y and theta must be float64 arrays of X's row and column counts.
    """
    z = X.mat_vec(theta)
    s = sigmoid(-y * z)
    val = float(np.sum(softplus(-y * z)) + 0.5 * np.sum(ridge * theta ** 2))
    grad = X.correlations(-y * s) + ridge * theta
    return val, grad


def checked_labels(X, y):
    """y as a float64 array, checked to hold one label per row of X."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.n_rows,):
        raise ValueError(f"y length {y.shape} != ({X.n_rows},)")
    return y


def _as_checked(X, y, theta):
    """y and theta as float64 arrays, checked against X's shape."""
    y = checked_labels(X, y)
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (X.n_cols,):
        raise ValueError(f"theta length {theta.shape} != ({X.n_cols},)")
    return y, theta


def objective(X, y, theta, lam, penalize_bias=True):
    """Sum of logistic losses plus lam * ||theta||_2^2.

    The penalty covers every coordinate including the bias; pass
    penalize_bias=False to exempt it.
    """
    y, theta = _as_checked(X, y, theta)
    ridge = penalty(X, 2.0 * lam, penalize_bias)
    return value_and_gradient(X, y, theta, ridge)[0]


def gradient(X, y, theta, lam, penalize_bias=True):
    """Gradient of objective(): X^T(-y * sigma(-y X theta)) + 2 lam theta."""
    y, theta = _as_checked(X, y, theta)
    ridge = penalty(X, 2.0 * lam, penalize_bias)
    return value_and_gradient(X, y, theta, ridge)[1]


def residual(X, theta, y):
    """Prediction residual sigma(X theta) - 1[y == +1], componentwise in
    [-1, 1]: once |X theta| passes about 37 the sigmoid rounds to 0 or 1,
    and a misclassified row's residual is then exactly -1.0 or 1.0."""
    y, theta = _as_checked(X, y, theta)
    return sigmoid(X.mat_vec(theta)) - (y > 0).astype(np.float64)


class RefitState:
    """What the restricted refits of one greedy run share.

    block() is the dense active block, columns in insertion order, in a
    Fortran-order buffer that grows geometrically. inv_hessian is the
    lagged P = H(w_ref)^-1 over those columns, or None while missing;
    w_ref holds the curvature weights s(1 - s) it was built at. singular
    is True once the Hessian of the current block failed to invert (P is
    then its pseudo-inverse), so refits skip the O(n k^2) rebuild until a
    column enters. The state belongs to one design and to the penalty
    curvature of each column: `sync` starts it afresh when the design or a
    column's penalty differs (another lam or bias rule), or its columns are
    not a prefix of the active order.
    """

    def __init__(self):
        self._reset(None)

    def _reset(self, X):
        self.X = X
        self.order = []
        self.ridge = np.empty(0)
        self._buf = np.empty((0 if X is None else X.n_rows, 0), order="F")
        self.inv_hessian = None
        self.w_ref = None
        self.singular = False

    def block(self):
        return self._buf[:, :len(self.order)]

    def sync(self, X, order, ridge):
        """Extend the block and P to the active `order`; returns the block.

        ridge[i] is the penalty curvature 2 lam mask of column order[i].
        """
        k = len(self.order)
        if not (self.X is X and order[:k] == self.order
                and np.array_equal(ridge[:k], self.ridge)):
            self._reset(X)
            k = 0
        if len(order) > k:
            new = X.densify_columns(order[k:])
            if len(order) > self._buf.shape[1]:
                grown = np.empty((X.n_rows, max(len(order),
                                                2 * self._buf.shape[1])),
                                 order="F")
                grown[:, :k] = self._buf[:, :k]
                self._buf = grown
            self._buf[:, k:len(order)] = new
            for i in range(k, len(order)):
                self._border(i, ridge[i])
            self.order, self.ridge = list(order), ridge
            self.singular = False
        return self.block()

    def _border(self, i, ridge):
        """Grow P = H(w_ref)^-1 by column i through its Schur complement
        c - b^T P b, with b = A^T (w_ref x) over the i columns before it."""
        P = self.inv_hessian
        if P is None:
            return
        x = self._buf[:, i]
        wx = self.w_ref * x
        b = self._buf[:, :i].T @ wx
        c = float(x @ wx) + ridge
        Pb = P @ b
        schur = c - float(b @ Pb)
        if not schur > _SCHUR_FLOOR * c:
            self.inv_hessian = None  # (numerically) dependent column
            return
        u = Pb / schur
        grown = np.empty((i + 1, i + 1))
        np.add(P, np.outer(u, Pb), out=grown[:i, :i])
        grown[:i, i] = grown[i, :i] = -u
        grown[i, i] = 1.0 / schur
        self.inv_hessian = grown

    def rebuild(self, w, ridge):
        """Build the exact Hessian at weights w and invert it into P. When
        the inverse fails, P is the pseudo-inverse, whose step is the
        minimum-norm Newton step, and the block is marked singular; P is
        None only when that fails too."""
        A = self.block()
        H = A.T @ (A * w[:, None])
        H[np.diag_indices_from(H)] += ridge
        try:
            P = np.linalg.inv(H)
        except np.linalg.LinAlgError:
            P = None
        self.singular = P is None or not np.all(np.isfinite(P))
        if self.singular:
            try:
                P = np.linalg.pinv(H, hermitian=True)
            except np.linalg.LinAlgError:  # the eigensolver did not converge
                P = None
        self.inv_hessian, self.w_ref = P, w


def _descent(step, grad):
    """step when it is finite and downhill along -grad, else None."""
    if step is None or not np.all(np.isfinite(step)) \
            or float(grad @ step) >= 0.0:
        return None
    return step


def violations(x, grad, l1):
    """Per-coordinate KKT violation at x of a smooth part with gradient
    grad plus sum(l1 * |x|): |grad + l1 sign(x)| where x is nonzero and
    max(|grad| - l1, 0) where it is zero; |grad| itself when l1 is 0."""
    return np.where(x != 0, np.abs(grad + l1 * np.sign(x)),
                    np.maximum(np.abs(grad) - l1, 0.0))


def cg(hess, precond, rhs, small, max_steps):
    """Conjugate gradients for hess(p) = rhs from p = 0, preconditioned by
    precond(r); returns (p, Hessian products taken, solved). solved is True
    once small(residual) holds; CG gives up after max_steps products, or
    when the curvature along a direction or r^T precond(r) is not positive,
    and p is then its last iterate."""
    p = np.zeros_like(rhs)
    r = rhs  # never updated in place: precond(r) may return r itself
    if small(r):
        return p, 0, True
    d = precond(r)
    rz = float(r @ d)
    for steps in range(1, max_steps + 1):
        Hd = hess(d)
        curv = float(d @ Hd)
        if not (curv > 0.0 and rz > 0.0):
            return p, steps, False
        alpha = rz / curv
        p += alpha * d
        r = r - alpha * Hd
        if small(r):
            return p, steps, True
        z = precond(r)
        rz_next = float(r @ z)
        d = z + (rz_next / rz) * d
        rz = rz_next
    return p, max_steps, False


def newton(mat_vec, correlations, direction, x, y, ridge, l1, tol,
           max_steps):
    """Damped Newton from x on the block objective of columns B,
    sum(softplus(-y * B x)) + sum(ridge * x**2) / 2 + sum(l1 * |x|).

    mat_vec(x) is B x and correlations(v) is B^T v. direction(x, grad, w,
    viol) gives the step at x, for the gradient grad of the smooth part,
    the curvature weights w = s(1 - s) and the largest KKT violation viol.
    A step is cut back from t = 1 by halving until it passes the Armijo
    test; a trial whose objective is not finite fails it. A step whose
    predicted decrease is below the objective's float resolution is taken
    whole, since Armijo cannot tell it from rounding. Stops converged once
    no violation exceeds tol, tested after the last allowed step too; stops
    unconverged at max_steps, on an uphill step, or when _MAX_BACKTRACKS
    halvings find no decrease. Returns (x, steps taken, converged); raises
    FloatingPointError when the objective at the start is not finite.
    An all-zero l1 (the refit's, ridge's) skips the L1 terms, which would
    only add 0.0. The margins -y * B x are formed once per trial and serve
    both the objective's softplus and, once accepted, the sigmoid.
    """
    has_l1 = bool(np.any(l1))
    neg_y = -y

    def value(x):
        margins = neg_y * mat_vec(x)
        val = np.sum(softplus(margins)) + 0.5 * np.sum(ridge * x ** 2)
        if has_l1:
            val += np.sum(l1 * np.abs(x))
        return float(val), margins

    val, margins = value(x)
    if not np.isfinite(val):
        raise FloatingPointError(f"objective is not finite ({val!r})")
    for steps in range(max_steps + 1):
        s = sigmoid(margins)
        grad = correlations(neg_y * s) + ridge * x
        viol = float(np.max(violations(x, grad, l1) if has_l1
                            else np.abs(grad)))
        if viol <= tol:
            return x, steps, True
        if steps == max_steps:
            break
        step = direction(x, grad, s * (1.0 - s), viol)
        slope = grad @ step
        if has_l1:
            slope += l1 @ (np.abs(x + step) - np.abs(x))
        slope = float(slope)
        if not slope <= 0.0:  # uphill: no step length decreases it
            break
        below_noise = -slope <= _NOISE_FLOOR * (1.0 + abs(val))
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            cand_val, cand_margins = value(x + t * step)
            if cand_val <= val + _ARMIJO_C * t * slope \
                    or below_noise and cand_val < np.inf:
                break
            t *= 0.5
        else:
            break  # no decrease found
        x, val, margins = x + t * step, cand_val, cand_margins
    return x, steps, False


def fit_restricted(X, y, active, lam, tol=DEFAULT_TOL,
                   max_iter=DEFAULT_MAX_ITER, warm_start=None,
                   penalize_bias=True, state=None):
    """Minimize the L2-penalized logistic loss with support restricted to `active`.

    `newton` on the active coordinates until the restricted gradient
    infinity-norm drops to `tol`. Its direction is CG preconditioned with
    the lagged inverse Hessian of `state`; the dense Hessian is rebuilt at
    the current iterate and inverted, giving the exact Newton step, only
    when CG needs more than `_CG_MAX` steps or P is missing. A singular
    Hessian gives the minimum-norm Newton step through its pseudo-inverse,
    and is not rebuilt until a column enters; a gradient step is taken when
    no inverse is at hand or its step is not a descent direction.
    Non-convergence is flagged on the returned Model, not raised.

    warm_start: optional weight vector over all of X's columns to
    initialize from (off-support entries are ignored; new coordinates
    start at 0).
    state: the `RefitState` a greedy run passes to every refit, so the
    dense block and P carry over; without one a fresh state is built and
    the first Newton step is the exact dense solve.
    """
    y = checked_labels(X, y)
    check_non_negative("lambda", lam)
    check_count("max_iter", max_iter)
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=np.float64)
        if warm_start.shape != (X.n_cols,):
            raise ValueError(f"warm_start length {warm_start.shape} != "
                             f"({X.n_cols},)")
    order = np.asarray(active, dtype=np.int64)
    out_of_range = order[(order < 0) | (order >= X.n_cols)]
    if out_of_range.size:
        raise IndexError(f"active index {out_of_range[0]} out of range")
    values, counts = np.unique(order, return_counts=True)
    if values.size < order.size:
        raise ValueError(f"index {values[counts > 1][0]} already active")
    active = ActiveSet(order.tolist())

    theta = np.zeros(X.n_cols)
    if not active:
        return Model(theta=theta, active=active)

    ridge = penalty(X, 2.0 * float(lam), penalize_bias)[order]
    if state is None:
        state = RefitState()
    A = state.sync(X, list(active), ridge)
    coef = np.zeros(len(order)) if warm_start is None \
        else warm_start[order]
    work = RefitWork()

    def direction(coef, grad, w, viol):
        step = None
        P = state.inv_hessian
        if P is not None:
            # norm(v) is sqrt(v @ v) on a 1-D float array
            gnorm = math.sqrt(grad @ grad)
            forcing = _CG_FORCING * min(0.5, math.sqrt(gnorm)) * gnorm

            def hess(d):
                hd = A @ d
                hd *= w
                hd = A.T @ hd
                hd += ridge * d
                return hd

            p, used, solved = cg(
                hess, lambda r: P @ r, -grad,
                lambda r: math.sqrt(r @ r) <= forcing, _CG_MAX)
            work.cg_steps += used
            step = _descent(p, grad) if solved else None
        if step is None and not state.singular:
            state.rebuild(w, ridge)
            work.hessian_builds += 1
            if state.inv_hessian is not None:
                step = _descent(-(state.inv_hessian @ grad), grad)
                if step is None:
                    state.inv_hessian = None
        return -grad if step is None else step  # fallback: gradient step

    coef, work.n_iter, work.converged = newton(
        lambda c: A @ c, lambda v: A.T @ v, direction, coef, y, ridge,
        np.zeros(len(order)), tol, max_iter)
    theta[order] = coef
    return Model(theta=theta, active=active, **vars(work))
