"""Lasso, ridge, and elastic-net penalized logistic regression.

One solver covers all of them: working-set proximal Newton, as in
newGLMNET (Yuan, Ho & Lin, JMLR 2012) with glmnet's working sets
(Friedman, Hastie & Tibshirani, 2010). Each outer pass takes one full
gradient with the shared kernel `logistic.value_and_gradient` and stops
once the KKT violation of every column is at most `tol`. Otherwise the
working set W is the support, the bias and every violating column, and
Newton steps run over W's columns alone until W's own violation reaches
`tol`. W's columns are copied once per outer pass into one SparseMatrix,
and every product runs on that copy: the pass hands `logistic.newton` a
`direction` closure over it, as the greedy refit does. The L2 term is
one per-column curvature vector, ridge = penalty(X, 2 lambda_l2, ...),
built once per fit. With no L1 penalty every column with a gradient
violates, so W is the whole design; nothing below densifies W's columns.

A Newton step minimizes the quadratic model of the smooth part plus the
exact L1 term. If some coordinate has an L1 term, one FISTA pass (Beck &
Teboulle, 2009) with adaptive restart (O'Donoghue & Candès, 2015), in
the metric of the Hessian's diagonal, finds the model's face: the signs
of its minimizer. One CG solve then minimizes the model on that face,
where the L1 term is linear; a coordinate without one, the bias
included, is always free. Both need only Hessian-vector products, taken
from that sparse copy. The steps run in `logistic.newton`, the loop the
greedy refit uses too: each step is cut back until it passes the Armijo
test on the true objective, so the objective never increases, and when no
step length decreases it the fit ends unconverged at its last accepted
iterate. A trial whose objective overflows is halved like any failed
trial; a curvature or a Newton step that overflows raises. The
penalty weights follow the one bias rule, `logistic.penalty`: the L1
penalty never covers the bias, and the L2 penalty covers it unless
penalize_bias is False.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .logistic import (DEFAULT_MAX_ITER, DEFAULT_TOL, ActiveSet, Model, cg,
                       check_count, check_non_negative, checked_labels,
                       newton, penalty, value_and_gradient, violations)

# A Newton step solves its model to a KKT violation of
# _INNER_FORCING * min(1, v) * v, for the violation v at the current
# iterate (an inexact-Newton forcing term, Nocedal & Wright ch. 7). With
# an L1 term, one FISTA pass runs until its signs hold for _FACE_STABLE
# steps (at most _FISTA_MAX); short of that tolerance, one CG solve (at
# most _CG_MAX steps) runs on its face, where unpenalized coordinates are
# free, and is tried whole, to its first sign change, and halved up to
# _FACE_BACKTRACKS - 1 times.
_INNER_FORCING = 0.3
_FISTA_MAX = 50
_FACE_STABLE = 5
_CG_MAX = 100
_FACE_BACKTRACKS = 8


@dataclass
class PenaltyConfig:
    lambda_l1: float = 0.0
    lambda_l2: float = 0.0

    def __post_init__(self):
        check_non_negative("lambda_l1", self.lambda_l1)
        check_non_negative("lambda_l2", self.lambda_l2)


def _soft_threshold(v, t):
    return v - np.clip(v, -t, t)


def kkt_violation(X, y, theta, cfg, penalize_bias=True):
    """Max violation of the soft-threshold optimality conditions.

    Zero coordinates must have |smooth gradient| <= lambda_l1; nonzero
    ones must satisfy smooth gradient + lambda_l1 * sign(theta) = 0.
    """
    y = checked_labels(X, y)
    ridge = penalty(X, 2.0 * float(cfg.lambda_l2), penalize_bias)
    _, grad = value_and_gradient(X, y, theta, ridge)
    l1 = penalty(X, cfg.lambda_l1, False)
    return float(np.max(violations(theta, grad, l1)))


def fit_penalized(X, y, cfg, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                  penalize_bias=True):
    """Minimize sum of logistic losses + l1*||theta||_1 + l2*||theta||_2^2.

    Working-set proximal Newton (see the module docstring). Every accepted
    step passes the Armijo test, so the penalized objective never
    increases. Convergence is declared when the KKT violation over every
    column reaches `tol`; max_iter (>= 1) caps the Newton steps, and hitting
    it, or finding no decrease, flags the returned Model instead of raising.
    Raises FloatingPointError when the curvature or a Newton step
    overflows.
    """
    y = checked_labels(X, y)
    check_non_negative("tol", tol)
    check_count("max_iter", max_iter)

    l1 = penalty(X, float(cfg.lambda_l1), False)
    ridge = penalty(X, 2.0 * float(cfg.lambda_l2), penalize_bias)
    theta = np.zeros(X.n_cols)
    n_iter = 0
    while True:
        cols = _working_set(X, y, theta, l1, ridge, tol)
        if cols is None or n_iter >= max_iter:
            break
        # W's columns, copied once; every other weight is held at zero.
        block, l1_w, ridge_w = X.submatrix(cols), l1[cols], ridge[cols]
        L = 1.0  # FISTA's curvature bound, carried across the pass's steps

        def direction(x, grad, w, viol):
            nonlocal L
            step, L = _Model(block, w, ridge_w, x, grad,
                             l1_w).newton_step(L, viol)
            return step

        theta[cols], steps, solved = newton(
            block.mat_vec, block.correlations, direction, theta[cols], y,
            ridge_w, l1_w, tol, max_iter - n_iter)
        del block, direction  # one copy of W's columns at a time
        n_iter += steps
        if not solved:  # the cap, or no decrease on the working set
            break
    return Model(theta=theta, active=ActiveSet(np.flatnonzero(theta).tolist()),
                 converged=cols is None, n_iter=n_iter)


def _working_set(X, y, theta, l1, ridge, tol):
    """The support, the bias and every column whose KKT violation at theta
    is positive, or None when no violation exceeds tol."""
    _, grad = value_and_gradient(X, y, theta, ridge)
    viol = violations(theta, grad, l1)
    if np.max(viol) <= tol:
        return None
    work = (theta != 0) | (viol > 0)
    if X.bias_col is not None:
        work[X.bias_col] = True
    return np.flatnonzero(work)


class _Point(NamedTuple):
    """A point u of a Newton step's model: its value, u, H (u - theta)."""
    val: float
    u: np.ndarray
    Hd: np.ndarray


class _Model:
    """The quadratic model of a Newton step at theta, with the exact L1
    term: q(u) = grad.d + d.H.d / 2 + |l1 u|_1 - |l1 theta|_1, d = u - theta,
    where H = B^T diag(w) B + diag(ridge) over the block's columns B. m is
    H's diagonal, the metric of FISTA and CG's preconditioner."""

    def __init__(self, block, w, ridge, theta, grad, l1):
        self.block, self.w, self.ridge = block, w, ridge
        self.theta, self.grad, self.l1 = theta, grad, l1
        self.m = block.weighted_sq_norms(w) + ridge
        if not np.all(np.isfinite(self.m)):
            raise FloatingPointError("curvature overflowed")
        self.m[self.m <= 0.0] = 1.0  # no curvature: that row of H is 0 too

    def hess(self, d):
        return self.block.correlations(self.w * self.block.mat_vec(d)) \
            + self.ridge * d

    def point(self, u):
        d = u - self.theta
        Hd = self.hess(d)
        val = float(self.grad @ d + 0.5 * (d @ Hd)
                    + self.l1 @ (np.abs(u) - np.abs(self.theta)))
        return _Point(val, u, Hd)

    def violation(self, p):
        return float(np.max(violations(p.u, self.grad + p.Hd, self.l1)))

    def fista(self, start, L, tol):
        """FISTA in the metric M = diag(H) from `start` until its signs hold
        for _FACE_STABLE steps or the violation is at most tol; returns
        (the lowest point, L). Each step soft-thresholds
        v - M^-1 (grad + H (v - theta)) / L. L doubles whenever a step's
        curvature exceeds L in that metric, as backtracking FISTA does, and
        momentum restarts when it points uphill."""
        grad, l1, m = self.grad, self.l1, self.m
        best = u = v = start
        t = 1.0
        stable = 0
        for _ in range(_FISTA_MAX):
            scale = L * m
            cand = self.point(_soft_threshold(v.u - (grad + v.Hd) / scale,
                                              l1 / scale))
            diff = cand.u - v.u
            if diff @ (cand.Hd - v.Hd) > L * (diff @ (m * diff)):
                L *= 2.0
                continue
            if cand.val < best.val:
                best = cand
            if self.violation(cand) <= tol:
                return cand, L
            stable = stable + 1 if np.array_equal(np.sign(cand.u),
                                                  np.sign(u.u)) else 0
            if stable >= _FACE_STABLE:
                break
            if (v.u - cand.u) @ (m * (cand.u - u.u)) > 0.0:
                t = 1.0  # momentum points uphill: restart
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            v = _Point(None, cand.u + beta * (cand.u - u.u),
                       cand.Hd + beta * (cand.Hd - u.Hd))
            u, t = cand, t_next
        return best, L

    def face_step(self, p, tol):
        """p moved by CG, preconditioned with M, on p's face: its nonzeros
        and every coordinate without an L1 term. Returns the lower of p and
        the moved point: the whole step, cut back to the orthant of p's L1
        coordinates, if that lowers the model; else the lower of the step to
        its first sign change and the first halving that lowers the model."""
        sign = np.where(self.l1 > 0.0, np.sign(p.u), 0.0)
        face = (sign != 0) | (self.l1 == 0.0)
        e = cg(lambda d: np.where(face, self.hess(d), 0.0),
               lambda r: r / self.m,
               np.where(face, -(self.grad + p.Hd + self.l1 * sign), 0.0),
               lambda r: np.max(np.abs(r)) <= tol, _CG_MAX)[0]

        def along(alpha):  # p + alpha e, cut back to the orthant
            u = p.u + alpha * e
            u[sign * u < 0.0] = 0.0
            return self.point(u)

        def lower(a, b):
            return b if b.val < a.val else a

        trial = along(1.0)
        if trial.val >= p.val:
            crossing = sign * e < 0.0
            first = np.min(-p.u[crossing] / e[crossing]) \
                if crossing.any() else 1.0
            if first < 1.0:
                trial = lower(trial, along(first))
            for k in range(1, _FACE_BACKTRACKS):
                halved = along(0.5 ** k)
                trial = lower(trial, halved)
                if halved.val < p.val:
                    break
        return lower(p, trial)

    def newton_step(self, L, viol):
        """(d, L'): d = u - theta for an approximate minimizer u of the
        model, to a KKT violation of _INNER_FORCING * min(1, viol) * viol,
        and the curvature bound L' that FISTA ended at, or L when FISTA
        does not run. FISTA starts from max(1, L / 2) and `face_step` from
        FISTA's lowest point, so d is a descent direction."""
        tol = _INNER_FORCING * min(1.0, viol) * viol
        point = _Point(0.0, self.theta, np.zeros_like(self.theta))
        if self.l1.any():  # with no L1 term the face is the whole block
            point, L = self.fista(point, max(1.0, 0.5 * L), tol)
        if self.violation(point) > tol:
            point = self.face_step(point, tol)
        step = point.u - self.theta
        if not np.all(np.isfinite(step)):
            raise FloatingPointError("Newton step overflowed")
        return step, L


def n_nonzero(theta, bias_col=None):
    """Nonzero weights of theta, the bias not counted."""
    nz = int(np.count_nonzero(theta))
    if bias_col is not None and theta[bias_col] != 0:
        nz -= 1
    return nz


def sparsity(model, bias_col="last"):
    """Percentage of non-zero non-bias weights: 100 * nnz / (d - 1).

    Lower is sparser; a dense model reports 100.0. bias_col="last" follows
    the bias-in-last-column convention; pass None for a matrix without one.
    """
    theta = model.theta if isinstance(model, Model) else np.asarray(model)
    d = len(theta)
    if bias_col == "last":
        bias_col = d - 1
    denom = d - (bias_col is not None)
    if denom <= 0:
        return 0.0
    return 100.0 * n_nonzero(theta, bias_col) / denom
