"""Lasso, ridge, and elastic-net penalized logistic regression.

One solver covers all three: proximal gradient descent (ISTA) with
backtracking on the smooth part (logistic loss + L2 term) and a
soft-threshold prox for the L1 term. The smooth part is the shared
kernel `logistic.value_and_gradient`; the penalty weights follow the one
bias rule, `logistic.penalty_mask`: the L1 penalty never covers the bias,
and the L2 penalty covers it unless penalize_bias is False.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logistic import ActiveSet, Model, penalty_mask, value_and_gradient

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 5000


@dataclass
class PenaltyConfig:
    lambda_l1: float = 0.0
    lambda_l2: float = 0.0

    def __post_init__(self):
        if self.lambda_l1 < 0 or self.lambda_l2 < 0:
            raise ValueError("penalty strengths must be non-negative")


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _max_violation(theta, grad, l1_vec):
    nz = theta != 0
    viol = np.where(nz,
                    np.abs(grad + l1_vec * np.sign(theta)),
                    np.maximum(np.abs(grad) - l1_vec, 0.0))
    return float(np.max(viol))


def kkt_violation(X, y, theta, cfg, penalize_bias=True):
    """Max violation of the soft-threshold optimality conditions.

    Zero coordinates must have |smooth gradient| <= lambda_l1; nonzero
    ones must satisfy smooth gradient + lambda_l1 * sign(theta) = 0.
    """
    y = np.asarray(y, dtype=np.float64)
    l2_mask = penalty_mask(X.n_cols, X.bias_col, penalize_bias)
    _, grad = value_and_gradient(X, y, theta, cfg.lambda_l2, l2_mask)
    l1_vec = cfg.lambda_l1 * penalty_mask(X.n_cols, X.bias_col, False)
    return _max_violation(theta, grad, l1_vec)


def fit_penalized(X, y, cfg, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                  penalize_bias=True):
    """Minimize sum of logistic losses + l1*||theta||_1 + l2*||theta||_2^2.

    Backtracking proximal gradient: each accepted step satisfies the
    quadratic upper-bound test, so the penalized objective never increases.
    Convergence is declared when the KKT violation reaches `tol`; hitting
    max_iter flags the returned Model instead of raising. Raises
    FloatingPointError when a trial step's objective or the step-size
    bound L overflows.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.n_rows,):
        raise ValueError(f"y length {y.shape} != ({X.n_rows},)")

    l1, l2 = float(cfg.lambda_l1), float(cfg.lambda_l2)
    l1_vec = l1 * penalty_mask(X.n_cols, X.bias_col, False)
    l2_mask = penalty_mask(X.n_cols, X.bias_col, penalize_bias)
    theta = np.zeros(X.n_cols)

    # L only ever grows: each doubling is validated by the quadratic-bound
    # test while its margin is measurably above float noise, so the final
    # step size 1/L stays a true majorizer and the prox map contracts.
    L = 1.0
    val, grad = value_and_gradient(X, y, theta, l2, l2_mask)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        if _max_violation(theta, grad, l1_vec) <= tol:
            converged = True
            n_iter -= 1
            break

        while True:
            step = theta - grad / L
            cand = _soft_threshold(step, l1_vec / L)
            diff = cand - theta
            cand_val, cand_grad = value_and_gradient(X, y, cand, l2, l2_mask)
            # doubling L cannot recover from overflow: fail instead of looping
            if not (np.isfinite(L) and np.isfinite(cand_val)):
                raise FloatingPointError(
                    f"proximal step left the finite range (L={L!r}, "
                    f"objective={cand_val!r})")
            quad = 0.5 * L * float(diff @ diff)
            if quad <= 1e-10 * (1.0 + abs(val)):
                break  # margin below noise: take the validated fixed step
            if cand_val <= val + float(grad @ diff) + quad:
                break
            L *= 2.0
        theta, val, grad = cand, cand_val, cand_grad

    active = ActiveSet(np.nonzero(theta)[0])
    return Model(theta=theta, active=active, converged=converged,
                 n_iter=n_iter)


def sparsity(model, bias_col="last"):
    """Percentage of non-zero non-bias weights: 100 * nnz / (d - 1).

    Lower is sparser; a dense model reports 100.0. bias_col="last" follows
    the bias-in-last-column convention; pass None for a matrix without one.
    """
    theta = model.theta if isinstance(model, Model) else np.asarray(model)
    d = len(theta)
    if bias_col == "last":
        bias_col = d - 1
    nz = int(np.count_nonzero(theta))
    denom = d
    if bias_col is not None:
        nz -= 1 if theta[bias_col] != 0 else 0
        denom -= 1
    if denom <= 0:
        return 0.0
    return 100.0 * nz / denom
