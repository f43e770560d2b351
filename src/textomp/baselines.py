"""Lasso, ridge, and elastic-net penalized logistic regression.

One solver covers all three: proximal gradient descent (ISTA) with
backtracking on the smooth part (logistic loss + L2 term) and a
soft-threshold prox for the L1 term. The bias column is never shrunk by
the L1 penalty; its L2 treatment follows the same flag as the restricted
Newton fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logistic import ActiveSet, Model, sigmoid, softplus

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 5000


@dataclass
class PenaltyConfig:
    lambda_l1: float = 0.0
    lambda_l2: float = 0.0

    def __post_init__(self):
        if self.lambda_l1 < 0 or self.lambda_l2 < 0:
            raise ValueError("penalty strengths must be non-negative")


def _l1_mask(n_cols, bias_col):
    mask = np.ones(n_cols)
    if bias_col is not None:
        mask[bias_col] = 0.0
    return mask


def _smooth_parts(X, y, theta, l2, l2_mask):
    """Value and gradient of logistic loss + l2 * sum(mask * theta^2)."""
    z = X.mat_vec(theta)
    s = sigmoid(-y * z)
    val = float(np.sum(softplus(-y * z)) + l2 * np.sum(l2_mask * theta ** 2))
    grad = X.correlations(-y * s) + 2.0 * l2 * l2_mask * theta
    return val, grad


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def kkt_violation(X, y, theta, cfg, penalize_bias=True):
    """Max violation of the soft-threshold optimality conditions.

    Zero coordinates must have |smooth gradient| <= lambda_l1; nonzero
    ones must satisfy smooth gradient + lambda_l1 * sign(theta) = 0.
    """
    y = np.asarray(y, dtype=np.float64)
    l2_mask = np.ones(X.n_cols)
    if not penalize_bias and X.bias_col is not None:
        l2_mask[X.bias_col] = 0.0
    _, grad = _smooth_parts(X, y, theta, cfg.lambda_l2, l2_mask)
    l1 = cfg.lambda_l1 * _l1_mask(X.n_cols, X.bias_col)
    nz = theta != 0
    viol = np.where(nz,
                    np.abs(grad + l1 * np.sign(theta)),
                    np.maximum(np.abs(grad) - l1, 0.0))
    return float(np.max(viol))


def fit_penalized(X, y, cfg, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                  warm_start=None, penalize_bias=True):
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

    l1_mask = _l1_mask(X.n_cols, X.bias_col)
    l2_mask = np.ones(X.n_cols)
    if not penalize_bias and X.bias_col is not None:
        l2_mask[X.bias_col] = 0.0
    l1, l2 = float(cfg.lambda_l1), float(cfg.lambda_l2)

    theta = np.zeros(X.n_cols) if warm_start is None \
        else np.asarray(warm_start, dtype=np.float64).copy()

    def total(th, smooth_val):
        return smooth_val + l1 * np.sum(l1_mask * np.abs(th))

    # L only ever grows: each doubling is validated by the quadratic-bound
    # test while its margin is measurably above float noise, so the final
    # step size 1/L stays a true majorizer and the prox map contracts.
    L = 1.0
    val, grad = _smooth_parts(X, y, theta, l2, l2_mask)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        nz = theta != 0
        viol = np.where(nz,
                        np.abs(grad + l1 * l1_mask * np.sign(theta)),
                        np.maximum(np.abs(grad) - l1 * l1_mask, 0.0))
        if float(np.max(viol)) <= tol:
            converged = True
            n_iter -= 1
            break

        while True:
            step = theta - grad / L
            cand = _soft_threshold(step, l1 * l1_mask / L)
            diff = cand - theta
            cand_val, cand_grad = _smooth_parts(X, y, cand, l2, l2_mask)
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
    return Model(theta=theta, active=active, lam=l2,
                 converged=converged, n_iter=n_iter)


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
