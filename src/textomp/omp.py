"""Greedy logistic orthogonal matching pursuit.

Loop: pick the inactive column most correlated with the residual, add it
to the active set, refit the L2-penalized logistic model on the enlarged
support, recompute the residual, repeat until the feature budget is hit,
the winning correlation falls to the precision threshold, or no candidate
columns remain. `run_greedy` is this loop, with the pick left to a step.

The bias column is active from the start and never counted against the
budget; the first selection correlates against the raw labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .logistic import (DEFAULT_MAX_ITER, DEFAULT_TOL, ActiveSet, Model,
                       fit_restricted, residual)

CHECKPOINT_INTERVAL = 100


@dataclass
class GreedyConfig:
    """Settings shared by OMP and group OMP."""

    budget: int = 2000
    epsilon: float = 0.0
    lam: float = 1.0
    penalize_bias: bool = True
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    checkpoint_interval: int = CHECKPOINT_INTERVAL

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")


@dataclass
class OMPConfig(GreedyConfig):
    normalize_columns: bool = False


@dataclass
class SelectionRecord:
    """One greedy iteration: which column won and with what correlation."""

    index: int
    score: float
    converged: bool = True

    @property
    def members_added(self):
        return (self.index,)


@dataclass
class Trajectory:
    """Per-iteration selection records plus periodic weight snapshots.

    checkpoints holds (active non-bias feature count, theta copy) pairs,
    taken once the count reaches each checkpoint_interval multiple and at
    termination, so accuracy-vs-atom-count curves replay without refitting.
    """

    records: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)

    def selected_indices(self):
        """Every activated index, in activation order."""
        return [j for rec in self.records for j in rec.members_added]


def select_feature(X, r, active, col_norms=None):
    """Inactive column with the largest |X_j^T r|; ties go to the lowest index.

    The bias column never competes (it is always active). col_norms, when
    given, rescales each score by 1/col_norms[j] (unit-L2 column scaling).
    Returns (index, signed correlation). Raises when no candidate remains.
    """
    scores = X.correlations(r)
    mask = np.ones(X.n_cols, dtype=bool)
    if X.bias_col is not None:
        mask[X.bias_col] = False
    for j in active:
        mask[j] = False
    if not mask.any():
        raise ValueError("no inactive candidate columns remain")
    ranked = np.abs(scores)
    if col_norms is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            ranked = np.where(col_norms > 0, ranked / col_norms, 0.0)
    ranked = np.where(mask, ranked, -1.0)
    j = int(np.argmax(ranked))
    return j, float(scores[j])


def run_greedy(X, y, cfg, select, on_refit=None):
    """The loop of OMP and group OMP; returns (final Model, Trajectory).

    select(r, active) returns None when nothing is left, else the winner's
    correlation norm ||X_W^T r|| and a record whose members_added enter
    the active set unless the norm is at most cfg.epsilon. on_refit, when
    given, is called with the active set after every refit.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.n_rows,):
        raise ValueError(f"y length {y.shape} != ({X.n_rows},)")

    active = ActiveSet([X.bias_col] if X.bias_col is not None else [])
    traj = Trajectory()
    if active:
        model = fit_restricted(X, y, active, cfg.lam, tol=cfg.tol,
                               max_iter=cfg.max_iter,
                               penalize_bias=cfg.penalize_bias)
    else:
        model = Model(theta=np.zeros(X.n_cols), active=active, lam=cfg.lam)
    r = y.copy()  # first selection correlates against the raw labels

    next_mark = cfg.checkpoint_interval
    while active.n_selected(X.bias_col) < cfg.budget:
        chosen = select(r, active)
        if chosen is None or chosen[0] <= cfg.epsilon:
            break
        record = chosen[1]
        for j in record.members_added:
            active.add(j)
        model = fit_restricted(X, y, active, cfg.lam, tol=cfg.tol,
                               max_iter=cfg.max_iter,
                               warm_start=model.theta,
                               penalize_bias=cfg.penalize_bias)
        r = residual(X, model.theta, y)
        record.converged = model.converged
        traj.records.append(record)
        n_sel = active.n_selected(X.bias_col)
        if n_sel >= next_mark:
            traj.checkpoints.append((n_sel, model.theta.copy()))
            next_mark = (n_sel // cfg.checkpoint_interval + 1) \
                * cfg.checkpoint_interval
        if on_refit is not None:
            on_refit(active)

    n_sel = active.n_selected(X.bias_col)
    if not traj.checkpoints or traj.checkpoints[-1][0] != n_sel:
        traj.checkpoints.append((n_sel, model.theta.copy()))
    return model, traj


def run_omp(X, y, cfg):
    """Run greedy single-feature selection; returns (final Model, Trajectory).

    Solver non-convergence on an iteration is recorded on that iteration's
    trajectory entry and the loop continues with the best iterate.
    """
    col_norms = X.col_norms() if cfg.normalize_columns else None

    def select(r, active):
        if len(active) == X.n_cols:
            return None  # every non-bias column is already active
        j, corr = select_feature(X, r, active, col_norms=col_norms)
        return abs(corr), SelectionRecord(index=j, score=corr)

    return run_greedy(X, y, cfg, select)
