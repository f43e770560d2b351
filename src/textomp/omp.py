"""Greedy logistic orthogonal matching pursuit.

Loop: pick the inactive column most correlated with the residual, add it
to the active set, refit the L2-penalized logistic model on the enlarged
support, recompute the residual, repeat until the feature budget is hit,
the winning correlation falls to the precision threshold, or no candidate
columns remain. `run_greedy` is this loop, with the pick left to a step.
It is the one owner of the support: an index list in entry order, which
every refit receives, and a mask of the columns still able to enter,
which every pick ranks on. The refit returns the list on its Model as a
read-only `ActiveSet`.

The bias column is active from the start and never counted against the
budget; the first selection correlates against the raw labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .logistic import (DEFAULT_MAX_ITER, DEFAULT_TOL, RefitState, RefitWork,
                       check_count, check_non_negative, checked_labels,
                       fit_restricted, residual)

CHECKPOINT_INTERVAL = 100
# the counters each selection record copies from its refit's Model
_WORK_FIELDS = tuple(f.name for f in fields(RefitWork))


@dataclass
class GreedyConfig:
    """Settings shared by OMP and group OMP.

    normalize_columns ranks candidates on corr_j / ||x_j||, as if every
    column had unit L2 norm; the epsilon test keeps the raw correlation.
    """

    budget: int = 2000
    epsilon: float = 0.0
    lam: float = 1.0
    normalize_columns: bool = False
    penalize_bias: bool = True
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    checkpoint_interval: int = CHECKPOINT_INTERVAL

    def __post_init__(self):
        check_count("budget", self.budget)
        check_non_negative("epsilon", self.epsilon)
        check_non_negative("lambda", self.lam)
        # an infinite tol would call the all-zero start optimal
        check_non_negative("tol", self.tol)
        check_count("max_iter", self.max_iter)
        check_count("checkpoint_interval", self.checkpoint_interval)


OMPConfig = GreedyConfig  # OMP has no setting of its own


@dataclass
class SelectionRecord(RefitWork):
    """One greedy iteration: which column won and with what correlation,
    and the RefitWork of the refit that followed."""

    index: int
    score: float

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


def per_unit_norm(scores, col_norms):
    """scores[j] / col_norms[j], 0 where a column's norm is 0; the scores
    unchanged when col_norms is None."""
    if col_norms is None:
        return scores
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(col_norms > 0, scores / col_norms, 0.0)


def select_feature(X, r, candidates, col_norms=None):
    """Candidate column with the largest |X_j^T r|; ties go to the lowest
    index.

    candidates is a boolean mask over X's columns; only columns where it
    is True compete. col_norms, when given, rescales each score by
    1/col_norms[j] (unit-L2 column scaling). Returns (index, signed
    correlation). Raises when no candidate remains.
    """
    if not candidates.any():
        raise ValueError("no inactive candidate columns remain")
    scores = X.correlations(r)
    ranked = np.where(candidates, np.abs(per_unit_norm(scores, col_norms)),
                      -1.0)
    j = int(np.argmax(ranked))
    return j, float(scores[j])


def run_greedy(X, y, cfg, select):
    """The loop of OMP and group OMP; returns (final Model, Trajectory).

    The loop keeps the support as `order`, the active indices in entry
    order, and `candidates`, a mask over X's columns that is False at the
    bias from the start and at each index once it enters.
    select(r, candidates) returns None when nothing is left, else the
    winner's correlation norm ||X_W^T r|| and a record whose members_added
    enter the support unless the norm is at most cfg.epsilon; the record
    then takes the RefitWork counters of the refit that follows. Every
    refit of the run shares one RefitState, so the dense active block
    and the lagged inverse Hessian carry over from one selection to the
    next.
    """
    y = checked_labels(X, y)
    order = [] if X.bias_col is None else [X.bias_col]
    candidates = np.ones(X.n_cols, dtype=bool)
    candidates[order] = False
    traj = Trajectory()
    state = RefitState()

    def refit(warm_start):
        return fit_restricted(X, y, order, cfg.lam, tol=cfg.tol,
                              max_iter=cfg.max_iter, warm_start=warm_start,
                              penalize_bias=cfg.penalize_bias, state=state)

    model = refit(None)  # the bias-only fit; all-zero without a bias
    r = y.copy()  # first selection correlates against the raw labels
    n_sel = 0  # selected indices, the bias not counted
    interval = cfg.checkpoint_interval
    while n_sel < cfg.budget:
        chosen = select(r, candidates)
        if chosen is None or chosen[0] <= cfg.epsilon:
            break
        record = chosen[1]
        order.extend(record.members_added)
        candidates[list(record.members_added)] = False
        before, n_sel = n_sel, n_sel + len(record.members_added)
        model = refit(model.theta)
        r = residual(X, model.theta, y)
        for name in _WORK_FIELDS:
            setattr(record, name, getattr(model, name))
        traj.records.append(record)
        if n_sel // interval > before // interval:
            traj.checkpoints.append((n_sel, model.theta.copy()))

    if not traj.checkpoints or traj.checkpoints[-1][0] != n_sel:
        traj.checkpoints.append((n_sel, model.theta.copy()))
    return model, traj


def run_omp(X, y, cfg):
    """Run greedy single-feature selection; returns (final Model, Trajectory).

    Solver non-convergence on an iteration is recorded on that iteration's
    trajectory entry and the loop continues with the last accepted iterate.
    """
    col_norms = X.col_norms() if cfg.normalize_columns else None

    def select(r, candidates):
        if not candidates.any():
            return None  # every non-bias column is already active
        j, corr = select_feature(X, r, candidates, col_norms=col_norms)
        return abs(corr), SelectionRecord(index=j, score=corr)

    return run_greedy(X, y, cfg, select)
