import numpy as np
import pytest
from hypothesis import settings

from textomp import SparseMatrix, logistic

# Property tests draw the same examples on every run, so two checkouts run
# on identical draws and a failure reproduces.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def random_design(rng, n, d, density=0.6, with_bias=True, scale=1.0):
    """Random dense design with an optional all-ones final bias column.

    Returns (dense array, SparseMatrix). Oracle computations in tests work
    on the dense array directly so they stay independent of the sparse
    kernels they check.
    """
    dense = rng.normal(scale=scale, size=(n, d))
    mask = rng.random((n, d)) < density
    dense = np.where(mask, dense, 0.0)
    if with_bias:
        dense[:, -1] = 1.0
    X = SparseMatrix.from_dense(dense, bias_col=d - 1 if with_bias else None)
    return dense, X


def random_labels(rng, n):
    y = rng.choice([-1.0, 1.0], size=n)
    if np.all(y == y[0]):  # force both classes
        y[0] = -y[0]
    return y


def stateless_fit_restricted(*args, state=None, **kwargs):
    """A refit through a fresh state, as a separate call would make it."""
    return logistic.fit_restricted(*args, **kwargs)


def group_trajectory_errors(dense, X, y, groups, criterion, traj):
    """How a group OMP trajectory, run on groups without singletons at
    checkpoint_interval=1, breaks the overlap rule or the greedy pick; an
    empty list when it keeps both.

    Record k must add its original members minus every index that entered
    before it, in the same order, and score the best criterion value over
    all groups, each minus those indices, against the residual at
    checkpoint k - 1 (the raw labels for the first pick). The correlations
    come from the dense array.
    """
    errors, entered = [], set()
    for k, rec in enumerate(traj.records):
        r = y if k == 0 else logistic.residual(X, traj.checkpoints[k - 1][1],
                                               y)
        corr = dense.T @ r
        best = -np.inf
        for g in groups:
            left = [j for j in g.members if j not in entered]
            if left:
                energy = float(np.sum(corr[left] ** 2))
                best = max(best, energy / len(left)
                           if criterion == "averaged" else energy)
        added = tuple(j for j in rec.members_original if j not in entered)
        if rec.members_added != added:
            errors.append(f"record {k} added {rec.members_added}, "
                          f"expected {added}")
        if rec.score != pytest.approx(best, rel=1e-10, abs=1e-12):
            errors.append(f"record {k} scored {rec.score}, expected {best}")
        entered.update(rec.members_added)
    return errors


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
