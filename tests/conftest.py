import numpy as np
import pytest

from textomp import SparseMatrix, logistic


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
