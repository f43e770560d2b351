import math

import numpy as np
import pytest

from textomp import (GridSpec, OMPConfig, PenaltyConfig, SparseMatrix,
                     baselines, fit_penalized, sparsity)
from textomp.baselines import kkt_violation
from textomp.logistic import ActiveSet, fit_restricted

from conftest import random_design, random_labels


def dense_objective(dense, y, theta, l1, l2, bias_col):
    z = dense @ theta
    loss = np.sum(np.log1p(np.exp(-np.abs(y * z)))
                  + np.maximum(-y * z, 0.0))
    pen1 = l1 * np.sum(np.abs(np.delete(theta, bias_col))) \
        if bias_col is not None else l1 * np.sum(np.abs(theta))
    return float(loss + pen1 + l2 * np.sum(theta ** 2))


def subgradient_oracle(dense, y, l1, bias_col, n_steps=150000, a0=0.5):
    """Projected-free subgradient descent with diminishing steps; returns
    the best objective value seen. Independent of the proximal path."""
    n, d = dense.shape
    theta = np.zeros(d)
    l1_vec = np.full(d, l1)
    if bias_col is not None:
        l1_vec[bias_col] = 0.0
    best = dense_objective(dense, y, theta, l1, 0.0, bias_col)
    for t in range(1, n_steps + 1):
        z = dense @ theta
        s = 1.0 / (1.0 + np.exp(np.clip(y * z, -700, 700)))
        g = dense.T @ (-y * s) + l1_vec * np.sign(theta)
        zero = theta == 0
        # steepest subgradient at zero coordinates
        g[zero] = np.sign(g[zero]) * np.maximum(np.abs(g[zero])
                                                - l1_vec[zero], 0.0)
        theta = theta - (a0 / math.sqrt(t)) * g
        best = min(best, dense_objective(dense, y, theta, l1, 0.0, bias_col))
    return best


def test_huge_l1_zeroes_every_non_bias_weight(rng):
    _, X = random_design(rng, 12, 6)
    y = random_labels(rng, 12)
    model = fit_penalized(X, y, PenaltyConfig(lambda_l1=1e4, lambda_l2=0.0))
    assert np.all(model.theta[:5] == 0.0)


def test_l1_zero_reduces_to_restricted_ridge(rng):
    _, X = random_design(rng, 14, 5)
    y = random_labels(rng, 14)
    pen = fit_penalized(X, y, PenaltyConfig(0.0, 2.0), tol=1e-10,
                        max_iter=50000)
    newton = fit_restricted(X, y, ActiveSet(range(5)), lam=2.0, tol=1e-12)
    assert pen.converged
    np.testing.assert_allclose(pen.theta, newton.theta, atol=1e-6)


def test_lasso_objective_matches_subgradient_oracle(rng):
    dense, X = random_design(rng, 8, 5)
    y = random_labels(rng, 8)
    cfg = PenaltyConfig(lambda_l1=0.1, lambda_l2=0.0)
    model = fit_penalized(X, y, cfg, tol=1e-10, max_iter=50000)
    ours = dense_objective(dense, y, model.theta, 0.1, 0.0, X.bias_col)
    oracle = subgradient_oracle(dense, y, 0.1, X.bias_col)
    assert ours == pytest.approx(oracle, abs=1e-5)
    assert ours <= oracle + 1e-8  # never worse than the oracle's best


def test_kkt_conditions_hold_at_convergence(rng):
    for seed in range(6):
        local = np.random.default_rng(seed)
        dense, X = random_design(local, 12, 6)
        y = random_labels(local, 12)
        cfg = PenaltyConfig(lambda_l1=0.3, lambda_l2=0.05)
        model = fit_penalized(X, y, cfg, tol=1e-8, max_iter=100000)
        assert model.converged
        assert kkt_violation(X, y, model.theta, cfg) <= 1e-8


def test_objective_decreases_monotonically_with_iterations(rng):
    dense, X = random_design(rng, 10, 5)
    y = random_labels(rng, 10)
    cfg = PenaltyConfig(lambda_l1=0.2, lambda_l2=0.1)
    values = []
    for k in range(1, 14):
        model = fit_penalized(X, y, cfg, tol=0.0, max_iter=k)
        values.append(dense_objective(dense, y, model.theta, 0.2, 0.1,
                                      X.bias_col))
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-12


def test_sparsity_decreases_as_l1_grows(rng):
    dense, X = random_design(rng, 30, 12, density=1.0)
    y = random_labels(rng, 30)
    pcts = []
    for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
        model = fit_penalized(X, y, PenaltyConfig(lam, 0.0), tol=1e-8,
                              max_iter=20000)
        pcts.append(sparsity(model, bias_col=X.bias_col))
    for prev, cur in zip(pcts, pcts[1:]):
        assert cur <= prev + 1e-12


def test_bias_is_exempt_from_l1_shrinkage(rng):
    # unbalanced labels force a nonzero intercept even under heavy L1
    local = np.random.default_rng(3)
    dense, X = random_design(local, 30, 4)
    y = np.full(30, 1.0)
    y[:5] = -1.0
    model = fit_penalized(X, y, PenaltyConfig(lambda_l1=1e3, lambda_l2=0.0))
    assert np.all(model.theta[:3] == 0.0)
    assert model.theta[3] != 0.0


def test_sparsity_edge_cases():
    assert sparsity(np.zeros(10)) == 0.0
    theta = np.ones(10)
    assert sparsity(theta) == 100.0
    theta = np.zeros(25788)
    theta[:2000] = 1.0
    assert sparsity(theta) == pytest.approx(7.756, abs=1e-3)


def test_overflowing_step_raises_instead_of_looping():
    # entries so large that no representable step size 1/L keeps the
    # margins finite; L used to double to inf and loop forever
    X = SparseMatrix.from_dense([[1e200, 1], [-1e200, 1], [2e200, 1], [1, 1]],
                                bias_col=1)
    y = np.array([1.0, -1.0, 1.0, -1.0])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError):
        fit_penalized(X, y, PenaltyConfig(1.0, 0.0))


def test_fista_runs_only_where_an_l1_term_has_a_face_to_find(rng,
                                                             monkeypatch):
    # ridge and `none` ran FISTA on every Newton step, though with no L1
    # term the face is the whole working set and CG alone solves the model
    _, X = random_design(rng, 40, 6)
    y = random_labels(rng, 40)
    fista = baselines._Model.fista
    calls = []

    def counted(self, *args):
        calls.append(self.l1.any())
        return fista(self, *args)

    monkeypatch.setattr(baselines._Model, "fista", counted)
    for cfg in (PenaltyConfig(0.0, 1.0), PenaltyConfig(0.0, 0.0)):
        assert fit_penalized(X, y, cfg, tol=1e-8).converged
    assert calls == []
    assert fit_penalized(X, y, PenaltyConfig(0.5, 0.0), tol=1e-8).converged
    assert calls and all(calls)


@pytest.mark.parametrize("start", [1.0, 0.0])
def test_face_step_frees_coordinates_without_an_l1_term(start):
    # H = I and l1 = [0, 1], so the model's minimizer is (start - 2, 0).
    # The face step held an unpenalized coordinate at zero when it was
    # zero, and cut it back to zero when its CG step crossed zero.
    model = baselines._Model(SparseMatrix.from_dense(np.eye(2)), np.ones(2),
                             np.zeros(2), np.array([start, 1.0]),
                             np.array([2.0, 1.0]), np.array([0.0, 1.0]))
    moved = model.face_step(model.point(model.theta), 1e-12)
    np.testing.assert_allclose(moved.u, [start - 2.0, 0.0])
    assert moved.val == pytest.approx(-3.5)


def test_penalty_config_rejects_negative_strengths():
    with pytest.raises(ValueError):
        PenaltyConfig(lambda_l1=-1.0)
    with pytest.raises(ValueError):
        PenaltyConfig(lambda_l2=-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_penalty_strengths_must_be_finite_and_non_negative(rng, bad):
    # NaN and inf passed every check that was written as `x < 0`
    _, X = random_design(rng, 6, 3)
    y = random_labels(rng, 6)
    for make in (lambda: PenaltyConfig(lambda_l1=bad),
                 lambda: PenaltyConfig(lambda_l2=bad),
                 lambda: OMPConfig(lam=bad),
                 lambda: GridSpec("lasso", (1.0, bad)),
                 lambda: fit_restricted(X, y, [0, 2], bad)):
        with pytest.raises(ValueError, match="finite"):
            make()
    with pytest.raises(ValueError, match="finite and positive"):
        GridSpec("omp", (0.0,))


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
def test_tol_must_be_finite_and_non_negative(rng, tol):
    # tol=inf returned the all-zero start flagged converged
    _, X = random_design(rng, 6, 3)
    y = random_labels(rng, 6)
    with pytest.raises(ValueError, match="tol"):
        fit_penalized(X, y, PenaltyConfig(1.0, 0.0), tol=tol)


def test_active_set_matches_support(rng):
    _, X = random_design(rng, 15, 7)
    y = random_labels(rng, 15)
    model = fit_penalized(X, y, PenaltyConfig(0.5, 0.0))
    assert sorted(model.active.ascending()) \
        == sorted(np.nonzero(model.theta)[0].tolist())


def test_zipfian_counts_converge_where_1000_proximal_steps_stall():
    # Zipfian word counts: the bias and frequent words set the curvature
    # bound, so a proximal gradient step of 1/L barely moves rare words.
    # 1000 such steps (the old solver, at the CLI's old iteration floor)
    # leave the KKT violation at 0.21 here.
    rng = np.random.default_rng(0)
    n, d = 120, 60
    counts = rng.poisson(3.0 / np.arange(1, d) ** 1.1,
                         size=(n, d - 1)).astype(float)
    w = np.zeros(d - 1)
    w[:8] = rng.normal(size=8)
    y = np.where(counts @ w + rng.normal(size=n) > 0, 1.0, -1.0)
    dense = np.hstack([counts, np.ones((n, 1))])
    X = SparseMatrix.from_dense(dense, bias_col=d - 1)
    model = fit_penalized(X, y, PenaltyConfig(1.0, 0.0), tol=1e-8,
                          max_iter=100)
    assert model.converged and model.n_iter <= 30
    # the optimality conditions, from the dense design
    s = 1.0 / (1.0 + np.exp(y * (dense @ model.theta)))
    grad = dense.T @ (-y * s)
    l1 = np.r_[np.ones(d - 1), 0.0]
    nz = model.theta != 0
    assert np.all(np.abs(grad[nz] + l1[nz] * np.sign(model.theta[nz]))
                  <= 1e-7)
    assert np.all(np.abs(grad[~nz]) <= l1[~nz] + 1e-7)


def test_kkt_violation_rejects_labels_of_the_wrong_length(rng):
    # a short y failed inside numpy, "operands could not be broadcast"
    _, X = random_design(rng, 6, 3)
    y = random_labels(rng, 5)
    with pytest.raises(ValueError, match=r"y length \(5,\) != \(6,\)"):
        kkt_violation(X, y, np.zeros(X.n_cols), PenaltyConfig(1.0, 0.0))
