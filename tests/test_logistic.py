import math

import numpy as np
import pytest

from textomp import SparseMatrix
from textomp.logistic import (DEFAULT_TOL, ActiveSet, RefitState, cg,
                              check_non_negative, fit_restricted, gradient,
                              newton, objective, residual, sigmoid, softplus)

from conftest import random_design, random_labels

# log(1 + exp(-1)) via 40-digit arithmetic, frozen
SOFTPLUS_AT_MINUS_ONE = 0.3132616875182228


def scalar_objective(dense, y, theta, lam, bias_col=None, penalize_bias=True):
    """Independent recomputation with plain python floats."""
    total = 0.0
    for i in range(dense.shape[0]):
        m = float(np.dot(dense[i], theta))
        total += math.log1p(math.exp(-y[i] * m)) if abs(m) < 30 \
            else max(0.0, -y[i] * m) + math.log1p(math.exp(-abs(y[i] * m)))
    for j, t in enumerate(theta):
        if penalize_bias or j != bias_col:
            total += lam * t * t
    return total


def central_difference_gradient(dense, y, theta, lam, h=1e-6,
                                bias_col=None, penalize_bias=True):
    g = np.zeros(len(theta))
    for j in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        g[j] = (scalar_objective(dense, y, up, lam, bias_col, penalize_bias)
                - scalar_objective(dense, y, down, lam, bias_col,
                                   penalize_bias)) / (2 * h)
    return g


# -- elementwise kernels --------------------------------------------------------

def test_softplus_extremes_are_finite_and_tight():
    assert softplus(1000.0) == 1000.0
    assert softplus(-1000.0) == 0.0
    assert softplus(0.0) == pytest.approx(math.log(2))
    assert softplus(-1.0) == pytest.approx(SOFTPLUS_AT_MINUS_ONE, abs=1e-12)


def test_sigmoid_extremes():
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == 0.0
    assert sigmoid(0.0) == 0.5


def test_sigmoid_is_bit_equal_to_the_two_branch_formula():
    rng = np.random.default_rng(7)
    mags = 10.0 ** rng.uniform(-13, 3, 100000)
    z = np.concatenate((mags * rng.choice([-1.0, 1.0], mags.size),
                        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300]))
    ref = np.empty_like(z)
    pos = z >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    ref[~pos] = ez / (1.0 + ez)
    np.testing.assert_array_equal(sigmoid(z).view(np.int64),
                                  ref.view(np.int64))


# -- objective ------------------------------------------------------------------

def test_objective_at_zero_weights_is_n_log2(rng):
    _, X = random_design(rng, 9, 4)
    y = random_labels(rng, 9)
    assert objective(X, y, np.zeros(4), lam=3.0) \
        == pytest.approx(9 * math.log(2), rel=1e-12)


def test_objective_lambda_zero_is_pure_likelihood(rng):
    dense, X = random_design(rng, 6, 4)
    y = random_labels(rng, 6)
    theta = rng.normal(size=4)
    assert objective(X, y, theta, lam=0.0) \
        == pytest.approx(scalar_objective(dense, y, theta, 0.0), rel=1e-10)


def test_objective_toy_instance_matches_scalar_oracle(rng):
    dense, X = random_design(rng, 4, 3)
    y = random_labels(rng, 4)
    theta = rng.normal(size=3)
    assert objective(X, y, theta, lam=0.7) \
        == pytest.approx(scalar_objective(dense, y, theta, 0.7), rel=1e-10)


def test_objective_dimension_mismatch(rng):
    _, X = random_design(rng, 4, 3)
    with pytest.raises(ValueError):
        objective(X, np.ones(5), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        objective(X, np.ones(4), np.zeros(2), 1.0)


def test_objective_is_convex_along_segments(rng):
    dense, X = random_design(rng, 8, 5)
    y = random_labels(rng, 8)
    for _ in range(20):
        t1, t2 = rng.normal(size=5), rng.normal(size=5)
        t = float(rng.uniform(0.05, 0.95))
        mixed = objective(X, y, t * t1 + (1 - t) * t2, 0.3)
        bound = t * objective(X, y, t1, 0.3) + (1 - t) * objective(X, y, t2, 0.3)
        assert mixed <= bound + 1e-10


# -- gradient -------------------------------------------------------------------

def test_gradient_at_zero_is_half_neg_correlation(rng):
    dense, X = random_design(rng, 10, 4)
    y = random_labels(rng, 10)
    g = gradient(X, y, np.zeros(4), lam=0.0)
    np.testing.assert_allclose(g, -0.5 * dense.T @ y, atol=1e-12)


def test_gradient_matches_central_differences(rng):
    dense, X = random_design(rng, 5, 4)
    y = random_labels(rng, 5)
    theta = rng.normal(size=4)
    theta /= max(1.0, np.linalg.norm(theta))
    g = gradient(X, y, theta, lam=0.4)
    ref = central_difference_gradient(dense, y, theta, 0.4)
    np.testing.assert_allclose(g, ref, atol=1e-5)


def test_gradient_penalty_dominates_for_large_lambda(rng):
    _, X = random_design(rng, 5, 4)
    y = random_labels(rng, 5)
    theta = rng.normal(size=4)
    lam = 1e9
    g = gradient(X, y, theta, lam=lam)
    np.testing.assert_allclose(g, 2 * lam * theta, rtol=1e-7)


def test_gradient_bias_exemption_flag(rng):
    dense, X = random_design(rng, 6, 4)
    y = random_labels(rng, 6)
    theta = rng.normal(size=4)
    g = gradient(X, y, theta, lam=2.0, penalize_bias=False)
    ref = central_difference_gradient(dense, y, theta, 2.0,
                                      bias_col=3, penalize_bias=False)
    np.testing.assert_allclose(g, ref, atol=1e-5)


# -- residual -------------------------------------------------------------------

def test_residual_at_zero_weights(rng):
    _, X = random_design(rng, 8, 3)
    y = random_labels(rng, 8)
    r = residual(X, np.zeros(3), y)
    np.testing.assert_allclose(r, np.where(y > 0, -0.5, 0.5))


def test_residual_of_confident_classifier_vanishes():
    dense = np.array([[1.0, 1.0], [-1.0, 1.0]])
    X = SparseMatrix.from_dense(dense, bias_col=1)
    y = np.array([1.0, -1.0])
    r = residual(X, np.array([100.0, 0.0]), y)
    assert np.max(np.abs(r)) < 1e-20


def test_residual_matches_scalar_recomputation(rng):
    dense, X = random_design(rng, 7, 4)
    y = random_labels(rng, 7)
    theta = rng.normal(size=4)
    r = residual(X, theta, y)
    for i in range(7):
        m = float(np.dot(dense[i], theta))
        expected = 1.0 / (1.0 + math.exp(-m)) - (1.0 if y[i] > 0 else 0.0)
        assert r[i] == pytest.approx(expected, abs=1e-12)


def test_residual_strictly_inside_unit_interval(rng):
    dense, X = random_design(rng, 9, 5)
    y = random_labels(rng, 9)
    theta = rng.normal(size=5) * 3
    r = residual(X, theta, y)
    assert np.all(r > -1.0) and np.all(r < 1.0)


def test_residual_reaches_unit_magnitude_at_saturation():
    # past |X theta| of about 37 the sigmoid rounds to 0 or 1, so a
    # misclassified row's residual is exactly -1.0 or 1.0
    X = SparseMatrix.from_dense(np.array([[1.0], [2.0]]))
    r = residual(X, np.array([40.0]), np.array([-1.0, 1.0]))
    assert r.tolist() == [1.0, 0.0]
    r = residual(X, np.array([-40.0]), np.array([1.0, -1.0]))
    assert r[0] == -1.0 and 0.0 < r[1] < 1e-30


# -- fit_restricted ---------------------------------------------------------------

@pytest.mark.parametrize("length", [2, 10])
def test_fit_restricted_checks_the_warm_start_length(rng, length):
    _, X = random_design(rng, 8, 3)
    y = random_labels(rng, 8)
    with pytest.raises(ValueError,
                       match=rf"warm_start length \({length},\) != \(3,\)"):
        fit_restricted(X, y, [0, 2], 1.0, warm_start=np.zeros(length))


def test_fit_restricted_single_label_column_reaches_optimality():
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    dense = np.column_stack([y, np.ones(6)])
    X = SparseMatrix.from_dense(dense, bias_col=1)
    model = fit_restricted(X, y, ActiveSet([0, 1]), lam=1.0, tol=1e-8)
    assert model.converged
    g = gradient(X, y, model.theta, 1.0)
    assert np.max(np.abs(g[[0, 1]])) <= 1e-8


def projected_gradient_oracle(dense, y, lam, n_steps=200000, lr=None):
    """Slow independent solver: full-support gradient descent with a fixed
    conservative step size, run to very tight tolerance."""
    n, d = dense.shape
    theta = np.zeros(d)
    if lr is None:
        lipschitz = 0.25 * np.linalg.norm(dense, 2) ** 2 + 2 * lam
        lr = 1.0 / lipschitz
    for _ in range(n_steps):
        m = dense @ theta
        s = 1.0 / (1.0 + np.exp(np.clip(y * m, -700, 700)))
        g = dense.T @ (-y * s) + 2 * lam * theta
        if np.max(np.abs(g)) < 1e-12:
            break
        theta -= lr * g
    return theta


def test_fit_restricted_matches_gradient_descent_oracle(rng):
    dense, X = random_design(rng, 6, 3)
    y = random_labels(rng, 6)
    model = fit_restricted(X, y, ActiveSet(range(3)), lam=10.0, tol=1e-12)
    ref = projected_gradient_oracle(dense, y, 10.0)
    np.testing.assert_allclose(model.theta, ref, atol=1e-6)


def test_fit_restricted_huge_lambda_crushes_weights(rng):
    dense, X = random_design(rng, 6, 3)
    y = random_labels(rng, 6)
    lam = 1e6
    model = fit_restricted(X, y, ActiveSet(range(3)), lam=lam)
    bound = 6 * np.max(np.abs(dense)) / (2 * lam)
    assert np.max(np.abs(model.theta)) <= bound + 1e-12


def test_fit_restricted_zeroes_off_support(rng):
    _, X = random_design(rng, 10, 6)
    y = random_labels(rng, 10)
    model = fit_restricted(X, y, ActiveSet([2, 5]), lam=0.5)
    off = [j for j in range(6) if j not in (2, 5)]
    assert np.all(model.theta[off] == 0.0)
    g = gradient(X, y, model.theta, 0.5)
    assert np.max(np.abs(g[[2, 5]])) <= 1e-8


def test_fit_restricted_warm_start_changes_nothing(rng):
    dense, X = random_design(rng, 12, 5)
    y = random_labels(rng, 12)
    cold = fit_restricted(X, y, ActiveSet([0, 2, 4]), lam=0.3)
    warm = fit_restricted(X, y, ActiveSet([0, 2, 4]), lam=0.3,
                          warm_start=cold.theta)
    np.testing.assert_allclose(warm.theta, cold.theta, atol=1e-7)
    assert warm.n_iter <= 1


def test_fit_restricted_flags_nonconvergence(rng):
    dense, X = random_design(rng, 10, 4)
    y = random_labels(rng, 10)
    model = fit_restricted(X, y, ActiveSet(range(4)), lam=0.1, tol=1e-14,
                           max_iter=1)
    assert not model.converged
    assert np.all(np.isfinite(model.theta))


def test_fit_restricted_reports_convergence_at_objective_float_resolution():
    # Large column norms leave the last Newton steps a predicted decrease
    # below the float resolution of an objective near 1e3. Armijo alone
    # rejected them, backtracked to the iteration cap and flagged the
    # optimum as non-converged on each of these seeds.
    for seed in (5, 18, 19):
        rng = np.random.default_rng(seed)
        dense = rng.poisson(3.0, size=(2000, 6)) * 30.0
        dense[:, -1] = 1.0
        X = SparseMatrix.from_dense(dense, bias_col=5)
        y = rng.choice([-1.0, 1.0], size=2000)
        model = fit_restricted(X, y, ActiveSet(range(6)), lam=1.0)
        assert model.converged, seed
        assert model.n_iter <= 5, seed


def test_fit_restricted_empty_support(rng):
    _, X = random_design(rng, 5, 3)
    y = random_labels(rng, 5)
    model = fit_restricted(X, y, ActiveSet([]), lam=1.0)
    np.testing.assert_array_equal(model.theta, np.zeros(3))


def test_fit_restricted_bias_exempt_flag(rng):
    dense, X = random_design(rng, 10, 4)
    y = random_labels(rng, 10)
    model = fit_restricted(X, y, ActiveSet(range(4)), lam=5.0,
                           penalize_bias=False)
    g = gradient(X, y, model.theta, 5.0, penalize_bias=False)
    assert np.max(np.abs(g)) <= 1e-8


def test_fit_restricted_duplicated_column_at_lambda_zero_stays_truthful():
    # At lambda 0 a duplicated column has a zero Schur complement, so the
    # lagged inverse cannot be bordered and the Hessian is singular. Its
    # pseudo-inverse gives minimum-norm Newton steps to the optimum, and it
    # is not rebuilt until a column enters.
    rng = np.random.default_rng(3)
    dense = rng.normal(size=(60, 5))
    dense[:, 3] = dense[:, 1]
    dense[:, -1] = 1.0
    X = SparseMatrix.from_dense(dense, bias_col=4)
    y = random_labels(rng, 60)
    optimum = fit_restricted(X, y, [4, 0, 1], 0.0).theta
    for warm in (None, optimum):
        state = RefitState()
        fit_restricted(X, y, [4, 0, 1], 0.0, state=state)
        assert state.inv_hessian is not None
        model = fit_restricted(X, y, [4, 0, 1, 3], 0.0, warm_start=warm,
                               state=state)
        assert np.all(np.isfinite(model.theta))
        g = gradient(X, y, model.theta, 0.0)
        assert model.converged == (np.max(np.abs(g[[4, 0, 1, 3]]))
                                   <= DEFAULT_TOL)
        assert model.hessian_builds <= 1
        if warm is None:
            assert model.converged and state.singular
            # the entering column borders the pseudo-inverse into a P that
            # inverts the grown block, which is no longer marked singular
            grown = fit_restricted(X, y, [4, 0, 1, 3, 2], 0.0,
                                   warm_start=model.theta, state=state)
            g = gradient(X, y, grown.theta, 0.0)
            assert grown.converged == (np.max(np.abs(g[[4, 0, 1, 3, 2]]))
                                       <= DEFAULT_TOL)
            assert grown.converged and not state.singular
    # from the optimum no Newton step runs, so P shows the refused border
    assert model.n_iter == 0 and state.inv_hessian is None


def test_fit_restricted_rebuilds_a_state_that_does_not_fit(rng):
    _, X = random_design(rng, 30, 6)
    _, other_X = random_design(rng, 30, 6)
    y = random_labels(rng, 30)
    built = [5, 0, 2]
    for design, order, lam in ((X, [5, 0, 2, 3], 10.0),  # another lambda
                               (X, [5, 2, 0, 3], 1.0),   # not a prefix
                               (X, [5, 0], 1.0),         # fewer columns
                               (other_X, [5, 0, 2, 3], 1.0)):
        state = RefitState()
        fit_restricted(X, y, built, 1.0, state=state)
        shared = fit_restricted(design, y, order, lam, state=state)
        fresh = fit_restricted(design, y, order, lam)
        np.testing.assert_allclose(shared.theta, fresh.theta, rtol=1e-12,
                                   atol=1e-15)
        assert (shared.n_iter, shared.cg_steps, shared.hessian_builds) \
            == (fresh.n_iter, fresh.cg_steps, fresh.hessian_builds)
        assert shared.hessian_builds >= 1
        assert state.order == order


def test_fit_restricted_capped_at_its_step_count_is_the_uncapped_fit():
    # convergence is tested after the last allowed step too: the loop used
    # to stop there untested, so this fit reported converged=False
    rng = np.random.default_rng(0)
    _, X = random_design(rng, 50, 5)
    y = random_labels(rng, 50)
    full = fit_restricted(X, y, range(5), 0.5)
    capped = fit_restricted(X, y, range(5), 0.5, max_iter=full.n_iter)
    assert full.converged and capped.converged
    assert capped.n_iter == full.n_iter == 4
    np.testing.assert_array_equal(capped.theta, full.theta)


# -- the shared Newton loop and CG ---------------------------------------------

def dense_newton(dense, y, direction, x, ridge, tol=1e-8, max_steps=20):
    return newton(lambda c: dense @ c, lambda v: dense.T @ v, direction,
                  x, y, ridge, np.zeros(len(x)), tol, max_steps)


def test_newton_with_an_uphill_direction_keeps_its_start(rng):
    dense, _ = random_design(rng, 10, 3)
    y = random_labels(rng, 10)
    start = np.array([0.1, -0.2, 0.3])
    x, steps, converged = dense_newton(
        dense, y, lambda x, grad, w, viol: grad, start, np.full(3, 2.0))
    np.testing.assert_array_equal(x, start)
    assert steps == 0 and not converged


def test_newton_raises_only_on_a_start_that_is_not_finite():
    dense = np.array([[1e-154]])
    y = np.array([1.0])
    ridge = np.array([1e-310])  # sum(ridge * x**2) / 2 overflows in x**2
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        dense_newton(dense, y, None, np.array([1.5e154]), ridge)
    # the whole step's objective overflows; its half decreases it
    with np.errstate(over="ignore"):
        x, steps, converged = dense_newton(
            dense, y, lambda x, grad, w, viol: np.array([1.5e154]),
            np.zeros(1), ridge, tol=0.0, max_steps=1)
    assert x.tolist() == [0.75e154] and steps == 1 and not converged


def test_newton_agrees_with_fit_restricted_on_a_dense_block(rng):
    dense, X = random_design(rng, 30, 4)
    y = random_labels(rng, 30)
    ridge = np.full(4, 2.0)

    def exact(x, grad, w, viol):
        return -np.linalg.solve(dense.T @ (dense * w[:, None])
                                + np.diag(ridge), grad)

    x, steps, converged = dense_newton(dense, y, exact, np.zeros(4), ridge)
    model = fit_restricted(X, y, range(4), 1.0)
    assert converged and 1 <= steps <= 10
    np.testing.assert_allclose(x, model.theta, atol=1e-8)


def test_cg_matches_a_direct_solve_under_every_preconditioner(rng):
    M = rng.normal(size=(6, 6))
    H = M @ M.T + 0.5 * np.eye(6)
    b = rng.normal(size=6)
    tol = 1e-12 * np.linalg.norm(b)
    for precond in (lambda r: r, lambda r: r / np.diag(H),
                    lambda r: np.linalg.inv(H) @ r):
        p, steps, solved = cg(lambda d: H @ d, precond, b,
                              lambda r: np.linalg.norm(r) <= tol, 50)
        assert solved and 1 <= steps <= 50
        np.testing.assert_allclose(p, np.linalg.solve(H, b), rtol=1e-9)
    assert steps == 1  # the exact inverse solves in one step
    p, steps, solved = cg(lambda d: H @ d, lambda r: r, np.zeros(6),
                          lambda r: np.linalg.norm(r) <= 0.0, 50)
    assert solved and steps == 0 and not p.any()


def test_cg_gives_up_on_non_positive_curvature():
    H = np.diag([1.0, -1.0, -1.0])
    for rhs in (np.ones(3), np.array([1.0, 1.0, 0.0])):  # curvature -1, 0
        p, steps, solved = cg(lambda d: H @ d, lambda r: r, rhs,
                              lambda r: np.linalg.norm(r) <= 1e-12, 10)
        assert not solved and steps == 1 and not p.any()


@pytest.mark.parametrize("kind", [list, tuple, np.array],
                         ids=["list", "tuple", "array"])
def test_fit_restricted_rejects_repeated_and_out_of_range_indices(rng, kind):
    _, X = random_design(rng, 8, 5)
    y = random_labels(rng, 8)
    with pytest.raises(ValueError, match="4 already active"):
        fit_restricted(X, y, kind([4, 1, 4]), lam=1.0)
    for bad in (5, -1):
        with pytest.raises(IndexError, match=f"{bad} out of range"):
            fit_restricted(X, y, kind([1, bad]), lam=1.0)


def test_fit_restricted_rejects_a_max_iter_below_one(rng):
    # a negative cap would leave newton no step count to return
    _, X = random_design(rng, 8, 5)
    y = random_labels(rng, 8)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            fit_restricted(X, y, [0, 4], lam=1.0, max_iter=cap)


def test_model_active_keeps_entry_order(rng):
    _, X = random_design(rng, 8, 5)
    y = random_labels(rng, 8)
    model = fit_restricted(X, y, np.array([4, 1, 3]), lam=1.0)
    assert isinstance(model.active, ActiveSet)
    assert list(model.active) == [4, 1, 3]
    assert model.active.ascending() == [1, 3, 4]
    assert 3 in model.active and 0 not in model.active


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
def test_a_bad_amount_gets_one_message(bad):
    # a negative value, NaN and infinity read alike
    with pytest.raises(ValueError) as err:
        check_non_negative("tol", bad)
    assert str(err.value) == "tol must be finite and >= 0"
