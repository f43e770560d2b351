from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textomp import (GOMPConfig, OMPConfig, SparseMatrix, logistic, omp,
                     run_gomp, run_omp)
from textomp.logistic import ActiveSet, fit_restricted, objective, sigmoid
from textomp.omp import per_unit_norm, screen_bands, select_feature

from conftest import random_design, random_labels, stateless_fit_restricted


def candidates(X, active):
    """select_feature's candidate mask: every column of X outside active."""
    mask = np.ones(X.n_cols, dtype=bool)
    mask[list(active)] = False
    return mask


def brute_force_selection(X, r, active, col_norms=None):
    """Exhaustive scan over every inactive non-bias column."""
    best = None
    for j in range(X.n_cols):
        if j == X.bias_col or j in active:
            continue
        score = abs(X.correlations(r)[j])
        if col_norms is not None and col_norms[j] > 0:
            score /= col_norms[j]
        if best is None or score > best[1]:
            best = (j, score)
    return best[0]


def sparse_logistic_instance(rng, n, d, support, margin_scale=8.0):
    """Unit-norm random design with a trailing bias column; labels drawn
    from a logistic model whose margin lives on `support` only."""
    dense = rng.normal(size=(n, d))
    dense /= np.linalg.norm(dense, axis=0, keepdims=True)
    dense[:, -1] = 1.0
    coefs = rng.choice([-1.0, 1.0], size=len(support))
    m = dense[:, list(support)] @ coefs
    m = m / np.std(m) * margin_scale
    y = np.where(rng.random(n) < sigmoid(m), 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    X = SparseMatrix.from_dense(dense, bias_col=d - 1)
    return dense, X, y


# -- select_feature -------------------------------------------------------------

def test_select_feature_unit_columns():
    dense = np.zeros((4, 3))
    dense[0, 0] = 1.0
    dense[1, 1] = 1.0
    dense[:, 2] = 1.0
    X = SparseMatrix.from_dense(dense, bias_col=2)
    j, corr = select_feature(X, np.array([1.0, 0.0, 0.0, 0.0]),
                             candidates(X, [2]))
    assert j == 0
    assert corr == 1.0


def test_select_feature_picks_column_equal_to_residual(rng):
    r = rng.normal(size=6)
    r /= np.linalg.norm(r)
    dense = rng.normal(size=(6, 4))
    for j in range(3):
        dense[:, j] /= np.linalg.norm(dense[:, j])
    dense[:, 1] = r
    dense[:, 3] = 1.0
    X = SparseMatrix.from_dense(dense, bias_col=3)
    j, _ = select_feature(X, r, candidates(X, [3]))
    assert j == 1


def test_select_feature_matches_exhaustive_scan(rng):
    for _ in range(10):
        _, X = random_design(rng, 6, 9)
        r = rng.normal(size=6)
        active = [8, 2]
        j, corr = select_feature(X, r, candidates(X, active))
        assert j == brute_force_selection(X, r, active)
        assert corr == X.correlations(r)[j]


def test_select_feature_tie_breaks_to_lowest_index():
    col = np.array([1.0, 2.0, 0.0])
    dense = np.column_stack([col, col, np.ones(3)])
    X = SparseMatrix.from_dense(dense, bias_col=2)
    j, _ = select_feature(X, np.array([1.0, 1.0, 1.0]), candidates(X, [2]))
    assert j == 0


def test_select_feature_errors_when_every_column_active(rng):
    _, X = random_design(rng, 4, 3)
    with pytest.raises(ValueError):
        select_feature(X, np.ones(4), candidates(X, [0, 1, 2]))


def test_select_feature_normalized_scoring(rng):
    # a long noisy column outscores a short aligned one only unnormalized
    r = np.array([1.0, 1.0, 0.0, 0.0])
    dense = np.column_stack([
        np.array([0.1, 0.1, 0.0, 0.0]),    # perfectly aligned, small norm
        np.array([10.0, 0.0, 10.0, 0.0]),  # larger raw correlation
        np.ones(4),
    ])
    X = SparseMatrix.from_dense(dense, bias_col=2)
    j_raw, _ = select_feature(X, r, candidates(X, [2]))
    j_scaled, _ = select_feature(X, r, candidates(X, [2]),
                                 col_norms=X.col_norms())
    assert j_raw == 1
    assert j_scaled == 0


def exhaustive_scan(X, r, candidates, col_norms=None):
    """Every column scored by one X.correlations call, as a scan without
    a screen ranks them: (index, signed correlation)."""
    scores = X.correlations(r)
    ranked = np.where(candidates, np.abs(per_unit_norm(scores, col_norms)),
                      -1.0)
    j = int(np.argmax(ranked))
    return j, float(scores[j])


def tied_design(rng, n, with_bias):
    """Count columns with the screen's hard cases: empty columns, exact
    duplicates (ties within a band), scaled copies (other bands), and
    copies padded on rows that `r` below leaves at 0 (the same raw
    correlation from another band); returns (X, rows where r is 0)."""
    base = np.where(rng.random((n, 6)) < 0.5,
                    rng.integers(1, 5, size=(n, 6)), 0).astype(float)
    zero_rows = rng.random(n) < 0.3
    padded = base[:, :2] + np.where(zero_rows[:, None], 7.0, 0.0)
    cols = [base, np.zeros((n, 2)), base[:, :3], base[:, 1:3] * 2.0,
            base[:, :1] * 0.5, padded]
    order = rng.permutation(sum(c.shape[1] for c in cols))
    dense = np.column_stack(cols)[:, order]
    if with_bias:
        dense = np.column_stack([dense, np.ones(n)])
    return (SparseMatrix.from_dense(dense,
                                    bias_col=dense.shape[1] - 1
                                    if with_bias else None), zero_rows)


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12), st.booleans(),
       st.booleans(), st.sampled_from(["normal", "zero", "saturated"]),
       st.booleans())
def test_screened_scan_returns_the_exhaustive_pick_and_bits(
        seed, n, with_bias, normalize, kind, run_bands):
    rng = np.random.default_rng(seed)
    X, zero_rows = tied_design(rng, n, with_bias)
    if kind == "normal":
        r = rng.normal(size=n)
    elif kind == "zero":
        r = np.zeros(n)
    else:  # a residual at saturation: exactly +-1.0, or vanishing
        r = rng.choice([-1.0, 1.0, 1.8e-35], size=n)
    r[zero_rows] = 0.0
    col_norms = X.col_norms() if normalize else None
    mask = rng.random(X.n_cols) < 0.7
    mask[rng.integers(X.n_cols)] = True
    bands = None
    if run_bands:  # built once for a wider mask, as run_omp does
        wide = mask | (rng.random(X.n_cols) < 0.5)
        bands = screen_bands(X, wide, col_norms)
    j, corr = select_feature(X, r, mask, col_norms=col_norms, bands=bands)
    ref_j, ref_corr = exhaustive_scan(X, r, mask, col_norms)
    assert j == ref_j
    assert np.float64(corr).tobytes() == np.float64(ref_corr).tobytes()


def test_screen_bands_group_by_power_of_two_with_the_empty_last():
    dense = np.array([[1.0, 0.0, 3.0, 0.0, 1.0],
                      [2.0, 0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, 4.0, 5.0, 1.0]])
    X = SparseMatrix.from_dense(dense, bias_col=4)
    mask = np.array([True, True, True, True, False])
    screen = screen_bands(X, mask)
    assert screen.covers.tolist() == mask.tolist()
    bands = screen.bands
    # L1 keys 3, 0, 7, 5: [4, 8) holds columns 2 and 3, [2, 4) column 0
    assert [b[2].tolist() for b in bands] == [[2, 3], [0], [1]]
    assert [b[3].n_cols for b in bands] == [2, 1, 1]
    assert bands[0][0] > 7.0 and bands[0][0] - 7.0 < 1e-12
    assert bands[-1][3].nnz == 0


def test_select_feature_rejects_bands_that_miss_a_candidate():
    # a candidate outside every band would never be scanned
    X = SparseMatrix.from_dense(np.array([[1.0, 0.0, 3.0],
                                          [2.0, 5.0, 0.0]]))
    bands = screen_bands(X, np.array([True, False, True]))
    with pytest.raises(ValueError, match="lies in no band"):
        select_feature(X, np.ones(2), np.array([True, True, False]),
                       bands=bands)
    assert select_feature(X, np.ones(2), np.array([True, False, False]),
                          bands=bands)[0] == 0


def residual_checker(monkeypatch, X, y):
    """Wrap the greedy loop's refit and residual so that every residual it
    takes is compared, bit for bit, with residual(X, theta, y) at the
    refit's theta; returns the list of steps checked."""
    real_fit, real_residual = omp.fit_restricted, omp.residual
    last, checked = {}, []

    def fit(*args, **kwargs):
        last["model"] = real_fit(*args, **kwargs)
        return last["model"]

    def residual(block, theta, labels):
        r = real_residual(block, theta, labels)
        full = real_residual(X, last["model"].theta, y)
        checked.append(r.tobytes() == full.tobytes())
        return r

    monkeypatch.setattr(omp, "fit_restricted", fit)
    monkeypatch.setattr(omp, "residual", residual)
    return checked


@settings(max_examples=30)
@given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.booleans())
def test_every_greedy_step_takes_the_residual_of_the_whole_design(
        seed, with_bias, normalize):
    rng = np.random.default_rng(seed)
    X, _ = tied_design(rng, 14, with_bias)
    y = random_labels(rng, 14)
    groups = [(f"g{p}", [p, p + 1, p + 3]) for p in range(0, 12, 3)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        checked = residual_checker(monkeypatch, X, y)
        _, traj = run_omp(X, y, OMPConfig(budget=8, lam=0.5,
                                          normalize_columns=normalize))
        _, gtraj = run_gomp(X, y, groups,
                            GOMPConfig(budget=8, lam=0.5,
                                       normalize_columns=normalize))
    assert len(checked) == len(traj.records) + len(gtraj.records)
    assert all(checked)


# -- run_omp ----------------------------------------------------------------------

def test_single_budget_selects_the_separating_column(rng):
    n = 24
    y = random_labels(rng, n)
    dense = rng.normal(size=(n, 5)) * 0.1
    dense[:, 3] = y * 2.0
    dense[:, 4] = 1.0
    X = SparseMatrix.from_dense(dense, bias_col=4)
    model, traj = run_omp(X, y, OMPConfig(budget=1, lam=1.0))
    assert traj.selected_indices() == [3]
    assert sorted(model.active.ascending()) == [3, 4]


def test_normalize_columns_undoes_a_scaled_column(rng):
    dense, X = random_design(rng, 30, 8)
    y = random_labels(rng, 30)
    normalized = OMPConfig(budget=1, lam=1.0, normalize_columns=True)
    first = run_omp(X, y, normalized)[1].selected_indices()[0]
    big = 0 if first != 0 else 1
    dense[:, big] *= 1000.0
    scaled = SparseMatrix.from_dense(dense, bias_col=7)
    _, raw_traj = run_omp(scaled, y, OMPConfig(budget=1, lam=1.0))
    _, norm_traj = run_omp(scaled, y, normalized)
    assert raw_traj.selected_indices() == [big]
    assert norm_traj.selected_indices() == [first]


def test_infinite_epsilon_is_rejected():
    # it selected nothing, a run the CLI already refused as unreportable
    with pytest.raises(ValueError, match="epsilon must be finite"):
        OMPConfig(budget=3, epsilon=float("inf"))


def test_recovers_planted_support_and_beats_every_other_subset(rng):
    support = (4, 11, 23)
    dense, X, y = sparse_logistic_instance(rng, 40, 30, support)
    cfg = OMPConfig(budget=3, lam=0.1)
    model, traj = run_omp(X, y, cfg)
    recovered = tuple(sorted(traj.selected_indices()))
    assert recovered == support

    # exhaustive oracle: the recovered support minimizes the fitted
    # penalized objective over all 3-subsets of the non-bias columns
    best_val, best_subset = None, None
    for subset in combinations(range(29), 3):
        m = fit_restricted(X, y, ActiveSet(list(subset) + [29]), lam=0.1,
                           tol=1e-6)
        val = objective(X, y, m.theta, 0.1)
        if best_val is None or val < best_val:
            best_val, best_subset = val, subset
    assert best_subset == support
    assert objective(X, y, model.theta, 0.1) <= best_val + 1e-6


def test_never_selects_the_same_feature_twice(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        _, X = random_design(local, 15, 8)
        y = random_labels(local, 15)
        _, traj = run_omp(X, y, OMPConfig(budget=7, lam=0.5))
        picked = traj.selected_indices()
        assert len(picked) == len(set(picked))


def test_active_set_size_bounds(rng):
    _, X = random_design(rng, 12, 6)
    y = random_labels(rng, 12)
    model, _ = run_omp(X, y, OMPConfig(budget=3, lam=1.0))
    assert 1 <= len(model.active) <= 3 + 1


def test_training_objective_never_increases(rng):
    _, X = random_design(rng, 20, 10)
    y = random_labels(rng, 20)
    cfg = OMPConfig(budget=9, lam=0.5, checkpoint_interval=1)
    model, traj = run_omp(X, y, cfg)
    values = [objective(X, y, theta, 0.5) for _, theta in traj.checkpoints]
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-6


def test_full_budget_equals_ridge_on_all_features(rng):
    _, X = random_design(rng, 30, 10)
    y = random_labels(rng, 30)
    model, _ = run_omp(X, y, OMPConfig(budget=10, epsilon=0.0, lam=1.0))
    ridge = fit_restricted(X, y, ActiveSet(range(10)), lam=1.0)
    np.testing.assert_allclose(model.theta, ridge.theta, atol=1e-6)


def test_trajectory_checkpoints_at_interval_and_termination(rng):
    _, X = random_design(rng, 20, 12)
    y = random_labels(rng, 20)
    cfg = OMPConfig(budget=7, lam=1.0, checkpoint_interval=3)
    _, traj = run_omp(X, y, cfg)
    assert [c for c, _ in traj.checkpoints] == [3, 6, 7]


def test_solver_nonconvergence_is_recorded_not_fatal(rng):
    _, X = random_design(rng, 14, 6)
    y = random_labels(rng, 14)
    cfg = OMPConfig(budget=4, lam=0.01, tol=1e-15, max_iter=1)
    model, traj = run_omp(X, y, cfg)
    assert len(traj.records) == 4
    assert any(not rec.converged for rec in traj.records)
    assert np.all(np.isfinite(model.theta))


def test_shared_refit_state_matches_stateless_refits(monkeypatch):
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        _, X = random_design(rng, 80, 30)
        y = random_labels(rng, 80)
        for lam in (0.1, 1.0, 10.0):
            cfg = OMPConfig(budget=20, lam=lam, checkpoint_interval=1)
            _, shared = run_omp(X, y, cfg)
            with monkeypatch.context() as m:
                m.setattr(omp, "fit_restricted", stateless_fit_restricted)
                _, fresh = run_omp(X, y, cfg)
            assert shared.selected_indices() == fresh.selected_indices()
            assert len(shared.checkpoints) == len(fresh.checkpoints) == 20
            for (_, a), (_, b) in zip(shared.checkpoints, fresh.checkpoints):
                assert objective(X, y, a, lam) == pytest.approx(
                    objective(X, y, b, lam), rel=1e-12, abs=0)
            assert all(rec.converged for rec in shared.records)
            # the lagged inverse carried over instead of being rebuilt
            assert sum(rec.cg_steps for rec in shared.records) > 0
            assert sum(rec.hessian_builds for rec in shared.records) \
                < sum(rec.hessian_builds for rec in fresh.records)


def test_records_carry_the_work_of_their_refit(monkeypatch, rng):
    _, X = random_design(rng, 40, 12)
    y = random_labels(rng, 40)
    models = []

    def fit(*args, **kwargs):
        models.append(logistic.fit_restricted(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(omp, "fit_restricted", fit)
    _, traj = run_omp(X, y, OMPConfig(budget=6, lam=1.0))
    assert len(models) == len(traj.records) + 1  # after the bias-only fit
    for rec, model in zip(traj.records, models[1:]):
        assert (rec.converged, rec.n_iter, rec.cg_steps, rec.hessian_builds) \
            == (model.converged, model.n_iter, model.cg_steps,
                model.hessian_builds)
    assert sum(rec.n_iter for rec in traj.records) > 0


def test_config_validation():
    with pytest.raises(ValueError):
        OMPConfig(budget=0)
    with pytest.raises(ValueError):
        OMPConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        OMPConfig(lam=-0.5)
    for tol in (-1e-9, np.inf):  # inf called the all-zero start converged
        with pytest.raises(ValueError, match="tol"):
            OMPConfig(tol=tol)
    for name, message in (("epsilon", "epsilon"), ("lam", "lambda"),
                          ("tol", "tol")):  # `nan < 0` is false
        with pytest.raises(ValueError, match=message):
            OMPConfig(**{name: float("nan")})
    for max_iter in (0, -3):  # zero Newton steps would fit an all-zero model
        with pytest.raises(ValueError, match="max_iter"):
            OMPConfig(max_iter=max_iter)
    # 0 divided by zero after the first refit; -3 checkpointed every atom
    for interval in (0, -3):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            OMPConfig(budget=3, checkpoint_interval=interval)


def test_counts_must_be_integers():
    # budget=nan returned the bias-only model; budget=2.5 selected 3
    for name in ("budget", "max_iter", "checkpoint_interval"):
        for value in (float("nan"), 2.5, 3.0):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                OMPConfig(**{name: value})
    assert OMPConfig(budget=np.int64(3)).budget == 3
