import dataclasses
import inspect
import math

import numpy as np
import pytest

from textomp import (FitOptions, FitReport, GOMPConfig, GridSpec,
                     PenaltyConfig, SparseMatrix, accuracy, atoms_curve, fit,
                     fit_penalized, grid_search, run_omp, OMPConfig)
from textomp.evaluation import (METHOD_SETTINGS, METHODS, format_report,
                                human_table, parse_report, read_reports,
                                write_reports)

from conftest import random_design, random_labels


def separable_instance(rng, n, noise_features=4, redundant=True):
    """Margin-3 separable data: one or two strong columns plus noise."""
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    cols = [3.0 * y]
    if redundant:
        cols.append(3.0 * y + 0.01 * rng.normal(size=n))
    cols.append(rng.normal(size=(n, noise_features)))
    dense = np.column_stack(cols + [np.ones(n)])
    X = SparseMatrix.from_dense(dense, bias_col=dense.shape[1] - 1)
    return X, y


# -- accuracy -----------------------------------------------------------------

def test_accuracy_of_majority_label_model():
    y = np.array([1.0] * 6 + [-1.0] * 4)
    dense = np.column_stack([np.zeros(10), np.ones(10)])
    X = SparseMatrix.from_dense(dense, bias_col=1)
    theta = np.array([0.0, 5.0])  # always predicts +1
    assert accuracy(theta, X, y) == 0.6


def test_accuracy_of_perfect_separator(rng):
    y = random_labels(rng, 12)
    dense = np.column_stack([y, np.ones(12)])
    X = SparseMatrix.from_dense(dense, bias_col=1)
    assert accuracy(np.array([10.0, 0.0]), X, y) == 1.0


def test_accuracy_hand_scored_five_documents():
    dense = np.array([
        [2.0, 1.0],   # margin  +3 -> +1
        [-1.0, 1.0],  # margin   0 -> +1 (tie rule)
        [-3.0, 1.0],  # margin  -2 -> -1
        [1.0, 1.0],   # margin  +2 -> +1
        [-2.0, 1.0],  # margin  -1 -> -1
    ])
    X = SparseMatrix.from_dense(dense, bias_col=1)
    theta = np.array([1.0, 1.0])
    y = np.array([1.0, -1.0, -1.0, -1.0, -1.0])
    # predictions +1,+1,-1,+1,-1 -> hits on docs 0, 2, 4
    assert accuracy(theta, X, y) == pytest.approx(3 / 5)


def test_accuracy_invariant_to_positive_rescaling(rng):
    dense, X = random_design(rng, 15, 5)
    y = random_labels(rng, 15)
    theta = rng.normal(size=5)
    assert accuracy(theta, X, y) == accuracy(17.5 * theta, X, y)


def test_accuracy_empty_set_errors():
    X = SparseMatrix.from_columns(0, [([], [])])
    with pytest.raises(ValueError):
        accuracy(np.zeros(1), X, np.array([]))


# -- fit ------------------------------------------------------------------------

@pytest.mark.parametrize("method, hp, config", [
    ("lasso", {"lambda": 0.5}, PenaltyConfig(lambda_l1=0.5, lambda_l2=0.0)),
    ("ridge", {"lambda": 0.5}, PenaltyConfig(lambda_l1=0.0, lambda_l2=0.5)),
    ("elastic", {"lambda_l1": 0.5, "lambda_l2": 2.0},
     PenaltyConfig(lambda_l1=0.5, lambda_l2=2.0)),
    ("none", {}, PenaltyConfig(lambda_l1=0.0, lambda_l2=0.0)),
    ("omp", {"lambda": 0.5}, OMPConfig(lam=0.5)),
])
def test_fit_sets_the_penalties_readme_gives_each_method(rng, method, hp,
                                                         config):
    _, X = random_design(rng, 40, 8)
    y = random_labels(rng, 40)
    model, _, _ = fit(method, hp, X, y, FitOptions())
    expected = run_omp(X, y, config)[0] if method == "omp" \
        else fit_penalized(X, y, config)
    np.testing.assert_array_equal(model.theta, expected.theta)


@pytest.mark.parametrize("method", METHODS)
def test_every_setting_a_method_reads_is_a_parameter_of_its_solver(method):
    if method in ("omp", "gomp"):
        config = OMPConfig if method == "omp" else GOMPConfig
        params = {f.name for f in dataclasses.fields(config)}
    else:
        params = set(inspect.signature(fit_penalized).parameters)
    assert set(METHOD_SETTINGS[method]) - {"groups"} <= params


@pytest.mark.parametrize("method", METHODS)
def test_every_method_rejects_a_max_iter_below_one(rng, method):
    _, X = random_design(rng, 20, 5)
    y = random_labels(rng, 20)
    hp = {"lambda_l1": 1.0, "lambda_l2": 1.0} if method == "elastic" \
        else {} if method == "none" else {"lambda": 1.0}
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        fit(method, hp, X, y, FitOptions(max_iter=0))


# -- grid search ----------------------------------------------------------------

def test_single_point_grid_returns_that_fit(rng):
    X, y = separable_instance(rng, 30)
    Xd, yd = separable_instance(rng, 12)
    spec = GridSpec(method="ridge", lambda_values=(1.0,))
    model, best, reports = grid_search(X, y, Xd, yd, spec)
    assert len(reports) == 1 and best is reports[0]
    assert reports[0].hyperparams == {"lambda": 1.0}
    assert reports[0].dev_accuracy == accuracy(model, Xd, yd)


def with_private_word(X, rows):
    """X with one more column, before the bias, that is 1 in `rows`."""
    col = np.zeros(X.n_rows)
    col[rows] = 1.0
    return SparseMatrix.from_dense(np.insert(X.to_dense(), -1, col, axis=1),
                                   bias_col=X.n_cols)


def test_equal_dev_accuracy_prefers_sparser_model(rng):
    X, y = separable_instance(rng, 40)
    Xd, yd = separable_instance(rng, 20)
    # one mislabeled training document holds a word of its own: the weak
    # penalty fits it with that word, which no dev document holds, so
    # both fits classify dev alike with different nonzero counts
    X, Xd = with_private_word(X, [0]), with_private_word(Xd, [])
    y[0] = -y[0]
    spec = GridSpec(method="lasso", lambda_values=(0.01, 2.0))
    model, best, reports = grid_search(X, y, Xd, yd, spec)
    assert reports[0].dev_accuracy == reports[1].dev_accuracy == 1.0
    assert reports[1].n_active < reports[0].n_active
    assert best.hyperparams["lambda"] == 2.0
    assert int(np.count_nonzero(model.theta[:-1])) == best.n_active


def test_overpenalized_lambda_loses_on_dev_accuracy(rng):
    X, y = separable_instance(rng, 40, redundant=False)
    Xd, yd = separable_instance(rng, 20, redundant=False)
    spec = GridSpec(method="lasso", lambda_values=(0.1, 100.0))
    _, best, reports = grid_search(X, y, Xd, yd, spec)
    assert reports[1].n_active == 0  # lambda=100 shrinks everything away
    assert best.hyperparams["lambda"] == 0.1
    assert best.dev_accuracy > reports[1].dev_accuracy


def test_winner_dominates_every_report(rng):
    X, y = separable_instance(rng, 30)
    Xd, yd = separable_instance(rng, 15)
    spec = GridSpec(method="lasso", lambda_values=(0.01, 0.1, 1.0, 10.0))
    _, best, reports = grid_search(X, y, Xd, yd, spec)
    for r in reports:
        assert best.dev_accuracy >= r.dev_accuracy
        if r.dev_accuracy == best.dev_accuracy:
            assert best.n_active <= r.n_active


def test_failed_points_are_recorded_and_search_continues(rng, monkeypatch):
    X, y = separable_instance(rng, 20)
    Xd, yd = separable_instance(rng, 10)
    import textomp.evaluation as ev
    real = ev.baselines.fit_penalized
    calls = []

    def sometimes_fails(X_, y_, cfg, **kw):
        calls.append(cfg)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("synthetic failure")
        return real(X_, y_, cfg, **kw)

    monkeypatch.setattr(ev.baselines, "fit_penalized", sometimes_fails)
    spec = GridSpec(method="ridge", lambda_values=(0.1, 1.0))
    _, best, reports = grid_search(X, y, Xd, yd, spec)
    assert reports[0].error == "synthetic failure"
    assert reports[1].ok() and best is reports[1]


def test_all_points_failing_raises(rng, monkeypatch):
    X, y = separable_instance(rng, 20)
    Xd, yd = separable_instance(rng, 10)
    import textomp.evaluation as ev

    def always_fails(*a, **kw):
        raise np.linalg.LinAlgError("nope")

    monkeypatch.setattr(ev.baselines, "fit_penalized", always_fails)
    spec = GridSpec(method="ridge", lambda_values=(0.1, 1.0))
    with pytest.raises(RuntimeError):
        grid_search(X, y, Xd, yd, spec)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(method="unknown")
    with pytest.raises(ValueError):
        GridSpec(method="omp", lambda_values=())
    with pytest.raises(ValueError):
        GridSpec(method="omp", lambda_values=(0.0, 1.0))
    elastic = GridSpec(method="elastic", lambda_values=(0.1, 1.0))
    assert len(elastic.points()) == 4


# -- atoms curve ------------------------------------------------------------------

def test_final_checkpoint_matches_final_model_accuracy(rng):
    _, X = random_design(rng, 25, 12)
    y = random_labels(rng, 25)
    model, traj = run_omp(X, y, OMPConfig(budget=5, lam=1.0))
    Xd, yd = separable_instance(rng, 10, noise_features=9)
    curve = atoms_curve(traj, X, y)
    assert curve[-1][0] == model.active.n_selected(X.bias_col)
    assert curve[-1][1] == accuracy(model, X, y)


def test_curve_flat_once_single_atom_suffices(rng):
    X, y = separable_instance(rng, 30, noise_features=3, redundant=False)
    cfg = OMPConfig(budget=4, lam=0.1, checkpoint_interval=1)
    _, traj = run_omp(X, y, cfg)
    curve = atoms_curve(traj, X, y)
    assert all(acc == 1.0 for _, acc in curve)


def test_curve_length_is_budget_over_interval_rounded_up(rng):
    _, X = random_design(rng, 30, 30, density=1.0)
    y = random_labels(rng, 30)
    cfg = OMPConfig(budget=25, lam=1.0, checkpoint_interval=10)
    _, traj = run_omp(X, y, cfg)
    curve = atoms_curve(traj, X, y)
    assert len(curve) == math.ceil(25 / 10)
    assert [c for c, _ in curve] == [10, 20, 25]


# -- report serialization -----------------------------------------------------------

def test_fit_report_round_trips_losslessly():
    report = FitReport(
        method="elastic",
        hyperparams={"lambda_l1": 0.1, "lambda_l2": 10.0, "budget": 2000,
                     "criterion": "averaged"},
        dev_accuracy=0.9175,
        test_accuracy=0.8025,
        sparsity_pct=7.7558459301,
        n_active=2000,
        seconds=12.25,
        converged=True,
        atoms_curve=((100, 0.75), (200, 0.8125)),
    )
    assert parse_report(format_report(report)) == report


def test_fit_report_round_trips_failure_case():
    report = FitReport(method="lasso", hyperparams={"lambda": 1.0},
                       seconds=0.5, error="synthetic failure: bad luck")
    assert parse_report(format_report(report)) == report


def test_report_file_round_trip(tmp_path):
    reports = [
        FitReport(method="omp", hyperparams={"lambda": 0.1, "budget": 8},
                  dev_accuracy=1.0, sparsity_pct=25.0, n_active=2,
                  seconds=0.01, converged=True),
        FitReport(method="ridge", hyperparams={"lambda": 10.0},
                  dev_accuracy=0.5, sparsity_pct=100.0, n_active=8,
                  seconds=0.02, converged=True),
    ]
    path = tmp_path / "reports.txt"
    write_reports(reports, path)
    assert read_reports(path) == reports


def test_every_report_field_round_trips_through_a_report_file(tmp_path):
    # every field off its default; the old tab-separated codec split the
    # error at its tab and read the string "10" back as an int
    report = FitReport(
        method="gomp",
        hyperparams={"lambda": 0.1, "budget": 7, "criterion": "10",
                     "groups": None},
        dev_accuracy=0.1 + 0.2, test_accuracy=2 / 3,
        sparsity_pct=7.7558459301, n_active=3, seconds=1e-7,
        converged=False, atoms_curve=((1, 0.5), (2, 1 / 3)),
        error="bad\tx=1\nsecond line")
    path = tmp_path / "reports.txt"
    write_reports([report, FitReport(method="none")], path)
    back, default = read_reports(path)
    assert back == report and default == FitReport(method="none")
    assert {k: type(v) for k, v in back.hyperparams.items()} == {
        "lambda": float, "budget": int, "criterion": str,
        "groups": type(None)}
    assert all(type(c) is int and type(a) is float
               for c, a in back.atoms_curve)
    assert path.read_text().count("\n") == 2  # one line per report


@pytest.mark.parametrize("bad", [
    "method=omp\tlambda=1.0", "[1, 2]", "{}", '{"method": "omp", "x": 1}',
    '{"method": "omp", "atoms_curve": [[1]]}'])
def test_malformed_report_line_names_its_line(tmp_path, bad):
    path = tmp_path / "reports.txt"
    path.write_text(format_report(FitReport(method="omp")) + "\n\n" + bad
                    + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"reports\.txt:3: "):
        read_reports(path)


def test_report_file_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "reports.txt"
    good = format_report(FitReport(method="omp", error="café")) + "\n"
    path.write_bytes(good.encode() + b'{"method": "\xff"}\n')
    with pytest.raises(ValueError, match=r"reports\.txt:2: not valid UTF-8$"):
        read_reports(path)


def test_human_table_renders_all_rows(rng):
    reports = [
        FitReport(method="omp", hyperparams={"lambda": 0.1},
                  dev_accuracy=0.925, sparsity_pct=3.0, n_active=12,
                  seconds=1.5, converged=True),
        FitReport(method="lasso", hyperparams={"lambda": 1.0},
                  seconds=0.1, error="boom"),
    ]
    table = human_table(reports)
    lines = table.splitlines()
    assert len(lines) == 3
    assert "failed: boom" in table
    assert "0.9250" in table
