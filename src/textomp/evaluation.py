"""Accuracy/sparsity metrics, dev-set grid search, and fit reports.

The grid-search protocol: fit every hyperparameter combination, score it
on the development split, keep the most accurate model; exact accuracy
ties go to the sparser model (fewest nonzero weights), and any remaining
tie to the smallest penalty, so the search is fully deterministic.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np

from . import baselines, gomp as gomp_mod, logistic, omp as omp_mod
from .sparse import _text_lines

DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)

# The FitOptions settings each method reads, which fit passes to its solver
# under the same names (groups as run_gomp's argument); it ignores the rest.
_EVERY_FIT = ("tol", "max_iter", "penalize_bias")
_GREEDY = _EVERY_FIT + ("budget", "epsilon", "normalize_columns")
METHOD_SETTINGS = {
    "omp": _GREEDY + ("atoms_per_step",),
    "gomp": _GREEDY + ("groups", "criterion", "augment_singletons"),
    **dict.fromkeys(("lasso", "ridge", "elastic", "none"), _EVERY_FIT)}

METHODS = tuple(METHOD_SETTINGS)

# The penalty strengths each method reads: fit's hp key -> the field of
# the method's config it sets, the greedy configs' lam or PenaltyConfig's
# lambda_l1 and lambda_l2 (a PenaltyConfig field not set stays 0).
METHOD_PENALTIES = {
    **dict.fromkeys(("omp", "gomp"), {"lambda": "lam"}),
    "lasso": {"lambda": "lambda_l1"}, "ridge": {"lambda": "lambda_l2"},
    "elastic": {"lambda_l1": "lambda_l1", "lambda_l2": "lambda_l2"},
    "none": {}}


@dataclass
class GridSpec:
    method: str
    lambda_values: tuple = DEFAULT_LAMBDA_GRID

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        self.lambda_values = tuple(float(v) for v in self.lambda_values)
        if not self.lambda_values:
            raise ValueError("lambda grid is empty")
        if not all(0 < v < np.inf for v in self.lambda_values):
            raise ValueError("lambda grid values must be finite and positive")

    def points(self):
        """Hyperparameter dicts in deterministic grid order: every penalty
        the method reads takes every grid value, the first outermost."""
        names = METHOD_PENALTIES[self.method]
        return [dict(zip(names, values))
                for values in product(self.lambda_values, repeat=len(names))]


@dataclass
class FitReport:
    method: str
    hyperparams: dict = field(default_factory=dict)
    dev_accuracy: float = None
    test_accuracy: float = None
    sparsity_pct: float = None
    n_active: int = None
    seconds: float = 0.0
    converged: bool = None
    atoms_curve: tuple = None
    error: str = None

    def ok(self):
        return self.error is None


def accuracy(model, X, y):
    """Fraction of samples whose margin sign matches the label.

    A zero margin predicts +1. Raises on an empty evaluation set.
    """
    if len(y) == 0:
        raise ValueError("empty evaluation set")
    y = logistic.checked_labels(X, y)
    margin = X.mat_vec(getattr(model, "theta", model))
    pred = np.where(margin >= 0.0, 1.0, -1.0)
    return float(np.mean(pred == y))


def atoms_curve(trajectory, X_dev, y_dev):
    """Dev accuracy at every stored (atom count, weights) checkpoint."""
    return [(count, accuracy(theta, X_dev, y_dev))
            for count, theta in trajectory.checkpoints]


def score_on_dev(report, model, trajectory, X_dev, y_dev):
    """Fill in report's dev_accuracy and, when the trajectory holds
    checkpoints, its atoms_curve; train and grid score a fit this way."""
    report.dev_accuracy = accuracy(model, X_dev, y_dev)
    if trajectory is not None and trajectory.checkpoints:
        report.atoms_curve = tuple(atoms_curve(trajectory, X_dev, y_dev))


@dataclass
class FitOptions:
    """Solver settings shared by every fit of a run; the penalty strengths
    vary per fit and travel separately as hyperparameters. Each field is
    one CLI solver flag of train and grid, which the manifests record with
    every other parsed argument. Each default is the one of the greedy
    config that owns the setting. METHOD_SETTINGS names the fields each
    method reads; fit ignores the rest, so one FitOptions serves every
    method of a comparison."""
    budget: int = omp_mod.GreedyConfig.budget
    epsilon: float = omp_mod.GreedyConfig.epsilon
    atoms_per_step: int = omp_mod.OMPConfig.atoms_per_step  # omp only
    groups: object = None  # GroupStructure or list of Groups, gomp only
    criterion: str = gomp_mod.GOMPConfig.criterion
    augment_singletons: bool = gomp_mod.GOMPConfig.augment_singletons
    normalize_columns: bool = omp_mod.GreedyConfig.normalize_columns
    tol: float = omp_mod.GreedyConfig.tol
    max_iter: int = omp_mod.GreedyConfig.max_iter
    penalize_bias: bool = omp_mod.GreedyConfig.penalize_bias


def fit(method, hp, X, y, opts):
    """Fit one model with the solver `method` names.

    hp holds the penalty strengths METHOD_PENALTIES names: "lambda" for
    omp, gomp, lasso and ridge, "lambda_l1" and "lambda_l2" for elastic,
    none for "none". METHOD_PENALTIES also maps each to the config field
    it sets. The solver receives the opts METHOD_SETTINGS names.
    Returns (model, trajectory or None, FitReport without dev scores); the
    trajectory comes from the greedy methods only.
    """
    started = time.perf_counter()
    penalties = {name: hp[key]
                 for key, name in METHOD_PENALTIES[method].items()}
    settings = {name: getattr(opts, name)
                for name in METHOD_SETTINGS[method] if name != "groups"}
    traj = None
    if method == "omp":
        model, traj = omp_mod.run_omp(
            X, y, omp_mod.OMPConfig(**penalties, **settings))
    elif method == "gomp":
        model, traj = gomp_mod.run_gomp(
            X, y, opts.groups if opts.groups is not None else [],
            gomp_mod.GOMPConfig(**penalties, **settings))
    else:
        model = baselines.fit_penalized(
            X, y, baselines.PenaltyConfig(**penalties), **settings)
    report = FitReport(
        method=method,
        hyperparams=dict(hp),
        sparsity_pct=baselines.sparsity(model, bias_col=X.bias_col),
        n_active=baselines.n_nonzero(model.theta, X.bias_col),
        seconds=time.perf_counter() - started,
        converged=model.converged,
    )
    return model, traj, report


def selection_key(report):
    """Grid-search ranking: dev accuracy, then fewest nonzeros, then the
    smallest penalty; min() under this key is the winning report."""
    hp = report.hyperparams
    lam = hp.get("lambda", hp.get("lambda_l2", 0.0))
    return (-report.dev_accuracy, report.n_active,
            lam, hp.get("lambda_l1", 0.0))


def grid_search(X_train, y_train, X_dev, y_dev, spec, opts=None):
    """Fit the whole grid; returns (best model, its report, every report in
    grid order).

    opts: FitOptions shared by every grid point (defaults if None).
    Individual fit failures are recorded on their report and the search
    continues; if every point fails, the last failure is re-raised.
    """
    opts = FitOptions() if opts is None else opts
    reports = []
    best = None
    best_model = None
    last_exc = None
    for hp in spec.points():
        started = time.perf_counter()
        try:
            model, traj, report = fit(spec.method, hp, X_train, y_train, opts)
        except Exception as exc:  # recorded, search continues
            last_exc = exc
            reports.append(FitReport(method=spec.method, hyperparams=dict(hp),
                                     seconds=time.perf_counter() - started,
                                     error=str(exc) or repr(exc)))
            continue
        score_on_dev(report, model, traj, X_dev, y_dev)
        reports.append(report)
        if best is None or selection_key(report) < selection_key(best):
            best = report
            best_model = model
    if best_model is None:
        raise RuntimeError("every grid point failed") from last_exc
    return best_model, best, reports


# -- report serialization -----------------------------------------------------

def format_report(report):
    """One JSON object of the report's fields, keys sorted; json writes
    floats with repr, so parse_report gets the same values back."""
    return json.dumps(asdict(report), sort_keys=True)


def parse_report(line):
    """Inverse of format_report."""
    report = FitReport(**json.loads(line))
    if report.atoms_curve is not None:
        report.atoms_curve = tuple((int(count), float(acc))
                                   for count, acc in report.atoms_curve)
    return report


def write_reports(reports, path):
    with open(path, "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(format_report(report) + "\n")


def read_reports(path):
    """Reports of a file write_reports wrote; a line that is not one
    raises a ValueError naming it as "path:lineno:"."""
    reports = []
    for lineno, line in _text_lines(path):
        if not line.strip():
            continue
        try:
            reports.append(parse_report(line))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}:{lineno}: not a fit report ({exc})") from None
    return reports


def human_table(reports):
    """Plain aligned table for stdout."""
    rows = [("method", "hyperparams", "dev_acc", "test_acc", "nonzero%",
             "atoms", "seconds", "status")]
    for r in reports:
        hp = " ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in sorted(r.hyperparams.items()))
        rows.append((
            r.method, hp or "-",
            "-" if r.dev_accuracy is None else f"{r.dev_accuracy:.4f}",
            "-" if r.test_accuracy is None else f"{r.test_accuracy:.4f}",
            "-" if r.sparsity_pct is None else f"{r.sparsity_pct:.3f}",
            "-" if r.n_active is None else str(r.n_active),
            f"{r.seconds:.2f}",
            "failed: " + r.error if r.error else
            ("ok" if r.converged in (True, None) else "no-convergence"),
        ))
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)
