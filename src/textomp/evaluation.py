"""Accuracy/sparsity metrics, dev-set grid search, and fit reports.

The grid-search protocol: fit every hyperparameter combination, score it
on the development split, keep the most accurate model; exact accuracy
ties go to the sparser model (fewest nonzero weights), and any remaining
tie to the smallest penalty, so the search is fully deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from itertools import product

import numpy as np

from . import baselines, gomp as gomp_mod, omp as omp_mod

DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)

# The FitOptions settings each method reads; the others it ignores.
_EVERY_FIT = ("tol", "max_iter", "penalize_bias")
_GREEDY = _EVERY_FIT + ("budget", "epsilon", "normalize_columns")
METHOD_SETTINGS = {
    "omp": _GREEDY,
    "gomp": _GREEDY + ("groups", "criterion", "augment_singletons"),
    **dict.fromkeys(("lasso", "ridge", "elastic", "none"), _EVERY_FIT)}

METHODS = tuple(METHOD_SETTINGS)

# The penalty strengths (fit's hp keys) each method reads.
METHOD_PENALTIES = {
    **dict.fromkeys(("omp", "gomp", "lasso", "ridge"), ("lambda",)),
    "elastic": ("lambda_l1", "lambda_l2"), "none": ()}


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
        if any(v <= 0 for v in self.lambda_values):
            raise ValueError("lambda grid values must be positive")

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
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        raise ValueError("empty evaluation set")
    if y.shape != (X.n_rows,):
        raise ValueError(f"y length {y.shape} != ({X.n_rows},)")
    margin = X.mat_vec(getattr(model, "theta", model))
    pred = np.where(margin >= 0.0, 1.0, -1.0)
    return float(np.mean(pred == y))


def atoms_curve(trajectory, X_dev, y_dev):
    """Dev accuracy at every stored (atom count, weights) checkpoint."""
    return [(count, accuracy(theta, X_dev, y_dev))
            for count, theta in trajectory.checkpoints]


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
    groups: object = None  # GroupStructure or list of Groups, gomp only
    criterion: str = gomp_mod.GOMPConfig.criterion
    augment_singletons: bool = gomp_mod.GOMPConfig.augment_singletons
    normalize_columns: bool = omp_mod.GreedyConfig.normalize_columns
    tol: float = omp_mod.GreedyConfig.tol
    max_iter: int = omp_mod.GreedyConfig.max_iter
    penalize_bias: bool = omp_mod.GreedyConfig.penalize_bias


def _greedy_config(cls, lam, opts):
    """cls with penalty lam and every FitOptions setting cls also has."""
    shared = {f.name for f in fields(cls)} & {f.name for f in fields(opts)}
    return cls(lam=lam, **{name: getattr(opts, name) for name in shared})


def fit(method, hp, X, y, opts):
    """Fit one model with the solver `method` names.

    hp holds the penalty strengths METHOD_PENALTIES names: "lambda" for
    omp, gomp, lasso and ridge, "lambda_l1" and "lambda_l2" for elastic,
    none for "none".
    Returns (model, trajectory or None, FitReport without dev scores); the
    trajectory comes from the greedy methods only.
    """
    started = time.perf_counter()
    traj = None
    if method == "omp":
        cfg = _greedy_config(omp_mod.OMPConfig, hp["lambda"], opts)
        model, traj = omp_mod.run_omp(X, y, cfg)
    elif method == "gomp":
        cfg = _greedy_config(gomp_mod.GOMPConfig, hp["lambda"], opts)
        model, traj = gomp_mod.run_gomp(
            X, y, opts.groups if opts.groups is not None else [], cfg)
    else:
        if method == "lasso":
            pen = baselines.PenaltyConfig(lambda_l1=hp["lambda"],
                                          lambda_l2=0.0)
        elif method == "ridge":
            pen = baselines.PenaltyConfig(lambda_l1=0.0,
                                          lambda_l2=hp["lambda"])
        elif method == "elastic":
            pen = baselines.PenaltyConfig(lambda_l1=hp["lambda_l1"],
                                          lambda_l2=hp["lambda_l2"])
        else:  # none: unregularized
            pen = baselines.PenaltyConfig(0.0, 0.0)
        # proximal fits need far more iterations than Newton refits
        model = baselines.fit_penalized(X, y, pen, tol=opts.tol,
                                        max_iter=max(opts.max_iter, 1000),
                                        penalize_bias=opts.penalize_bias)
    bias = X.bias_col
    report = FitReport(
        method=method,
        hyperparams=dict(hp),
        sparsity_pct=baselines.sparsity(model, bias_col=bias),
        n_active=int(np.count_nonzero(model.theta)
                     - (1 if bias is not None and model.theta[bias] != 0
                        else 0)),
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
    """Fit the whole grid; returns (best model, reports in grid order).

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
        report.dev_accuracy = accuracy(model, X_dev, y_dev)
        if traj is not None and traj.checkpoints:
            report.atoms_curve = tuple(atoms_curve(traj, X_dev, y_dev))
        reports.append(report)
        if best is None or selection_key(report) < selection_key(best):
            best = report
            best_model = model
    if best_model is None:
        raise RuntimeError("every grid point failed") from last_exc
    return best_model, reports


# -- report serialization -----------------------------------------------------

_METRIC_KEYS = ("method", "dev_accuracy", "test_accuracy", "sparsity_pct",
                "n_active", "seconds", "converged", "atoms_curve", "error")


def format_report(report):
    """One tab-separated key=value record; floats use repr so parsing is exact."""
    parts = [f"method={report.method}"]
    for key in sorted(report.hyperparams):
        val = report.hyperparams[key]
        parts.append(f"{key}={val!r}" if isinstance(val, float)
                     else f"{key}={val}")
    for key in _METRIC_KEYS[1:]:
        val = getattr(report, key)
        if val is None:
            continue
        if key == "atoms_curve":
            val = ",".join(f"{c}:{a!r}" for c, a in val)
        elif key == "converged":
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        parts.append(f"{key}={val}")
    return "\t".join(parts)


def _parse_value(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_report(line):
    fields = {}
    for part in line.rstrip("\n").split("\t"):
        key, _, val = part.partition("=")
        fields[key] = val
    report = FitReport(method=fields.pop("method"))
    for key in _METRIC_KEYS[1:]:
        if key not in fields:
            continue
        raw = fields.pop(key)
        if key == "atoms_curve":
            pairs = [p.split(":") for p in raw.split(",") if p]
            report.atoms_curve = tuple((int(c), float(a)) for c, a in pairs)
        elif key == "converged":
            report.converged = raw == "true"
        elif key == "error":
            report.error = raw
        elif key == "n_active":
            report.n_active = int(raw)
        else:
            setattr(report, key, float(raw))
    report.hyperparams = {k: _parse_value(v) for k, v in fields.items()}
    return report


def write_reports(reports, path):
    with open(path, "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(format_report(report) + "\n")


def read_reports(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [parse_report(line) for line in fh if line.strip()]


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
