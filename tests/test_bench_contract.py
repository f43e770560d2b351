"""The benchmark reaches into textomp by attribute name, and a refactor
that moves or renames one of those attributes breaks it.

The traced run wraps textomp functions by attribute name on the module or
class its caller looks them up on (perfbench/spans.py), and the workloads
call textomp modules directly (perfbench/workloads.py), for example
`logistic.gradient` for the final restricted gradient norm. The tracer's
counters also read some call arguments by position."""

import ast
import importlib
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
from textomp import (baselines, cli, evaluation, gomp,  # noqa: E402
                     grouping, logistic, omp, textpipe)
from textomp.sparse import SparseMatrix  # noqa: E402


def test_every_traced_target_is_defined_on_its_owner():
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in spans.TARGETS
               if attr not in owner.__dict__]
    assert not missing


def test_every_textomp_attribute_the_workloads_read_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: f"textomp.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "textomp"
               for alias in node.names}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {name for name, _ in read} >= {"cli", "evaluation", "gomp",
                                         "logistic", "omp"}
    missing = sorted(f"{name}.{attr}" for name, attr in read
                     if not hasattr(importlib.import_module(modules[name]),
                                    attr))
    assert not missing


def test_counters_read_the_arguments_they_expect():
    # (function the tracer wraps, the leading parameters a counter reads
    # by position); save and load are wrapped as plain functions, so
    # their first parameter is self or cls
    expected = [
        (grouping.kmeans_cluster, ["emb", "vocab", "cfg"]),  # _kmeans_counters
        (gomp.select_group, ["X", "groups"]),  # _live_groups
        (omp.fit_restricted, ["X"]),  # _refit_counters
        (gomp.fit_restricted, ["X"]),
        (logistic.fit_restricted, ["X"]),
        (SparseMatrix.correlations, ["self"]),  # _correlation_counters
        (SparseMatrix.save, ["self", "path"]),  # _file_bytes
        (SparseMatrix.__dict__["load"].__func__, ["cls", "path"]),
    ]
    for fn, names in expected:
        params = list(inspect.signature(fn).parameters)
        assert params[:len(names)] == names, (fn.__qualname__, params)


def test_expand_overlap_keeps_the_signature_the_workloads_call():
    params = list(inspect.signature(grouping.expand_overlap).parameters)
    assert params == ["groups", "emb", "vocab", "neighbors", "metric"]


def test_a_cli_lasso_report_reads_back_with_a_bool_converged(tmp_path):
    # the cli_pipeline workload counts `not r.converged` over this report
    X = SparseMatrix.from_dense([[1.0, 0.0, 1.0], [0.0, 2.0, 1.0],
                                 [1.5, 0.5, 1.0], [0.0, 1.0, 1.0]], bias_col=2)
    X.save(tmp_path / "x.matrix")
    textpipe.save_labels(np.array([1.0, -1.0, 1.0, -1.0]),
                         tmp_path / "x.labels")
    out = tmp_path / "lasso"
    assert cli.main(["train", "--matrix", str(tmp_path / "x.matrix"),
                     "--labels", str(tmp_path / "x.labels"),
                     "--method", "lasso", "--lambda", "0.1",
                     "--out-dir", str(out)]) == 0
    [report] = evaluation.read_reports(out / "report.txt")
    assert type(report.converged) is bool


def test_a_load_is_one_traced_call_whichever_parser_runs(tmp_path):
    # the line parser re-reads a file the numpy parser rejects; it must not
    # go through load again, or the file's bytes would be counted twice
    good = tmp_path / "good.matrix"
    good.write_text("2 2\n0 0 1.0\n1 1 2.0\n")
    bad = tmp_path / "bad.matrix"
    bad.write_text("2 2\n0 0 1.0\n1 1 nan\n")
    tracer = spans.Tracer().install()
    try:
        SparseMatrix.load(good, bias_col=None)
        with pytest.raises(ValueError, match=r"bad\.matrix:3:"):
            SparseMatrix.load(bad, bias_col=None)
    finally:
        tracer.remove()
    loads = [span for span in tracer.spans if span.name == "sparse.load"]
    assert len(loads) == 2
    assert loads[0].counters == {"bytes": good.stat().st_size}


def test_a_traced_cli_chain_records_every_file_layer(tmp_path, capsys):
    # the cli_pipeline layer metrics come from these spans; a writer or
    # reader that stopped going through save, load, map_labels,
    # Corpus.build, build_matrix, load_embeddings, kmeans_cluster or
    # expand_overlap would leave them missing from the traced run
    rng = np.random.default_rng(0)
    words = ["orbit", "rocket", "patient", "doctor", "the", "new", "study"]
    for name, n in (("corpus.tsv", 16), ("test.tsv", 6)):
        (tmp_path / name).write_text("".join(
            f"{'space' if i % 2 else 'med'}\t{' '.join(rng.choice(words, 5))}"
            "\n" for i in range(n)), encoding="utf-8")
    (tmp_path / "emb.txt").write_text("".join(
        f"{word} {x!r} {y!r}\n" for word, (x, y)
        in zip(words, rng.normal(size=(len(words), 2)).tolist())),
        encoding="utf-8")
    vec, fit = tmp_path / "vec", tmp_path / "fit"
    tracer = spans.Tracer().install()
    try:
        assert cli.main(["vectorize", "--corpus", str(tmp_path / "corpus.tsv"),
                         "--test-corpus", str(tmp_path / "test.tsv"),
                         "--label-map", "med=-1,space=+1",
                         "--out-dir", str(vec)]) == 0
        assert cli.main(["group", "--embeddings", str(tmp_path / "emb.txt"),
                         "--vocab", str(vec / "vocab.txt"), "--k", "2",
                         "--neighbors", "1",
                         "--out", str(tmp_path / "groups.txt")]) == 0
        assert cli.main(["train", "--matrix", str(vec / "train.matrix"),
                         "--labels", str(vec / "train.labels"),
                         "--dev-matrix", str(vec / "dev.matrix"),
                         "--dev-labels", str(vec / "dev.labels"),
                         "--method", "omp", "--budget", "2",
                         "--out-dir", str(fit)]) == 0
        assert cli.main(["eval", "--model", str(fit / "model.txt"),
                         "--matrix", str(vec / "test.matrix"),
                         "--labels", str(vec / "test.labels")]) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    sizes = sorted((vec / f"{split}.matrix").stat().st_size
                   for split in ("train", "dev", "test"))
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    # one save per split written, one load per matrix read: train and dev
    # by train, test by eval
    for name in ("sparse.save", "sparse.load"):
        assert sorted(s.counters["bytes"] for s in by_name[name]) == sizes
    for name in ("textpipe.map_labels", "textpipe.Corpus.build",
                 "textpipe.build_matrix", "grouping.load_embeddings",
                 "grouping.kmeans_cluster", "grouping.expand_overlap"):
        assert len(by_name.get(name, ())) >= 1, name


def test_run_gomp_scores_every_activated_group_through_the_traced_scorer():
    # the traced gomp_overlap run reports gomp.score_group_orthonormal.self_s
    # and gomp.remove_overlap.self_s; a run_gomp that computed its epsilon
    # norm or stripped its groups another way would leave that layer
    # metric missing
    rng = np.random.default_rng(0)
    dense = np.column_stack([rng.poisson(0.5, size=(30, 12)).astype(float),
                             np.ones(30)])
    X = SparseMatrix.from_dense(dense, bias_col=12)
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    groups = [(f"g{p}", [p, p + 1, p + 2]) for p in range(0, 10, 2)]
    tracer = spans.Tracer().install()
    try:
        _, traj = gomp.run_gomp(X, y, groups, gomp.GOMPConfig(budget=6))
    finally:
        tracer.remove()
    assert traj.records
    for name in ("gomp.score_group_orthonormal", "gomp.remove_overlap"):
        assert sum(span.name == name for span in tracer.spans) \
            >= len(traj.records), name


def test_a_traced_run_omp_records_the_layers_of_every_step():
    # the omp_refit layer metrics and omp.step_ms come from these spans:
    # step_ms cuts the run_omp span at its select_feature children, so a
    # step must make exactly one select_feature call, and the residual's
    # and the refit's layers need their spans under every step; a step
    # enters atoms_per_step records before its one refit
    rng = np.random.default_rng(1)
    dense = np.column_stack([rng.poisson(0.5, size=(30, 12)).astype(float),
                             np.ones(30)])
    X = SparseMatrix.from_dense(dense, bias_col=12)
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    for atoms_per_step in (1, 8):
        tracer = spans.Tracer().install()
        try:
            _, traj = omp.run_omp(X, y, omp.OMPConfig(
                budget=5, atoms_per_step=atoms_per_step))
        finally:
            tracer.remove()
        assert len(traj.records) == 5
        steps = math.ceil(5 / atoms_per_step)
        [run] = [pos for pos, span in enumerate(tracer.spans)
                 if span.name == "omp.run_omp"]
        selects = [span for span in tracer.spans
                   if span.name == "omp.select_feature"]
        assert len(selects) == steps
        assert all(span.parent == run for span in selects)
        residuals = [pos for pos, span in enumerate(tracer.spans)
                     if span.name == "logistic.residual"]
        assert len(residuals) == steps
        for pos in residuals:
            assert any(span.name == "sparse.mat_vec" and span.parent == pos
                       for span in tracer.spans)
        assert any(span.name == "sparse.densify_columns"
                   for span in tracer.spans)


def test_fits_hand_back_the_active_set_and_records_the_benchmark_reads():
    # spans._refit_counters takes len(model.active); the workloads count
    # model.active.n_selected(bias_col), index the final gradient with
    # model.active.ascending(), and tell an OMP fit from a group OMP fit
    # by the type of its records
    rng = np.random.default_rng(3)
    dense = np.column_stack([rng.poisson(0.5, size=(30, 8)).astype(float),
                             np.ones(30)])
    X = SparseMatrix.from_dense(dense, bias_col=8)
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    omp_model, omp_traj = omp.run_omp(X, y, omp.OMPConfig(budget=3))
    gomp_model, gomp_traj = gomp.run_gomp(X, y, [("g", [0, 1, 2])],
                                          gomp.GOMPConfig(budget=3))
    lasso = baselines.fit_penalized(X, y, baselines.PenaltyConfig(1.0, 0.0))
    for model in (omp_model, gomp_model, lasso):
        support = np.flatnonzero(model.theta).tolist()
        assert len(model.active) >= len(support)
        assert model.active.ascending() == sorted(model.active)
        assert set(support) <= set(model.active.ascending())
        assert model.active.n_selected(X.bias_col) \
            == len(model.active) - (X.bias_col in model.active)
    assert omp_model.active.n_selected(X.bias_col) == 3
    assert gomp_model.active.n_selected(X.bias_col) >= 3
    assert lasso.active.ascending() == np.flatnonzero(lasso.theta).tolist()

    assert omp_traj.records and gomp_traj.records
    assert all(isinstance(r, omp.SelectionRecord)
               and not isinstance(r, gomp.GroupSelectionRecord)
               for r in omp_traj.records)
    assert all(isinstance(r, gomp.GroupSelectionRecord)
               and not isinstance(r, omp.SelectionRecord)
               for r in gomp_traj.records)
