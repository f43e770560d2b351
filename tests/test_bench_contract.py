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
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
from textomp import gomp, grouping, logistic, omp  # noqa: E402
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
