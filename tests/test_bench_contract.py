"""The benchmark reaches into textomp by attribute name, and a refactor
that moves or renames one of those attributes breaks it.

The traced run wraps textomp functions by attribute name on the module or
class its caller looks them up on (perfbench/spans.py), and the workloads
call textomp modules directly (perfbench/workloads.py), for example
`logistic.gradient` for the final restricted gradient norm."""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402


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
