"""The traced benchmark run wraps textomp functions by attribute name on
the module or class its caller looks them up on (perfbench/spans.py).
A refactor that moves or renames one of them makes the tracer raise
KeyError, so every target must stay defined on its owner."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_every_traced_target_is_defined_on_its_owner():
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in spans.TARGETS
               if attr not in owner.__dict__]
    assert not missing
