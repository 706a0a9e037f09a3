"""The benchmark tracer (bench/spans.py) wraps sectorflow functions by
module and attribute name; each of them must exist, or a traced bench run
fails.  The file is parsed, not imported, so nothing in bench/ runs."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


@pytest.mark.parametrize("module, attr, span", _targets())
def test_tracer_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"sectorflow.{module}"), attr))
