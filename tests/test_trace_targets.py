"""The traced benchmark wraps mcflow callables by name; a rename must not
silently drop a span.

perfbench/spans.py is read as text (its TARGETS tuple), never imported or
modified, and every (module, attribute) it lists must still resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found in perfbench/spans.py")


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_resolves(module, attr):
    namespace = importlib.import_module(f"mcflow.{module}")
    if "." in attr:
        # spans.py patches methods through the class __dict__
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(namespace, cls_name)).get(method))
    else:
        assert callable(getattr(namespace, attr, None))
