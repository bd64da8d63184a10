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


def test_every_traced_check_family_returns_a_tuple():
    # a span times a family by wrapping its call, so the family must do its
    # work before it returns: a generator would be timed empty
    from mcflow.calculus import div
    from mcflow.mcframe import Check, curl_identities
    from mcflow.systems import builtin

    guillot, dh = builtin("guillot"), builtin("dh_symmetric")
    frame = guillot.frame
    curl = curl_identities(frame)
    h1, h2 = (dict(guillot.spec.integrals)[name] for name in ("H1", "H2_plus"))
    calls = {
        ("mcframe", "verify_sl2"): (frame.v, frame.u, frame.w),
        ("mcframe", "verify_duality"): (frame,),
        ("mcframe", "verify_maurer_cartan"): (frame, curl),
        ("mcframe", "curl_identities"): (frame,),
        ("mcframe", "frobenius_residual"): (frame, curl),
        ("mcframe", "bihamiltonian_verify"): (
            frame.v, frame.M, h1, h2, "H2_plus", div(frame.v.scale(frame.M))),
        ("systems", "dh_reduction_check"): (),
        ("systems", "grading_check"): (dh,),
    }
    assert set(calls) <= set(_targets())
    for (module, attr), args in calls.items():
        checks = getattr(importlib.import_module(f"mcflow.{module}"), attr)(*args)
        assert type(checks) is tuple and checks, attr
        assert all(type(c) is Check for c in checks), attr
