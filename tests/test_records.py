"""The records (tokens, system specs, checks, frames) are built by position
and print by their fields."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from mcflow import cli
from mcflow.mcframe import (
    Check,
    FAILS,
    HOLDS,
    NONZERO,
    ZERO,
    Frame,
    conformal_transform,
    curl_identities,
    verify_maurer_cartan,
)
from mcflow.parser import SystemSpec, _Token, parse_rational


@pytest.mark.parametrize("record, shown", [
    (_Token("int", "3", 1, 5), "_Token(kind='int', text='3', line=1, column=5)"),
    (Frame(None, None, None, Fraction(1, 2), None, None, None),
     "Frame(v=None, u=None, w=None, M=Fraction(1, 2), alpha=None, beta=None, gamma=None)"),
    (SystemSpec("toy", ("x", "y", "z"), (), None, None, (), None),
     "SystemSpec(name='toy', variables=('x', 'y', 'z'), v=(), u=None, w=None, integrals=(), "
     "multiplier_hint=None)"),
    (Check("a", "b = 0", HOLDS, None, None, ZERO),
     "Check(name='a', anchor='b = 0', status='holds', residual_obj=None, "
     "residual=None, expect='zero')"),
    (Check("a", "b != 0", FAILS, None, None, NONZERO),
     "Check(name='a', anchor='b != 0', status='fails', residual_obj=None, "
     "residual=None, expect='nonzero')"),
])
def test_repr_lists_fields_in_order(record, shown):
    assert repr(record) == shown


def test_parsed_values_and_tokens_equality_and_hash():
    left = parse_rational("x^2 - 3*y")
    right = parse_rational("x ^ 2 - 3 * y")
    assert left == right and hash(left) == hash(right)


# a record takes one value per field, by position only
@pytest.mark.parametrize("args, kwargs", [
    (("a", "b"), {}),
    (("a", "b", HOLDS), {"name": "again"}),
    (("a", "b", HOLDS), {"unknown": 1}),
    (("a", "b", HOLDS, None, None, "zero", "extra"), {}),
    ((), {"name": "a", "anchor": "b", "status": HOLDS, "residual_obj": None,
          "residual": None, "expect": "zero"}),
])
def test_bad_construction_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Check(*args, **kwargs)


@pytest.mark.parametrize("rho, f", [("x + 1", "y"), ("y", None)])
def test_conformal_rows_keep_the_row_they_rename(rho, f):
    resolved = cli._resolve("guillot")
    frame = resolved.frame
    curl = curl_identities(frame)
    rows = [c for c in cli._sigma_checks(resolved, SimpleNamespace(rho=rho, f=f), curl)
            if c.name.startswith("conformal.")]
    t_rho = cli.parse_rational(rho, frame.M.chart)
    source = verify_maurer_cartan(frame, curl, t_rho)
    alpha, beta, gamma = conformal_transform(frame, t_rho)
    assert [c.residual_obj for c in source] == [
        beta.d() + alpha.wedge(beta).scale(2),
        alpha.d() - gamma.wedge(beta),
        gamma.d() - alpha.wedge(gamma).scale(2),
        alpha.d(),
    ]
    assert [c.name for c in rows] == [f"conformal.{c.name}" for c in source]
    for renamed, original in zip(rows, source):
        assert type(renamed) is Check
        assert renamed.anchor == original.anchor
        assert renamed.status == original.status
        assert renamed.residual_obj == original.residual_obj
        assert renamed.residual == original.residual
        assert renamed.expect == original.expect
