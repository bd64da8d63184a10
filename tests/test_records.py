"""The immutable records (tokens, system specs, checks, frames) compare,
hash and print by their fields, and refuse assignment."""

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mcflow import cli
from mcflow.mcframe import (
    Check,
    FAILS,
    HOLDS,
    NONZERO,
    PotentialVector,
    conformal_transform,
    verify_maurer_cartan,
)
from mcflow import Record
from mcflow.parser import SystemSpec, _Token, parse_rational, parse_system
from mcflow.systems import builtin, system_source


@pytest.mark.parametrize("record, shown", [
    (_Token("int", "3", 1, 5), "_Token(kind='int', text='3', line=1, column=5)"),
    (PotentialVector(None, Fraction(2)), "PotentialVector(A=None, scale=Fraction(2, 1))"),
    (SystemSpec("toy", ("x", "y", "z"), ()),
     "SystemSpec(name='toy', variables=('x', 'y', 'z'), v=(), u=None, w=None, integrals=(), "
     "multiplier_hint=None)"),
    (Check("a", "b = 0", HOLDS),
     "Check(name='a', anchor='b = 0', status='holds', residual_obj=None, "
     "residual=None, expect='zero')"),
    (Check(name="a", anchor="b != 0", status=FAILS, expect=NONZERO),
     "Check(name='a', anchor='b != 0', status='fails', residual_obj=None, "
     "residual=None, expect='nonzero')"),
])
def test_repr_lists_fields_in_order(record, shown):
    assert repr(record) == shown


def test_parsed_system_spec_equality_and_hash():
    first = parse_system(system_source("guillot"))
    second = parse_system(system_source("guillot"))
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert first != parse_system(system_source("dh_classic"))


def test_parsed_values_and_tokens_equality_and_hash():
    left = parse_rational("x^2 - 3*y")
    right = parse_rational("x ^ 2 - 3 * y")
    assert left == right and hash(left) == hash(right)
    token = _Token("int", "1", 1, 1)
    same = _Token(kind="int", text="1", line=1, column=1)
    assert token == same and hash(token) == hash(same)
    assert token != _Token("int", "2", 1, 1)
    # same field values, different class
    class Twin(Record):
        __slots__ = Check.__slots__

    fields = ("a", "b", "c", "d", "e", "f")
    assert Check(*fields) != Twin(*fields)
    assert len({Check(*fields), Twin(*fields), Check(*fields)}) == 2


def test_check_equality_and_hash():
    a = Check("n", "x = 0", HOLDS)
    b = Check(name="n", anchor="x = 0", status=HOLDS, residual_obj=None,
              residual=None)
    assert a == b and hash(a) == hash(b)
    assert a != Check("n", "x = 0", FAILS)
    assert a != Check("n", "x = 0", HOLDS, expect=NONZERO)
    assert a != ("n", "x = 0", HOLDS, None, None, "zero")


@pytest.mark.parametrize("args, kwargs", [
    (("a", "b"), {}),
    (("a", "b", HOLDS), {"name": "again"}),
    (("a", "b", HOLDS), {"unknown": 1}),
    (("a", "b", HOLDS, None, None, "zero", "extra"), {}),
])
def test_bad_construction_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Check(*args, **kwargs)


@pytest.mark.parametrize("record, field", [
    (_Token("int", "1", 1, 1), "kind"),
    (Check("a", "b", HOLDS), "status"),
    # built by keyword, through the binding of defaults
    (Check(name="a", anchor="b != 0", status=FAILS, expect=NONZERO), "status"),
    (PotentialVector(None, Fraction(2)), "scale"),
])
def test_assigning_a_field_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_frame_and_spec_are_frozen():
    system = builtin("guillot")
    with pytest.raises(AttributeError):
        system.frame.M = None
    with pytest.raises(AttributeError):
        system.spec.name = "renamed"


def test_copy_and_pickle_keep_every_field():
    frame = builtin("guillot").frame
    for clone in (copy.copy(frame), pickle.loads(pickle.dumps(frame))):
        assert clone == frame
    check = Check("n", "x = 0", HOLDS)
    assert pickle.loads(pickle.dumps(check)) == check


@pytest.mark.parametrize("rho, f", [("x + 1", "y"), ("y", None)])
def test_conformal_rows_keep_the_row_they_rename(rho, f):
    resolved = cli._resolve("guillot")
    frame = resolved.frame
    rows = [c for c in cli._sigma_checks(resolved, SimpleNamespace(rho=rho, f=f))
            if c.name.startswith("conformal.")]
    t_rho = cli.parse_rational(rho, frame.M.chart)
    source = verify_maurer_cartan(*conformal_transform(frame, t_rho))
    assert [c.name for c in rows] == [f"conformal.{c.name}" for c in source]
    for renamed, original in zip(rows, source):
        assert type(renamed) is Check
        assert renamed.anchor == original.anchor
        assert renamed.status == original.status
        assert renamed.residual_obj == original.residual_obj
        assert renamed.residual == original.residual
        assert renamed.expect == original.expect
