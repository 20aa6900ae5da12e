"""Every error class the library defines derives from one base, CyltabError."""

import importlib
import inspect
import pkgutil
from enum import IntEnum

import pytest

import cyltab
from cyltab import serialization
from cyltab.errors import CyltabError


def test_every_error_class_subclasses_cyltab_error():
    errors = set()
    for info in pkgutil.iter_modules(cyltab.__path__):
        mod = importlib.import_module(f"cyltab.{info.name}")
        for name, value in vars(mod).items():
            if (
                inspect.isclass(value)
                and issubclass(value, Exception)
                and value.__module__ == mod.__name__
            ):
                assert issubclass(value, CyltabError), f"{mod.__name__}.{name}"
                errors.add(name)
    assert {"GeometryError", "SchemaError", "WordError", "PolynomialError", "CliError"} <= errors


class Two(IntEnum):
    TWO = 2


K2N4 = cyltab.CylParams(2, 4)
ZERO = cyltab.CylPartition(K2N4, (0, 0))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda v: cyltab.CylParams(v, 4),
            "GeometryError",
            "k must be an integer, got <Two.TWO: 2>",
        ),
        (
            lambda v: cyltab.CylPartition(K2N4, (v, 0)),
            "GeometryError",
            "window parts must be integers, got <Two.TWO: 2>",
        ),
        (
            lambda v: cyltab.verify_fcount(ZERO, ZERO, v),
            "EnumerationError",
            "m must be an integer, got <Two.TWO: 2>",
        ),
        (
            lambda v: cyltab.tableau_to_game(cyltab.empty_tableau(ZERO), v),
            "MarbleError",
            "num_letters must be an integer, got <Two.TWO: 2>",
        ),
        (
            lambda v: serialization.parse_box({"row": v, "col": 0}),
            "SchemaError",
            "box.row: expected an integer, got <Two.TWO: 2>",
        ),
    ],
    ids=["params", "window", "budget", "num_letters", "json"],
)
def test_every_integer_argument_refuses_an_int_enum_member(call, error, message):
    # One rule, errors.exact_ints, at each site: an IntEnum member is an int
    # subclass, refused as a bool is, so every value a record holds is a plain int.
    with pytest.raises(CyltabError) as info:
        call(Two.TWO)
    assert (type(info.value).__name__, str(info.value)) == (error, message)
    assert call(2) is not None
