"""Every error class the library defines derives from one base, CyltabError."""

import importlib
import inspect
import pkgutil
from enum import IntEnum

import pytest

import cyltab
from cyltab import serialization
from cyltab.errors import CyltabError
from cyltab.marbles import final_arrangement


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
            lambda v: cyltab.Move("Kprime", v),
            "WordError",
            "move position must be an integer, got <Two.TWO: 2>",
        ),
        (
            lambda v: serialization.parse_box({"row": v, "col": 0}),
            "SchemaError",
            "box.row: expected an integer, got <Two.TWO: 2>",
        ),
    ],
    ids=["params", "window", "budget", "num_letters", "move_pos", "json"],
)
def test_every_integer_argument_refuses_an_int_enum_member(call, error, message):
    # One rule, errors.exact_ints, at each site: an IntEnum member is an int
    # subclass, refused as a bool is, so every value a record holds is a plain int.
    with pytest.raises(CyltabError) as info:
        call(Two.TWO)
    assert (type(info.value).__name__, str(info.value)) == (error, message)
    assert call(2) is not None


ONE_BOX = cyltab.SkewShape(cyltab.CylPartition(K2N4, (1, 0)), ZERO)
ONE = cyltab.tableau_validate(ONE_BOX, [[1], []])
ARR_ZERO = cyltab.arrangement(ZERO)  # counts (2, 0)
STR_TURN = cyltab.MarbleGame(ARR_ZERO, (("a", "b"),))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: cyltab.tableau_validate(ONE_BOX, [["a"], []]), "TableauError"),
        (lambda: cyltab.tableau_validate(ONE_BOX, [[1.5], []]), "TableauError"),
        (lambda: cyltab.tableau_validate(ONE_BOX, [[True], []]), "TableauError"),
        (lambda: cyltab.flip_tableau(ONE, 2.5), "TableauError"),
        (lambda: cyltab.Box("a", 1), "GeometryError"),
        (lambda: cyltab.full_multi(ONE, [cyltab.Box("a", 1)]), "GeometryError"),
        (lambda: cyltab.project(cyltab.Point(1.5, 0), K2N4), "GeometryError"),
        (lambda: cyltab.regular_skew_schur(("a",), (), 2), "GeometryError"),
        (lambda: cyltab.verify_skew_reduction((1.5,), (), 1, 1), "GeometryError"),
        (lambda: cyltab.game_to_tableau(ZERO, STR_TURN), "InvalidTurn"),
        (lambda: final_arrangement(STR_TURN), "MarbleError"),
        (lambda: cyltab.Arrangement(K2N4, (True, 1)), "MarbleError"),
        (lambda: cyltab.lift_word(("a", "b")), "WordError"),
        (lambda: cyltab.word_transform((1.0, 2)), "WordError"),
        (lambda: cyltab.connect(("a", "b"), ("b", "a")), "WordError"),
        (lambda: cyltab.applicable_moves(("a", "c", "b")), "WordError"),
        (lambda: cyltab.apply_move((1, 2.0, 3), cyltab.Move("Rotate")), "WordError"),
        (lambda: cyltab.Move("Kprime", 0.5), "WordError"),
    ],
    ids=[
        "str_entry",
        "float_entry",
        "bool_entry",
        "flip_bound",
        "box",
        "full_multi_box",
        "point",
        "regular_skew_schur",
        "verify_skew_reduction",
        "decode_turn",
        "final_arrangement",
        "arrangement",
        "lift_word",
        "word_transform",
        "connect",
        "applicable_moves",
        "apply_move",
        "move_pos",
    ],
)
def test_every_entry_point_refuses_a_non_integer_with_its_error(call, error):
    # Each of these used to return a value or fail with a raw TypeError.
    with pytest.raises(CyltabError) as info:
        call()
    assert type(info.value).__name__ == error


def test_a_game_with_a_non_integer_turn_is_not_valid():
    assert cyltab.game_validate(STR_TURN) is False
