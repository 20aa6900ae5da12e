"""Every error class the library defines derives from one base, CyltabError."""

import importlib
import inspect
import pkgutil

import cyltab
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
