"""Cylindric Young tableaux: geometry, insertion, RSK, identities, games, words.

Submodules load on first use (PEP 562): ``import cyltab`` runs none of them,
and ``cyltab.<name>`` imports only the module that defines the name.
"""

import importlib
import sys
from types import ModuleType

# Each submodule, and the names the package exports from it.
_EXPORTS = {
    "errors": ("CyltabError",),
    "geometry": (
        "Box",
        "CylParams",
        "CylPartition",
        "Point",
        "SkewShape",
        "cyl_embed",
        "flip_box",
        "flip_partition",
        "is_horizontal_strip",
        "lift",
        "partition_contains",
        "partition_validate",
        "project",
        "skew_boxes",
    ),
    "tableau": (
        "CylTableau",
        "empty_tableau",
        "flip_tableau",
        "is_standard",
        "tableau_validate",
        "tableau_word",
        "weight",
        "weight_monomial",
    ),
    "insertion": (
        "BumpingRoute",
        "InsertionQueue",
        "MultiInsertResult",
        "full_multi",
        "internal_insert",
        "one_step_multi",
        "seed_multi",
    ),
    "reverse": (
        "ReverseMultiResult",
        "ReverseQueue",
        "reverse_full_multi",
        "reverse_insert",
        "reverse_one_step_multi",
        "seed_reverse_multi",
    ),
    "crsk": ("CrskInput", "CrskOutput", "crsk", "crsk_inverse"),
    "polynomials": ("IdentityReport", "SparsePolynomial"),
    "enumeration": (
        "count_standard",
        "enumerate_inner",
        "enumerate_outer",
        "enumerate_ssct",
        "regular_skew_schur",
        "schur_poly",
        "verify_cauchy",
        "verify_fcount",
        "verify_oneschur",
        "verify_skew_reduction",
    ),
    "marbles": (
        "Arrangement",
        "MarbleGame",
        "arrangement",
        "game_to_tableau",
        "game_validate",
        "tableau_to_game",
    ),
    "words": (
        "Certificate",
        "Move",
        "apply_move",
        "applicable_moves",
        "connect",
        "lift_word",
        "monovariant",
        "word_transform",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted({*_EXPORTS, *_OWNER})


def __getattr__(name: str):
    # Looked up on every access and never stored in this module, so a name
    # rebound in its own module (by a test or a tracer) is seen here at once.
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing cyltab.crsk binds the submodule here under the name of the
        # function crsk; the package name keeps meaning the function.
        if name in _OWNER and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
