"""Cylindric Young tableaux: geometry, insertion, RSK, identities, games, words."""

from .errors import CyltabError
from .geometry import (
    Box,
    CylParams,
    CylPartition,
    Point,
    SkewShape,
    cyl_embed,
    flip_box,
    flip_partition,
    is_horizontal_strip,
    lift,
    partition_contains,
    partition_validate,
    project,
    skew_boxes,
)
from .tableau import (
    CylTableau,
    empty_tableau,
    flip_tableau,
    is_standard,
    tableau_validate,
    tableau_word,
    weight,
    weight_monomial,
)
from .insertion import (
    BumpingRoute,
    InsertionQueue,
    MultiInsertResult,
    full_multi,
    internal_insert,
    one_step_multi,
    seed_multi,
)
from .reverse import (
    ReverseMultiResult,
    ReverseQueue,
    reverse_full_multi,
    reverse_insert,
    reverse_one_step_multi,
    seed_reverse_multi,
)
from .crsk import CrskInput, CrskOutput, crsk, crsk_inverse
from .polynomials import IdentityReport, SparsePolynomial
from .enumeration import (
    count_standard,
    enumerate_inner,
    enumerate_outer,
    enumerate_ssct,
    regular_skew_schur,
    schur_poly,
    verify_cauchy,
    verify_fcount,
    verify_oneschur,
    verify_skew_reduction,
)
from .marbles import (
    Arrangement,
    MarbleGame,
    arrangement,
    game_to_tableau,
    game_validate,
    tableau_to_game,
)
from .words import (
    Certificate,
    Move,
    apply_move,
    applicable_moves,
    connect,
    lift_word,
    monovariant,
    word_transform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
