"""The cylindric Robinson-Schensted-Knuth correspondence and its inverse."""

from __future__ import annotations

from .errors import Record
from .geometry import CylPartition, SkewShape
# `full_multi`/`reverse_full_multi` are no longer called here; bench/tracer.py rebinds them.
from .insertion import InsertionError, TableauState, _insert_strip, full_multi  # noqa: F401
from .reverse import _remove_strip, reverse_full_multi  # noqa: F401
from .tableau import CylTableau, strip_counts, tableau_validate


class MismatchedInnerShapes(InsertionError):
    pass


class MismatchedOuterShapes(InsertionError):
    pass


class CrskInput(Record):
    t: CylTableau
    u: CylTableau
    mu: CylPartition


class CrskOutput(Record):
    p: CylTableau
    q: CylTableau
    lam: CylPartition


def _check_same(side: str, a: CylPartition, b: CylPartition, error: type) -> None:
    if a.params != b.params:
        raise error(f"{side} shapes lie on different cylinders: {a.params} vs {b.params}")
    if a != b:
        raise error(f"{side} shapes differ: {a.window} vs {b.window}")


def crsk(t: CylTableau, u: CylTableau) -> CrskOutput:
    """Map a pair of tableaux sharing an inner shape to a pair sharing an outer one.

    The letters of u are consumed in increasing order; each letter's strip of
    per-row counts is multi-inserted, with no step log, into one working state
    (initially t), and the boxes its outer shape gains at the row ends are
    recorded in q under that letter.  p and q are built, so validated, once.
    Weights are preserved.
    """
    _check_same("inner", t.inner, u.inner, MismatchedInnerShapes)
    st = TableauState.from_tableau(t)
    q_rows: list[list[int]] = [[] for _ in st.rows]
    for i, counts in sorted(strip_counts(u).items()):
        before = [len(r) for r in st.rows]
        _insert_strip(st, counts)
        # Row r's outer end moves by its counts[r] new inner boxes plus its length change.
        for row, c, a, r in zip(q_rows, counts, before, st.rows):
            row += [i] * (c + len(r) - a)
    p = st.to_tableau()
    return CrskOutput(p, tableau_validate(SkewShape(p.outer, t.outer), q_rows), p.outer)


def crsk_inverse(p: CylTableau, q: CylTableau) -> CrskInput:
    """Invert crsk: peel the letters of q in decreasing order out of one working state.

    Each strip is reverse-inserted with no step log; the boxes it sheds from
    the row starts of the inner shape are recorded in u under its letter.  t
    and u are built, so validated, once.
    """
    _check_same("outer", p.outer, q.outer, MismatchedOuterShapes)
    st = TableauState.from_tableau(p)
    u_rows: list[list[int]] = [[] for _ in st.mu]
    for i, counts in sorted(strip_counts(q).items(), reverse=True):
        before = list(st.mu)
        _remove_strip(st, counts)
        for row, a, b in zip(u_rows, st.mu, before):
            row[:0] = [i] * (b - a)
    t = st.to_tableau()
    return CrskInput(t, tableau_validate(SkewShape(p.inner, t.inner), u_rows), t.inner)
