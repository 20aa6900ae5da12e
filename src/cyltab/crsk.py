"""The cylindric Robinson-Schensted-Knuth correspondence and its inverse."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Box, CylPartition
from .insertion import InsertionError, full_multi
from .reverse import reverse_full_multi
from .tableau import CylTableau, boxes_by_letter, from_box_entries


class MismatchedInnerShapes(InsertionError):
    pass


class MismatchedOuterShapes(InsertionError):
    pass


@dataclass(frozen=True, slots=True)
class CrskInput:
    t: CylTableau
    u: CylTableau
    mu: CylPartition


@dataclass(frozen=True, slots=True)
class CrskOutput:
    p: CylTableau
    q: CylTableau
    lam: CylPartition


def crsk(t: CylTableau, u: CylTableau) -> CrskOutput:
    """Map a pair of tableaux sharing an inner shape to a pair sharing an outer one.

    The letters of u are consumed in increasing order; each batch of equal
    letters is multi-inserted into p (initially t), and the boxes gained by
    the outer shape are recorded in q under that letter.  Weights of both
    components are preserved.
    """
    if t.inner != u.inner:
        raise MismatchedInnerShapes(
            f"inner shapes differ: {t.inner.window} vs {u.inner.window}"
        )
    alpha = t.outer
    batches = boxes_by_letter(u)
    p = t
    recorded: dict[Box, int] = {}
    for i in sorted(batches):
        res = full_multi(p, batches[i])
        p = res.tableau
        for b in res.new_set:
            recorded[b] = i
    lam = p.outer
    q = from_box_entries(lam, alpha, recorded)
    return CrskOutput(p, q, lam)


def crsk_inverse(p: CylTableau, q: CylTableau) -> CrskInput:
    """Invert crsk: peel the letters of q in decreasing order out of p."""
    if p.outer != q.outer:
        raise MismatchedOuterShapes(
            f"outer shapes differ: {p.outer.window} vs {q.outer.window}"
        )
    beta = p.inner
    batches = boxes_by_letter(q)
    t = p
    recorded: dict[Box, int] = {}
    for i in sorted(batches, reverse=True):
        res = reverse_full_multi(t, batches[i])
        t = res.tableau
        for b in res.reverse_new_set:
            recorded[b] = i
    mu = t.inner
    u = from_box_entries(beta, mu, recorded)
    return CrskInput(t, u, mu)
