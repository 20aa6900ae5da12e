"""Words, elementary cyclic Knuth moves, and the word transformation algorithm.

Adjacent letters may switch when a neighbor strictly between them in value
catalyzes the move; rotation brings the last letter to the front.  Together
these moves connect any two arrangements of the same letter multiset, via a
sorting algorithm on permutations whose progress is certified by a strictly
decreasing positional monovariant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

Word = tuple[int, ...]

KPRIME = "Kprime"
KPRIME_INV = "KprimeInv"
KDPRIME = "Kdprime"
KDPRIME_INV = "KdprimeInv"
ROTATE = "Rotate"

MOVE_KINDS = (KPRIME, KPRIME_INV, KDPRIME, KDPRIME_INV, ROTATE)


class WordError(ValueError):
    pass


class PatternMismatch(WordError):
    def __init__(self, position: int, detail: str):
        self.position = position
        super().__init__(f"position {position}: {detail}")


class NotAPermutation(WordError):
    pass


class NotSameMultiset(WordError):
    pass


@dataclass(frozen=True, slots=True)
class Move:
    """One elementary transformation; pos is the 0-based start of the triple."""

    kind: str
    pos: int = 0


@dataclass(frozen=True, slots=True)
class Certificate:
    """A replayable chain of moves from start to end."""

    start: Word
    moves: tuple[Move, ...]
    end: Word

    def replay(self) -> Word:
        w = self.start
        for mv in self.moves:
            w = apply_move(w, mv)
        return w


def apply_move(w: Word, move: Move) -> Word:
    """Apply one move, checking its pattern precondition."""
    if move.kind == ROTATE:
        if not w:
            raise PatternMismatch(0, "cannot rotate the empty word")
        return (w[-1],) + w[:-1]
    p = move.pos
    if not 0 <= p <= len(w) - 3:
        raise PatternMismatch(p, f"no letter triple at {p} in a word of length {len(w)}")
    a, b, c = w[p], w[p + 1], w[p + 2]
    if move.kind == KPRIME:
        # y z x -> y x z  with  x < y <= z
        y, z, x = a, b, c
        if not x < y <= z:
            raise PatternMismatch(p, f"{(a, b, c)} does not match y z x with x < y <= z")
        triple = (y, x, z)
    elif move.kind == KPRIME_INV:
        y, x, z = a, b, c
        if not x < y <= z:
            raise PatternMismatch(p, f"{(a, b, c)} does not match y x z with x < y <= z")
        triple = (y, z, x)
    elif move.kind == KDPRIME:
        # x z y -> z x y  with  x <= y < z
        x, z, y = a, b, c
        if not x <= y < z:
            raise PatternMismatch(p, f"{(a, b, c)} does not match x z y with x <= y < z")
        triple = (z, x, y)
    elif move.kind == KDPRIME_INV:
        z, x, y = a, b, c
        if not x <= y < z:
            raise PatternMismatch(p, f"{(a, b, c)} does not match z x y with x <= y < z")
        triple = (x, z, y)
    else:
        raise WordError(f"unknown move kind {move.kind!r}")
    return w[:p] + triple + w[p + 3 :]


def inverse_moves(moves: tuple[Move, ...] | list[Move], length: int) -> list[Move]:
    """Moves undoing the given chain on words of the given length."""
    flip = {KPRIME: KPRIME_INV, KPRIME_INV: KPRIME, KDPRIME: KDPRIME_INV, KDPRIME_INV: KDPRIME}
    out: list[Move] = []
    for mv in reversed(list(moves)):
        if mv.kind == ROTATE:
            out.extend([Move(ROTATE)] * (length - 1))
        else:
            out.append(Move(flip[mv.kind], mv.pos))
    return out


def applicable_moves(w: Word) -> list[Move]:
    """Every move whose precondition holds; rotation is always available."""
    out = [Move(ROTATE)]
    for p in range(len(w) - 2):
        a, b, c = w[p], w[p + 1], w[p + 2]
        if c < a <= b:
            out.append(Move(KPRIME, p))
        if b < a <= c:
            out.append(Move(KPRIME_INV, p))
        if a <= c < b:
            out.append(Move(KDPRIME, p))
        if b <= c < a:
            out.append(Move(KDPRIME_INV, p))
    return out


def _check_permutation(w: Word) -> None:
    if sorted(w) != list(range(1, len(w) + 1)):
        raise NotAPermutation(f"{w} is not a permutation of 1..{len(w)}")


def monovariant(w: Word) -> int:
    """Positional number N(w): digit l is the position of letter l, base m + 1."""
    _check_permutation(w)
    m = len(w)
    pos = {letter: i + 1 for i, letter in enumerate(w)}
    n = 0
    for letter in range(1, m + 1):
        n = n * (m + 1) + pos[letter]
    return n


@dataclass(frozen=True, slots=True)
class TransformResult:
    certificate: Certificate
    switch_positions: tuple[int, ...]
    words: tuple[Word, ...]
    critical: tuple[bool, ...]

    @property
    def critical_words(self) -> tuple[Word, ...]:
        return tuple(w for w, c in zip(self.words, self.critical) if c)


def _strictly_between(y: int, a: int, b: int) -> bool:
    lo, hi = (a, b) if a < b else (b, a)
    return lo < y < hi


def _find_switch(w: Word) -> int | None:
    """Leftmost 1-based position whose pair admits a catalyzed switch."""
    m = len(w)
    for i in range(1, m):
        a, b = w[i - 1], w[i]
        left = w[i - 2] if i >= 2 else w[m - 1]
        right = w[i + 1] if i + 1 < m else w[0]
        if _strictly_between(left, a, b) or _strictly_between(right, a, b):
            return i
    return None


def _switch_moves(w: Word, i: int) -> list[Move]:
    """Moves realizing the switch at 1-based position i on an anchored word."""
    m = len(w)
    a, b = w[i - 1], w[i]
    if i >= 2:
        if _strictly_between(w[i - 2], a, b):
            return [Move(KPRIME if a > b else KPRIME_INV, i - 2)]
        return [Move(KDPRIME if a < b else KDPRIME_INV, i - 1)]
    # Switching the anchor pair: realize, then rotate 1 back to the front.
    if i + 1 < m and _strictly_between(w[i + 1], a, b):
        return [Move(KDPRIME, 0)] + [Move(ROTATE)] * (m - 1)
    return [Move(ROTATE), Move(KPRIME_INV, 0)] + [Move(ROTATE)] * (m - 2)


def word_transform(w: Word) -> TransformResult:
    """Sort a permutation to 1 2 .. m by leftmost catalyzed adjacent switches.

    The word is kept anchored with 1 as its first letter; a switch of the
    first two letters re-anchors by rotation and marks the resulting word as
    critical.  The positional monovariant strictly decreases from one
    critical word to the next, which certifies termination.
    """
    w = tuple(w)
    _check_permutation(w)
    m = len(w)
    identity = tuple(range(1, m + 1))
    moves: list[Move] = []
    cur = w
    while cur and cur[0] != 1:
        moves.append(Move(ROTATE))
        cur = (cur[-1],) + cur[:-1]
    positions: list[int] = []
    words: list[Word] = []
    critical: list[bool] = []
    guard = 0
    while cur != identity:
        guard += 1
        if guard > (m + 1) ** (m + 1):
            raise AssertionError("switch scan failed to make progress")
        i = _find_switch(cur)
        if i is None:
            raise AssertionError(f"no switch available on {cur}")
        moves.extend(_switch_moves(cur, i))
        if i == 1:
            cur = (1,) + cur[2:] + (cur[1],)
        else:
            cur = cur[: i - 1] + (cur[i], cur[i - 1]) + cur[i + 1 :]
        positions.append(i)
        words.append(cur)
        critical.append(i == 1)
    return TransformResult(
        Certificate(w, tuple(moves), cur),
        tuple(positions),
        tuple(words),
        tuple(critical),
    )


@dataclass(frozen=True, slots=True)
class LiftedWord:
    """A word lifted to a permutation by an exact fractional perturbation."""

    permutation: Word
    anchor: int
    smallest: int


def lift_word(w: Word) -> LiftedWord:
    """Lift a word to the order-isomorphic permutation of its perturbation.

    Letter i gains the exact fraction ((i - t) mod m) / m, where the anchor t
    points at an occurrence of the smallest letter chosen so that sorting the
    perturbed word respects the cyclic order of equal letters.  Ties are
    impossible, so ranking by (letter, fraction numerator) is exact.
    """
    if not w:
        raise WordError("word must be nonempty")
    m = len(w)
    s = min(w)
    if w[-1] != s:
        t = w.index(s) + 1
    else:
        t = 1
        for i in range(2, m + 1):
            if w[i - 1] == s and w[i - 2] != s:
                t = i
                break
    keys = [(w[i], (i + 1 - t) % m) for i in range(m)]
    order = sorted(range(m), key=lambda i: keys[i])
    p = [0] * m
    for rank, i in enumerate(order, start=1):
        p[i] = rank
    return LiftedWord(tuple(p), t, s)


@lru_cache(maxsize=4096)
def _sorting_moves(w: Word) -> tuple[Move, ...]:
    """Moves carrying w to its weakly increasing arrangement, validated on w.

    The word is lifted to a permutation and sorted by the transformation
    algorithm, one stretch at a time: after every anchor-pair switch the
    current word is lifted afresh.  Re-lifting keeps the equal letters of the
    word aligned with increasing permutation values, without which a carried
    switch can demand a catalyst equal to one of the switched letters, which
    the move preconditions forbid.  Every move is checked on the carried
    word, and the lift monovariant strictly decreases from stretch to
    stretch, which bounds the loop.
    """
    u = w
    m = len(w)
    target = tuple(sorted(w))
    identity = tuple(range(1, m + 1))
    moves: list[Move] = []
    prev_phi: int | None = None
    while True:
        p = lift_word(u).permutation
        while p[0] != 1:
            p = (p[-1],) + p[:-1]
            u = apply_move(u, Move(ROTATE))
            moves.append(Move(ROTATE))
        phi = monovariant(p)
        if prev_phi is not None and phi >= prev_phi:
            raise AssertionError("lift monovariant failed to decrease")
        prev_phi = phi
        critical = False
        while p != identity:
            i = _find_switch(p)
            if i is None:
                raise AssertionError(f"no switch available on {p}")
            for mv in _switch_moves(p, i):
                u = apply_move(u, mv)
                moves.append(mv)
            if i == 1:
                p = (1,) + p[2:] + (p[1],)
                critical = True
                break
            p = p[: i - 1] + (p[i], p[i - 1]) + p[i + 1 :]
        if not critical:
            break
    if u != target:
        raise AssertionError(f"sorting {w} ended at {u}")
    return tuple(moves)


def connect(w: Word, v: Word) -> Certificate:
    """A replayable certificate of moves from w to any rearrangement v of it.

    Both words are lifted to permutations and sorted; the certificate splices
    w's sorting path with the inverse of v's.  Every emitted move satisfies
    the pattern preconditions on the original words.
    """
    w, v = tuple(w), tuple(v)
    if Counter(w) != Counter(v):
        raise NotSameMultiset(f"{v} is not a rearrangement of {w}")
    if w == v:
        return Certificate(w, (), v)
    fwd = list(_sorting_moves(w))
    back = inverse_moves(_sorting_moves(v), len(v))
    moves = tuple(fwd + back)
    cert = Certificate(w, moves, v)
    if cert.replay() != v:
        raise AssertionError("certificate replay did not reach the target word")
    return cert
