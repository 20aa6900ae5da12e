"""Words, elementary cyclic Knuth moves, and the word transformation algorithm.

Adjacent letters may switch when a neighbor strictly between them in value
catalyzes the move; rotation brings the last letter to the front.  Together
these moves connect any two arrangements of the same letter multiset, via a
sorting algorithm on permutations whose progress is certified by a strictly
decreasing positional monovariant.

The algorithms emit one shared Move per (kind, position), and replay checks
each move's pattern as it applies the move in place on one list buffer.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Iterable, Iterator

from .errors import CyltabError, Record, exact_ints

Word = tuple[int, ...]

KPRIME = "Kprime"
KPRIME_INV = "KprimeInv"
KDPRIME = "Kdprime"
KDPRIME_INV = "KdprimeInv"
ROTATE = "Rotate"

MOVE_KINDS = (KPRIME, KPRIME_INV, KDPRIME, KDPRIME_INV, ROTATE)


class WordError(CyltabError):
    pass


class PatternMismatch(WordError):
    def __init__(self, position: int, detail: str):
        self.position = position
        super().__init__(f"position {position}: {detail}")


class NotAPermutation(WordError):
    pass


class NotSameMultiset(WordError):
    pass


class Move(Record):
    """One elementary transformation; pos is the 0-based start of the triple."""

    kind: str
    pos: int = 0

    def __post_init__(self) -> None:
        # Any kind is kept, so that replay reports an unknown one where it occurs.
        if not exact_ints(self.pos):
            raise WordError(f"move position must be an integer, got {self.pos!r}")


@cache
def _move(kind: str, pos: int) -> Move:
    """The one shared Move of this kind and position, built on first use."""
    return Move(kind, pos)


_ROTATE = _move(ROTATE, 0)


class Certificate(Record):
    """A replayable chain of moves from start to end."""

    start: Word
    moves: tuple[Move, ...]
    end: Word

    def replay(self) -> Word:
        return _replay(self.start, self.moves)


# The letter pattern each triple move requires.
_PATTERNS = {
    KPRIME: "y z x with x < y <= z",
    KPRIME_INV: "y x z with x < y <= z",
    KDPRIME: "x z y with x <= y < z",
    KDPRIME_INV: "z x y with x <= y < z",
}
_FLIP = {KPRIME: KPRIME_INV, KPRIME_INV: KPRIME, KDPRIME: KDPRIME_INV, KDPRIME_INV: KDPRIME}


def _apply(buf: list[int], moves: Iterable[Move]) -> None:
    """Apply moves to buf in place, checking each; a run of rotations is one slice."""
    m, shift = len(buf), 0
    rotate = _ROTATE if m else None  # the empty word's rotations take the checked path
    for mv in moves:
        if mv is rotate:
            shift += 1
            continue
        kind = mv.kind
        if kind == ROTATE:
            if not m:
                raise PatternMismatch(0, "cannot rotate the empty word")
            shift += 1
            continue
        if shift:
            s = shift % m
            buf[:] = buf[-s:] + buf[:-s]
            shift = 0
        p = mv.pos
        if not 0 <= p <= m - 3:
            raise PatternMismatch(p, f"no letter triple at {p} in a word of length {m}")
        a, b, c = buf[p], buf[p + 1], buf[p + 2]  # not a slice, which builds a list
        if kind == KPRIME and c < a <= b or kind == KPRIME_INV and b < a <= c:
            buf[p + 1], buf[p + 2] = c, b  # y z x <-> y x z
        elif kind == KDPRIME and a <= c < b or kind == KDPRIME_INV and b <= c < a:
            buf[p], buf[p + 1] = b, a  # x z y <-> z x y
        elif kind not in MOVE_KINDS:  # compared by ==, so any kind value is reported
            raise WordError(f"unknown move kind {kind!r}")
        else:
            raise PatternMismatch(p, f"{(a, b, c)} does not match {_PATTERNS[kind]}")
    if shift:
        s = shift % m
        buf[:] = buf[-s:] + buf[:-s]


def _replay(w: Iterable[int], moves: Iterable[Move]) -> Word:
    """Apply moves in order to a copy of w, checking w's letters once and each move."""
    buf = list(_word(w))
    try:
        _apply(buf, moves)
    except (AttributeError, TypeError) as e:  # a move that is not a Move
        raise WordError(f"moves must be Move records: {e}") from None
    return tuple(buf)


def apply_move(w: Word, move: Move) -> Word:
    """Apply one move, checking its pattern precondition."""
    return _replay(w, (move,))


def inverse_moves(moves: tuple[Move, ...] | list[Move], length: int) -> list[Move]:
    """Moves undoing the given chain on words of the given length."""
    unrotate = (_ROTATE,) * (length - 1)
    out: list[Move] = []
    for mv in reversed(list(moves)):
        if mv.kind == ROTATE:
            out += unrotate
        else:
            out.append(_move(_FLIP[mv.kind], mv.pos))
    return out


def applicable_moves(w: Word) -> list[Move]:
    """Every move that the checked applier accepts on w; rotation always is."""
    w = _word(w)
    out = [_ROTATE]
    for p in range(len(w) - 2):
        for kind in _PATTERNS:  # the triple moves, in MOVE_KINDS order
            try:
                _apply(list(w[p : p + 3]), (_move(kind, 0),))
            except PatternMismatch:
                continue
            out.append(_move(kind, p))
    return out


def _word(w: Iterable[int]) -> Word:
    """w as a tuple; WordError if it is not iterable or at its first non-integer letter."""
    try:
        w = tuple(w)
    except TypeError:
        raise WordError(f"a word must be a sequence of integers, got {w!r}") from None
    if not exact_ints(*w):
        bad = next(a for a in w if not exact_ints(a))
        raise WordError(f"letters must be integers, got {bad!r}")
    return w


def _permutation(w: Iterable[int]) -> Word:
    """w as a tuple; WordError unless it is a permutation of 1..m."""
    w = _word(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise NotAPermutation(f"{w} is not a permutation of 1..{len(w)}")
    return w


def monovariant(w: Word) -> int:
    """Positional number N(w): digit l is the position of letter l, base m + 1."""
    return _monovariant(_permutation(w))


def _monovariant(p: Word | list[int]) -> int:
    """monovariant(p), for a permutation its caller has checked."""
    m = len(p)
    pos = [0] * (m + 1)
    for i, letter in enumerate(p, start=1):
        pos[letter] = i
    n = 0
    for i in pos[1:]:
        n = n * (m + 1) + i
    return n


class TransformResult(Record):
    certificate: Certificate
    switch_positions: tuple[int, ...]
    words: tuple[Word, ...]
    critical: tuple[bool, ...]

    @property
    def critical_words(self) -> tuple[Word, ...]:
        return tuple(w for w, c in zip(self.words, self.critical) if c)


@cache
def _switch_moves(m: int) -> tuple[tuple, list, list]:
    """The moves of every switch on words of length m, built once per length.

    anchor holds the anchor pair's two realizations, right catalyst first;
    left[i] and right[i] (i >= 2) hold pair i's Kprime and Kdprime switches,
    indexed by whether its letters increase.
    """
    anchor = (
        (_move(KDPRIME, 0),) + (_ROTATE,) * (m - 1),
        (_ROTATE, _move(KPRIME_INV, 0)) + (_ROTATE,) * (m - 2),
    )
    pairs = range(2, m)
    left = [(), ()] + [((_move(KPRIME, i - 2),), (_move(KPRIME_INV, i - 2),)) for i in pairs]
    right = [(), ()] + [((_move(KDPRIME_INV, i - 1),), (_move(KDPRIME, i - 1),)) for i in pairs]
    return anchor, left, right


def _switches(p: list[int]) -> Iterator[tuple[int, tuple[Move, ...]]]:
    """(position, moves) for each leftmost switch sorting p to 1 2 .. m in place.

    p is anchored with 1 first, and holds the word after the switch when it
    is yielded.  Pair i's neighbors are p[i - 2] (a Kprime catalyst) and
    p[i + 1 - m] (a Kdprime one), cyclically; the anchor pair i = 1 tries the
    right one first, then rotates 1 back to the front.  A switch at i
    changes letters i - 1 and i, read only by pairs i - 2 .. i + 2 and, for
    the last letter, pair 1: resuming at max(1, i - 2), or at 1 if
    i == m - 1, finds the same leftmost switch as a full rescan, so a scan
    that runs off the end has found none.  A switch at i != 1 is followed by
    one at i - 1 or i - 2, so a run of non-anchor switches is at most m - 1
    long; one longer than m means the scan has stopped making progress.
    """
    m = len(p)
    anchor, left, right = _switch_moves(m)
    i, run = 1, 0
    while i < m:
        a, b = p[i - 1], p[i]
        lo, hi = (a, b) if a < b else (b, a)
        if i == 1:
            if 2 < m and lo < p[2] < hi:
                moves = anchor[0]
            elif lo < p[-1] < hi:
                moves = anchor[1]
            else:
                i = 2
                continue
            p.append(p.pop(1))  # 1 x rest -> x 1 rest, re-anchored: 1 rest x
            run = 0
        else:
            if lo < p[i - 2] < hi:
                moves = left[i][a < b]
            elif lo < p[i + 1 - m] < hi:
                moves = right[i][a < b]
            else:
                i += 1
                continue
            p[i - 1], p[i] = b, a
            run += 1
            if run > m:
                raise AssertionError("switch scan failed to make progress")
        yield i, moves
        i = i - 2 if 3 < i < m - 1 else 1
    if p != list(range(1, m + 1)):
        raise AssertionError(f"no switch available on {tuple(p)}")


def word_transform(w: Word) -> TransformResult:
    """Sort a permutation to 1 2 .. m by leftmost catalyzed adjacent switches.

    The word is kept anchored with 1 as its first letter; a switch of the
    first two letters re-anchors by rotation and marks the resulting word as
    critical.  The positional monovariant strictly decreases from one
    critical word to the next, which certifies termination.
    """
    w = _permutation(w)
    j = w.index(1) if w else 0
    moves = [_ROTATE] * (len(w) - j if j else 0)
    buf = list(w[j:] + w[:j])
    positions: list[int] = []
    words: list[Word] = []
    for i, switch in _switches(buf):
        moves += switch
        positions.append(i)
        words.append(tuple(buf))
    return TransformResult(
        Certificate(w, tuple(moves), tuple(buf)),
        tuple(positions),
        tuple(words),
        tuple([i == 1 for i in positions]),
    )


class LiftedWord(Record):
    """A word lifted to a permutation by an exact fractional perturbation."""

    permutation: Word
    anchor: int
    smallest: int


def lift_word(w: Word) -> LiftedWord:
    """Lift a word to the order-isomorphic permutation of its perturbation.

    Letter i gains the exact fraction ((i - t) mod m) / m.  The anchor t is 1
    plus the first index i with w[i] == s != w[i - 1] (cyclically; s is the
    smallest letter), or 1 if every letter is s, so that sorting the perturbed
    word respects the cyclic order of equal letters.  Ties are impossible.
    """
    if not w:
        raise WordError("word must be nonempty")
    p, t, s = _lift(_word(w))
    return LiftedWord(tuple(p), t, s)


def _lift(w: Word | list[int]) -> tuple[list[int], int, int]:
    """lift_word's permutation, anchor and smallest letter, for letters its caller has checked.

    Listing the indices from t - 1 on, cyclically, puts equal letters in the
    order of their perturbations, which a stable sort by letter keeps.
    """
    m = len(w)
    s = min(w)
    t = next((i for i in range(m) if w[i] == s != w[i - 1]), 0) + 1
    p = [0] * m
    for rank, i in enumerate(sorted([*range(t - 1, m), *range(t - 1)], key=w.__getitem__), start=1):
        p[i] = rank
    return p, t, s


@lru_cache(maxsize=4096)
def _sorting_moves(w: Word) -> tuple[Move, ...]:
    """Moves carrying w to its weakly increasing arrangement, validated on w.

    The word is lifted to a permutation and sorted by the transformation
    algorithm, one stretch at a time: after every anchor-pair switch the
    current word is lifted afresh.  Re-lifting keeps the equal letters of the
    word aligned with increasing permutation values, without which a carried
    switch can demand a catalyst equal to one of the switched letters, which
    the move preconditions forbid.  The word is carried in one list, and
    each stretch's moves are checked on it, in order, as they are applied in
    place; the lift monovariant strictly decreases from stretch to stretch,
    which bounds the loop.  The letters are checked by the caller, once.
    The moves are the shared instances of _move, so a cached path holds no
    Move objects of its own.
    """
    u = list(w)
    m = len(w)
    moves: list[Move] = []
    prev_phi: int | None = None
    while True:
        p = _lift(u)[0]
        j = p.index(1)
        p = p[j:] + p[:j]
        phi = _monovariant(p)
        if prev_phi is not None and phi >= prev_phi:
            raise AssertionError("lift monovariant failed to decrease")
        prev_phi = phi
        mark = len(moves)
        moves += (_ROTATE,) * ((m - j) % m)
        # A stretch ends at its first anchor-pair switch, or the sort is done.
        i = 0
        for i, switch in _switches(p):
            moves += switch
            if i == 1:
                break
        _apply(u, moves[mark:])
        if i != 1:
            break
    if u != sorted(w):
        raise AssertionError(f"sorting {w} ended at {tuple(u)}")
    return tuple(moves)


def connect(w: Word, v: Word) -> Certificate:
    """A replayable certificate of moves from w to any rearrangement v of it.

    Both words are lifted to permutations and sorted; the certificate splices
    w's sorting path with the inverse of v's.  Every emitted move satisfies
    the pattern preconditions on the original words.
    """
    w, v = _word(w), _word(v)
    if sorted(w) != sorted(v):
        raise NotSameMultiset(f"{v} is not a rearrangement of {w}")
    if w == v:
        return Certificate(w, (), v)
    moves = _sorting_moves(w) + tuple(inverse_moves(_sorting_moves(v), len(v)))
    cert = Certificate(w, moves, v)
    if cert.replay() != v:
        raise AssertionError("certificate replay did not reach the target word")
    return cert
