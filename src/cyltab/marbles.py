"""Marble-passing games: an equivalent encoding of cylindric tableaux.

k players sit in a ring holding n - k marbles in total; player i holds the
difference of two consecutive partition parts.  Turn j passes, from each
player to the next, one marble per letter j in that player's row.  Games of
length t starting from the arrangement of mu encode exactly the tableaux
with inner shape mu over the alphabet {1..t}.
"""

from __future__ import annotations

from .errors import Record, exact_ints
from .geometry import CylParams, CylPartition, GeometryError, SkewShape
from .tableau import CylTableau, strip_counts


class MarbleError(GeometryError):
    pass


class InitialMismatch(MarbleError):
    pass


class InvalidTurn(MarbleError):
    def __init__(self, index: int, detail: str):
        self.index = index
        super().__init__(f"turn {index}: {detail}")


class Arrangement(Record):
    """Marble counts held by players 0..k-1; total is always n - k."""

    params: CylParams
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.params.k:
            raise MarbleError(f"expected {self.params.k} counts")
        if not exact_ints(*self.counts):
            raise MarbleError(f"marble counts must be integers, got {self.counts}")
        if any(c < 0 for c in self.counts):
            raise MarbleError(f"negative marble count in {self.counts}")
        if sum(self.counts) != self.params.width:
            raise MarbleError(
                f"counts {self.counts} total {sum(self.counts)}, expected {self.params.width}"
            )


class MarbleGame(Record):
    """An initial arrangement plus a sequence of turns.

    Turn vectors are 0-indexed by player; turn j of the game corresponds to
    letter j + 1 of the tableau it encodes.
    """

    initial: Arrangement
    turns: tuple[tuple[int, ...], ...]

    @property
    def params(self) -> CylParams:
        return self.initial.params


def _counts(alpha: CylPartition) -> tuple[int, ...]:
    """The marble counts of arrangement(alpha), unchecked."""
    return tuple([alpha.part(i - 1) - alpha.part(i) for i in range(alpha.params.k)])


def arrangement(alpha: CylPartition) -> Arrangement:
    """Player i holds alpha[i-1] - alpha[i], indices wrapping."""
    return Arrangement(alpha.params, _counts(alpha))


def _pass_marbles(counts: list[int], turn: tuple[int, ...]) -> None:
    """Play one turn on a list of counts in place, raising MarbleError if it is illegal."""
    if len(turn) != len(counts):
        raise MarbleError(f"turn {turn} has wrong length")
    if min(turn) < 0:
        raise MarbleError(f"turn {turn} passes a negative number of marbles")
    for c, a in zip(counts, turn):
        if a > c:
            raise MarbleError(f"turn {turn} passes more marbles than held in {tuple(counts)}")
    prev = turn[-1]  # player i receives turn[i - 1] and passes turn[i]
    for i, a in enumerate(turn):
        counts[i] += prev - a
        prev = a


def apply_turn(arr: Arrangement, turn: tuple[int, ...]) -> Arrangement:
    counts = list(arr.counts)
    _pass_marbles(counts, turn)
    return Arrangement(arr.params, tuple(counts))


def game_validate(game: MarbleGame) -> bool:
    """True iff every prefix of turns keeps all counts nonnegative."""
    try:
        final_arrangement(game)
    except MarbleError:
        return False
    return True


def final_arrangement(game: MarbleGame) -> Arrangement:
    counts = list(game.initial.counts)
    for turn in game.turns:
        _pass_marbles(counts, turn)
    return Arrangement(game.params, tuple(counts))


def tableau_to_game(t: CylTableau, num_letters: int | None = None) -> MarbleGame:
    """Encode a tableau over {1..m} as a game of m turns from Arr(inner).

    Turn j is the strip of letter j: how many j's each row holds.
    """
    if num_letters is not None and not exact_ints(num_letters):
        raise MarbleError(f"num_letters must be an integer, got {num_letters!r}")
    strips = strip_counts(t)
    top = max(strips, default=0)
    m = top if num_letters is None else num_letters
    if top > m:
        raise MarbleError(f"tableau uses letters above {m}")
    low = min(strips, default=1)
    if low < 1:
        raise MarbleError(f"tableau uses letter {low}; letters start at 1")
    idle = [0] * t.params.k
    turns = [tuple(strips.get(j, idle)) for j in range(1, m + 1)]
    return MarbleGame(arrangement(t.inner), tuple(turns))


def game_to_tableau(mu: CylPartition, game: MarbleGame) -> CylTableau:
    """Decode a game into the unique tableau with inner shape mu producing it."""
    if game.params != mu.params:
        raise InitialMismatch("game and partition use different cylinder parameters")
    if game.initial.counts != _counts(mu):
        raise InitialMismatch(
            f"initial arrangement {game.initial.counts} is not Arr of {mu.window}"
        )
    counts = list(game.initial.counts)
    rows: list[list[int]] = [[] for _ in counts]
    for idx, turn in enumerate(game.turns, start=1):
        if not exact_ints(*turn):
            raise InvalidTurn(idx, f"entries must be integers, got {turn}")
        try:
            _pass_marbles(counts, turn)
        except MarbleError as e:
            raise InvalidTurn(idx, str(e)) from e
        for row, a in zip(rows, turn):
            row += [idx] * a
    lam = CylPartition(mu.params, tuple([m + len(row) for m, row in zip(mu.window, rows)]))
    return CylTableau(SkewShape(lam, mu), tuple([tuple(row) for row in rows]))
