"""Marble-passing games: an equivalent encoding of cylindric tableaux.

k players sit in a ring holding n - k marbles in total; player i holds the
difference of two consecutive partition parts.  Turn j passes, from each
player to the next, one marble per letter j in that player's row.  Games of
length t starting from the arrangement of mu encode exactly the tableaux
with inner shape mu over the alphabet {1..t}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import CylParams, CylPartition, GeometryError, SkewShape
from .tableau import CylTableau, boxes_by_letter


class MarbleError(GeometryError):
    pass


class InitialMismatch(MarbleError):
    pass


class InvalidTurn(MarbleError):
    def __init__(self, index: int, detail: str):
        self.index = index
        super().__init__(f"turn {index}: {detail}")


@dataclass(frozen=True, slots=True)
class Arrangement:
    """Marble counts held by players 0..k-1; total is always n - k."""

    params: CylParams
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.params.k:
            raise MarbleError(f"expected {self.params.k} counts")
        if any(c < 0 for c in self.counts):
            raise MarbleError(f"negative marble count in {self.counts}")
        if sum(self.counts) != self.params.width:
            raise MarbleError(
                f"counts {self.counts} total {sum(self.counts)}, expected {self.params.width}"
            )


@dataclass(frozen=True, slots=True)
class MarbleGame:
    """An initial arrangement plus a sequence of turns.

    Turn vectors are 0-indexed by player; turn j of the game corresponds to
    letter j + 1 of the tableau it encodes.
    """

    initial: Arrangement
    turns: tuple[tuple[int, ...], ...]

    @property
    def params(self) -> CylParams:
        return self.initial.params


def arrangement(alpha: CylPartition) -> Arrangement:
    """Player i holds alpha[i-1] - alpha[i], indices wrapping."""
    k = alpha.params.k
    counts = tuple(alpha.part(i - 1) - alpha.part(i) for i in range(k))
    return Arrangement(alpha.params, counts)


def apply_turn(arr: Arrangement, turn: tuple[int, ...]) -> Arrangement:
    k = arr.params.k
    if len(turn) != k:
        raise MarbleError(f"turn {turn} has wrong length")
    if any(a < 0 for a in turn):
        raise MarbleError(f"turn {turn} passes a negative number of marbles")
    if any(turn[i] > arr.counts[i] for i in range(k)):
        raise MarbleError(f"turn {turn} passes more marbles than held in {arr.counts}")
    counts = tuple(
        arr.counts[i] - turn[i] + turn[(i - 1) % k] for i in range(k)
    )
    return Arrangement(arr.params, counts)


def game_validate(game: MarbleGame) -> bool:
    """True iff every prefix of turns keeps all counts nonnegative."""
    arr = game.initial
    for turn in game.turns:
        try:
            arr = apply_turn(arr, turn)
        except MarbleError:
            return False
    return True


def final_arrangement(game: MarbleGame) -> Arrangement:
    arr = game.initial
    for turn in game.turns:
        arr = apply_turn(arr, turn)
    return arr


def tableau_to_game(t: CylTableau, num_letters: int | None = None) -> MarbleGame:
    """Encode a tableau over {1..m} as a game of m turns from Arr(inner)."""
    by_letter = boxes_by_letter(t)
    top = max(by_letter, default=0)
    m = top if num_letters is None else num_letters
    if top > m:
        raise MarbleError(f"tableau uses letters above {m}")
    low = min(by_letter, default=1)
    if low < 1:
        raise MarbleError(f"tableau uses letter {low}; letters start at 1")
    k = t.params.k
    turns = []
    for j in range(1, m + 1):
        turn = [0] * k
        for b in by_letter.get(j, ()):
            turn[b.row] += 1
        turns.append(tuple(turn))
    return MarbleGame(arrangement(t.inner), tuple(turns))


def game_to_tableau(mu: CylPartition, game: MarbleGame) -> CylTableau:
    """Decode a game into the unique tableau with inner shape mu producing it."""
    if game.params != mu.params:
        raise InitialMismatch("game and partition use different cylinder parameters")
    if game.initial != arrangement(mu):
        raise InitialMismatch(
            f"initial arrangement {game.initial.counts} is not Arr of {mu.window}"
        )
    k = mu.params.k
    frontier = list(mu.window)
    rows: list[list[int]] = [[] for _ in range(k)]
    arr = game.initial
    for idx, turn in enumerate(game.turns, start=1):
        try:
            arr = apply_turn(arr, turn)
        except MarbleError as e:
            raise InvalidTurn(idx, str(e)) from e
        for r in range(k):
            rows[r].extend([idx] * turn[r])
            frontier[r] += turn[r]
    lam = CylPartition(mu.params, tuple(frontier))
    return CylTableau(SkewShape(lam, mu), tuple(tuple(r) for r in rows))
