import random

import pytest

from cyltab.crsk import crsk
from cyltab.geometry import CylParams, CylPartition, SkewShape
from cyltab.marbles import (
    Arrangement,
    InitialMismatch,
    InvalidTurn,
    MarbleError,
    MarbleGame,
    apply_turn,
    arrangement,
    final_arrangement,
    game_to_tableau,
    game_validate,
    tableau_to_game,
)
from cyltab.tableau import empty_tableau, is_standard, tableau_validate
from sweeps import (
    anchored_partitions,
    apply_turn_oracle,
    enumerate_tableaux_with_inner,
    enumerate_tableaux_with_outer,
    game_to_tableau_oracle,
    iter_params,
    iter_tableaux,
    random_crsk_pairs,
    tableau_to_game_oracle,
)

K2N4 = CylParams(2, 4)
K3N7 = CylParams(3, 7)

RING = tableau_validate(
    SkewShape(CylPartition(K3N7, (10, 9, 6)), CylPartition(K3N7, (5, 4, 2))),
    [[1, 2, 2, 5, 6], [1, 2, 6, 6, 6], [1, 1, 4, 5]],
)
RING_TURNS = ((1, 1, 2), (2, 1, 0), (0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 3, 0))


class TestArrangement:
    def test_worked_example(self):
        arr = arrangement(CylPartition(K3N7, (5, 4, 2)))
        assert arr.counts == (1, 1, 2)

    def test_wrap_formula(self):
        assert arrangement(CylPartition(K2N4, (0, 0))).counts == (2, 0)
        assert arrangement(CylPartition(K2N4, (1, 0))).counts == (1, 1)

    def test_total_is_width(self):
        for params in iter_params():
            for mu in anchored_partitions(params):
                assert sum(arrangement(mu).counts) == params.width


class TestEncoding:
    def test_worked_example_turns(self):
        game = tableau_to_game(RING, 6)
        assert game.initial.counts == (1, 1, 2)
        assert game.turns == RING_TURNS

    def test_empty_tableau(self):
        t = empty_tableau(CylPartition(K2N4, (0, 0)))
        assert tableau_to_game(t, 0).turns == ()
        assert tableau_to_game(t, 2).turns == ((0, 0), (0, 0))

    def test_rejects_letters_below_one(self):
        # A valid tableau, but turn j encodes letter j >= 1: a 0 has no turn.
        t = tableau_validate(
            SkewShape(CylPartition(K2N4, (2, 1)), CylPartition(K2N4, (0, 0))),
            [[0, 1], [2]],
        )
        for letters in (None, 2, 3):
            with pytest.raises(MarbleError, match="letter 0"):
                tableau_to_game(t, letters)

    def test_rejects_a_letter_count_that_is_not_an_integer(self):
        for letters in (True, 4.0, "4"):
            with pytest.raises(MarbleError, match=rf"num_letters must be an integer, got {letters!r}"):
                tableau_to_game(RING, letters)

    def test_decode_worked_example(self):
        mu = CylPartition(K3N7, (5, 4, 2))
        game = MarbleGame(arrangement(mu), RING_TURNS)
        assert game_to_tableau(mu, game) == RING

    def test_decode_no_turns(self):
        mu = CylPartition(K2N4, (1, 0))
        game = MarbleGame(arrangement(mu), ())
        assert game_to_tableau(mu, game) == empty_tableau(mu)

    def test_initial_mismatch(self):
        mu = CylPartition(K2N4, (1, 0))
        bad = MarbleGame(Arrangement(K2N4, (2, 0)), ())
        with pytest.raises(InitialMismatch):
            game_to_tableau(mu, bad)

    def test_invalid_turn_reported_with_index(self):
        mu = CylPartition(K2N4, (1, 0))  # arrangement (1, 1)
        game = MarbleGame(arrangement(mu), ((2, 0),))
        with pytest.raises(InvalidTurn) as exc:
            game_to_tableau(mu, game)
        assert exc.value.index == 1


class TestGameValidate:
    def test_worked_example_valid(self):
        assert game_validate(MarbleGame(arrangement(CylPartition(K3N7, (5, 4, 2))), RING_TURNS))

    def test_arrangement_total_enforced(self):
        with pytest.raises(MarbleError):
            Arrangement(K2N4, (0, 0))

    def test_overdraw_invalid(self):
        game = MarbleGame(Arrangement(K2N4, (1, 1)), ((2, 0),))
        assert not game_validate(game)


class TestBijection:
    def test_round_trip_small_sweep(self):
        for params in iter_params(max_k=2, max_width=2):
            for t in iter_tableaux(params, max_boxes=3, letters=3):
                game = tableau_to_game(t, 3)
                assert game_validate(game)
                assert game_to_tableau(t.inner, game) == t

    def test_final_arrangement_is_outer(self):
        game = tableau_to_game(RING, 6)
        assert final_arrangement(game) == arrangement(RING.outer)

    def test_standard_iff_single_marble_turns(self):
        for params in iter_params(max_k=2, max_width=2):
            for t in iter_tableaux(params, max_boxes=3, letters=3):
                game = tableau_to_game(t, t.max_entry())
                ones = all(sum(turn) == 1 for turn in game.turns)
                assert ones == is_standard(t)

    def test_games_counted_by_tableaux(self):
        # games of length t from Arr(mu) match tableaux with inner shape mu;
        # games of length t ending at Arr(mu) match tableaux with outer shape mu
        from itertools import product

        params = CylParams(2, 4)
        mu = CylPartition(params, (1, 0))
        t = 2

        def turn_targets(arr):
            for turn in product(*[range(c + 1) for c in arr.counts]):
                yield apply_turn(arr, turn)

        def count_games_from(arr, steps):
            if steps == 0:
                return 1
            return sum(count_games_from(nxt, steps - 1) for nxt in turn_targets(arr))

        def count_games_ending_at(target, steps):
            starts = {arrangement(p) for p in anchored_partitions(params)}

            def paths(arr, left):
                if left == 0:
                    return 1 if arr == target else 0
                return sum(paths(nxt, left - 1) for nxt in turn_targets(arr))

            return sum(paths(s, steps) for s in starts)

        assert count_games_from(arrangement(mu), t) == len(
            enumerate_tableaux_with_inner(mu, t)
        )
        assert count_games_ending_at(arrangement(mu), t) == len(
            enumerate_tableaux_with_outer(mu, t)
        )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MarbleError as e:  # the class, the turn index and the text must match
        return type(e), getattr(e, "index", None), str(e)


TURN_ERRORS = {
    "long": "has wrong length",
    "short": "has wrong length",
    "negative": "passes a negative number of marbles",
    "overdraw": "passes more marbles than held in",
}


def _broken_turns(game, rng):
    """(kind, index, game) for games that break one turn of a valid game."""
    turns = list(game.turns)
    arr = game.initial  # held before turn j + 1
    for j, turn in enumerate(turns):
        r = rng.randrange(len(turn))
        for kind, bad in (
            ("long", turn + (0,)),
            ("short", turn[:-1]),
            ("negative", turn[:r] + (-1,) + turn[r + 1 :]),
            ("overdraw", turn[:r] + (arr.counts[r] + 1,) + turn[r + 1 :]),
        ):
            yield kind, j + 1, MarbleGame(game.initial, tuple(turns[:j] + [bad] + turns[j + 1 :]))
        arr = apply_turn_oracle(arr, turn)


class TestCountsMatchOracle:
    """Turns read off strip counts give what boxes and one Arrangement per turn give."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_encode_on_crsk_outputs(self, seed):
        for t, u in random_crsk_pairs(seed):
            out = crsk(t, u)
            for x in (out.p, out.q):
                top = x.max_entry()
                for letters in (None, top, top + 2, top - 1):
                    got = _outcome(tableau_to_game, x, letters)
                    assert got == _outcome(tableau_to_game_oracle, x, letters)
                game = tableau_to_game(x)
                assert game_to_tableau(x.inner, game) == game_to_tableau_oracle(x.inner, game) == x

    def test_decode_broken_games(self):
        rng = random.Random(17)
        rotated_rejected = False
        for t, u in random_crsk_pairs(3, per_k=8):
            game = tableau_to_game(t)
            for kind, index, bad in _broken_turns(game, rng):
                got = _outcome(game_to_tableau, t.inner, bad)
                assert got == _outcome(game_to_tableau_oracle, t.inner, bad)
                assert got[:2] == (InvalidTurn, index) and TURN_ERRORS[kind] in got[2]
            counts = game.initial.counts
            wider = CylParams(t.params.k, t.params.n + 1)
            for start in (
                Arrangement(t.params, counts[1:] + counts[:1]),
                Arrangement(wider, (counts[0] + 1, *counts[1:])),
            ):
                bad = MarbleGame(start, game.turns)
                got = _outcome(game_to_tableau, t.inner, bad)
                assert got == _outcome(game_to_tableau_oracle, t.inner, bad)
                if start.params == wider:
                    assert got[:2] == (InitialMismatch, None) and "different cylinder" in got[2]
                elif start != game.initial:
                    assert got[0] is InitialMismatch and "is not Arr of" in got[2]
                    rotated_rejected = True
        assert rotated_rejected
