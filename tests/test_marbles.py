import pytest

import cyltab as ct
from cyltab.enumeration import (
    enumerate_tableaux_with_inner,
    enumerate_tableaux_with_outer,
)
from cyltab.marbles import (
    InitialMismatch,
    InvalidTurn,
    MarbleError,
    apply_turn,
    final_arrangement,
)
from sweeps import anchored_partitions, iter_params, iter_tableaux

K2N4 = ct.CylParams(2, 4)
K3N7 = ct.CylParams(3, 7)

RING = ct.tableau_validate(
    ct.SkewShape(ct.CylPartition(K3N7, (10, 9, 6)), ct.CylPartition(K3N7, (5, 4, 2))),
    [[1, 2, 2, 5, 6], [1, 2, 6, 6, 6], [1, 1, 4, 5]],
)
RING_TURNS = ((1, 1, 2), (2, 1, 0), (0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 3, 0))


class TestArrangement:
    def test_worked_example(self):
        arr = ct.arrangement(ct.CylPartition(K3N7, (5, 4, 2)))
        assert arr.counts == (1, 1, 2)

    def test_wrap_formula(self):
        assert ct.arrangement(ct.CylPartition(K2N4, (0, 0))).counts == (2, 0)
        assert ct.arrangement(ct.CylPartition(K2N4, (1, 0))).counts == (1, 1)

    def test_total_is_width(self):
        for params in iter_params():
            for mu in anchored_partitions(params):
                assert sum(ct.arrangement(mu).counts) == params.width


class TestEncoding:
    def test_worked_example_turns(self):
        game = ct.tableau_to_game(RING, 6)
        assert game.initial.counts == (1, 1, 2)
        assert game.turns == RING_TURNS

    def test_empty_tableau(self):
        t = ct.empty_tableau(ct.CylPartition(K2N4, (0, 0)))
        assert ct.tableau_to_game(t, 0).turns == ()
        assert ct.tableau_to_game(t, 2).turns == ((0, 0), (0, 0))

    def test_rejects_letters_below_one(self):
        # A valid tableau, but turn j encodes letter j >= 1: a 0 has no turn.
        t = ct.tableau_validate(
            ct.SkewShape(ct.CylPartition(K2N4, (2, 1)), ct.CylPartition(K2N4, (0, 0))),
            [[0, 1], [2]],
        )
        for letters in (None, 2, 3):
            with pytest.raises(MarbleError, match="letter 0"):
                ct.tableau_to_game(t, letters)

    def test_decode_worked_example(self):
        mu = ct.CylPartition(K3N7, (5, 4, 2))
        game = ct.MarbleGame(ct.arrangement(mu), RING_TURNS)
        assert ct.game_to_tableau(mu, game) == RING

    def test_decode_no_turns(self):
        mu = ct.CylPartition(K2N4, (1, 0))
        game = ct.MarbleGame(ct.arrangement(mu), ())
        assert ct.game_to_tableau(mu, game) == ct.empty_tableau(mu)

    def test_initial_mismatch(self):
        mu = ct.CylPartition(K2N4, (1, 0))
        bad = ct.MarbleGame(ct.Arrangement(K2N4, (2, 0)), ())
        with pytest.raises(InitialMismatch):
            ct.game_to_tableau(mu, bad)

    def test_invalid_turn_reported_with_index(self):
        mu = ct.CylPartition(K2N4, (1, 0))  # arrangement (1, 1)
        game = ct.MarbleGame(ct.arrangement(mu), ((2, 0),))
        with pytest.raises(InvalidTurn) as exc:
            ct.game_to_tableau(mu, game)
        assert exc.value.index == 1


class TestGameValidate:
    def test_worked_example_valid(self):
        assert ct.game_validate(ct.MarbleGame(ct.arrangement(ct.CylPartition(K3N7, (5, 4, 2))), RING_TURNS))

    def test_arrangement_total_enforced(self):
        with pytest.raises(ct.marbles.MarbleError):
            ct.Arrangement(K2N4, (0, 0))

    def test_overdraw_invalid(self):
        game = ct.MarbleGame(ct.Arrangement(K2N4, (1, 1)), ((2, 0),))
        assert not ct.game_validate(game)


class TestBijection:
    def test_round_trip_small_sweep(self):
        for params in iter_params(max_k=2, max_width=2):
            for t in iter_tableaux(params, max_boxes=3, letters=3):
                game = ct.tableau_to_game(t, 3)
                assert ct.game_validate(game)
                assert ct.game_to_tableau(t.inner, game) == t

    def test_final_arrangement_is_outer(self):
        game = ct.tableau_to_game(RING, 6)
        assert final_arrangement(game) == ct.arrangement(RING.outer)

    def test_standard_iff_single_marble_turns(self):
        for params in iter_params(max_k=2, max_width=2):
            for t in iter_tableaux(params, max_boxes=3, letters=3):
                game = ct.tableau_to_game(t, t.max_entry())
                ones = all(sum(turn) == 1 for turn in game.turns)
                assert ones == ct.is_standard(t)

    def test_games_counted_by_tableaux(self):
        # games of length t from Arr(mu) match tableaux with inner shape mu;
        # games of length t ending at Arr(mu) match tableaux with outer shape mu
        from itertools import product

        params = ct.CylParams(2, 4)
        mu = ct.CylPartition(params, (1, 0))
        t = 2

        def turn_targets(arr):
            for turn in product(*[range(c + 1) for c in arr.counts]):
                yield apply_turn(arr, turn)

        def count_games_from(arr, steps):
            if steps == 0:
                return 1
            return sum(count_games_from(nxt, steps - 1) for nxt in turn_targets(arr))

        def count_games_ending_at(target, steps):
            starts = {ct.arrangement(p) for p in anchored_partitions(params)}

            def paths(arr, left):
                if left == 0:
                    return 1 if arr == target else 0
                return sum(paths(nxt, left - 1) for nxt in turn_targets(arr))

            return sum(paths(s, steps) for s in starts)

        assert count_games_from(ct.arrangement(mu), t) == len(
            enumerate_tableaux_with_inner(mu, t)
        )
        assert count_games_ending_at(ct.arrangement(mu), t) == len(
            enumerate_tableaux_with_outer(mu, t)
        )
