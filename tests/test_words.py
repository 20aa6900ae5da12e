import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyltab.geometry import CylParams, CylPartition, SkewShape
from cyltab.tableau import tableau_validate, tableau_word
from cyltab.words import (
    Certificate,
    KDPRIME,
    KPRIME,
    MOVE_KINDS,
    Move,
    NotAPermutation,
    NotSameMultiset,
    PatternMismatch,
    ROTATE,
    WordError,
    _move,
    _sorting_moves,
    _switches,
    applicable_moves,
    apply_move,
    connect,
    inverse_moves,
    lift_word,
    monovariant,
    word_transform,
)
from sweeps import (
    _switch_moves_oracle,
    applicable_moves_oracle,
    apply_move_oracle,
    find_switch_oracle,
    knuth_pairs,
    knuth_permutations,
    lift_word_oracle,
    replay_oracle,
    short_words,
    sorting_moves_oracle,
    word_transform_oracle,
)

TRACE_START = (1, 5, 9, 3, 6, 2, 8, 4, 7)
TRACE_CRITICALS = [
    "139628475", "136284759", "126847593", "124875936", "124759368",
    "124593687", "123596874", "123568749", "123567498", "123467985",
    "123467859", "123457896", "123456897", "123456798", "123456789",
]
TRACE_MONOVARIANTS = [
    152794863, 142683759, 129573648, 128369547, 127358496, 126347985,
    123946875, 123845769, 123745698, 123495687, 123485679, 123459678,
    123456978, 123456798, 123456789,
]


class TestMoves:
    def test_examples(self):
        w = (3, 3, 4, 6, 3, 5, 4)
        assert apply_move(w, Move(KPRIME, 2)) == (3, 3, 4, 3, 6, 5, 4)
        assert apply_move(w, Move(KDPRIME, 4)) == (3, 3, 4, 6, 5, 3, 4)
        assert apply_move(w, Move(ROTATE)) == (4, 3, 3, 4, 6, 3, 5)

    def test_pattern_mismatch(self):
        with pytest.raises(PatternMismatch):
            apply_move((1, 2, 3), Move(KPRIME, 0))
        with pytest.raises(PatternMismatch):
            apply_move((1, 2), Move(KDPRIME, 0))

    def test_applicable_moves(self):
        only_rotate = applicable_moves((1, 2))
        assert only_rotate == [Move(ROTATE)]
        moves = applicable_moves((3, 3, 4, 6, 3, 5, 4))
        assert Move(KPRIME, 2) in moves
        assert Move(KDPRIME, 4) in moves
        assert applicable_moves((1, 1, 1)) == [Move(ROTATE)]

    def test_k_moves_invert(self):
        words = [w for w in product(range(1, 4), repeat=4)]
        for w in words:
            for mv in applicable_moves(w):
                if mv.kind == ROTATE:
                    continue
                inv = inverse_moves([mv], len(w))
                assert len(inv) == 1
                assert apply_move(apply_move(w, mv), inv[0]) == w

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    def test_rotation_inverts_after_length_steps(self, letters):
        w = tuple(letters)
        cur = w
        for _ in range(len(w)):
            cur = apply_move(cur, Move(ROTATE))
        assert cur == w

    @given(st.lists(st.integers(1, 4), min_size=3, max_size=6))
    def test_moves_preserve_multiset(self, letters):
        w = tuple(letters)
        for mv in applicable_moves(w):
            assert Counter(apply_move(w, mv)) == Counter(w)


class TestSharedMoves:
    """Moves come from one table per (kind, pos); fresh equal moves act the same."""

    @staticmethod
    def _all_shared(moves):
        return all(mv is _move(mv.kind, mv.pos) for mv in moves)

    def test_emitted_moves_are_shared(self):
        assert self._all_shared(word_transform(TRACE_START).certificate.moves)
        cert = connect((3, 1, 2, 2, 1, 3, 1), (1, 3, 3, 2, 1, 2, 1))
        assert cert.moves and self._all_shared(cert.moves)
        assert self._all_shared(inverse_moves(cert.moves, 7))
        assert self._all_shared(applicable_moves((3, 3, 4, 6, 3, 5, 4)))

    def test_fresh_moves_replay_the_same(self):
        w, v = (3, 1, 2, 2, 1, 3, 1), (1, 3, 3, 2, 1, 2, 1)
        cert = connect(w, v)
        mixed = tuple(Move(mv.kind, mv.pos) if n % 2 else mv for n, mv in enumerate(cert.moves))
        assert any(mv.kind == ROTATE for mv in mixed[1::2])
        assert any(mv.kind == KPRIME for mv in mixed[1::2])
        assert mixed == cert.moves
        assert Certificate(w, mixed, v).replay() == cert.replay() == v

    def test_empty_word_rotation_fails_first(self):
        cert = Certificate((), (Move(ROTATE), Move(KPRIME, 0)), ())
        with pytest.raises(PatternMismatch, match="^position 0: cannot rotate the empty word$"):
            cert.replay()

    def test_move_value_semantics_unchanged(self):
        shared, fresh = _move(KPRIME, 2), Move(KPRIME, 2)
        assert shared is _move(KPRIME, 2) and shared is not fresh
        assert shared == fresh and hash(shared) == hash(fresh)
        assert repr(shared) == repr(fresh) == "Move(kind='Kprime', pos=2)"
        assert _move(ROTATE, 0) == Move(ROTATE) and repr(Move(ROTATE)) == "Move(kind='Rotate', pos=0)"
        assert _move(KPRIME, 2) != _move(KDPRIME, 2) != _move(KDPRIME, 3)


class TestMonovariant:
    def test_example(self):
        assert monovariant(TRACE_START) == 164825973

    def test_identity_is_minimum(self):
        for m in range(1, 6):
            ident = tuple(range(1, m + 1))
            base = monovariant(ident)
            for w in permutations(range(1, m + 1)):
                assert monovariant(w) >= base

    def test_rejects_non_permutation(self):
        with pytest.raises(NotAPermutation):
            monovariant((1, 1, 2))


class TestWordTransform:
    def test_printed_trace(self):
        res = word_transform(TRACE_START)
        crits = ["".join(map(str, w)) for w in res.critical_words]
        assert crits == TRACE_CRITICALS
        assert [monovariant(w) for w in res.critical_words] == TRACE_MONOVARIANTS

    def test_certificate_replays(self):
        res = word_transform((2, 4, 1, 3))
        assert res.certificate.replay() == (1, 2, 3, 4)

    def test_sorted_input(self):
        res = word_transform((1, 2, 3, 4))
        assert res.certificate.moves == ()
        assert res.switch_positions == ()

    def test_all_permutations_of_four(self):
        for w in permutations(range(1, 5)):
            res = word_transform(w)
            assert res.certificate.end == (1, 2, 3, 4)
            assert res.certificate.replay() == (1, 2, 3, 4)

    def test_monovariant_strictly_decreases(self):
        for w in permutations(range(1, 6)):
            res = word_transform(w)
            values = [monovariant(c) for c in res.critical_words]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_switch_position_shifts_left_by_one_or_two(self):
        for w in permutations(range(1, 7)):
            res = word_transform(w)
            for prev, nxt in zip(res.switch_positions, res.switch_positions[1:]):
                if prev != 1:
                    assert nxt in (prev - 1, prev - 2)

    @pytest.mark.parametrize("m", [4, 9])
    def test_stalled_switch_scan_is_stopped(self, monkeypatch, m):
        # 1 2 .. m-2 m m-1 switches only at m - 2.  A word whose item
        # assignment does nothing never takes that switch, so the scan finds
        # it again and again, and only the bound of m non-anchor switches in
        # a row stops the sort.
        w = tuple(range(1, m - 1)) + (m, m - 1)
        assert next(_switches(list(w)))[0] == m - 2
        swaps = []

        class Stuck(list):
            def __setitem__(self, index, value):
                swaps.append(index)

        real = _switches
        monkeypatch.setattr("cyltab.words._switches", lambda p: real(Stuck(p)))
        for sort in (word_transform, _sorting_moves.__wrapped__):
            swaps.clear()
            with pytest.raises(AssertionError, match="failed to make progress"):
                sort(w)
            assert swaps == [m - 3, m - 2] * (m + 1)

    def test_rejects_non_permutation(self):
        with pytest.raises(NotAPermutation):
            word_transform((2, 2, 1))


class TestLiftWord:
    def test_worked_example(self):
        lifted = lift_word((4, 3, 2, 4, 2))
        assert lifted.permutation == (5, 3, 1, 4, 2)
        assert lifted.anchor == 3
        assert lifted.smallest == 2

    def test_permutations_fixed(self):
        for w in permutations(range(1, 5)):
            assert lift_word(w).permutation == w

    def test_repeated_letters(self):
        assert lift_word((1, 1, 2, 2)).permutation == (1, 2, 3, 4)

    def test_all_equal(self):
        assert lift_word((2, 2, 2)).permutation == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(WordError, match="^word must be nonempty$"):
            lift_word(())


class TestConnect:
    def test_identity(self):
        cert = connect((1, 2), (1, 2))
        assert cert.moves == ()

    def test_tableau_words(self):
        cert = connect((1, 2, 3), (3, 1, 2))
        assert cert.replay() == (3, 1, 2)
        assert all(m.kind == ROTATE for m in cert.moves)

    def test_rejects_different_multisets(self):
        with pytest.raises(NotSameMultiset):
            connect((1, 2), (2, 2))

    def test_pairs_of_permutations(self):
        words = list(permutations(range(1, 5)))
        for w in words:
            for v in words:
                cert = connect(w, v)
                cur = w
                for mv in cert.moves:
                    cur = apply_move(cur, mv)
                    assert Counter(cur) == Counter(w)
                assert cur == v

    def test_repeated_letter_pairs(self):
        for w in product(range(1, 3), repeat=4):
            for v in set(permutations(w)):
                cert = connect(w, tuple(v))
                assert cert.replay() == tuple(v)

    def test_shifted_tableau_words_rotation_connected(self):
        from cyltab.tableau import shift_rows

        params = CylParams(3, 6)
        sh = SkewShape(
            CylPartition(params, (7, 5, 4)), CylPartition(params, (4, 3, 1))
        )
        t = tableau_validate(sh, [[2, 3, 5], [2, 6], [1, 2, 4]])
        w1 = tableau_word(t)
        w2 = tableau_word(shift_rows(t, 1))
        rotations = {w1[i:] + w1[:i] for i in range(len(w1))}
        assert w2 in rotations
        moves = []
        cur = w1
        while cur != w2:
            cur = apply_move(cur, Move(ROTATE))
            moves.append(Move(ROTATE))
        cert = Certificate(w1, tuple(moves), w2)
        assert cert.replay() == w2


@st.composite
def certificates(draw):
    """A start word and moves: runs of rotations, valid moves and arbitrary ones.

    Valid moves are chosen on the word the moves so far lead to, so long runs
    replay before the first bad position, unknown kind or empty-word rotation.
    """
    start = tuple(draw(st.lists(st.integers(1, 4), max_size=7)))
    cur, moves = start, []
    for _ in range(draw(st.integers(0, 12))):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            step = [Move(ROTATE)] * draw(st.integers(1, 2 * len(start) + 1))
        elif choice == 1 and cur is not None:
            step = [draw(st.sampled_from(applicable_moves(cur)))]
        else:
            kind = draw(st.sampled_from(MOVE_KINDS + ("Bogus",)))
            step = [Move(kind, draw(st.integers(-1, len(start))))]
        moves += step
        if cur is not None:
            try:
                cur = replay_oracle(cur, step)
            except WordError:
                cur = None
    return start, tuple(moves)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except WordError as e:
        return type(e), getattr(e, "position", None), str(e)


class TestFastPathsMatchOracles:
    """Slice-replayed rotations and the resumed switch scan change no result."""

    def test_transform_on_criterion_7_permutations(self):
        count = 0
        for w in knuth_permutations():
            assert word_transform(w) == word_transform_oracle(w)
            count += 1
        assert count == 5913

    def test_switch_scan_on_criterion_7_permutations(self):
        # The scan's first switch is the leftmost one, with the moves that realize it.
        count = 0
        for w in knuth_permutations():
            i = find_switch_oracle(w)
            scan = _switches(list(w))
            if i is not None:
                assert next(scan) == (i, tuple(_switch_moves_oracle(w, i)))
            elif w == tuple(range(1, len(w) + 1)):
                assert list(scan) == []
            else:
                with pytest.raises(AssertionError, match=r"^no switch available on "):
                    next(scan)
            count += 1
        assert count == 5913

    def test_connect_moves_on_criterion_7_pairs(self):
        sorting = {}
        count = 0
        for a, b in knuth_pairs():
            for w in (a, b):
                if w not in sorting:
                    sorting[w] = sorting_moves_oracle(w)
            expected = () if a == b else sorting[a] + tuple(inverse_moves(sorting[b], len(b)))
            assert connect(a, b).moves == expected
            count += 1
        assert count == 5403

    def test_transform_at_bench_lengths(self):
        rng = random.Random("words-oracle-transform")
        for _ in range(500):
            w = list(range(1, rng.randint(10, 14) + 1))
            rng.shuffle(w)
            assert word_transform(tuple(w)) == word_transform_oracle(tuple(w))

    def test_connect_moves_at_bench_lengths(self):
        # Distinct rearrangements of words of length 10-14 over 3-4 letters.
        rng = random.Random("words-oracle-connect")
        count = 0
        while count < 500:
            length, letters = rng.randint(10, 14), rng.randint(3, 4)
            w = tuple(rng.randint(1, letters) for _ in range(length))
            v = tuple(rng.sample(w, length))
            if v == w:
                continue
            expected = sorting_moves_oracle(w) + tuple(inverse_moves(sorting_moves_oracle(v), length))
            assert connect(w, v).moves == expected
            count += 1

    @settings(derandomize=True, max_examples=150)
    @given(certificates())
    def test_replay_and_first_failure(self, cert):
        start, moves = cert
        replayed = _outcome(Certificate(start, moves, start).replay)
        assert replayed == _outcome(replay_oracle, start, moves)
        if moves:
            assert _outcome(apply_move, start, moves[0]) == _outcome(
                apply_move_oracle, start, moves[0]
            )


class TestEachRuleStatedOnce:
    """The lift anchor and the move preconditions, each written once, give what
    their written-out forms gave on every word of length 1-6 over 1-4."""

    def test_lift_word_on_short_words(self):
        count = 0
        for w in short_words():
            assert lift_word(w) == lift_word_oracle(w)
            count += 1
        assert count == 5460

    def test_applicable_moves_on_short_words(self):
        for w in short_words():
            assert applicable_moves(w) == applicable_moves_oracle(w)
