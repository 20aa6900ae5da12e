"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time
from itertools import permutations, product

from cyltab.crsk import crsk, crsk_inverse
from cyltab.enumeration import (
    enumerate_inner,
    enumerate_outer,
    enumerate_ssct,
    skew_reduction_cross_check,
    verify_cauchy,
    verify_fcount,
    verify_oneschur,
    verify_skew_reduction,
)
from cyltab.geometry import Box, CylParams, CylPartition, SkewShape
from cyltab.insertion import full_multi, internal_insert
from cyltab.marbles import (
    arrangement,
    final_arrangement,
    game_to_tableau,
    game_validate,
    tableau_to_game,
)
from cyltab.reverse import reverse_full_multi
from cyltab.tableau import is_standard, tableau_validate, weight
from cyltab.words import apply_move, connect, lift_word, monovariant, word_transform
from sweeps import (
    anchored_partitions,
    check_forward_call,
    check_retrace,
    check_reverse_call,
    enumerate_tableaux_with_inner,
    enumerate_tableaux_with_outer,
    iter_params,
    removal_pairs,
    sweep_pairs,
)

K2N4 = CylParams(2, 4)
K3N5 = CylParams(3, 5)
K3N6 = CylParams(3, 6)
K3N7 = CylParams(3, 7)


def shape(params, outer, inner):
    return SkewShape(CylPartition(params, outer), CylPartition(params, inner))


def test_criterion_1_worked_example_fidelity():
    start = time.perf_counter()

    out, _ = internal_insert(
        tableau_validate(shape(K3N5, (5, 5, 5), (3, 2, 2)), [[1, 4], [2, 5, 6], [3, 7, 7]]),
        Box(0, 4),
    )
    assert out.rows == ((3, 7), (1, 4, 6), (2, 5, 7))
    assert out.inner.window == (4, 2, 2) and out.outer.window == (6, 5, 5)

    t36 = tableau_validate(shape(K3N6, (7, 5, 4), (4, 3, 1)), [[2, 3, 5], [2, 6], [1, 2, 4]])
    res = full_multi(t36, [Box(1, 4), Box(2, 2), Box(2, 3)])
    assert res.queues[1].items == ((4, 0), (2, 1), (3, 1))
    assert res.queues[2].items == ((5, 1), (6, 2))
    assert res.tableau.rows == ((1, 2, 4), (2, 3, 5), (2, 6))
    assert res.tableau.outer.window == (7, 7, 5)

    rev = reverse_full_multi(
        res.tableau, [Box(1, 6), Box(1, 7), Box(2, 5)], seed_row=1
    )
    assert rev.queues[1].items == ((4, 2), (2, 2), (2, 0))
    assert rev.tableau == t36

    u36 = tableau_validate(shape(K3N6, (6, 6, 5), (4, 3, 1)), [[2, 4], [1, 3, 5], [1, 1, 3, 4]])
    pq = crsk(t36, u36)
    assert pq.lam.window == (9, 8, 8)
    assert pq.p == tableau_validate(shape(K3N6, (9, 8, 8), (6, 6, 5)), [[1, 2, 3], [2, 5], [2, 4, 6]])
    assert pq.q == tableau_validate(shape(K3N6, (9, 8, 8), (7, 5, 4)), [[2, 4], [1, 1, 3], [1, 3, 4, 5]])

    ring = tableau_validate(
        shape(K3N7, (10, 9, 6), (5, 4, 2)),
        [[1, 2, 2, 5, 6], [1, 2, 6, 6, 6], [1, 1, 4, 5]],
    )
    game = tableau_to_game(ring, 6)
    assert game.turns == ((1, 1, 2), (2, 1, 0), (0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 3, 0))

    run = word_transform((1, 5, 9, 3, 6, 2, 8, 4, 7))
    assert [monovariant(w) for w in run.critical_words] == [
        152794863, 142683759, 129573648, 128369547, 127358496, 126347985,
        123946875, 123845769, 123745698, 123495687, 123485679, 123459678,
        123456978, 123456798, 123456789,
    ]
    assert lift_word((4, 3, 2, 4, 2)).permutation == (5, 3, 1, 4, 2)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\ncriterion 1 PASS: worked-example fidelity, bit-exact ({elapsed:.3f}s)")


def test_criterion_2_round_trip_suite():
    start = time.perf_counter()
    forward_cases = 0
    for t, strips in sweep_pairs():
        for strip in strips:
            fwd = full_multi(t, strip)
            back = reverse_full_multi(fwd.tableau, fwd.new_set)
            assert back.tableau == t
            assert back.reverse_new_set == strip
            forward_cases += 1
    backward_cases = 0
    for t, strips in removal_pairs():
        for strip in strips:
            rev = reverse_full_multi(t, strip)
            fwd = full_multi(rev.tableau, rev.reverse_new_set)
            assert fwd.tableau == t
            assert fwd.new_set == strip
            backward_cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    print(
        f"criterion 2 PASS: round trips both ways "
        f"({forward_cases} forward + {backward_cases} reverse cases, {elapsed:.1f}s)"
    )


def test_criterion_3_row_bumping_properties():
    start = time.perf_counter()
    calls = 0
    for t, strips in sweep_pairs():
        for strip in strips:
            fwd = full_multi(t, strip)
            check_forward_call(t, strip, fwd)
            back = reverse_full_multi(fwd.tableau, fwd.new_set)
            check_reverse_call(fwd.tableau, fwd.new_set, back)
            check_retrace(fwd, back)
            calls += 1
    seeds_checked = 0
    for t, strips in sweep_pairs(max_k=3, max_width=2, max_boxes=3, strip_size=2):
        for strip in strips:
            base = full_multi(t, strip, seed_row=0)
            for seed in range(1, t.params.k):
                alt = full_multi(t, strip, seed_row=seed)
                assert alt.tableau == base.tableau and alt.new_set == base.new_set
                seeds_checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 3 PASS: row-bumping lemma and corollaries on {calls} calls, "
        f"seed independence on {seeds_checked} ({elapsed:.1f}s)"
    )


def test_criterion_4_crsk_bijection():
    start = time.perf_counter()
    windows = [
        w
        for w in product((-1, 0, 1), repeat=2)
        if w[0] >= w[1] >= w[0] - K2N4.width
    ]
    budget, letters = 3, 2
    instances = 0
    for wa, wb in product(windows, repeat=2):
        alpha, beta = CylPartition(K2N4, wa), CylPartition(K2N4, wb)
        left = []
        for j in range(budget + 1):
            for mu in enumerate_inner(alpha, beta, j):
                for t in enumerate_ssct(SkewShape(alpha, mu), letters):
                    for u in enumerate_ssct(SkewShape(beta, mu), letters):
                        left.append((mu, t, u))
        right = set()
        for j in range(budget + 1):
            for lam in enumerate_outer(alpha, beta, j):
                for p in enumerate_ssct(SkewShape(lam, beta), letters):
                    for q in enumerate_ssct(SkewShape(lam, alpha), letters):
                        right.add((lam, p, q))
        image = set()
        for mu, t, u in left:
            out = crsk(t, u)
            assert weight(out.p) == weight(t)
            assert weight(out.q) == weight(u)
            key = (out.lam, out.p, out.q)
            assert key not in image, "crsk is not injective"
            image.add(key)
            back = crsk_inverse(out.p, out.q)
            assert (back.t, back.u, back.mu) == (t, u, mu)
            swapped = crsk(u, t)
            assert (swapped.p, swapped.q, swapped.lam) == (out.q, out.p, out.lam)
            if t == u:
                assert out.p == out.q
            instances += 1
        assert image == right, "crsk image does not cover the outer-shape side"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    print(f"criterion 4 PASS: weight-preserving bijection on {instances} instances ({elapsed:.1f}s)")


def test_criterion_5_identity_checks():
    start = time.perf_counter()
    configs = [
        ((0, 0), (0, 0)),
        ((1, 0), (0, 0)),
        ((1, 0), (0, -1)),
        ((1, 1), (0, 0)),
        ((0, -1), (-1, -1)),
        ((2, 0), (1, -1)),
    ]
    for wa, wb in configs:
        alpha, beta = CylPartition(K2N4, wa), CylPartition(K2N4, wb)
        report = verify_cauchy(alpha, beta, 3, 2, 2)
        assert report.equal, (wa, wb, report.mismatches)
        for m in range(4):
            lhs, rhs = verify_fcount(alpha, beta, m)
            assert lhs == rhs, (wa, wb, m)
    for wa in {wa for wa, _ in configs} | {wb for _, wb in configs}:
        report = verify_oneschur(CylPartition(K2N4, wa), 3, 2)
        assert report.equal, wa
    regular = [(), (1,), (2,), (1, 1)]
    for a, b in product(regular, repeat=2):
        report = verify_skew_reduction(a, b, 2, 2)
        assert report.equal, (a, b, report.mismatches)
        lhs_rep, rhs_rep = skew_reduction_cross_check(a, b, 2, 2)
        assert lhs_rep.equal and rhs_rep.equal, (a, b)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 5 PASS: cauchy x{len(configs)}, oneschur x5+, fcount m<=3, "
        f"skew reduction x{len(regular) ** 2} with embedding cross-check ({elapsed:.1f}s)"
    )


def test_criterion_6_marble_bijection():
    start = time.perf_counter()
    round_trips = 0
    for t, _ in sweep_pairs():
        game = tableau_to_game(t, 3)
        assert game_validate(game)
        assert game_to_tableau(t.inner, game) == t
        final = final_arrangement(game)
        assert final == arrangement(t.outer)
        std_game = tableau_to_game(t, t.max_entry())
        assert all(sum(turn) == 1 for turn in std_game.turns) == is_standard(t)
        round_trips += 1
    counts_checked = 0
    for params in iter_params(3, 3):
        for alpha in anchored_partitions(params):
            for letters in range(1, 4):
                starting = len(enumerate_tableaux_with_inner(alpha, letters))
                ending = len(enumerate_tableaux_with_outer(alpha, letters))
                assert starting == ending, (params, alpha.window, letters)
                counts_checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 6 PASS: game round trips on {round_trips} tableaux, "
        f"start/end count equality on {counts_checked} configurations ({elapsed:.1f}s)"
    )


def test_criterion_7_cyclic_knuth():
    start = time.perf_counter()
    runs = 0
    for m in range(1, 8):
        identity = tuple(range(1, m + 1))
        for w in permutations(identity):
            res = word_transform(w)
            assert res.certificate.end == identity
            values = [monovariant(c) for c in res.critical_words]
            assert all(a > b for a, b in zip(values, values[1:]))
            runs += 1
    transform_elapsed = time.perf_counter() - start
    assert transform_elapsed < 60.0, f"transforms took {transform_elapsed:.1f}s"

    pair_count = 0
    for length in range(1, 6):
        seen = set()
        for w in product((1, 2, 3), repeat=length):
            key = tuple(sorted(w))
            if key in seen:
                continue
            seen.add(key)
            arrangements = sorted(set(permutations(w)))
            for a in arrangements:
                for b in arrangements:
                    cert = connect(a, b)
                    cur = a
                    for mv in cert.moves:
                        cur = apply_move(cur, mv)
                        assert sorted(cur) == sorted(a)
                    assert cur == b
                    pair_count += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 7 PASS: {runs} permutations sorted with decreasing monovariants "
        f"({transform_elapsed:.1f}s), {pair_count} connect certificates replayed ({elapsed:.1f}s)"
    )
