import re
from itertools import product

import pytest

from cyltab.enumeration import enumerate_ssct
from cyltab.geometry import Box, CylParams, CylPartition, GeometryError, SkewShape, flip_box
from cyltab.tableau import (
    ColumnNotStrictlyIncreasing,
    RowLengthMismatch,
    TableauError,
    empty_tableau,
    flip_tableau,
    is_standard,
    shift_rows,
    tableau_validate,
    tableau_word,
    weight,
    weight_monomial,
)

K2N4 = CylParams(2, 4)
K2N5 = CylParams(2, 5)
K3N6 = CylParams(3, 6)


def shape(params, outer, inner):
    return SkewShape(CylPartition(params, outer), CylPartition(params, inner))


WEIGHT_EXAMPLE = tableau_validate(
    shape(K2N5, (7, 6), (4, 3)), [[1, 2, 3], [2, 2, 5]]
)

STANDARD_EXAMPLE = tableau_validate(
    shape(K3N6, (7, 5, 4), (4, 3, 3)), [[1, 4, 6], [2, 3], [5]]
)


def plane_check(sh, rows):
    """Brute-force oracle: materialize three vertical periods and test every
    adjacent pair of cells in the plane."""
    params = sh.params
    k, width = params.k, params.width

    def interval(x):
        r = x % k
        q = (x - r) // k
        lo, hi = sh.row_interval(r)
        return lo - q * width, hi - q * width

    def entry(x, y):
        r = x % k
        q = (x - r) // k
        lo, _ = sh.row_interval(r)
        return rows[r][y + q * width - lo - 1]

    for x in range(-k, 2 * k):
        lo, hi = interval(x)
        for y in range(lo + 1, hi):
            if entry(x, y) > entry(x, y + 1):
                return False
        lo2, hi2 = interval(x + 1)
        for y in range(max(lo, lo2) + 1, min(hi, hi2) + 1):
            if entry(x, y) >= entry(x + 1, y):
                return False
    return True


class TestValidate:
    def test_weight_example_valid(self):
        assert WEIGHT_EXAMPLE.size() == 6

    def test_empty(self):
        t = empty_tableau(CylPartition(K2N4, (0, 0)))
        assert t.size() == 0

    def test_column_violation_across_rows(self):
        with pytest.raises(ColumnNotStrictlyIncreasing):
            tableau_validate(shape(K2N4, (1, 1), (0, 0)), [[2], [1]])

    def test_entry_outside_shape_rejected(self):
        t = tableau_validate(shape(K2N4, (1, 0), (0, 0)), [[3], []])
        for b in (Box(0, 0), Box(0, 2), Box(1, 1)):
            message = rf"^box {re.escape(repr(b))} is not in the shape$"
            with pytest.raises(TableauError, match=message):
                t.entry(b)

    def test_row_length_mismatch(self):
        with pytest.raises(RowLengthMismatch):
            tableau_validate(shape(K2N4, (1, 0), (0, 0)), [[1, 2], []])

    def test_wrap_column_violation(self):
        # one-row cylinder: the wrap forces strict increase at distance width
        params = CylParams(1, 2)
        sh = shape(params, (2,), (0,))
        tableau_validate(sh, [[1, 2]])
        with pytest.raises(ColumnNotStrictlyIncreasing):
            tableau_validate(sh, [[1, 1]])

    def test_agrees_with_plane_oracle(self):
        shapes = [
            shape(K2N4, (2, 1), (0, 0)),
            shape(K2N4, (2, 0), (0, -1)),
            shape(CylParams(1, 3), (2,), (0,)),
            shape(K3N6, (1, 0, 0), (0, 0, -1)),
        ]
        for sh in shapes:
            sizes = [b - a for a, b in (sh.row_interval(r) for r in range(sh.params.k))]
            cells = sum(sizes)
            for fill in product(range(1, 4), repeat=cells):
                rows, i = [], 0
                for s in sizes:
                    rows.append(list(fill[i : i + s]))
                    i += s
                expected = plane_check(sh, rows)
                try:
                    tableau_validate(sh, rows)
                    got = True
                except GeometryError:
                    got = False
                assert got == expected, (sh, rows)


class TestWeight:
    def test_weight_example(self):
        w = weight(WEIGHT_EXAMPLE)
        assert [w.get(i, 0) for i in range(1, 6)] == [1, 3, 1, 0, 1]

    def test_weight_monomial(self):
        assert weight_monomial(WEIGHT_EXAMPLE) == {1: 1, 2: 3, 3: 1, 5: 1}
        assert weight_monomial(empty_tableau(CylPartition(K2N4, (0, 0)))) == {}

    def test_direct_count(self):
        t = tableau_validate(shape(K2N4, (2, 0), (0, 0)), [[1, 2], []])
        assert weight_monomial(t) == {1: 1, 2: 1}

    def test_weight_total_is_box_count(self):
        assert sum(weight(STANDARD_EXAMPLE).values()) == STANDARD_EXAMPLE.size()


class TestStandard:
    def test_standard_example(self):
        assert is_standard(STANDARD_EXAMPLE)

    def test_empty_is_standard(self):
        assert is_standard(empty_tableau(CylPartition(K2N4, (0, 0))))

    def test_repeat_not_standard(self):
        t = tableau_validate(shape(K2N4, (2, 0), (0, 0)), [[1, 1], []])
        assert not is_standard(t)


class TestFlipTableau:
    def test_single_box_derived(self):
        t = tableau_validate(shape(K2N4, (1, 0), (0, 0)), [[3], []])
        f = flip_tableau(t, alphabet_bound=5)
        assert f.outer.window == (-1, -3) and f.inner.window == (-2, -3)
        assert f.entry(Box(0, -1)) == 5 + 1 - 3
        # derived expectation cross-checked against the box rotation
        assert set(f.boxes()) == {flip_box(b, K2N4) for b in t.boxes()}

    def test_empty(self):
        t = empty_tableau(CylPartition(K2N4, (1, 0)))
        f = flip_tableau(t, alphabet_bound=1)
        assert f.size() == 0

    def test_bound_below_the_largest_entry_is_rejected(self):
        t = tableau_validate(shape(K2N4, (2, 1), (0, 0)), [[1, 2], [3]])
        for bound in (0, 1, 2):
            with pytest.raises(TableauError, match=f"alphabet bound {bound} is below the largest entry 3"):
                flip_tableau(t, alphabet_bound=bound)
        assert flip_tableau(t, alphabet_bound=3).rows == ((2, 3), (1,))

    def test_involution_and_validity_sweep(self):
        from sweeps import iter_params, iter_shapes

        boxes = 0
        for params in iter_params(max_k=3, max_width=3):
            for sh in iter_shapes(params, max_boxes=4):
                for t in enumerate_ssct(sh, 3):
                    f = flip_tableau(t, alphabet_bound=3)  # validates on build
                    assert flip_tableau(f, alphabet_bound=3) == t
                    for b in t.boxes():  # each entry lands on the rotated box
                        assert f.entry(flip_box(b, params)) == 4 - t.entry(b), (t, b)
                        boxes += 1
        assert boxes == 5028


class TestWord:
    def test_paper_words(self):
        t1 = tableau_validate(shape(K2N4, (2, 1), (0, 0)), [[1, 2], [3]])
        t2 = tableau_validate(shape(K2N4, (3, 2), (2, 0)), [[3], [1, 2]])
        assert tableau_word(t1) == (1, 2, 3)
        assert tableau_word(t2) == (3, 1, 2)

    def test_empty_word(self):
        assert tableau_word(empty_tableau(CylPartition(K2N4, (0, 0)))) == ()

    def test_length_is_box_count(self):
        assert len(tableau_word(STANDARD_EXAMPLE)) == STANDARD_EXAMPLE.size()

    def test_shift_rows_rotates_word(self):
        t = STANDARD_EXAMPLE
        shifted = shift_rows(t, 1)
        w, ws = tableau_word(t), tableau_word(shifted)
        rotations = {w[i:] + w[:i] for i in range(len(w))}
        assert ws in rotations
