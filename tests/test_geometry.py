import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyltab.geometry import (
    Box,
    CylParams,
    CylPartition,
    GeometryError,
    LiftRowMismatch,
    ParamsMismatch,
    PartTooWide,
    Point,
    SkewShape,
    TooManyParts,
    WindowNotDecreasing,
    WrapViolated,
    cyl_embed,
    flip_box,
    flip_partition,
    is_horizontal_strip,
    lift,
    partition_contains,
    partition_validate,
    project,
    skew_boxes,
)

K2N4 = CylParams(2, 4)
K3N6 = CylParams(3, 6)


def orbit(p, params, span=4):
    """Shift-orbit oracle: all representatives of a point within +-span periods."""
    return {
        Point(p.x - m * params.k, p.y + m * params.width)
        for m in range(-span, span + 1)
    }


small_ints = st.integers(-20, 20)


class TestProjectLift:
    def test_examples(self):
        assert project(Point(2, 0), K2N4) == Box(0, 2)
        assert project(Point(0, 1), K2N4) == Box(0, 1)
        # derived via the orbit oracle
        target = project(Point(-3, 0), K3N6)
        assert any(q.x == 0 and q.y == target.col for q in orbit(Point(-3, 0), K3N6))
        assert target == Box(0, -3)

    def test_lift_examples(self):
        assert lift(Box(0, 1), 2, K2N4) == Point(2, -1)
        assert lift(Box(0, 1), 0, K2N4) == Point(0, 1)
        with pytest.raises(LiftRowMismatch):
            lift(Box(0, 1), 1, K2N4)

    @given(small_ints, small_ints, st.integers(1, 4), st.integers(1, 4), st.integers(-3, 3))
    def test_projection_invariant_under_shift(self, x, y, k, width, m):
        params = CylParams(k, k + width)
        p = Point(x, y)
        q = Point(x - m * k, y + m * width)
        assert project(p, params) == project(q, params)

    @given(small_ints, small_ints, st.integers(1, 4), st.integers(1, 4))
    def test_lift_inverts_project(self, x, y, k, width):
        params = CylParams(k, k + width)
        p = Point(x, y)
        assert lift(project(p, params), p.x, params) == p


class TestPartition:
    def test_validate(self):
        assert partition_validate([0, 0], K2N4).window == (0, 0)
        assert partition_validate([3, 1], K2N4).window == (3, 1)
        with pytest.raises(WrapViolated):
            partition_validate([2, -1], K2N4)
        with pytest.raises(WindowNotDecreasing):
            partition_validate([0, 1], K2N4)

    def test_part_extends_periodically(self):
        lam = CylPartition(K3N6, (4, 3, 1))
        # three periods materialized must be weakly decreasing
        seq = [lam.part(m) for m in range(-3, 7)]
        assert all(a >= b for a, b in zip(seq, seq[1:]))
        assert lam.part(-1) == 1 + 3
        assert lam.part(3) == 4 - 3

    def test_contains(self):
        assert partition_contains(CylPartition(K2N4, (0, 0)), CylPartition(K2N4, (1, 0)))
        assert not partition_contains(CylPartition(K2N4, (1, 0)), CylPartition(K2N4, (0, 0)))
        mu = CylPartition(K2N4, (0, -1))
        lam = CylPartition(K2N4, (1, 1))
        assert partition_contains(mu, lam)
        # window check agrees with a three-period materialization
        assert all(mu.part(m) <= lam.part(m) for m in range(-2, 5))

    @pytest.mark.parametrize(
        "make, bad",
        [
            (lambda: CylParams("a", 3), "'a'"),
            (lambda: CylParams(True, 3), "True"),
            (lambda: CylParams(2, 4.0), "4.0"),
            (lambda: CylPartition(K2N4, (1.5, 0)), "1.5"),
            (lambda: CylPartition(K2N4, (True, False)), "True"),
            (lambda: CylPartition(K2N4, (1, "0")), "'0'"),
        ],
    )
    def test_parameters_and_parts_must_be_exact_integers(self, make, bad):
        with pytest.raises(GeometryError, match=rf"must be (an integer|integers), got {bad}$"):
            make()

    @pytest.mark.parametrize(
        "k, n, message",
        [
            (0, 4, "k must be positive, got 0"),
            (-1, 4, "k must be positive, got -1"),
        ],
    )
    def test_parameters_out_of_range_are_refused(self, k, n, message):
        with pytest.raises(GeometryError) as info:
            CylParams(k, n)
        assert (type(info.value), str(info.value)) == (GeometryError, message)

    def test_contains_params_mismatch(self):
        with pytest.raises(ParamsMismatch):
            partition_contains(CylPartition(K2N4, (0, 0)), CylPartition(K3N6, (0, 0, 0)))

    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    )
    def test_validation_matches_materialized_sequence(self, k, width, values):
        # accepted iff three materialized periods are weakly decreasing
        window = tuple(values[:k]) + tuple(values[-1:]) * (k - len(values[:k]))
        params = CylParams(k, k + width)
        try:
            partition_validate(window, params)
            accepted = True
        except GeometryError:
            accepted = False
        seq = [window[m % k] - ((m - m % k) // k) * width for m in range(-k, 2 * k + 1)]
        assert accepted == all(a >= b for a, b in zip(seq, seq[1:]))


class TestSkewShape:
    def test_skew_boxes(self):
        shape = SkewShape(CylPartition(K2N4, (1, 0)), CylPartition(K2N4, (0, 0)))
        assert skew_boxes(shape) == frozenset({Box(0, 1)})
        empty = SkewShape(CylPartition(K2N4, (0, 0)), CylPartition(K2N4, (0, 0)))
        assert skew_boxes(empty) == frozenset()

    def test_weight_example_has_six_boxes(self):
        # two-row tableau window drawn with horizontal period 3
        params = CylParams(2, 5)
        shape = SkewShape(
            CylPartition(params, (7, 6)), CylPartition(params, (4, 3))
        )
        assert shape.size() == 6
        assert len(skew_boxes(shape)) == 6

    def test_horizontal_strip_examples(self):
        def shape(outer, inner):
            return SkewShape(CylPartition(K2N4, outer), CylPartition(K2N4, inner))

        assert is_horizontal_strip(shape((1, 0), (0, 0)))
        assert not is_horizontal_strip(shape((1, 1), (0, 0)))
        assert is_horizontal_strip(shape((2, 0), (0, 0)))

    def test_horizontal_strip_matches_column_collision_oracle(self):
        from sweeps import iter_params, iter_shapes

        for params in iter_params(max_k=3, max_width=4):
            for shape in iter_shapes(params, max_boxes=8):
                boxes = list(skew_boxes(shape))
                cols = [b.col % params.width for b in boxes]
                collision_free = len(set(cols)) == len(cols)
                assert is_horizontal_strip(shape) == collision_free


class TestFlip:
    def test_flip_partition_examples(self):
        assert flip_partition(CylPartition(K2N4, (1, 0))).window == (-2, -3)
        lam = CylPartition(K2N4, (0, -2))
        assert flip_partition(flip_partition(lam)) == lam
        one = CylParams(1, 2)
        assert flip_partition(CylPartition(one, (5,))).window == (-6,)

    def test_flip_partition_involution_sweep(self):
        from sweeps import anchored_partitions, iter_params, outer_partitions

        for params in iter_params():
            for mu in anchored_partitions(params):
                for lam in outer_partitions(mu, 3):
                    assert flip_partition(flip_partition(lam)) == lam

    def test_flip_partition_matches_part_sweep(self):
        from sweeps import anchored_partitions, iter_params

        cases = 0
        for params in iter_params(max_k=4, max_width=4):
            for mu in anchored_partitions(params):
                for lam in (mu.shifted(s) for s in range(-2, 3)):
                    flipped = flip_partition(lam).window
                    assert flipped == tuple(-1 - lam.part(-m) for m in range(params.k)), lam
                    cases += 1
        assert cases == 605

    def test_flip_partition_complements_box_sets(self):
        # a point is in Flip(lam) iff its rotation image is not in lam
        lam = CylPartition(K3N6, (4, 3, 1))
        flipped = flip_partition(lam)
        for x in range(-4, 8):
            for y in range(-8, 8):
                rotated = Point(-x, -y)
                assert flipped.contains_point(Point(x, y)) != lam.contains_point(rotated)

    def test_flip_box(self):
        assert flip_box(Box(0, 1), K2N4) == Box(0, -1)
        # derived: rotation image of a lift, canonicalized by the orbit oracle
        expected = project(Point(-1, 0), K2N4)
        assert expected in {project(q, K2N4) for q in orbit(Point(-1, 0), K2N4)}
        assert flip_box(Box(1, 0), K2N4) == expected
        assert expected == Box(1, -2)
        for b in [Box(0, 3), Box(1, -2), Box(2, 0)]:
            assert flip_box(flip_box(b, K3N6), K3N6) == b


class TestEmbed:
    def test_examples(self):
        assert cyl_embed((2, 1), CylParams(5, 10)).window == (2, 1, 0, 0, 0)
        assert cyl_embed((), K3N6).window == (0, 0, 0)
        with pytest.raises(PartTooWide):
            cyl_embed((3, 1), K2N4)
        with pytest.raises(TooManyParts):
            cyl_embed((1, 1, 1), K2N4)
