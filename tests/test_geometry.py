from fractions import Fraction as F

import pytest

from simplexboundary.geometry import (
    BaryPoint,
    CenterProjection,
    DimensionMismatch,
    apply_perm,
    boundary_samples,
    canonical_grid,
    center,
    cross_samples,
    format_point,
    format_rational,
    in_section,
    in_sponge,
    min_value,
    multi_zero_samples,
    on_boundary,
    on_cross,
    on_layer,
    parse_point,
    parse_rational,
    project_boundary,
    project_layer,
    segment_eval,
    sort_perm,
    sponge_points,
    vertex,
)


def test_barypoint_validation():
    BaryPoint([F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        BaryPoint([F(1, 2), F(1, 3)])  # sum != 1
    with pytest.raises(ValueError):
        BaryPoint([F(3, 2), F(-1, 2)])  # negative coordinate
    with pytest.raises(ValueError):
        BaryPoint([])


def test_center_examples():
    assert center(0) == BaryPoint([1])
    assert center(1) == BaryPoint([F(1, 2), F(1, 2)])
    assert center(2) == BaryPoint([F(1, 3), F(1, 3), F(1, 3)])


def test_min_value_examples():
    assert min_value(center(2)) == F(1, 3)
    assert min_value(BaryPoint([0, 1])) == 0
    assert min_value(BaryPoint([F(1, 4), F(3, 4)])) == F(1, 4)
    for x in canonical_grid(3, sponge_cap=8, random_count=8):
        assert 0 <= min_value(x) <= F(1, 4)


def test_sort_perm_stable_on_ties():
    x = BaryPoint([F(1, 6), F(1, 6), F(2, 3)])
    assert sort_perm(x) == (0, 1, 2)
    assert sort_perm(BaryPoint([F(2, 3), F(1, 6), F(1, 6)])) == (1, 2, 0)


def test_project_layer_examples():
    assert project_layer(BaryPoint([F(1, 4), F(3, 4)]), 0) == BaryPoint([0, 1])
    edge = BaryPoint([0, F(2, 5), F(3, 5)])
    assert project_layer(edge, 0) == edge  # boundary points are fixed
    for x in canonical_grid(2, sponge_cap=6, random_count=6):
        assert project_layer(x, F(1, 3)) == center(2)


def test_project_layer_center_error():
    with pytest.raises(CenterProjection):
        project_layer(center(2), 0)
    with pytest.raises(ValueError):
        project_layer(center(2), F(1, 2))  # level out of range


def test_reconstruction_identity():
    # x equals the convex combination of the center and its boundary shadow
    # at parameter min(x)*(n+1).
    for n in (1, 2, 3):
        for x in canonical_grid(n, sponge_cap=16, random_count=16):
            if x == center(n):
                continue
            t = min_value(x) * (n + 1)
            assert segment_eval(center(n), project_boundary(x), t) == x


def test_project_layer_is_identity_at_own_level():
    for n in (1, 2, 3):
        for x in canonical_grid(n, sponge_cap=12, random_count=12):
            assert project_layer(x, min_value(x)) == x


def test_segment_eval_examples():
    a = center(1)
    b = BaryPoint([0, 1])
    assert segment_eval(a, b, 1) == a
    assert segment_eval(a, b, 0) == b
    assert segment_eval(a, b, F(1, 2)) == BaryPoint([F(1, 4), F(3, 4)])
    with pytest.raises(DimensionMismatch):
        segment_eval(center(1), center(2), F(1, 2))


def test_classify_examples():
    assert on_cross(vertex(2, 0), 1)
    for j in range(3):
        assert in_section(center(2), j)
    assert not in_sponge(BaryPoint([F(1, 6), F(1, 6), F(2, 3)]))
    assert in_sponge(BaryPoint([F(1, 6), F(2, 6), F(3, 6)]))
    assert on_boundary(BaryPoint([0, F(1, 3), F(2, 3)]))
    with pytest.raises(ValueError):
        on_cross(center(2), F(3, 2))
    with pytest.raises(ValueError):
        on_layer(center(2), F(1, 2))  # above the center's level 1/3
    with pytest.raises(ValueError):
        in_section(center(2), 3)


def test_layer_contained_in_cross():
    for x in canonical_grid(2, sponge_cap=20, random_count=20):
        alpha = min_value(x)
        assert on_layer(x, alpha)
        assert on_cross(x, alpha)


def test_layers_partition_by_min():
    # Exactly one layer level contains each point: its minimum coordinate.
    denominators = [F(a, 12) for a in range(0, 5)]  # 0 .. 4/12 covers [0, 1/3]
    for x in canonical_grid(2, sponge_cap=10, random_count=10):
        hits = [lvl for lvl in denominators if on_layer(x, lvl)]
        expected = [min_value(x)] if min_value(x) in denominators else []
        assert hits == expected


def test_apply_perm_roundtrip():
    x = BaryPoint([F(1, 6), F(2, 6), F(3, 6)])
    assert apply_perm(x, (2, 0, 1)) == BaryPoint([F(3, 6), F(1, 6), F(2, 6)])
    with pytest.raises(ValueError):
        apply_perm(x, (0, 0, 1))


def test_formatting_roundtrip():
    assert format_rational(F(5, 1)) == "5"
    assert format_rational(F(2, 4)) == "1/2"
    assert parse_rational("3/4") == F(3, 4)
    x = BaryPoint([F(1, 6), F(1, 6), F(2, 3)])
    assert format_point(x) == "[1/6,1/6,2/3]"
    assert parse_point("[1/6, 1/6, 2/3]") == x


def test_sponge_points_are_sponge():
    for n in (1, 2, 3, 4):
        pts = sponge_points(n, 60, cap=32)
        assert pts
        for x in pts:
            assert in_sponge(x)
            assert all(60 % c.denominator == 0 for c in x)


def test_denominator_below_distinct_numerator_sum_raises():
    # Five distinct nonnegative numerators sum to at least 0+1+2+3+4 = 10.
    with pytest.raises(ValueError, match="denominator too small"):
        canonical_grid(4, 9)
    assert sponge_points(4, 10, cap=4)


def test_grids_are_deterministic():
    a = canonical_grid(3, sponge_cap=20, random_count=20, seed=7)
    b = canonical_grid(3, sponge_cap=20, random_count=20, seed=7)
    c = canonical_grid(3, sponge_cap=20, random_count=20, seed=8)
    assert a == b
    assert a != c


def test_grid_dimension_zero():
    assert canonical_grid(0) == [BaryPoint([1])]


def test_special_samplers():
    for b in boundary_samples(2, 12):
        assert min_value(b) == 0
    for x in cross_samples(3, F(1, 8), 12):
        assert on_cross(x, F(1, 8))
    for x in multi_zero_samples(3, 12):
        assert sum(1 for c in x if c == 0) >= 2
