from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexboundary.geometry import (
    BaryPoint,
    CenterProjection,
    DimensionMismatch,
    _over_common_denominator,
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


# ---------------------------------------------------------------------------
# Reference formulas: the plain ``Fraction`` arithmetic the integer
# common-denominator code must reproduce exactly.


def reference_accepts(coords):
    vals = tuple(F(c) for c in coords)
    return bool(vals) and all(c >= 0 for c in vals) and sum(vals) == 1


def reference_segment_eval(a, b, t):
    t = F(t)
    return tuple(t * ai + (1 - t) * bi for ai, bi in zip(a, b))


def reference_project_layer(x, alpha):
    n = len(x) - 1
    alpha = F(alpha)
    if alpha == F(1, n + 1):
        return (alpha,) * (n + 1)
    xmin = min(x)
    scale = (1 - (n + 1) * alpha) / (1 - (n + 1) * xmin)
    return tuple(alpha + scale * (xi - xmin) for xi in x)


def assert_exactly(point, expected):
    assert all(type(c) is F for c in point)
    assert tuple(point) == tuple(expected)


#: Pairwise coprime denominators, from small to past 64 bits.
PRIMES = (10_007, 10_009, 99_991, 1_000_003, 2**31 - 1, 2**61 - 1, 2**89 - 1)


@st.composite
def coprime_points(draw, n):
    """A point of the n-simplex whose coordinates have large, pairwise
    coprime denominators: n coordinates k/q below 1/(n+1) with distinct
    primes q, and the remainder, placed at a random slot."""
    qs = draw(st.permutations(PRIMES))[:n]
    coords = [F(draw(st.integers(0, q // (n + 1))), q) for q in qs]
    coords.insert(draw(st.integers(0, n)), 1 - sum(coords))
    return BaryPoint(coords)


@st.composite
def lattice_points(draw, n):
    """A point of the n-simplex over D = (n+1)*m with m <= 3, so that ties,
    zeros, coordinates exactly 1/(n+1) and the center come up often."""
    D = (n + 1) * draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(0, D), min_size=n, max_size=n)))
    return BaryPoint(F(hi - lo, D) for lo, hi in zip([0] + cuts, cuts + [D]))


@st.composite
def large_rationals(draw, top):
    """A rational in [0, top] with a large prime denominator, ends included."""
    q = draw(st.sampled_from(PRIMES))
    return top * F(draw(st.integers(0, q)), q)


def _spelled(draw, c):
    """``c`` as a Fraction, its ``p/q`` string, or an int when integral."""
    kinds = ["fraction", "string"] + (["int"] if c.denominator == 1 else [])
    kind = draw(st.sampled_from(kinds))
    return c if kind == "fraction" else str(c) if kind == "string" else int(c)


@st.composite
def candidate_coords(draw):
    """Coordinates over a large D whose sum is 1 or 1 +- 1/D, sometimes
    with a negative coordinate, spelled as a mix of int, str and Fraction."""
    D = draw(st.sampled_from((1,) + PRIMES)) * draw(st.sampled_from((1, 6, 10_007)))
    k = draw(st.integers(1, 6))
    total = max(D + draw(st.sampled_from((-1, 0, 0, 1))), 0)
    cuts = sorted(draw(st.integers(0, total)) for _ in range(k - 1))
    nums = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    if k > 1 and draw(st.booleans()):  # make a coordinate negative, same sum
        m, other = draw(st.permutations(range(k)))[:2]
        moved = nums[m] + draw(st.integers(1, D))
        nums[m] -= moved
        nums[other] += moved
    return [_spelled(draw, F(p, D)) for p in nums]


@settings(max_examples=400)
@given(candidate_coords())
def test_barypoint_accepts_what_the_fraction_check_accepts(coords):
    try:
        point = BaryPoint(coords)
    except ValueError:
        assert not reference_accepts(coords)
    else:
        assert reference_accepts(coords)
        assert_exactly(point, (F(c) for c in coords))


def test_barypoint_rejections():
    with pytest.raises(ValueError, match="at least one coordinate"):
        BaryPoint([])
    with pytest.raises(ValueError, match="negative"):
        BaryPoint(["-1/10007", 1, F(1, 10_007)])  # sums to 1
    q, r = 10_007, 10_009
    D = q * r
    near = [F(1, q), "1/10009", 1 - F(1, q) - F(1, r)]
    assert BaryPoint(near)
    for off in (F(1, D), -F(1, D)):
        with pytest.raises(ValueError, match="must sum to 1"):
            BaryPoint(near[:2] + [near[2] + off])


@settings(max_examples=200)
@given(st.data())
def test_segment_eval_matches_fraction_formula(data):
    n = data.draw(st.integers(1, 6))
    a, b = data.draw(coprime_points(n)), data.draw(coprime_points(n))
    t = data.draw(large_rationals(1))
    assert_exactly(segment_eval(a, b, t), reference_segment_eval(a, b, t))


@settings(max_examples=200)
@given(st.data())
def test_project_layer_matches_fraction_formula(data):
    n = data.draw(st.integers(1, 6))
    x = data.draw(coprime_points(n))
    alpha = data.draw(large_rationals(F(1, n + 1)))
    assert_exactly(project_layer(x, alpha), reference_project_layer(x, alpha))


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


@settings(max_examples=200)
@given(st.data())
def test_sort_perm_of_numerators_matches_coordinates(data):
    n = data.draw(st.integers(1, 6))
    x = data.draw(lattice_points(n) | coprime_points(n))
    assert sort_perm(_over_common_denominator(x)[0]) == sort_perm(x)


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
