import hashlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexboundary.geometry import (
    BaryPoint,
    CenterProjection,
    DEFAULT_SEED,
    DimensionMismatch,
    apply_perm,
    canonical_grid,
    center,
    format_point,
    format_rational,
    min_value,
    on_boundary,
    on_cross,
    parse_point,
    parse_rational,
    project_boundary,
    project_layer,
    random_rational_points,
    segment_eval,
    sort_perm,
    sponge_points,
    vertex,
)

from samplers import boundary_samples, cross_samples, layer_samples, multi_zero_samples


def test_barypoint_validation():
    BaryPoint([F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        BaryPoint([F(1, 2), F(1, 3)])  # sum != 1
    with pytest.raises(ValueError):
        BaryPoint([F(3, 2), F(-1, 2)])  # negative coordinate
    with pytest.raises(ValueError):
        BaryPoint([])


# ---------------------------------------------------------------------------
# Reference formulas: the plain ``Fraction`` arithmetic, with the checks and
# messages of the code that stored points as ``Fraction`` tuples, which the
# integer code must reproduce exactly; a message writes its point as
# ``format_point`` does.


def reference_accepts(coords):
    vals = tuple(F(c) for c in coords)
    return bool(vals) and all(c >= 0 for c in vals) and sum(vals) == 1


def reference_point(coords):
    """The point check on ``Fraction`` coordinates: the coordinates, or
    the error, with its message."""
    vals = tuple(F(c) for c in coords)
    if not vals:
        raise ValueError("a barycentric point needs at least one coordinate")
    if min(vals) < 0:
        raise ValueError(f"negative barycentric coordinate in {format_point(vals)}")
    if sum(vals) != 1:
        raise ValueError(f"barycentric coordinates must sum to 1, got {format_point(vals)}")
    return vals


def reference_segment_eval(a, b, t):
    if len(a) != len(b):
        raise DimensionMismatch(f"segment endpoints have dims {len(a)-1} and {len(b)-1}")
    t = F(t)
    if not 0 <= t <= 1:
        raise ValueError(f"segment parameter {t} outside [0,1]")
    return tuple(t * ai + (1 - t) * bi for ai, bi in zip(a, b))


def reference_project_layer(x, alpha):
    n = len(x) - 1
    alpha = F(alpha)
    if not 0 <= alpha <= F(1, n + 1):
        raise ValueError(f"layer level {alpha} outside [0, 1/{n + 1}]")
    if alpha == F(1, n + 1):
        return (alpha,) * (n + 1)
    xmin = min(x)
    if xmin == F(1, n + 1):
        raise CenterProjection(f"projection to layer {alpha} undefined at the center")
    scale = (1 - (n + 1) * alpha) / (1 - (n + 1) * xmin)
    return tuple(alpha + scale * (xi - xmin) for xi in x)


def reference_apply_perm(x, perm):
    if len(perm) != len(x) or sorted(perm) != list(range(len(x))):
        raise ValueError(f"{perm!r} is not a permutation of 0..{len(x) - 1}")
    return tuple(x[p] for p in perm)


def assert_exactly(point, expected):
    assert all(type(c) is F for c in point)
    assert tuple(point) == tuple(expected)


def assert_same_outcome(fn, reference, *args):
    """``fn(*args)`` equals ``reference(*args)`` exactly, or both raise the
    same exception type with the same message."""
    try:
        want = reference(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            fn(*args)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
    else:
        got = fn(*args)
        assert_exactly(got, want)
        if isinstance(got, BaryPoint):
            assert_canonical(got)


def assert_canonical(x):
    """``x`` stores its reduced coordinates over their least common
    denominator, so ``gcd(den, *nums) == 1``."""
    coords = tuple(x)
    assert x.den == math.lcm(*(c.denominator for c in coords))
    assert math.gcd(x.den, *x.nums) == 1
    assert all(type(p) is int for p in x.nums)
    assert tuple(F(p, x.den) for p in x.nums) == coords
    assert len(x) == len(x.nums) == x.dim + 1


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


@settings(max_examples=400)
@given(candidate_coords(), st.sampled_from((1, 2, 6, 10_007)))
def test_both_constructor_paths_check_alike(coords, scale):
    """Over any common denominator, and with any common factor left in,
    ``BaryPoint(nums, den)`` gives the point ``BaryPoint(coords)`` gives,
    or the same error with the same message."""
    vals = [F(c) for c in coords]
    den = scale * math.lcm(*(c.denominator for c in vals))
    nums = [int(c * den) for c in vals]
    assert_same_outcome(BaryPoint, reference_point, coords)
    assert_same_outcome(lambda: BaryPoint(nums, den), lambda: reference_point(vals))
    if reference_accepts(coords):
        x, y = BaryPoint(coords), BaryPoint(nums, den)
        assert x == y and hash(x) == hash(y)
        assert (x.nums, x.den) == (y.nums, y.den)


@st.composite
def point_pairs(draw):
    """Two points of one dimension, on a small lattice or with coprime
    denominators, so that equal, permuted and unrelated pairs all come up;
    each is built on either constructor path, the integer path with a
    common factor left in."""
    n = draw(st.integers(0, 5))
    kinds = lattice_points(n) | coprime_points(n)
    x = draw(kinds)
    y = draw(st.sampled_from([x, apply_perm(x, tuple(reversed(range(n + 1))))]) | kinds)

    def rebuilt(p):
        if draw(st.booleans()):
            return BaryPoint(list(p))
        g = draw(st.integers(1, 12))
        return BaryPoint([g * q for q in p.nums], g * p.den)

    return rebuilt(x), rebuilt(y)


@settings(max_examples=400)
@given(point_pairs())
def test_point_equality_is_equality_of_reduced_coordinates(pair):
    x, y = pair
    assert_canonical(x)
    assert_canonical(y)
    assert (x == y) == (tuple(x) == tuple(y)) == (x.nums == y.nums)
    assert (x != y) == (tuple(x) != tuple(y))
    if x == y:
        assert hash(x) == hash(y)
    assert len({x, y}) == len({tuple(x), tuple(y)})


@settings(max_examples=200)
@given(st.data())
def test_point_predicates_match_coordinates(data):
    n = data.draw(st.integers(0, 6))
    x = data.draw(lattice_points(n) | coprime_points(n))
    coords = tuple(x)
    alpha = data.draw(st.sampled_from(coords) | large_rationals(1))
    assert min_value(x) == min(coords) and type(min_value(x)) is F
    assert on_boundary(x) == any(c == 0 for c in coords)
    assert on_cross(x, alpha) == any(c == alpha for c in coords)


def test_barypoint_coordinates_are_built_once():
    x = BaryPoint([2, 4, 6], 12)
    assert (x.nums, x.den) == ((1, 2, 3), 6)
    assert x[0] is x[0] and tuple(x) == (F(1, 6), F(1, 3), F(1, 2))
    assert list(x) == list(x.coords) and x.coords is x.coords
    assert x.index(F(1, 3)) == 1 and F(1, 2) in x and x[-1] == F(1, 2)
    assert x != tuple(x)  # a point equals points only


def test_barypoint_rejections():
    with pytest.raises(ValueError, match="at least one coordinate"):
        BaryPoint([])
    with pytest.raises(ValueError, match="at least one coordinate"):
        BaryPoint([], 1)
    with pytest.raises(ValueError, match="denominator must be positive"):
        BaryPoint([0, 0], 0)
    with pytest.raises(ValueError, match="denominator must be positive"):
        BaryPoint([-1, 0], -1)
    with pytest.raises(ValueError, match="negative"):
        BaryPoint(["-1/10007", 1, F(1, 10_007)])  # sums to 1
    q, r = 10_007, 10_009
    D = q * r
    near = [F(1, q), "1/10009", 1 - F(1, q) - F(1, r)]
    assert BaryPoint(near)
    for off in (F(1, D), -F(1, D)):
        with pytest.raises(ValueError, match="must sum to 1"):
            BaryPoint(near[:2] + [near[2] + off])


@st.composite
def just_outside(draw, top):
    """A rational just below 0 or just above ``top``."""
    q = draw(st.sampled_from(PRIMES))
    return draw(st.sampled_from((-F(1, q), top + F(1, q))))


@settings(max_examples=300)
@given(st.data())
def test_segment_eval_matches_fraction_formula(data):
    n = data.draw(st.integers(1, 6))
    a = data.draw(coprime_points(n) | lattice_points(n))
    m = data.draw(st.sampled_from((n, n, n, n + 1)))  # sometimes a dimension mismatch
    b = data.draw(coprime_points(m) | lattice_points(m))
    t = data.draw(large_rationals(1) | just_outside(1))
    assert_same_outcome(segment_eval, reference_segment_eval, a, b, t)


@settings(max_examples=300)
@given(st.data())
def test_project_layer_matches_fraction_formula(data):
    n = data.draw(st.integers(1, 6))
    x = data.draw(coprime_points(n) | lattice_points(n) | st.just(center(n)))
    alpha = data.draw(large_rationals(F(1, n + 1)) | just_outside(F(1, n + 1)))
    assert_same_outcome(project_layer, reference_project_layer, x, alpha)


@settings(max_examples=300)
@given(st.data())
def test_apply_perm_matches_fraction_formula(data):
    n = data.draw(st.integers(0, 6))
    x = data.draw(coprime_points(n) | lattice_points(n))
    perm = list(data.draw(st.permutations(range(n + 1))))
    broken = data.draw(st.sampled_from(("none", "none", "repeat", "short", "long")))
    if broken == "repeat" and n:
        perm[0] = perm[1]
    elif broken == "short":
        perm.pop()
    elif broken == "long":
        perm.append(n + 1)
    assert_same_outcome(apply_perm, reference_apply_perm, x, tuple(perm))


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
    assert sort_perm(x.nums) == sort_perm(x)


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
    assert on_boundary(BaryPoint([0, F(1, 3), F(2, 3)]))
    assert not on_boundary(center(2))
    with pytest.raises(ValueError):
        on_cross(center(2), F(3, 2))


def test_layer_contained_in_cross():
    for x in canonical_grid(2, sponge_cap=20, random_count=20):
        assert on_cross(x, min_value(x))


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
            assert len(set(x)) == len(x)
            assert all(60 % c.denominator == 0 for c in x)


def reference_sponge_lattice(n, denominator):
    """A point for every lattice point with distinct coordinates, in the
    order the enumerate-then-sample grid (dimensions 1 and 2) kept them."""
    k = n + 1
    points = []
    for combo in itertools.product(range(denominator + 1), repeat=k - 1):
        last = denominator - sum(combo)
        if last < 0:
            continue
        parts = combo + (last,)
        if len(set(parts)) == k:
            points.append(BaryPoint(F(p, denominator) for p in parts))
    return points


def reference_sponge_sample(points, n, cap, seed):
    rng = random.Random(seed * 1_000_003 + 9_973 + n)
    if len(points) > cap:
        return rng.sample(points, cap)
    return points


def reference_lattice_heads(n, denominator):
    """The first coordinate of each row of the enumerate-then-sample
    lattice, as a tuple; n = 1 has a single row with an empty head."""
    return [()] if n == 1 else [(a,) for a in range(denominator + 1)]


def reference_lattice_row(head, n, denominator):
    """The numerator tuples of one row that the enumerate-then-sample grid
    kept, in its order."""
    rest = denominator - sum(head)
    return [head + (c, rest - c) for c in range(rest + 1) if len({*head, c, rest - c}) == n + 1]


@pytest.mark.parametrize("n", [1, 2])
def test_sponge_points_match_enumerate_then_sample(n):
    for denominator in (3, 6, 7, 10, 60, 61, 120):
        if denominator < max(n + 2, n * (n + 1) // 2):
            continue
        lattice = reference_sponge_lattice(n, denominator)
        for seed in (0, 1, 7, DEFAULT_SEED):
            for cap in (64, 8):
                got = sponge_points(n, denominator, cap, seed)
                want = reference_sponge_sample(lattice, n, cap, seed)
                assert len(got) == len(want)
                for x, y in zip(got, want):
                    assert_exactly(x, y)
    # At D = 3000 the lattice has millions of points, too many to list:
    # count it row by row, draw the indices as sampling a list of that
    # length would, and rebuild only the rows holding them.
    denominator = 3000
    heads = reference_lattice_heads(n, denominator)
    counts = [len(reference_lattice_row(head, n, denominator)) for head in heads]
    starts = list(itertools.accumulate(counts, initial=0))
    for seed in (0, DEFAULT_SEED):
        for cap in (64, 8):
            rng = random.Random(seed * 1_000_003 + 9_973 + n)
            want = []
            for index in rng.sample(range(starts[-1]), cap):
                row = next(r for r in range(len(heads)) if starts[r + 1] > index)
                parts = reference_lattice_row(heads[row], n, denominator)[index - starts[row]]
                want.append(BaryPoint(F(p, denominator) for p in parts))
            got = sponge_points(n, denominator, cap, seed)
            assert len(got) == cap
            for x, y in zip(got, want):
                assert_exactly(x, y)


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
    assert sponge_points(0) == random_rational_points(0) == [BaryPoint([1])]
    assert random_rational_points(0, count=0) == []


def test_special_samplers():
    for b in boundary_samples(2, 12):
        assert min_value(b) == 0
    for x in cross_samples(3, F(1, 8), 12):
        assert on_cross(x, F(1, 8))
    for x in multi_zero_samples(3, 12):
        assert sum(1 for c in x if c == 0) >= 2


#: SHA-256 of the lines of ``sampler_transcript``, so that every point the
#: seeded samplers draw is pinned, including those no report prints.
SAMPLER_DIGEST = "b4f87937d74fc5425065c1d0519f2833b366296966ccba5f7d27a67240ddbf9c"


def sampler_transcript():
    """Lines ``name n: point`` for every seeded sampler at seed 11."""
    lines = []

    def add(name, n, points):
        lines.extend(f"{name} {n}: {format_point(x)}" for x in points)

    for n in range(1, 5):
        add("boundary", n, boundary_samples(n, 12, seed=11))
        add("cross", n, cross_samples(n, F(1, 2 * (n + 1)), 12, seed=11))
        add("cross1", n, cross_samples(n, 1, 3, seed=11))
        add("layer", n, layer_samples(n, F(1, 3 * (n + 1)), 6, seed=11))
    for n in range(2, 5):
        add("multi_zero", n, multi_zero_samples(n, 12, seed=11))
    return lines


def test_sampler_points_are_pinned():
    lines = sampler_transcript()
    assert len(lines) == 168
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SAMPLER_DIGEST
