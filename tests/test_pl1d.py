import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexboundary.comfort import lambda_lift
from simplexboundary.geometry import BaryPoint
from simplexboundary.pl1d import (
    CrossMismatch,
    NonMonotone,
    OutOfDomain,
    PLMap,
    _normalized,
    cross_levels,
    identity_map,
    kappa,
    pl_compose,
    pl_eval,
    pl_inverse,
    polygon,
    restrict,
    sigma_polygon,
    tau_at,
    tau_polygon,
)
from simplexboundary.theta import ThetaKey


def random_homeo(rng: random.Random, lo: F, hi: F, inner: int = 3) -> PLMap:
    """Seeded increasing polygon fixing both endpoints of [lo, hi]."""
    span = hi - lo
    xs = sorted(rng.sample(range(1, 60), inner))
    ys = sorted(rng.sample(range(1, 60), inner))
    pts = [(lo, lo), (hi, hi)]
    pts += [(lo + span * F(a, 60), lo + span * F(b, 60)) for a, b in zip(xs, ys)]
    return polygon(pts)


@st.composite
def pl_homeos(draw, hi=F(1), den=48):
    """An increasing polygon of [0, hi] fixing both endpoints, with up to
    four inner breakpoints on the grid hi * k/den."""
    k = draw(st.integers(0, 4))
    inner = st.lists(st.integers(1, den - 1), min_size=k, max_size=k, unique=True)
    xs, ys = sorted(draw(inner)), sorted(draw(inner))
    return polygon([(0, 0), (hi, hi)] + [(hi * F(a, den), hi * F(b, den)) for a, b in zip(xs, ys)])


# ---------------------------------------------------------------------------
# Reference formulas: the plain ``Fraction`` arithmetic the integer piece
# table and breakpoints must reproduce exactly.  The polygon references
# return breakpoint tuples, compared with a built map's ``points``.


def reference_normalize(points):
    out = []
    for pt in points:
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            x2, y2 = pt
            if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
                out.pop()
            else:
                break
        out.append(pt)
    return tuple(out)


def reference_polygon(points):
    pairs = sorted({(F(u), F(v)) for u, v in points})
    if len(pairs) < 2:
        raise NonMonotone(f"a polygon needs at least two distinct points, got {pairs!r}")
    for (u0, v0), (u1, v1) in zip(pairs, pairs[1:]):
        if u0 == u1:
            raise NonMonotone(f"inputs collide at {u0}: outputs {v0} and {v1}")
        if v0 >= v1:
            raise NonMonotone(f"outputs not strictly increasing at input {u1}: {v0} then {v1}")
    return reference_normalize(pairs)


def reference_pl_eval(f, t):
    t = F(t)
    if not f.lo <= t <= f.hi:
        raise OutOfDomain(f"{t} outside [{f.lo}, {f.hi}]")
    inputs = [u for u, _ in f.points]
    idx = bisect_right(inputs, t)
    if idx == len(inputs):
        return f.points[-1][1]
    x0, y0 = f.points[idx - 1] if idx > 0 else f.points[0]
    x1, y1 = f.points[idx]
    if t == x0:
        return y0
    return y0 + (t - x0) * (y1 - y0) / (x1 - x0)


def reference_tau_polygon(b, c, alpha, beta):
    if len(b) != len(c):
        raise ValueError("boundary point and image have different dimensions")
    n = b.dim
    alpha, beta = F(alpha), F(beta)
    cv = F(1, n + 1)
    if not (0 <= alpha < cv and 0 <= beta < cv):
        raise ValueError(f"levels ({alpha}, {beta}) must lie in [0, 1/{n + 1})")
    if min(b) != 0 or min(c) != 0:
        raise ValueError("tau is defined for boundary points only")
    for bj, cj in zip(b, c):
        if (bj == alpha) != (cj == beta):
            raise CrossMismatch(
                f"component {bj} of b sits on level {alpha} "
                f"but its image {cj} misses level {beta}"
            )
    pairs = {(F(0), F(0)), (F(1), F(1))}
    for bj, cj in zip(b, c):
        if bj <= alpha:
            if cj >= cv:
                raise NonMonotone(f"image component {cj} should be below 1/{n + 1}")
            pairs.add(((alpha - bj) / (cv - bj), (beta - cj) / (cv - cj)))
    points = reference_polygon(pairs)
    assert (points[0][0], points[-1][0]) == (0, 1), "tau must span [0, 1]"
    return points


def assert_piece_table(f):
    """``f``'s piece table against its breakpoints: each piece ends at its
    breakpoint and reproduces ``reference_pl_eval`` at both of its ends,
    and C is the lcm of the reduced denominators of the lines."""
    C, pieces = f.pieces
    pts = f.points
    assert len(pieces) == len(pts) - 1
    line_dens = []
    for (u0, v0), (u1, v1), (rp, rq, a, b) in zip(pts, pts[1:], pieces):
        assert (rp, rq) == (u1.numerator, u1.denominator)
        for u in (u0, u1):
            assert (a * u + b) / C == reference_pl_eval(f, u)
        slope = (v1 - v0) / (u1 - u0)
        line_dens.append(math.lcm(slope.denominator, (v0 - slope * u0).denominator))
    assert C == math.lcm(*line_dens)


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the ``ValueError`` it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


#: Large primes, so that arguments carry denominators unrelated to the map's.
PRIMES = (10_007, 99_991, 2**31 - 1, 2**61 - 1)


@settings(max_examples=300)
@given(st.data())
def test_pl_eval_matches_reference(data):
    hi = F(1, data.draw(st.integers(1, 7)))
    f = data.draw(pl_homeos(hi))
    q = data.draw(st.sampled_from(PRIMES))
    ts = [hi * F(data.draw(st.integers(0, q)), q) for _ in range(4)]
    ts += [u for u, _ in f.points]  # every breakpoint, both endpoints included
    for t in ts:
        value = pl_eval(f, t)
        assert type(value) is F and value == reference_pl_eval(f, t)
    for t in (-F(1, q), hi + F(1, q)):
        assert outcome(pl_eval, f, t) == outcome(reference_pl_eval, f, t)
        assert outcome(pl_eval, f, t)[0] is OutOfDomain
    inv = pl_inverse(f)  # normalized, with a table that undoes f at every breakpoint
    assert inv.points == reference_normalize([(v, u) for u, v in f.points])
    assert_piece_table(inv)
    assert all(pl_eval(inv, v) == u for u, v in f.points)


@st.composite
def boundary_points(draw, n, alpha):
    """A point of the n-simplex with a zero coordinate, some coordinates
    exactly ``alpha`` and some below it."""
    on_level = draw(st.integers(0, n - 1))
    q = draw(st.sampled_from((7, 60) + PRIMES))
    below = draw(st.lists(st.integers(0, q - 1), max_size=n - 1 - on_level))
    below = [alpha * F(i, q) for i in below]
    free = n - on_level - len(below)
    cuts = sorted(draw(st.lists(st.integers(0, q), min_size=free - 1, max_size=free - 1)))
    rest = 1 - on_level * alpha - sum(below)
    coords = [F(0)] + [alpha] * on_level + below
    coords += [rest * F(hi - lo, q) for lo, hi in zip([0] + cuts, cuts + [q])]
    return BaryPoint(draw(st.permutations(coords)))


@settings(max_examples=300)
@given(st.data())
def test_tau_polygon_matches_reference(data):
    n = data.draw(st.integers(1, 5))
    if data.draw(st.integers(0, 3)) == 3:
        alpha = beta = F(0)
    else:  # two distinct levels in (0, 1/(n+1))
        i, j = data.draw(st.integers(1, 11)), data.draw(st.integers(1, 10))
        alpha, beta = F(i, 12 * (n + 1)), F(j + (j >= i), 12 * (n + 1))
    b = data.draw(boundary_points(n, alpha))
    if data.draw(st.booleans()):
        # The image under a lift with alpha -> beta matches the crosses.
        c = lambda_lift(sigma_polygon(alpha, beta, F(1, n + 1)), n)(b)
    else:  # an unrelated boundary point: mostly the error paths
        c = data.draw(boundary_points(n, beta))
    expected = outcome(reference_tau_polygon, b, c, alpha, beta)
    got = outcome(tau_polygon, b, c, alpha, beta)
    if isinstance(got, PLMap):
        assert_piece_table(got)
        got = got.points
    assert got == expected


@settings(max_examples=300)
@given(st.data())
def test_polygon_matches_reference(data):
    grid = st.integers(0, 6)
    us, vs = (sorted(data.draw(st.lists(grid, min_size=1, max_size=7, unique=True))) for _ in "uv")
    points = [(F(u, 6), F(v, 6)) for u, v in zip(us, vs)]  # increasing
    points += [(F(u, 6), F(v, 6)) for u, v in data.draw(st.lists(st.tuples(grid, grid), max_size=2))]
    points += points[: len(points) // 2]  # exact duplicates
    points = data.draw(st.permutations(points))
    got = outcome(polygon, points)
    if isinstance(got, PLMap):
        assert_piece_table(got)
        got = got.points
    assert got == outcome(reference_polygon, points)


def test_polygon_duplicates_collapse_and_errors_keep_their_messages():
    half = (F(1, 2), F(1, 3))
    assert polygon([(0, 0), half, (1, 1), half, (0, 0)]).points == ((0, 0), half, (1, 1))
    with pytest.raises(NonMonotone, match="^inputs collide at 1/2: outputs 1/3 and 2/3$"):
        polygon([(0, 0), half, (F(1, 2), F(2, 3)), (1, 1)])
    descent = "^outputs not strictly increasing at input 1: 2/3 then 1/2$"
    with pytest.raises(NonMonotone, match=descent):
        polygon([(0, 0), (F(1, 2), F(2, 3)), (1, F(1, 2))])
    with pytest.raises(NonMonotone, match=r"^a polygon needs at least two distinct points, got "
                                          r"\[\(Fraction\(0, 1\), Fraction\(0, 1\)\)\]$"):
        polygon([(0, 0), (F(0), F(0))])


def test_normalized_checks_order_with_the_polygon_messages():
    # Every map, not only a polygon, is built by ``_normalized``; it checks
    # the order itself, with the messages ``polygon`` has always given.
    half, upper = (F(1, 2), F(1, 3)), (F(1, 2), F(2, 3))
    collide = "inputs collide at 1/2: outputs 1/3 and 2/3"
    descent = "outputs not strictly increasing at input 1: 2/3 then 1/2"
    cases = [
        ([(0, 0), half, upper, (1, 1)], collide),
        ([(0, 0), upper, (1, F(1, 2))], descent),
        ([(0, 0), half, (1, F(1, 3))], "outputs not strictly increasing at input 1: 1/3 then 1/3"),
    ]
    for points, message in cases:
        points = [(F(u), F(v)) for u, v in points]
        assert outcome(_normalized, points) == (NonMonotone, message)
        assert outcome(polygon, points) == (NonMonotone, message)
    # A repeated pair, which ``polygon`` collapses first, collides too.
    repeated = [(F(0), F(0)), half, half, (F(1), F(1))]
    assert outcome(_normalized, repeated) == (NonMonotone, "inputs collide at 1/2: outputs 1/3 and 1/3")


def test_tau_polygon_ties_match_reference():
    # n = 3, alpha = 1/8, beta = 1/10: hand-picked ties the property test
    # reaches only by chance.
    alpha, beta = F(1, 8), F(1, 10)
    b = BaryPoint([0, F(1, 16), F(1, 16), F(7, 8)])
    cases = {
        # Equal coordinates below alpha with equal images collapse: the
        # anchors, the zero and one breakpoint for both 1/16s.
        "collapse": (b, BaryPoint([0, F(1, 20), F(1, 20), F(9, 10)]), 4),
        # The same with different images: the inputs collide.
        "collide": (b, BaryPoint([0, F(1, 20), F(1, 30), F(11, 12)]), "inputs collide at 1/3: "),
        # An image coordinate above beta while b_j < alpha: descent from (0, 0).
        "descent": (
            BaryPoint([0, F(1, 4), F(1, 4), F(1, 2)]),
            BaryPoint([F(1, 5), 0, F(2, 5), F(2, 5)]),
            "outputs not strictly increasing at input 1/2: 0 then -2",
        ),
        # A coordinate exactly at alpha collapses into (0, 0).
        "on level": (
            BaryPoint([0, F(1, 8), F(1, 16), F(13, 16)]),
            BaryPoint([0, F(1, 10), F(1, 20), F(17, 20)]),
            4,
        ),
    }
    for name, (b, c, kind) in cases.items():
        got = outcome(tau_polygon, b, c, alpha, beta)
        expected = outcome(reference_tau_polygon, b, c, alpha, beta)
        if isinstance(kind, int):  # the number of breakpoints
            assert isinstance(got, PLMap) and len(got.points) == kind, name
            got = got.points
        else:  # the start of the message
            assert got[0] is NonMonotone and got[1].startswith(kind), name
        assert got == expected, name


def test_piece_table_of_kappa():
    # Slopes 4/5, 6/5, 4/5 and intercepts 0, -1/10, 1/5 over C = 10.
    assert kappa().pieces == (10, ((1, 4, 8, 0), (3, 4, 12, -1), (1, 1, 8, 2)))


def test_polygon_examples():
    assert pl_eval(kappa(), F(1, 4)) == F(1, 5)
    assert pl_eval(kappa(), F(5, 8)) == F(13, 20)
    assert restrict(kappa(), 0, F(1, 2)).points == ((0, 0), (F(1, 4), F(1, 5)), (F(1, 2), F(1, 2)))
    ident = polygon([(0, 0), (1, 1)])
    assert ident == identity_map(0, 1)


def test_polygon_errors():
    with pytest.raises(NonMonotone):
        polygon([(0, 0), (F(1, 2), F(2, 3)), (1, F(1, 2))])
    with pytest.raises(NonMonotone):
        polygon([(0, 0), (0, F(1, 3)), (1, 1)])
    with pytest.raises(NonMonotone):
        polygon([(0, 0)])


def test_normalization_removes_collinear_points():
    assert polygon([(0, 0), (F(1, 2), F(1, 2)), (1, 1)]) == identity_map(0, 1)
    # A genuine kink survives.
    kinked = polygon([(0, 0), (F(1, 2), F(1, 3)), (1, 1)])
    assert len(kinked.points) == 3


def test_pl_eval_examples():
    assert pl_eval(kappa(), F(1, 2)) == F(1, 2)
    assert pl_eval(kappa(), 0) == 0
    assert pl_eval(sigma_polygon(F(1, 6), F(1, 8), F(1, 3)), F(1, 6)) == F(1, 8)
    with pytest.raises(OutOfDomain):
        pl_eval(sigma_polygon(F(1, 6), F(1, 8), F(1, 3)), F(1, 2))


def test_pl_inverse_examples():
    assert pl_eval(pl_inverse(kappa()), F(1, 5)) == F(1, 4)
    assert pl_inverse(identity_map(0, 1)) == identity_map(0, 1)
    assert pl_eval(pl_inverse(sigma_polygon(F(1, 6), F(1, 8), F(1, 3))), F(1, 8)) == F(1, 6)


def test_pl_inverse_roundtrip_property():
    rng = random.Random(11)
    for _ in range(10):
        f = random_homeo(rng, F(0), F(1, 3))
        finv = pl_inverse(f)
        for k in range(13):
            t = F(k, 36)
            assert pl_eval(finv, pl_eval(f, t)) == t


def test_pl_compose():
    k = kappa()
    assert pl_compose(pl_inverse(k), k) == identity_map(0, 1)
    assert pl_compose(k, identity_map(0, 1)) == k
    assert pl_eval(pl_compose(k, k), F(1, 4)) == F(4, 25)
    with pytest.raises(ValueError):
        pl_compose(sigma_polygon(F(1, 6), F(1, 8), F(1, 3)), kappa())  # codomain/domain mismatch


@settings(max_examples=100)
@given(pl_homeos(), pl_homeos(), pl_homeos())
def test_pl_compose_is_associative_property(f, g, h):
    assert pl_compose(h, pl_compose(g, f)) == pl_compose(pl_compose(h, g), f)


def test_strictly_increasing_on_breakpoints_and_midpoints():
    rng = random.Random(5)
    maps = [kappa(), sigma_polygon(F(1, 4), F(1, 6), F(1, 2)), sigma_polygon(F(1, 8), F(1, 10), F(1, 4))]
    maps += [random_homeo(rng, F(0), F(1, 4)) for _ in range(6)]
    for f in maps:
        samples = [u for u, _ in f.points]
        samples += [(a + b) / 2 for (a, _), (b, _) in zip(f.points, f.points[1:])]
        samples.sort()
        values = [pl_eval(f, t) for t in samples]
        assert all(v0 < v1 for v0, v1 in zip(values, values[1:]))


def test_symmetry_of_seed_polygons():
    f = kappa()
    for k in range(0, 25):
        x = F(k, 24)
        assert pl_eval(f, x) + pl_eval(f, 1 - x) == 1


def phi_n0(n):
    """The polygon that Θ(1,n,0) lifts: [0, 1/(n+1)] through its key's levels."""
    return sigma_polygon(*ThetaKey(1, n, 0).levels, F(1, n + 1))


def test_phi_n0_family():
    assert phi_n0(1).points == ((0, 0), (F(1, 4), F(1, 6)), (F(1, 2), F(1, 2)))
    for n in range(0, 6):
        f = phi_n0(n)
        top = F(1, n + 1)
        assert pl_eval(f, 0) == 0
        assert pl_eval(f, top) == top
        assert pl_eval(f, F(1, 2 * (n + 1))) == F(1, 2 * (n + 2))


def test_sigma_polygon():
    s = sigma_polygon(F(1, 6), F(1, 8), F(1, 3))
    assert pl_eval(s, F(1, 6)) == F(1, 8)
    assert pl_eval(s, 0) == 0 and pl_eval(s, F(1, 3)) == F(1, 3)
    assert sigma_polygon(F(1, 6), F(1, 6), F(1, 3)) == identity_map(0, F(1, 3))
    assert sigma_polygon(0, 0, 1) == sigma_polygon(1, 1, 1) == identity_map(0, 1)
    for level in (2, F(-1, 6)):  # equal levels outside [0, hi]: no identity on [0, hi]
        with pytest.raises(ValueError, match=f"^level {level} must lie in \\[0, 1/3\\]$"):
            sigma_polygon(level, level, F(1, 3))


def test_tau_polygon_identity_when_levels_match():
    b = BaryPoint([0, F(2, 5), F(3, 5)])
    assert tau_polygon(b, b, F(1, 6), F(1, 6)) == identity_map(0, 1)


def test_tau_polygon_derived_breakpoint():
    # Single zero below the level: the ray hits the cross at parameter 1/2,
    # and the image ray must hit its cross at parameter 3/7.
    b = BaryPoint([0, F(2, 5), F(3, 5)])
    c = BaryPoint([0, F(1, 3), F(2, 3)])
    tau = tau_polygon(b, c, F(1, 6), F(1, 7))
    assert (F(1, 2), F(3, 7)) in tau.points
    assert pl_eval(tau, F(1, 2)) == F(3, 7)
    # tau_at reads the same value off the breakpoints, from an unreduced
    # parameter, and refuses one outside [0, 1].
    levels = cross_levels(F(1, 6), F(1, 7), 3)
    assert levels == (1, 6, 1, 7)
    assert tau_at(b, c, levels, 3, 6) == F(3, 7)
    for p, q, shown in ((3, 2, "3/2"), (-1, 4, "-1/4")):
        assert outcome(tau_at, b, c, levels, p, q) == (OutOfDomain, f"{shown} outside [0, 1]")


def test_tau_polygon_degenerate_breakpoint_at_origin():
    # A coordinate sitting exactly on the level contributes the pair (0,0),
    # which collapses into the origin anchor.
    b = BaryPoint([0, F(1, 6), F(5, 6)])
    c = BaryPoint([0, F(1, 7), F(6, 7)])
    tau = tau_polygon(b, c, F(1, 6), F(1, 7))
    assert tau.points[0] == (0, 0)
    assert pl_eval(tau, 0) == 0


def test_tau_polygon_cross_mismatch():
    b = BaryPoint([0, F(1, 6), F(5, 6)])
    c = BaryPoint([0, F(1, 5), F(4, 5)])  # image misses the target level
    with pytest.raises(CrossMismatch):
        tau_polygon(b, c, F(1, 6), F(1, 7))


def test_fixed_points():
    # The breakpoints a map fixes, both endpoints included when fixed.
    assert [u for u, v in kappa().points if u == v] == [0, 1]
    g = polygon([(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 3)), (1, 1)])
    assert [u for u, v in g.points if u == v] == [0, F(1, 4), 1]
