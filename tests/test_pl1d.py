import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexboundary.geometry import BaryPoint
from simplexboundary.pl1d import (
    BadEndpoints,
    CrossMismatch,
    NonMonotone,
    OutOfDomain,
    PLMap,
    identity_map,
    kappa,
    phi_n0,
    pl_compose,
    pl_eval,
    pl_inverse,
    polygon,
    restrict,
    sigma_polygon,
    tau_polygon,
)


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
    with pytest.raises(BadEndpoints):
        polygon([(F(1, 4), F(1, 4)), (1, 1)], domain=(0, 1))
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
    assert pl_eval(phi_n0(2), F(1, 6)) == F(1, 8)
    with pytest.raises(OutOfDomain):
        pl_eval(phi_n0(2), F(1, 2))


def test_pl_inverse_examples():
    assert pl_eval(pl_inverse(kappa()), F(1, 5)) == F(1, 4)
    assert pl_inverse(identity_map(0, 1)) == identity_map(0, 1)
    assert pl_eval(pl_inverse(phi_n0(2)), F(1, 8)) == F(1, 6)


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
        pl_compose(phi_n0(2), kappa())  # codomain/domain mismatch


@settings(max_examples=100)
@given(pl_homeos(), pl_homeos(), pl_homeos())
def test_pl_compose_is_associative_property(f, g, h):
    assert pl_compose(h, pl_compose(g, f)) == pl_compose(pl_compose(h, g), f)


def test_strictly_increasing_on_breakpoints_and_midpoints():
    rng = random.Random(5)
    maps = [kappa(), phi_n0(1), phi_n0(3)]
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
    assert kappa().fixed_points() == (F(0), F(1))
    g = polygon([(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 3)), (1, 1)])
    assert g.fixed_points() == (F(0), F(1, 4), F(1))
