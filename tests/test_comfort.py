import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexboundary.comfort import (
    BadDomain,
    ComfortViolation,
    EndpointNotFixed,
    SimplexHomeo,
    check_comfort,
    counterexample_map,
    extend_from_boundary,
    extend_from_layer,
    identity_homeo,
    lambda_lift,
)
from simplexboundary.geometry import (
    BaryPoint,
    apply_perm,
    canonical_grid,
    center,
    format_point,
    min_value,
    on_cross,
    project_boundary,
    project_layer,
    segment_eval,
)
from simplexboundary.pl1d import (
    CrossMismatch,
    NonMonotone,
    _tau_breakpoints,
    cross_levels,
    identity_map,
    pl_compose,
    pl_eval,
    pl_inverse,
    polygon,
    sigma_polygon,
    tau_at,
    tau_polygon,
)

from samplers import boundary_samples, cross_samples, layer_samples, multi_zero_samples
from test_geometry import PRIMES, assert_exactly, coprime_points, lattice_points
from test_pl1d import boundary_points, outcome, pl_homeos, random_homeo, reference_pl_eval


def small_grid(n, k=12):
    return canonical_grid(n, sponge_cap=k, random_count=k)


# ---------------------------------------------------------------------------
# The lift


def test_lift_paper_values():
    t = lambda_lift(sigma_polygon(F(1, 4), F(1, 6), F(1, 2)), 1)
    assert t(BaryPoint([F(1, 4), F(3, 4)])) == BaryPoint([F(1, 6), F(5, 6)])
    t2 = lambda_lift(sigma_polygon(F(1, 6), F(1, 8), F(1, 3)), 2)
    assert t2(BaryPoint([F(1, 6), F(1, 6), F(2, 3)])) == BaryPoint([F(1, 8), F(1, 8), F(3, 4)])


def test_lift_of_identity_is_identity():
    for n in (1, 2, 3):
        lifted = lambda_lift(identity_map(0, F(1, n + 1)), n)
        for x in small_grid(n):
            assert lifted(x) == x


def test_lift_domain_errors():
    with pytest.raises(BadDomain):
        lambda_lift(identity_map(0, 1), 2)
    bad = polygon([(0, F(1, 24)), (F(1, 3), F(1, 3))])
    with pytest.raises(EndpointNotFixed):
        lambda_lift(bad, 2)


def test_lift_inverse_law():
    rng = random.Random(23)
    for n in (1, 2, 3):
        f = random_homeo(rng, F(0), F(1, n + 1))
        lifted = lambda_lift(f, n)
        for x in small_grid(n):
            y = lifted(x)
            assert sum(y) == 1
            assert lifted.inverse_at(y) == x


def test_lift_morphism_law():
    rng = random.Random(29)
    for n in (1, 2, 3):
        f = random_homeo(rng, F(0), F(1, n + 1))
        g = random_homeo(rng, F(0), F(1, n + 1))
        lift_f = lambda_lift(f, n)
        lift_g = lambda_lift(g, n)
        lift_gf = lambda_lift(pl_compose(g, f), n)
        for x in small_grid(n):
            assert lift_gf(x) == lift_g(lift_f(x))


def test_lift_fixes_center_and_special_values():
    rng = random.Random(31)
    for n in (2, 3):
        f = random_homeo(rng, F(0), F(1, n + 1))
        lifted = lambda_lift(f, n)
        assert lifted(center(n)) == center(n)
        # Coordinates equal to 0, 1/(n+1), 1 or a fixed point of f stay put.
        fixed_vals = {F(0), F(1, n + 1), F(1)} | {u for u, v in f.points if u == v}
        for v in sorted(fixed_vals):
            rest = 1 - v
            coords = [v] + [rest * F(m + 1, n * (n + 1) // 2 + n) for m in range(n)]
            total = sum(coords[1:])
            coords[1] += rest - total  # make it exact
            if any(c < 0 for c in coords):
                continue
            x = BaryPoint(coords)
            assert lifted(x)[0] == v


def test_lift_cross_transport():
    rng = random.Random(37)
    for n in (2, 3):
        f = random_homeo(rng, F(0), F(1, n + 1))
        lifted = lambda_lift(f, n)
        for alpha in (F(1, 2 * (n + 1)), F(1, 3 * (n + 1))):
            beta = pl_eval(f, alpha)
            for x in cross_samples(n, alpha, 8):
                y = lifted(x)
                assert on_cross(y, beta)
                for slot in range(n + 1):
                    assert (x[slot] == alpha) == (y[slot] == beta)


def test_lift_preserves_equality_patterns():
    rng = random.Random(41)
    f = random_homeo(rng, F(0), F(1, 4))
    lifted = lambda_lift(f, 3)
    pts = [
        BaryPoint([F(1, 6), F(1, 6), F(1, 3), F(1, 3)]),
        BaryPoint([F(1, 8), F(1, 8), F(1, 8), F(5, 8)]),
        BaryPoint([0, 0, F(1, 2), F(1, 2)]),
    ]
    for x in pts:
        y = lifted(x)
        for a in range(4):
            for b in range(4):
                assert (x[a] == x[b]) == (y[a] == y[b])


# ---------------------------------------------------------------------------
# Layer extension


def test_layer_extension_identity_cases():
    ident = extend_from_layer(lambda b: b, 0, 0, 2, phi_inverse=lambda b: b)
    for x in small_grid(2):
        assert ident(x) == x
    top = extend_from_layer(lambda b: b, F(1, 3), F(1, 3), 2, phi_inverse=lambda b: b)
    for x in small_grid(2):
        assert top(x) == x


def _layer_phi(n, alpha, beta):
    """A genuine layer homeomorphism: restriction of a lift moving α to β."""
    f = sigma_polygon(alpha, beta, F(1, n + 1))
    lifted = lambda_lift(f, n)
    return lifted, lifted.inverse_at


def test_layer_extension_restricts_to_phi():
    n, alpha, beta = 2, F(1, 6), F(1, 8)
    lifted, lifted_inv = _layer_phi(n, alpha, beta)
    ext = extend_from_layer(lifted, alpha, beta, n, phi_inverse=lifted_inv)
    for x in layer_samples(n, alpha, 10):
        assert ext(x) == lifted(x)
    assert ext(center(n)) == center(n)


def test_layer_extension_maps_layers_to_layers():
    n, alpha, beta = 2, F(1, 6), F(1, 8)
    lifted, lifted_inv = _layer_phi(n, alpha, beta)
    ext = extend_from_layer(lifted, alpha, beta, n, phi_inverse=lifted_inv)
    for gamma in (F(0), F(1, 12), F(1, 5)):
        levels = {min_value(ext(x)) for x in layer_samples(n, gamma, 8)}
        assert len(levels) == 1  # one layer lands inside one layer
    for x in small_grid(n):
        assert ext.inverse_at(ext(x)) == x


def test_layer_extension_zero_case_agrees_with_direct_formula():
    n = 2
    lifted, lifted_inv = _layer_phi(n, F(1, 6), F(1, 8))
    phi = lambda b: lifted(b)
    ext = extend_from_layer(phi, 0, 0, n, phi_inverse=lambda b: lifted_inv(b))
    for x in small_grid(n):
        if x == center(n):
            continue
        img = phi(project_boundary(x))
        t = min_value(x) * (n + 1)
        expected = BaryPoint(
            tuple(t * ci + (1 - t) * bi for ci, bi in zip(center(n), img))
        )
        assert ext(x) == expected


def test_layer_extension_is_comfort():
    n, alpha, beta = 2, F(1, 6), F(1, 8)
    lifted, lifted_inv = _layer_phi(n, alpha, beta)
    ext = extend_from_layer(lifted, alpha, beta, n, phi_inverse=lifted_inv)
    assert check_comfort(ext, small_grid(n)) == []


# ---------------------------------------------------------------------------
# Boundary extension


def test_boundary_extension_identity():
    ext = extend_from_boundary(lambda b: b, F(1, 6), F(1, 6), 2, phi_inverse=lambda b: b)
    for x in small_grid(2):
        assert ext(x) == x


def _boundary_phi(n, alpha, beta):
    lifted, _ = _layer_phi(n, alpha, beta)
    return lifted  # restriction to the boundary is a boundary homeomorphism


def test_boundary_extension_properties():
    n, alpha, beta = 2, F(1, 6), F(1, 7)
    lifted = _boundary_phi(n, alpha, beta)
    ext = extend_from_boundary(lifted, alpha, beta, n, phi_inverse=lifted.inverse_at)
    assert ext(center(n)) == center(n)
    for b in boundary_samples(n, 12):
        assert ext(b) == lifted(b)  # restriction law
    for x in cross_samples(n, alpha, 12):
        y = ext(x)
        assert on_cross(y, beta)
        for slot in range(n + 1):
            assert (x[slot] == alpha) == (y[slot] == beta)
    for x in small_grid(n):
        assert ext.inverse_at(ext(x)) == x
    assert check_comfort(ext, small_grid(n)) == []


# ---------------------------------------------------------------------------
# Inverse laws as properties

DEN = 48  # breakpoints and cross levels live on the grid (1/(n+1)) * k/DEN


@st.composite
def lifted_maps(draw):
    """(n, f) with f a random increasing polygon fixing 0 and 1/(n+1)."""
    n = draw(st.integers(1, 4))
    return n, draw(pl_homeos(F(1, n + 1), DEN))


@st.composite
def points(draw, n):
    """A rational point of the n-simplex; zeros and ties are frequent."""
    parts = draw(st.lists(st.integers(0, 12), min_size=n + 1, max_size=n + 1))
    if not any(parts):
        parts[draw(st.integers(0, n))] = 1
    return BaryPoint(F(p, sum(parts)) for p in parts)


def reference_lift(f, n):
    """The lift in plain ``Fraction`` arithmetic, as a point function."""
    cval = F(1, n + 1)

    def forward(x):
        if all(c == cval for c in x):
            return tuple(x)
        small = [m for m, c in enumerate(x) if c <= cval]
        y = list(x)
        for m in small:
            y[m] = reference_pl_eval(f, x[m])
        big = [m for m in range(n + 1) if m not in small]
        delta = sum(x[m] - y[m] for m in small) / sum(x[m] - cval for m in big)
        for m in big:
            y[m] = x[m] + delta * (x[m] - cval)
        return tuple(y)

    return forward


@settings(max_examples=300)
@given(st.data())
def test_lift_matches_reference(data):
    n = data.draw(st.integers(1, 5))
    f = data.draw(pl_homeos(F(1, n + 1)) | st.just(sigma_polygon(F(1, 2 * (n + 1)), F(1, 2 * (n + 2)), F(1, n + 1))))
    lifted = lambda_lift(f, n)
    x = data.draw(st.just(center(n)) | lattice_points(n) | coprime_points(n))
    y = lifted(x)
    assert_exactly(y, reference_lift(f, n)(x))
    assert_exactly(lifted.inverse_at(y), reference_lift(pl_inverse(f), n)(y))


def _assert_inverse_laws(h, x, y):
    assert h.inverse_at(h(x)) == x
    assert h(h.inverse_at(y)) == y


@settings(max_examples=150)
@given(st.data())
def test_lift_inverse_laws_property(data):
    n, f = data.draw(lifted_maps())
    _assert_inverse_laws(lambda_lift(f, n), data.draw(points(n)), data.draw(points(n)))


@settings(max_examples=150)
@given(st.data())
def test_boundary_extension_inverse_laws_property(data):
    n, f = data.draw(lifted_maps())
    lifted = lambda_lift(f, n)
    alpha = F(data.draw(st.integers(0, DEN - 1)), DEN * (n + 1))
    beta = pl_eval(f, alpha)
    ext = extend_from_boundary(lifted, alpha, beta, n, phi_inverse=lifted.inverse_at)
    _assert_inverse_laws(ext, data.draw(points(n)), data.draw(points(n)))


# ---------------------------------------------------------------------------
# The ray extensions and the counterexample against their own formulas


def reference_layer_extension(phi, alpha, beta, n):
    """The layer extension written out: the ray through the image of the
    layer point, the parameter through σ on [0, 1/(n+1)] scaled by n+1;
    the identity when both levels are 1/(n+1)."""
    cval = F(1, n + 1)
    if alpha == beta == cval:
        return lambda x: x
    ctr = center(n)
    sig = sigma_polygon(alpha, beta, cval)

    def forward(x):
        a = min_value(x)
        if a == cval:
            return ctr
        ray_foot = project_boundary(phi(project_layer(x, alpha)))
        return segment_eval(ctr, ray_foot, pl_eval(sig, a) * (n + 1))

    return forward


def reference_boundary_extension(phi, alpha, beta, n):
    """The boundary extension written out: phi on the boundary, the ray
    parameter through tau[b] over b = project_boundary(x) inside."""
    cval = F(1, n + 1)
    ctr = center(n)

    def forward(x):
        a = min_value(x)
        if a == 0:
            return phi(x)
        if a == cval:
            return ctr
        b = project_boundary(x)
        c = phi(b)
        return segment_eval(ctr, c, pl_eval(tau_polygon(b, c, alpha, beta), a * (n + 1)))

    return forward


def reference_counterexample_boundary_map(h):
    """On the edge where y has a zero, the smaller of the other two
    coordinates moves through ``h`` and the larger takes up the rest."""

    def warp_pair(u, v):
        if u <= v:
            w = pl_eval(h, u)
            return w, 1 - w
        w = pl_eval(h, v)
        return 1 - w, w

    def boundary_map_with(y):
        slot = y.index(F(0))
        rest = [m for m in range(3) if m != slot]
        out = [F(0)] * 3
        out[rest[0]], out[rest[1]] = warp_pair(y[rest[0]], y[rest[1]])
        return BaryPoint(out)

    return boundary_map_with


def reference_inputs(n):
    """The center, a small grid, boundary points, and layers at several levels."""
    pts = [center(n), *small_grid(n), *boundary_samples(n, 6)]
    if n >= 2:
        pts += multi_zero_samples(n, 6)
    for k in (2, 3, 5, 7):
        pts += layer_samples(n, F(1, k * (n + 1)), 4)
    return pts


def refusing(phi):
    """``phi``, raising on the points whose slot 0 holds the unique largest
    coordinate, so that errors pass through the extensions."""

    def partial(y):
        if all(y[0] > ym for ym in y[1:]):
            raise ValueError(f"refused {format_point(y)}")
        return phi(y)

    return partial


def assert_same_map(homeo, forward, inverse):
    for x in reference_inputs(homeo.dim):
        assert outcome(homeo, x) == outcome(forward, x)
        assert outcome(homeo.inverse_at, x) == outcome(inverse, x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_layer_extension_matches_reference(n):
    cval = F(1, n + 1)
    for alpha, beta in ((cval / 2, cval / 3), (cval / 5, cval / 2), (F(0), F(0)), (cval, cval)):
        levels = (alpha, beta) if alpha != beta else (cval / 2, F(1, 2 * (n + 2)))
        lifted = lambda_lift(sigma_polygon(*levels, cval), n)
        for phi, phi_inv in ((lifted, lifted.inverse_at), (refusing(lifted), refusing(lifted.inverse_at))):
            assert_same_map(
                extend_from_layer(phi, alpha, beta, n, phi_inverse=phi_inv),
                reference_layer_extension(phi, alpha, beta, n),
                reference_layer_extension(phi_inv, beta, alpha, n),
            )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_extension_matches_reference(n):
    cval = F(1, n + 1)
    rotate = lambda y: BaryPoint(y.nums[1:] + y.nums[:1], y.den)  # moves the zeros: off the 0-cross
    cases = [(cval / 2, cval / 3, lambda_lift(sigma_polygon(cval / 2, cval / 3, cval), n))]
    cases.append((F(0), F(0), lambda_lift(sigma_polygon(cval / 2, F(1, 2 * (n + 2)), cval), n)))
    for alpha, beta, lifted in cases:
        for phi, phi_inv in ((lifted, lifted.inverse_at), (refusing(lifted), refusing(lifted.inverse_at))):
            assert_same_map(
                extend_from_boundary(phi, alpha, beta, n, phi_inverse=phi_inv),
                reference_boundary_extension(phi, alpha, beta, n),
                reference_boundary_extension(phi_inv, beta, alpha, n),
            )
    rotated = extend_from_boundary(rotate, 0, 0, n, phi_inverse=rotate)
    reference = reference_boundary_extension(rotate, F(0), F(0), n)
    assert_same_map(rotated, reference, reference)
    assert CrossMismatch in {outcome(rotated, x)[0] for x in small_grid(n)}


def test_boundary_extension_order_failure_matches_reference():
    # The boundary map keeps every zero and every 1/8 in its slot but
    # reverses the order of the coordinates strictly between them, so tau's
    # outputs descend where its inputs ascend.  It is its own inverse.
    n, alpha = 3, F(1, 8)

    def unorder(y):
        slots = sorted((m for m in range(n + 1) if 0 < y[m] < alpha), key=y.__getitem__)
        out = list(y)
        for m, r in zip(slots, reversed(slots)):
            out[m] = y[r]
        return BaryPoint(out)

    homeo = extend_from_boundary(unorder, alpha, alpha, n, phi_inverse=unorder)
    reference = reference_boundary_extension(unorder, alpha, alpha, n)
    assert_same_map(homeo, reference, reference)
    x = segment_eval(center(n), BaryPoint([0, F(1, 20), F(1, 10), F(17, 20)]), F(1, 2))
    got = outcome(homeo, x)
    assert got[0] is NonMonotone and got[1].startswith("outputs not strictly increasing")
    assert got == outcome(reference, x) == outcome(homeo.inverse_at, x)


@settings(max_examples=200)
@given(st.data())
def test_boundary_extension_matches_reference_on_random_lifts(data):
    # The boundary extension of a random lift, at a point with large-prime
    # denominators: either any point, or one on the ray over a boundary
    # point with coordinates on and below the cross.
    n = data.draw(st.integers(1, 4))
    cval = F(1, n + 1)
    f = data.draw(pl_homeos(cval))
    alpha = cval * F(data.draw(st.integers(0, 47)), 48)
    beta = pl_eval(f, alpha)
    lift = lambda_lift(f, n)
    homeo = extend_from_boundary(lift, alpha, beta, n, phi_inverse=lift.inverse_at)
    b = data.draw(boundary_points(n, alpha))
    q = data.draw(st.sampled_from(PRIMES))
    t = F(data.draw(st.integers(1, q - 1)), q)
    for x in (data.draw(coprime_points(n)), segment_eval(center(n), b, t)):
        assert outcome(homeo, x) == outcome(reference_boundary_extension(lift, alpha, beta, n), x)
        reference_inverse = reference_boundary_extension(lift.inverse_at, beta, alpha, n)
        assert outcome(homeo.inverse_at, x) == outcome(reference_inverse, x)
    # tau_at against the polygon at every breakpoint and between any two,
    # with the parameter also unreduced, as the ray passes it.
    c = lift(b)
    tau, levels = tau_polygon(b, c, alpha, beta), cross_levels(alpha, beta, n + 1)
    inputs = [F(u, du) for u, du, _, _ in _tau_breakpoints(b, c, levels)]
    for s in inputs + [(u0 + u1) / 2 for u0, u1 in zip(inputs, inputs[1:])]:
        for scale in (1, data.draw(st.sampled_from(PRIMES))):
            assert tau_at(b, c, levels, s.numerator * scale, s.denominator * scale) == pl_eval(tau, s)


def test_counterexample_matches_reference():
    q = F
    g = polygon([(0, 0), (q(1, 4), q(1, 8)), (q(1, 3), q(1, 3)), (q(1, 2), q(1, 2))])
    phi = reference_counterexample_boundary_map(g)
    phi_inv = reference_counterexample_boundary_map(pl_inverse(g))
    homeo = counterexample_map()
    assert_same_map(
        homeo,
        reference_boundary_extension(phi, F(0), F(0), 2),
        reference_boundary_extension(phi_inv, F(0), F(0), 2),
    )
    for y in boundary_samples(2, 6) + multi_zero_samples(2, 6):  # the boundary maps themselves
        assert homeo(y) == phi(y) and homeo.inverse_at(y) == phi_inv(y)


# ---------------------------------------------------------------------------
# Conformance checking


def test_check_comfort_passes_identity_and_lift():
    assert check_comfort(identity_homeo(2), small_grid(2)) == []
    assert check_comfort(lambda_lift(sigma_polygon(F(1, 8), F(1, 10), F(1, 4)), 3), small_grid(3)) == []


def test_check_comfort_flags_rotation():
    # Rotating the coordinates is a homeomorphism but neither respects
    # permutations nor keeps the order.
    rot = SimplexHomeo(
        2,
        lambda x: apply_perm(x, (1, 2, 0)),
        lambda y: apply_perm(y, (2, 0, 1)),
    )
    kinds = {v.kind for v in check_comfort(rot, small_grid(2))}
    assert "permutation" in kinds
    assert "order" in kinds


def test_check_comfort_reports_a_raising_inverse():
    def refuse(y):
        raise ValueError("no preimage")

    grid = small_grid(2)
    violations = check_comfort(SimplexHomeo(2, lambda x: x, refuse), grid)
    assert [v.kind for v in violations] == ["bijectivity"] * len(grid)
    assert {v.actual for v in violations} == {"ValueError: no preimage"}


def test_check_comfort_reports_a_raising_map():
    # Defined only where the first coordinate is a smallest one: grid
    # points outside fail the round trip, permuted points the permutation
    # check, and both name the exception.
    def partial(x):
        if x[0] != min(x):
            raise ValueError("outside the section")
        return x

    grid = small_grid(2)
    violations = check_comfort(SimplexHomeo(2, partial, partial), grid)
    named = {(v.kind, v.actual) for v in violations}
    assert named == {
        ("permutation", "ValueError: outside the section"),
        ("bijectivity", "ValueError: outside the section"),
    }
    outside = [x for x in grid if x[0] != min(x)]
    assert [v.witness for v in violations if v.kind == "bijectivity"] == [
        f"x={format_point(x)}" for x in outside
    ]


def test_check_comfort_json_shape():
    assert check_comfort(identity_homeo(1), small_grid(1)) == []
    # Swapping the two coordinates respects permutations and is its own
    # inverse, but reverses the order: one violation, with its witness.
    swap = lambda x: apply_perm(x, (1, 0))
    assert check_comfort(SimplexHomeo(1, swap, swap), [BaryPoint([F(1, 4), F(3, 4)])]) == [
        ComfortViolation("order", "x=[1/4,3/4] slots=(0,1)", "y[0] <= y[1]", "[3/4,1/4]")
    ]


# ---------------------------------------------------------------------------
# The non-lift counterexample


def test_counterexample_paper_values():
    F2 = counterexample_map()
    assert F2(BaryPoint([0, F(1, 8), F(7, 8)])) == BaryPoint([0, F(1, 16), F(15, 16)])
    assert F2(BaryPoint([0, F(3, 10), F(7, 10)])) == BaryPoint([0, F(1, 4), F(3, 4)])
    assert F2(BaryPoint([0, F(1, 2), F(1, 2)])) == BaryPoint([0, F(1, 2), F(1, 2)])


def test_counterexample_fixes_layers_but_is_not_a_lift():
    F2 = counterexample_map()
    for x in small_grid(2):
        assert min_value(F2(x)) == min_value(x)  # every layer is preserved
    # A lift preserving every layer would have to come from the identity,
    # but the map moves boundary points.
    moved = BaryPoint([0, F(1, 8), F(7, 8)])
    assert F2(moved) != moved


def test_counterexample_is_comfort():
    F2 = counterexample_map()
    assert check_comfort(F2, small_grid(2)) == []
    for x in small_grid(2):
        assert F2.inverse_at(F2(x)) == x
