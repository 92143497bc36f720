import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexboundary.comfort import (
    BadDomain,
    BadLevels,
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
    boundary_samples,
    canonical_grid,
    center,
    cross_samples,
    format_point,
    layer_samples,
    min_value,
    on_cross,
    project_boundary,
)
from simplexboundary.pl1d import identity_map, phi_n0, pl_compose, pl_eval, polygon, sigma_polygon

from test_pl1d import pl_homeos, random_homeo


def small_grid(n, k=12):
    return canonical_grid(n, sponge_cap=k, random_count=k)


# ---------------------------------------------------------------------------
# The lift


def test_lift_paper_values():
    t = lambda_lift(phi_n0(1), 1)
    assert t(BaryPoint([F(1, 4), F(3, 4)])) == BaryPoint([F(1, 6), F(5, 6)])
    t2 = lambda_lift(phi_n0(2), 2)
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
        fixed_vals = {F(0), F(1, n + 1), F(1)} | set(f.fixed_points())
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


def test_layer_extension_level_errors():
    with pytest.raises(BadLevels):
        extend_from_layer(lambda b: b, 0, F(1, 6), 2, phi_inverse=lambda b: b)
    with pytest.raises(BadLevels):
        extend_from_layer(lambda b: b, F(1, 3), F(1, 6), 2, phi_inverse=lambda b: b)


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
    report = check_comfort(ext, small_grid(n), map_id="layer-extension")
    assert report.passed, report.to_json_text()


# ---------------------------------------------------------------------------
# Boundary extension


def test_boundary_extension_identity():
    ext = extend_from_boundary(lambda b: b, F(1, 6), F(1, 6), 2, phi_inverse=lambda b: b)
    for x in small_grid(2):
        assert ext(x) == x


def test_boundary_extension_level_errors():
    with pytest.raises(BadLevels):
        extend_from_boundary(lambda b: b, F(1, 3), F(1, 6), 2, phi_inverse=lambda b: b)


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
    report = check_comfort(ext, small_grid(n), map_id="boundary-extension")
    assert report.passed, report.to_json_text()


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
# Conformance checking


def test_check_comfort_passes_identity_and_lift():
    assert check_comfort(identity_homeo(2), small_grid(2)).passed
    report = check_comfort(lambda_lift(phi_n0(3), 3), small_grid(3))
    assert report.passed
    assert report.samples_checked == len(small_grid(3))


def test_check_comfort_flags_rotation():
    # Rotating the coordinates is a homeomorphism but neither respects
    # permutations nor keeps the order.
    rot = SimplexHomeo(
        2,
        lambda x: apply_perm(x, (1, 2, 0)),
        lambda y: apply_perm(y, (2, 0, 1)),
        label="rotation",
    )
    report = check_comfort(rot, small_grid(2))
    assert not report.passed
    kinds = {v.kind for v in report.violations}
    assert "permutation" in kinds
    assert "order" in kinds


def test_check_comfort_reports_a_raising_inverse():
    def refuse(y):
        raise ValueError("no preimage")

    grid = small_grid(2)
    report = check_comfort(SimplexHomeo(2, lambda x: x, refuse, label="one-way"), grid)
    assert [v.kind for v in report.violations] == ["bijectivity"] * len(grid)
    assert {v.actual for v in report.violations} == {"ValueError: no preimage"}
    assert report.samples_checked == len(grid)


def test_check_comfort_reports_a_raising_map():
    # Defined only where the first coordinate is a smallest one: grid
    # points outside fail the round trip, permuted points the permutation
    # check, and both name the exception.
    def partial(x):
        if x[0] != min(x):
            raise ValueError("outside the section")
        return x

    grid = small_grid(2)
    report = check_comfort(SimplexHomeo(2, partial, partial, label="partial"), grid)
    named = {(v.kind, v.actual) for v in report.violations}
    assert named == {
        ("permutation", "ValueError: outside the section"),
        ("bijectivity", "ValueError: outside the section"),
    }
    outside = [x for x in grid if x[0] != min(x)]
    assert [v.witness for v in report.violations if v.kind == "bijectivity"] == [
        f"x={format_point(x)}" for x in outside
    ]


def test_check_comfort_json_shape():
    report = check_comfort(identity_homeo(1), small_grid(1), map_id="id1")
    data = report.to_json()
    assert data["map_id"] == "id1"
    assert data["n"] == 1
    assert data["violations"] == []


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
    report = check_comfort(F2, small_grid(2), map_id="counterexample")
    assert report.passed, report.to_json_text()
    for x in small_grid(2):
        assert F2.inverse_at(F2(x)) == x
