import importlib
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexboundary.comfort import check_comfort, extend_from_boundary
from simplexboundary.geometry import (
    BaryPoint,
    format_rational,
    apply_perm,
    canonical_grid,
    center,
    min_value,
    on_cross,
    vertex,
)
from simplexboundary.pl1d import kappa, pl_eval, restrict, sigma_polygon
from simplexboundary.theta import (
    FaceMap,
    ThetaKey,
    UnsupportedL,
    WrongSlotValue,
    _face_steps,
    check_family,
    face_delete,
    face_insert,
    theta,
    theta1_on_face,
)

from samplers import boundary_samples, cross_samples, multi_zero_samples
from test_comfort import points
from test_geometry import assert_exactly, assert_same_outcome, coprime_points, lattice_points


def small_grid(n, k=10):
    return canonical_grid(n, sponge_cap=k, random_count=k)


# ---------------------------------------------------------------------------
# Face maps


def test_face_insert_examples():
    assert face_insert(FaceMap(1, 1, 1, 0), BaryPoint([1])) == BaryPoint([F(1, 4), F(3, 4)])
    assert face_insert(FaceMap(1, 2, 0, 0), BaryPoint([F(1, 6), F(5, 6)])) == BaryPoint(
        [0, F(1, 6), F(5, 6)]
    )
    assert face_insert(FaceMap(1, 2, 1, 1), BaryPoint([F(1, 5), F(4, 5)])) == BaryPoint(
        [F(1, 6), F(1, 6), F(2, 3)]
    )


def test_face_insert_dimension_check():
    with pytest.raises(ValueError):
        face_insert(FaceMap(1, 2, 0, 0), BaryPoint([1]))


def test_face_delete_examples():
    key = FaceMap(1, 3, 1, 1)  # inserted value 1/8, removal rescales by 8/7
    y = BaryPoint([0, F(1, 8), F(1, 4), F(5, 8)])
    assert face_delete(key, y) == BaryPoint([0, F(2, 7), F(5, 7)])
    with pytest.raises(WrongSlotValue):
        face_delete(key, BaryPoint([F(1, 8), 0, F(1, 4), F(5, 8)]))


def test_face_delete_is_left_inverse():
    for L in (0, 1):
        for n in (1, 2, 3):
            grid = small_grid(n - 1, 6)
            for i in range(L + 1):
                for j in range(n + 1):
                    key = FaceMap(L, n, i, j)
                    for x in grid:
                        assert face_delete(key, face_insert(key, x)) == x


@settings(max_examples=200)
@given(st.data())
def test_face_delete_inverts_face_insert_property(data):
    L = data.draw(st.integers(0, 1))
    n = data.draw(st.integers(1, 5))
    key = FaceMap(L, n, data.draw(st.integers(0, L)), data.draw(st.integers(0, n)))
    x = data.draw(points(n - 1))
    assert face_delete(key, face_insert(key, x)) == x


def reference_face_insert(key, x):
    if len(x) != key.n:
        raise ValueError(f"face map expects dimension {key.n - 1}, got {len(x) - 1}")
    v = key.v
    coords = [(1 - v) * c for c in x]
    coords.insert(key.j, v)
    return coords


def reference_face_delete(key, y):
    if len(y) != key.n + 1:
        raise ValueError(f"face deletion expects dimension {key.n}, got {len(y) - 1}")
    if y[key.j] != key.v:
        raise WrongSlotValue(
            f"slot {key.j} holds {format_rational(y[key.j])}, expected {format_rational(key.v)}"
        )
    scale = 1 / (1 - key.v)
    return [scale * c for m, c in enumerate(y) if m != key.j]


@settings(max_examples=300)
@given(st.data())
def test_face_maps_match_fraction_formulas(data):
    L = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(1, 7))
    key = FaceMap(L, n, data.draw(st.integers(0, L)), data.draw(st.integers(0, n)))
    x = data.draw(coprime_points(n - 1))
    y = face_insert(key, x)
    assert_exactly(y, reference_face_insert(key, x))
    assert_exactly(face_delete(key, y), reference_face_delete(key, y))


@settings(max_examples=300)
@given(st.data())
def test_face_maps_match_fraction_formulas_errors_included(data):
    """On any point, of the right dimension or one off, with slot j holding
    v, a value just beside it, or anything: the face maps return what the
    ``Fraction`` formulas return, or raise the same error."""
    L = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(1, 6))
    key = FaceMap(L, n, data.draw(st.integers(0, L)), data.draw(st.integers(0, n)))
    m = data.draw(st.sampled_from((n - 1, n - 1, n, n + 1)))
    x = data.draw(coprime_points(m) | lattice_points(m))
    assert_same_outcome(face_insert, reference_face_insert, key, x)
    m = data.draw(st.sampled_from((n, n, n, n - 1, n + 1)))
    y = data.draw(coprime_points(m) | lattice_points(m))
    if m == n and data.draw(st.booleans()):
        # Slot j holds v, or v plus or minus 1/q (v >= 1/28 when i > 0);
        # the other slots share 1 minus it.
        q = data.draw(st.sampled_from((29, 10_007)))
        c = key.v + data.draw(st.sampled_from((0, 0, F(1, q)) + ((-F(1, q),) if key.i else ())))
        coords = [(1 - c) * zk for zk in data.draw(coprime_points(n - 1) | lattice_points(n - 1))]
        coords.insert(key.j, c)
        y = BaryPoint(coords)
    assert_same_outcome(face_delete, reference_face_delete, key, y)


@st.composite
def shared_factor_points(draw, n, K):
    """A point over D = K**e * s, e <= 3: for e > 0 its denominator shares
    every prime of K, so the gcd of a face insertion can reach its bound."""
    D = K ** draw(st.integers(0, 3)) * draw(st.sampled_from((1, 2, 3, 10_007)))
    cuts = sorted(draw(st.lists(st.integers(0, D), min_size=n, max_size=n)))
    return BaryPoint([hi - lo for lo, hi in zip([0] + cuts, cuts + [D])], D)


@settings(max_examples=300)
@given(st.data())
def test_face_insert_gcd_bound_changes_no_point(data):
    # face_insert seeds the gcd with K*(K-i); the unbounded construction of
    # the same numerators over the same denominator gives the same point.
    L = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(1, 7))
    i = data.draw(st.integers(0, L))
    key = FaceMap(L, n, i, data.draw(st.integers(0, n)))
    K = key.denominator
    x = data.draw(coprime_points(n - 1) | lattice_points(n - 1) | shared_factor_points(n - 1, K))
    nums = [xm * (K - i) for xm in x.nums]
    nums.insert(key.j, i * x.den)
    bounded, unbounded = face_insert(key, x), BaryPoint(nums, x.den * K)
    assert (bounded.nums, bounded.den) == (unbounded.nums, unbounded.den)


@settings(max_examples=60)
@given(st.data())
def test_zero_value_face_maps_match_spliced_fractions(data):
    # Inserting v = 0 keeps the numerators and the denominator; check it
    # against the point built from the coordinates with a 0 spliced in.
    xs = [data.draw(coprime_points(m) | lattice_points(m) | points(m)) for m in range(6)]
    for L in range(4):
        for n in range(1, 7):
            x = xs[n - 1]
            for j in range(n + 1):
                key = FaceMap(L, n, 0, j)
                y = face_insert(key, x)
                spliced = list(x)
                spliced.insert(j, F(0))
                want = BaryPoint(spliced)
                assert (y.nums, y.den) == (want.nums, want.den)
                back = face_delete(key, y)
                assert (back.nums, back.den) == (x.nums, x.den)
                for z in (y, back):
                    assert math.gcd(z.den, *z.nums) == 1


def test_face_insert_respects_permutations():
    # Permuting the inputs permutes the non-inserted outputs identically.
    key = FaceMap(1, 3, 1, 1)
    x = BaryPoint([F(1, 6), F(2, 6), F(3, 6)])
    for perm in itertools.permutations(range(3)):
        lifted = [0, 1, 2, 3]
        positions = [m for m in range(4) if m != key.j]
        for slot, src in zip(positions, perm):
            lifted[slot] = positions[src]
        lifted[key.j] = key.j
        assert face_insert(key, apply_perm(x, perm)) == apply_perm(
            face_insert(key, x), tuple(lifted)
        )


def test_face_map_parameter_validation():
    with pytest.raises(ValueError):
        FaceMap(1, 2, 2, 0)
    with pytest.raises(ValueError):
        FaceMap(1, 2, 0, 3)
    assert FaceMap(1, 2, 1, 0).v == F(1, 6)
    assert FaceMap(0, 2, 0, 1).v == 0


# ---------------------------------------------------------------------------
# The homeomorphism family


def test_theta_level_zero_is_identity():
    for n in (0, 1, 2, 3):
        t = theta(ThetaKey(0, n, 0))
        for x in small_grid(n, 5):
            assert t(x) == x


def test_theta_base_values():
    assert theta(ThetaKey(1, 1, 0))(BaryPoint([F(1, 4), F(3, 4)])) == BaryPoint([F(1, 6), F(5, 6)])
    assert theta(ThetaKey(1, 1, 1))(BaryPoint([F(1, 4), F(3, 4)])) == BaryPoint([F(1, 5), F(4, 5)])
    assert theta(ThetaKey(1, 2, 1))(BaryPoint([0, F(1, 6), F(5, 6)])) == BaryPoint(
        [0, F(1, 7), F(6, 7)]
    )


def test_theta_dim1_matches_diagonal_kappa():
    # kappa on [0, 1/2] is the polygon 1/4 -> 1/5 of the base's levels.
    assert restrict(kappa(), 0, F(1, 2)) == sigma_polygon(F(1, 4), F(1, 5), F(1, 2))
    t = theta(ThetaKey(1, 1, 1))
    k = kappa()
    for a in range(0, 13):
        x = F(a, 12)
        assert t(BaryPoint([x, 1 - x])) == BaryPoint([pl_eval(k, x), pl_eval(k, 1 - x)])


def test_theta_cache_returns_same_object():
    assert theta(ThetaKey(1, 2, 1)) is theta(ThetaKey(1, 2, 1))


def test_built_theta1_looks_up_no_theta(monkeypatch):
    # The face composite's lower Θ maps are resolved when Θ(1,3,1) is
    # built, so evaluating it on the boundary, both ways, looks up none.
    theta_module = importlib.import_module("simplexboundary.theta")  # the package binds the function
    t = theta(ThetaKey(1, 3, 1))
    calls = []

    def counting(key):
        calls.append(key)
        return theta(key)

    monkeypatch.setattr(theta_module, "theta", counting)
    for x in multi_zero_samples(3, 10):
        assert t.inverse_at(t(x)) == x
    assert calls == []


def test_theta_dim_cap():
    # The cap binds only the inductive maps: lifts and L = 0 build past it.
    assert theta(ThetaKey(1, 12, 0))(center(12)) == center(12)
    assert theta(ThetaKey(0, 12, 0))(vertex(12, 3)) == vertex(12, 3)


def test_check_family_says_which_theta_exist():
    check_family(0, 100)
    check_family(1, 8)
    for args, message in [
        ((2,), "the homeomorphism family exists for L in {0,1}, got 2"),
        ((-1, 9), "the homeomorphism family exists for L in {0,1}, got -1"),
        ((1, 9), "Θ(1,9,1) is past the cap: the inductive family is built up to dimension 8"),
        ((1, 12), "Θ(1,12,1) is past the cap: the inductive family is built up to dimension 8"),
    ]:
        with pytest.raises(UnsupportedL) as exc:
            check_family(*args)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# The face construction


def test_theta1_on_face_requires_zero_slot():
    with pytest.raises(WrongSlotValue):
        theta1_on_face(2, 0, BaryPoint([F(1, 6), F(1, 6), F(2, 3)]))


def test_theta1_on_face_known_value():
    assert theta1_on_face(2, 0, BaryPoint([0, F(1, 6), F(5, 6)])) == BaryPoint(
        [0, F(1, 7), F(6, 7)]
    )


def test_theta1_on_face_sends_vertices_to_vertices():
    for n in (2, 3):
        for j in range(n + 1):
            for m in range(n + 1):
                if m == j:
                    continue
                out = theta1_on_face(n, j, vertex(n, m))
                assert out == vertex(n, m)


def test_theta1_face_consistency_on_overlaps():
    # Points on two faces must get the same value through either face.
    for n in (2, 3):
        for y in multi_zero_samples(n, 10):
            zero_slots = [m for m, c in enumerate(y) if c == 0]
            values = {theta1_on_face(n, j, y) for j in zero_slots}
            assert len(values) == 1


# Reference: the composite written for face 0 only, run on face j
# conjugated by the transposition of slots 0 and j.  The per-face tables
# must reproduce it exactly, forward and inverse.


def reference_face0_steps(dim):
    lift = theta(ThetaKey(1, dim - 1, 0))
    lower = theta(ThetaKey(1, dim - 1, 1))
    relift = theta(ThetaKey(1, dim, 0))

    def inserting(key):
        return (lambda x: face_insert(key, x)), (lambda y: face_delete(key, y))

    def deleting(key):
        insert, delete = inserting(key)
        return delete, insert

    return (
        deleting(FaceMap(1, dim, 0, 0)),
        (lift.inverse_at, lift),
        (lower, lower.inverse_at),
        inserting(FaceMap(1, dim, 1, 0)),
        (relift, relift.inverse_at),
        inserting(FaceMap(1, dim + 1, 0, 0)),
        deleting(FaceMap(1, dim + 1, 1, 1)),
    )


def reference_on_face(maps, j, y):
    swap = list(range(len(y)))
    swap[0], swap[j] = j, 0
    y = apply_perm(y, swap)
    for step in maps:
        y = step(y)
    return apply_perm(y, swap)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_face_tables_match_conjugated_face0_composite(n):
    steps = reference_face0_steps(n)
    forward = [step for step, _ in steps]
    backward = [inverse for _, inverse in reversed(steps)]
    t = theta(ThetaKey(1, n, 1))
    for y in boundary_samples(n, 4 * (n + 1), seed=11) + multi_zero_samples(n, 24, seed=11):
        for j in (m for m, c in enumerate(y) if c == 0):
            image = theta1_on_face(n, j, y)
            assert_exactly(image, reference_on_face(forward, j, y))
            back = reference_on_face(backward, j, y)
            table_back = y
            for _, inverse in reversed(_face_steps(n, j)):
                table_back = inverse(table_back)
            assert_exactly(table_back, back)
            assert_exactly(t.inverse_at(y), back)
            assert t.inverse_at(image) == y
            assert t(back) == y


def induction_step_at_dimension_one(beta):
    """The inductive construction run at n = 1: the boundary extension,
    levels 1/4 -> ``beta``, of the map that walks ``_face_steps(1, j)``
    on the vertex with slot j zero, with the inverse walking it back."""
    tables = [_face_steps(1, j) for j in range(2)]

    def on_boundary(b):
        for step, _ in tables[b.nums.index(0)]:
            b = step(b)
        return b

    def on_boundary_inverse(c):
        for _, inverse in reversed(tables[c.nums.index(0)]):
            c = inverse(c)
        return c

    return extend_from_boundary(on_boundary, F(1, 4), beta, 1, on_boundary_inverse)


def test_induction_base_is_the_kappa_lift_as_maps():
    """The induction started one dimension early reproduces its base, the
    kappa lift Θ(1,1,1), as maps and not only on samples.

    In x_0, both forward maps are piecewise linear with breakpoints in
    {1/4, 1/2, 3/4}: they bend where the smaller coordinate is 1/4
    (kappa's 1/4 -> 1/5, or the level of the tau polygon), and at 1/2 the
    smaller coordinate, and with it the ray, switches.  Both inverses bend
    where the smaller coordinate is 1/5, so in {1/5, 1/2, 4/5}.  Every
    piece of either map holds at least two of the points x_0 = k/8, and a
    linear piece is fixed by two points, so agreement at all nine k/8
    means equality on [0, 1].
    """
    kappa_lift = theta(ThetaKey(1, 1, 1))
    probes = [BaryPoint([F(k, 8), 1 - F(k, 8)]) for k in range(9)]
    built = induction_step_at_dimension_one(F(1, 5))
    for x in probes:
        assert built(x) == kappa_lift(x)
        assert built.inverse_at(x) == kappa_lift.inverse_at(x)
    # The probes see a wrong target level.
    wrong = induction_step_at_dimension_one(F(1, 6))
    assert any(wrong(x) != kappa_lift(x) for x in probes)


def test_theta1_full_restricts_to_faces():
    t = theta(ThetaKey(1, 2, 1))
    for y in cross_samples(2, F(0), 12):
        j = list(y).index(F(0))
        assert t(y) == theta1_on_face(2, j, y)


def test_theta1_cross_transport():
    for n in (2, 3):
        t = theta(ThetaKey(1, n, 1))
        alpha = F(1, 2 * (n + 1))
        beta = F(1, 2 * (n + 1) + 1)
        for x in cross_samples(n, alpha, 8):
            y = t(x)
            assert on_cross(y, beta)
            for slot in range(n + 1):
                assert (x[slot] == alpha) == (y[slot] == beta)


def test_theta0_cross_transport():
    # The lift of the polygon 1/(2(n+1)) -> 1/(2(n+2)) on [0, 1/(n+1)]: it
    # fixes the vertices and the center, where the polygon fixes 0 and
    # 1/(n+1), and carries the one cross onto the other slot by slot.
    for n in range(1, 7):
        t = theta(ThetaKey(1, n, 0))
        alpha = F(1, 2 * (n + 1))
        beta = F(1, 2 * (n + 2))
        assert t(center(n)) == center(n) and t(vertex(n, n)) == vertex(n, n)
        for x in cross_samples(n, alpha, 8):
            y = t(x)
            assert on_cross(y, beta)
            for slot in range(n + 1):
                assert (x[slot] == alpha) == (y[slot] == beta)


def test_theta_fixes_center():
    for n in (1, 2, 3):
        for i in (0, 1):
            assert theta(ThetaKey(1, n, i))(center(n)) == center(n)


def test_theta_comfort_small():
    for n in (1, 2):
        for i in (0, 1):
            t = theta(ThetaKey(1, n, i))
            assert check_comfort(t, small_grid(n, 8)) == []


def test_theta_preserves_min_ordering():
    # Order-keeping in particular sends each layer into a single layer.
    t = theta(ThetaKey(1, 2, 1))
    for x in small_grid(2, 8):
        y = t(x)
        assert (min_value(x) == 0) == (min_value(y) == 0)


# ---------------------------------------------------------------------------
# Properties on random rational points


@settings(max_examples=150)
@given(st.data())
def test_theta1_inverse_laws_property(data):
    n = data.draw(st.integers(1, 3))
    t = theta(ThetaKey(1, n, 1))
    x, y = data.draw(points(n)), data.draw(points(n))
    assert t.inverse_at(t(x)) == x
    assert t(t.inverse_at(y)) == y


@settings(max_examples=100)
@given(st.data())
def test_theta_respects_permutations_property(data):
    n = data.draw(st.integers(1, 3))
    t = theta(ThetaKey(1, n, data.draw(st.integers(0, 1))))
    x = data.draw(points(n))
    perm = tuple(data.draw(st.permutations(range(n + 1))))
    assert t(apply_perm(x, perm)) == apply_perm(t(x), perm)
