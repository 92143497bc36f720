import importlib
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexboundary.comfort import check_comfort
from simplexboundary.geometry import (
    BaryPoint,
    apply_perm,
    boundary_samples,
    canonical_grid,
    center,
    cross_samples,
    min_value,
    multi_zero_samples,
    on_cross,
    vertex,
)
from simplexboundary.pl1d import kappa, pl_eval
from simplexboundary.theta import (
    FaceMap,
    NotOnFace,
    ThetaKey,
    UnsupportedL,
    WrongSlotValue,
    _face_steps,
    face_delete,
    face_insert,
    theta,
    theta1_on_face,
)

from test_comfort import points
from test_geometry import assert_exactly, coprime_points


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
    v = key.v
    coords = [(1 - v) * c for c in x]
    coords.insert(key.j, v)
    return coords


def reference_face_delete(key, y):
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


def test_theta_unsupported_level():
    with pytest.raises(UnsupportedL):
        ThetaKey(2, 1, 0)


def test_theta_base_values():
    assert theta(ThetaKey(1, 1, 0))(BaryPoint([F(1, 4), F(3, 4)])) == BaryPoint([F(1, 6), F(5, 6)])
    assert theta(ThetaKey(1, 1, 1))(BaryPoint([F(1, 4), F(3, 4)])) == BaryPoint([F(1, 5), F(4, 5)])
    assert theta(ThetaKey(1, 2, 1))(BaryPoint([0, F(1, 6), F(5, 6)])) == BaryPoint(
        [0, F(1, 7), F(6, 7)]
    )


def test_theta_dim1_matches_diagonal_kappa():
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
    with pytest.raises(ValueError, match="up to dimension 6"):
        theta(ThetaKey(1, 7, 1))


# ---------------------------------------------------------------------------
# The face construction


def test_theta1_on_face_requires_zero_slot():
    with pytest.raises(NotOnFace):
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
    for n in (2, 3):
        t = theta(ThetaKey(1, n, 0))
        alpha = F(1, 2 * (n + 1))
        beta = F(1, 2 * (n + 2))
        for x in cross_samples(n, alpha, 8):
            assert on_cross(t(x), beta)


def test_theta_fixes_center():
    for n in (1, 2, 3):
        for i in (0, 1):
            assert theta(ThetaKey(1, n, i))(center(n)) == center(n)


def test_theta_comfort_small():
    for n in (1, 2):
        for i in (0, 1):
            t = theta(ThetaKey(1, n, i))
            report = check_comfort(t, small_grid(n, 8), map_id=t.label)
            assert report.passed, report.to_json_text()


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
