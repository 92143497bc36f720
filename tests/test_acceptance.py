"""Acceptance suite: one test per criterion, exact equality throughout.

Every check asserts bit-exact rational equality (zero tolerance).  Each
test prints one pass line; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the lines also on success).
"""

import random
import time
from fractions import Fraction as F

from simplexboundary.chain import (
    CoefficientTuple,
    chain_of_term,
    check_boundary_squared,
    check_equation,
    equation_instances,
    identity_term,
)
from simplexboundary.comfort import (
    check_comfort,
    counterexample_map,
    extend_from_boundary,
    extend_from_layer,
    lambda_lift,
)
from simplexboundary.geometry import (
    BaryPoint,
    canonical_grid,
    center,
    cross_samples,
    min_value,
    multi_zero_samples,
    on_cross,
)
from simplexboundary.pl1d import phi_n0, pl_compose, pl_eval, sigma_polygon
from simplexboundary.theta import (
    FaceMap,
    ThetaKey,
    face_delete,
    face_insert,
    theta,
    theta1_on_face,
)

from test_pl1d import random_homeo


def _report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion}] {text}: PASS")


def test_criterion_1_paper_value_fixtures():
    start = time.monotonic()
    q = F

    assert theta(ThetaKey(1, 1, 0))(BaryPoint([q(1, 4), q(3, 4)])) == BaryPoint([q(1, 6), q(5, 6)])
    assert theta(ThetaKey(1, 1, 1))(BaryPoint([q(1, 4), q(3, 4)])) == BaryPoint([q(1, 5), q(4, 5)])
    assert pl_eval(phi_n0(2), q(1, 6)) == q(1, 8)
    assert face_insert(FaceMap(1, 1, 1, 0), BaryPoint([1])) == BaryPoint([q(1, 4), q(3, 4)])

    # Commuting square values on the single point of the 0-simplex.
    one = BaryPoint([1])
    fig3 = face_insert(
        FaceMap(1, 2, 0, 0),
        theta(ThetaKey(1, 1, 0))(face_insert(FaceMap(1, 1, 1, 0), one)),
    )
    assert fig3 == BaryPoint([0, q(1, 6), q(5, 6)])
    fig4 = face_insert(
        FaceMap(1, 2, 1, 0),
        theta(ThetaKey(1, 1, 1))(face_insert(FaceMap(1, 1, 1, 0), one)),
    )
    assert fig4 == BaryPoint([q(1, 6), q(1, 6), q(2, 3)])

    assert theta(ThetaKey(1, 2, 1))(BaryPoint([0, q(1, 6), q(5, 6)])) == BaryPoint(
        [0, q(1, 7), q(6, 7)]
    )

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"fixtures took {elapsed:.2f}s"
    _report(1, f"paper-value fixtures exact in {elapsed * 1000:.0f}ms")


def test_criterion_2_equation_suite():
    start = time.monotonic()
    failures = []
    for L in (1, 0):
        for n in range(1, 5):
            grid = canonical_grid(n - 1)
            if n >= 2:
                assert len(grid) >= 50  # dimension-0 domains hold a single point
            for (j, p, i, k) in equation_instances(n, L):
                res = check_equation(n, j, p, i, k, grid, L)
                if not res.verdict:
                    failures.append((L, n, j, p, i, k, res.witnesses[:1]))
    elapsed = time.monotonic() - start
    assert not failures, failures
    assert elapsed < 120.0, f"equation suite took {elapsed:.1f}s"
    _report(2, f"commutation identity suite L∈{{0,1}}, n≤4 in {elapsed:.1f}s")


def test_criterion_3_cancellation_certificates():
    runs = [(CoefficientTuple([1]),)] + [
        (CoefficientTuple(m),) for m in ([1, 1], [9, 4], [1, -1])
    ]
    for (m,) in runs:
        L = m.L
        for dim in range(1, 5):
            grid = canonical_grid(max(dim - 2, 0), sponge_cap=16, random_count=16)
            res = check_boundary_squared(chain_of_term(identity_term(dim)), m, grid)
            assert res.verdict, res.to_json()
            if dim == 1:
                assert res.trivial and res.summands_total == 0
            else:
                expected = dim * (dim + 1) * (L + 1) ** 2
                assert res.summands_total == expected
                assert res.consumed == expected
                assert res.pairs_checked * 2 == expected
    _report(3, "double boundary cancels pairwise for dims 1..4, all weights")


def test_criterion_4_lift_property_suite():
    rng = random.Random(97)
    for n in (1, 2, 3, 4):
        cval = F(1, n + 1)
        # The 1-simplex lattice only holds 60 sponge points; top up with
        # extra random points so every dimension sees at least 200.
        grid = canonical_grid(n, sponge_cap=100, random_count=140 if n == 1 else 100)
        assert len(grid) >= 200
        maps = [random_homeo(rng, F(0), cval) for _ in range(10)]
        lifts = [lambda_lift(f, n) for f in maps]

        for f, lifted in zip(maps, lifts):
            assert lifted(center(n)) == center(n)
            for x in grid:
                y = lifted(x)
                assert sum(y) == 1
                assert lifted.inverse_at(y) == x

        pairs = list(zip(maps, lifts))
        for (f, lf), (g, lg) in zip(pairs[:5], pairs[5:]):
            composed = lambda_lift(pl_compose(g, f), n)
            for x in grid:
                assert composed(x) == lg(lf(x))

        # Cross transport: a coordinate equal to alpha moves to f(alpha).
        for f, lifted in zip(maps[:4], lifts[:4]):
            for alpha in (F(1, 2 * (n + 1)), F(1, 3 * (n + 1))):
                beta = pl_eval(f, alpha)
                for x in cross_samples(n, alpha, 8, seed=rng.randint(0, 10**6)):
                    y = lifted(x)
                    assert on_cross(y, beta)
                    for slot in range(n + 1):
                        assert (x[slot] == alpha) == (y[slot] == beta)

        # Fixed values: 0, 1/(n+1), 1, and fixed points of f never move.
        for f, lifted in zip(maps[:4], lifts[:4]):
            specials = sorted({F(0), cval, F(1)} | set(f.fixed_points()))
            for v in specials:
                rest = 1 - v
                tail = [rest * F(m + 1, (n * (n + 1)) // 2) for m in range(n)]
                x = BaryPoint([v] + tail)
                assert lifted(x)[0] == v
    _report(4, "lift property suite (sum, morphism, inverse, crosses, fixed values)")


def test_criterion_5_cross_transport_and_face_consistency():
    for n in (2, 3, 4):
        alpha = F(1, 2 * (n + 1))
        t0 = theta(ThetaKey(1, n, 0))
        t1 = theta(ThetaKey(1, n, 1))
        for x in cross_samples(n, alpha, 12):
            assert on_cross(t0(x), F(1, 2 * (n + 2)))
            assert on_cross(t1(x), F(1, 2 * (n + 1) + 1))
        for y in multi_zero_samples(n, 10):
            zero_slots = [m for m, c in enumerate(y) if c == 0]
            values = {theta1_on_face(n, j, y) for j in zero_slots}
            assert len(values) == 1
    _report(5, "cross transport for dims 2..4 and face consistency at overlaps")


def test_criterion_6_comfort_conformance():
    grids = {n: canonical_grid(n, sponge_cap=20, random_count=20) for n in (1, 2, 3, 4)}

    for n in (1, 2, 3, 4):
        for i in (0, 1):
            t = theta(ThetaKey(1, n, i))
            rep = check_comfort(t, grids[n], map_id=t.label)
            assert rep.passed, rep.to_json_text()
        t = theta(ThetaKey(0, n, 0))
        rep = check_comfort(t, grids[n], map_id=t.label)
        assert rep.passed

    # Both extension operators on genuine non-identity inputs.
    lifted = lambda_lift(sigma_polygon(F(1, 6), F(1, 8), F(1, 3)), 2)
    layer_ext = extend_from_layer(lifted, F(1, 6), F(1, 8), 2, phi_inverse=lifted.inverse_at)
    rep = check_comfort(layer_ext, grids[2], map_id="layer-extension")
    assert rep.passed, rep.to_json_text()

    lifted2 = lambda_lift(sigma_polygon(F(1, 6), F(1, 7), F(1, 3)), 2)
    boundary_ext = extend_from_boundary(
        lifted2, F(1, 6), F(1, 7), 2, phi_inverse=lifted2.inverse_at
    )
    rep = check_comfort(boundary_ext, grids[2], map_id="boundary-extension")
    assert rep.passed, rep.to_json_text()

    # The counterexample: comfortable, layer-fixing, but not the lift its
    # layer behaviour would force (that lift is the identity).
    ce = counterexample_map()
    rep = check_comfort(ce, grids[2], map_id="counterexample")
    assert rep.passed, rep.to_json_text()
    for x in grids[2]:
        assert min_value(ce(x)) == min_value(x)
    probe = BaryPoint([0, F(1, 8), F(7, 8)])
    assert ce(probe) == BaryPoint([0, F(1, 16), F(15, 16)])
    assert ce(probe) != probe  # the identity is the only layer-compatible lift
    _report(6, "comfort conformance for all Θ maps, both extensions, counterexample")


def test_criterion_7_point_homology_table():
    from simplexboundary.homology_point import point_homology

    m94 = CoefficientTuple([9, 4])
    table = [str(point_homology(n, m94)) for n in range(9)]
    assert table == ["Z", "Z/13", "0", "Z/13", "0", "Z/13", "0", "Z/13", "0"]

    m1 = CoefficientTuple([1])
    assert [str(point_homology(n, m1)) for n in range(9)] == ["Z"] + ["0"] * 8

    mz = CoefficientTuple([1, -1])
    assert [str(point_homology(n, mz)) for n in range(9)] == ["Z"] * 9
    _report(7, "point homology tables for weights (9,4), (1), (1,-1)")


def test_criterion_8_left_inverse_law():
    for L in (0, 1):
        for n in range(1, 6):
            grid = canonical_grid(n - 1, sponge_cap=64, random_count=64)
            if n >= 2:
                assert len(grid) >= 100  # dimension-0 domains hold a single point
            for i in range(L + 1):
                for j in range(n + 1):
                    key = FaceMap(L, n, i, j)
                    for x in grid:
                        assert face_delete(key, face_insert(key, x)) == x
    _report(8, "face deletion inverts face insertion for all keys, n ≤ 5")
