import hashlib
from fractions import Fraction as F

import pytest

from simplexboundary.chain import (
    CoefficientTuple,
    INTEGERS,
    RingSpec,
    SingularTerm,
    boundary,
    chain_add,
    chain_of_term,
    chain_scale,
    check_boundary_squared,
    check_equation,
    equation_instances,
    equation_sides,
    identity_term,
    point_term,
    zero_chain,
)
from simplexboundary.geometry import BaryPoint, canonical_grid, format_point
from simplexboundary.theta import FaceMap, ThetaKey, UnsupportedL, face_insert


def small_grid(n, k=8):
    return canonical_grid(n, sponge_cap=k, random_count=k)


# ---------------------------------------------------------------------------
# Chains and the boundary operator


def test_boundary_of_dim0_is_zero():
    c = chain_of_term(identity_term(0))
    assert boundary(c, CoefficientTuple([9, 4])).is_zero


def test_boundary_term_structure():
    c = chain_of_term(identity_term(2))
    m = CoefficientTuple([9, 4])
    d = boundary(c, m)
    assert d.dim == 1
    assert len(d.terms) == 6  # (n+1)(L+1) before any cancellation
    for j in range(3):
        for i in range(2):
            term = SingularTerm((FaceMap(1, 2, i, j),), 1)
            expected = (-1 if j % 2 else 1) * m[i]
            assert d.coefficient(term) == expected


def test_boundary_term_count_general():
    for n in (1, 2, 3):
        for m in (CoefficientTuple([1]), CoefficientTuple([9, 4])):
            d = boundary(chain_of_term(identity_term(n)), m)
            assert len(d.terms) == (n + 1) * len(m)


def test_boundary_point_target_collapses():
    m = CoefficientTuple([9, 4])
    # Odd dimension: the alternating signs kill the sum.
    assert boundary(chain_of_term(point_term(1)), m).is_zero
    # Even positive dimension: multiplication by the coefficient sum.
    d = boundary(chain_of_term(point_term(2)), m)
    assert d.terms == ((point_term(1), 13),)
    assert boundary(chain_of_term(point_term(2)), CoefficientTuple([1, -1])).is_zero


def test_boundary_linearity():
    m = CoefficientTuple([9, 4])
    t1 = SingularTerm((FaceMap(1, 3, 0, 1),), 2)
    t2 = SingularTerm((FaceMap(1, 3, 1, 2),), 2)
    c1 = chain_of_term(t1)
    c2 = chain_of_term(t2)
    combo = chain_add(chain_scale(c1, 3), chain_scale(c2, -5))
    lhs = boundary(combo, m)
    rhs = chain_add(chain_scale(boundary(c1, m), 3), chain_scale(boundary(c2, m), -5))
    assert lhs == rhs


def test_chain_algebra():
    c = chain_of_term(identity_term(2), coeff=4)
    assert chain_add(c, chain_scale(c, -1)).is_zero
    assert chain_scale(c, 1) == c
    assert chain_scale(c, 0) == zero_chain(INTEGERS, 2)
    with pytest.raises(ValueError):
        chain_add(c, chain_of_term(identity_term(1)))


def test_modular_ring_normalization():
    ring = RingSpec(3)
    c = chain_of_term(identity_term(2), ring=ring)
    d = boundary(c, CoefficientTuple([9, 4]))
    # 9 ≡ 0 (mod 3) wipes out the i=0 terms, 4 ≡ 1 keeps the i=1 terms.
    assert len(d.terms) == 3
    assert all(coeff == 1 or coeff == 2 for _, coeff in d.terms)


def test_double_boundary_as_formal_chain():
    # SHA-256 of the (describe(), coefficient) list of ∂∂ of the identity
    # 3-chain for m = (9,4): pins the term order, the describe strings and
    # the modular normalization.
    m = CoefficientTuple([9, 4])
    digests = {
        INTEGERS: "cbddbc05afbf49a0297c84705f2720a8b84a1139c04ac6676ecd53625b85cbbe",
        RingSpec(5): "692fb719f896e45930b14fdefef90e728bf1e3d454efa9b62c048772c435a672",
    }
    for ring, digest in digests.items():
        dd = boundary(boundary(chain_of_term(identity_term(3), ring=ring), m), m)
        listing = [(term.describe(), coeff) for term, coeff in dd.terms]
        assert len(listing) == 48
        assert hashlib.sha256(repr(listing).encode()).hexdigest() == digest


def test_unsupported_coefficient_length():
    with pytest.raises(UnsupportedL):
        boundary(chain_of_term(identity_term(2)), CoefficientTuple([1, 1, 1]))


# ---------------------------------------------------------------------------
# The commutation identity checks


def test_equation_values_at_level_one():
    left, right = equation_sides(1, 0, 0, 0, 1)
    x = BaryPoint([1])
    assert left.evaluate(x) == right.evaluate(x) == BaryPoint([0, F(1, 6), F(5, 6)])
    left, right = equation_sides(1, 0, 0, 1, 1)
    assert left.evaluate(x) == right.evaluate(x) == BaryPoint([F(1, 6), F(1, 6), F(2, 3)])


def test_equation_sides_are_double_boundary_summands():
    left, right = equation_sides(2, 1, 2, 1, 0)
    assert left.describe() == "simplex3←ins(1,3,1,1)∘th(1,2,1)∘ins(1,2,0,2)∘th(1,1,0)"
    assert right.describe() == "simplex3←ins(1,3,0,3)∘th(1,2,0)∘ins(1,2,1,1)∘th(1,1,1)"


def test_check_equation_passes():
    res = check_equation(1, 0, 0, 0, 1, small_grid(0))
    assert res.verdict and res.points_checked == 1
    res = check_equation(2, 1, 2, 1, 0, small_grid(1))
    assert res.verdict


def test_check_equation_trivial_diagonal():
    for n in (1, 2, 3):
        res = check_equation(n, 0, n, 0, 0, small_grid(n - 1, 4))
        assert res.verdict


def test_check_equation_index_validation():
    with pytest.raises(ValueError):
        check_equation(2, 2, 1, 0, 0, small_grid(1))
    with pytest.raises(ValueError):
        check_equation(2, 0, 0, 2, 0, small_grid(1))
    with pytest.raises(ValueError):
        check_equation(0, 0, 0, 0, 0, small_grid(0))


def test_equation_instances_count():
    assert len(list(equation_instances(1))) == 12
    assert len(list(equation_instances(2))) == 24
    assert len(list(equation_instances(1, L=0))) == 3


def adversarial_points(n):
    """Inputs the lattice grids avoid: ties, zeros, vertices, cross values."""
    from simplexboundary.geometry import (
        boundary_samples,
        center,
        cross_samples,
        multi_zero_samples,
        vertex,
    )

    pts = [center(n)] + [vertex(n, j) for j in range(n + 1)]
    if n >= 1:
        pts += boundary_samples(n, 4)
        pts += cross_samples(n, F(1, 2 * (n + 1)), 4)
    if n >= 2:
        pts += multi_zero_samples(n, 4)
    return pts


def test_check_equation_on_adversarial_inputs():
    import itertools

    for n in (2, 3):
        grid = adversarial_points(n - 1)
        for j in range(n + 1):
            for p in range(j, n + 1):
                for i, k in itertools.product((0, 1), (0, 1)):
                    assert check_equation(n, j, p, i, k, grid).verdict
    grid = adversarial_points(3)
    for (j, p) in [(0, 0), (0, 4), (2, 3), (4, 4)]:
        for i, k in itertools.product((0, 1), (0, 1)):
            assert check_equation(4, j, p, i, k, grid).verdict


def patch_theta(monkeypatch, patched_key, point_map):
    """Patch chain's Θ lookup so that ``patched_key`` resolves to ``point_map``."""
    from simplexboundary import chain

    real_theta = chain.theta
    monkeypatch.setattr(chain, "theta", lambda key: point_map if key == patched_key else real_theta(key))


def rejecting_theta(monkeypatch, bad_key):
    """Patch chain's Θ lookup so that the map for ``bad_key`` rejects every point."""
    from simplexboundary.theta import NotOnFace

    def rejects(x):
        raise NotOnFace("rejected for the test")

    patch_theta(monkeypatch, bad_key, rejects)


def test_check_equation_records_rejections_as_witnesses(monkeypatch):
    rejecting_theta(monkeypatch, ThetaKey(1, 1, 1))
    grid = small_grid(1, 4)
    res = check_equation(2, 0, 1, 0, 1, grid)
    assert not res.verdict
    assert res.points_checked == len(grid)
    assert len(res.witnesses) == len(grid)
    w = res.witnesses[0]
    assert (w.left, w.right) == ("-", "-")
    assert w.detail == "NotOnFace: rejected for the test"
    with pytest.raises(ValueError):
        check_equation(2, 2, 1, 0, 0, grid)  # index checks still raise


def equation_suite_reports(shared, Ls=(1, 0)):
    """``to_json()`` of every instance at levels 1..3, with one Θ memo per
    level (``shared``) or a fresh one per instance."""
    reports = []
    for L in Ls:
        for n in range(1, 4):
            grid, values = small_grid(n - 1), {}
            for (j, p, i, k) in equation_instances(n, L):
                res = check_equation(n, j, p, i, k, grid, L, values=values if shared else None)
                reports.append(res.to_json())
    return reports


def test_shared_theta_memo_changes_no_result():
    assert equation_suite_reports(True) == equation_suite_reports(False)


def test_shared_theta_memo_keeps_rejections(monkeypatch):
    rejecting_theta(monkeypatch, ThetaKey(1, 1, 1))
    shared = equation_suite_reports(True, Ls=(1,))
    assert any(r["witnesses"] for r in shared)
    assert shared == equation_suite_reports(False, Ls=(1,))


def direct_witnesses(L):
    """Per instance at levels 1..3, the (point, left, right) where the two
    sides, composed step by step without a memo, disagree."""
    def compose(term, x):
        for homeo, fm, _ in term.steps:
            x = face_insert(fm, homeo(x))
        return x

    witnesses = []
    for n in range(1, 4):
        grid = small_grid(n - 1)
        for (j, p, i, k) in equation_instances(n, L):
            sides = equation_sides(n, j, p, i, k, L)
            values = [(x, *(compose(side, x) for side in sides)) for x in grid]
            witnesses.append([tuple(map(format_point, v)) for v in values if v[1] != v[2]])
    return witnesses


def test_shared_theta_memo_keys_on_the_exact_point(monkeypatch):
    # Reversing three coordinates does not respect permutations, so a memo
    # keyed on a sorted form of the point would return wrong values.
    patch_theta(monkeypatch, ThetaKey(1, 2, 1), lambda x: BaryPoint(reversed(x)))
    shared = equation_suite_reports(True, Ls=(1,))
    assert shared == equation_suite_reports(False, Ls=(1,))
    witnessed = [[(w["point"], w["left"], w["right"]) for w in r["witnesses"]] for r in shared]
    assert any(witnessed)
    assert witnessed == direct_witnesses(1)


def test_identity_theta_values_are_not_memoized():
    values = {}
    x = BaryPoint([F(1, 4), F(3, 4)])
    SingularTerm((FaceMap(0, 2, 0, 1),), 1).evaluate(x, values)
    assert values == {}
    SingularTerm((FaceMap(1, 2, 1, 0),), 1).evaluate(x, values)
    assert list(values.values()) == [BaryPoint([F(1, 5), F(4, 5)])]


def test_check_equation_past_dimension_cap_raises():
    with pytest.raises(ValueError, match="up to dimension 6"):
        check_equation(7, 0, 0, 0, 1, [])


def test_certificate_reports_rejections_with_pair(monkeypatch):
    rejecting_theta(monkeypatch, ThetaKey(1, 0, 1))
    res = check_boundary_squared(
        chain_of_term(identity_term(2)), CoefficientTuple([9, 4]), small_grid(0)
    )
    assert not res.verdict
    assert res.consumed == res.summands_total == 24
    # Every pair with a Θ(1,0,1) step on either side fails at the one grid point.
    details = [w.detail for w in res.witnesses]
    assert len(details) == 9  # the 12 pairs less the three with i = k = 0
    assert details[0] == "maps of (0, 0, 0, 1) and (1, 0, 1, 0) disagree: NotOnFace: rejected for the test"
    assert all(d.startswith("maps of ") for d in details)


def test_check_equation_report_shape():
    res = check_equation(1, 0, 1, 1, 0, small_grid(0))
    data = res.to_json()
    assert data["check"] == "equation"
    assert data["verdict"] == "pass"
    assert data["parameters"]["n"] == 1


# ---------------------------------------------------------------------------
# The cancellation certificate


def brute_force_classical_cancellation(d: int) -> bool:
    """Independent oracle for the weight-(1,) case.

    The composite maps insert two zeros into a symbol tuple; collecting
    the resulting patterns with signs must give zero for every pattern.
    """
    symbols = tuple(f"s{m}" for m in range(d - 1))
    totals = {}
    for j in range(d + 1):
        for p in range(d):
            inner = list(symbols)
            inner.insert(p, "0")
            outer = list(inner)
            outer.insert(j, "0")
            key = tuple(outer)
            totals[key] = totals.get(key, 0) + (-1) ** (j + p)
    return all(v == 0 for v in totals.values())


def test_brute_force_oracle_agrees_with_certificate():
    for d in (2, 3, 4):
        assert brute_force_classical_cancellation(d)
        res = check_boundary_squared(
            chain_of_term(identity_term(d)), CoefficientTuple([1]), small_grid(d - 2, 4)
        )
        assert res.verdict
        assert res.summands_total == d * (d + 1)


def test_certificate_paper_case():
    res = check_boundary_squared(
        chain_of_term(identity_term(2)), CoefficientTuple([9, 4]), small_grid(0)
    )
    assert res.verdict
    assert res.summands_total == 24  # 2 * 3 * (1+1)^2
    assert res.pairs_checked == 12
    assert res.consumed == 24


def test_certificate_trivial_dimension_one():
    res = check_boundary_squared(
        chain_of_term(identity_term(1)), CoefficientTuple([9, 4]), small_grid(0)
    )
    assert res.verdict and res.trivial and res.summands_total == 0


def test_certificate_point_target():
    m = CoefficientTuple([9, 4])
    c = chain_of_term(point_term(3))
    res = check_boundary_squared(c, m, small_grid(1, 4))
    assert res.verdict
    # The normalized double boundary is literally the zero chain here.
    assert boundary(boundary(c, m), m).is_zero


def test_certificate_modular_ring():
    ring = RingSpec(5)
    res = check_boundary_squared(
        chain_of_term(identity_term(2), ring=ring), CoefficientTuple([9, 4]), small_grid(0)
    )
    assert res.verdict


def test_certificate_report_shape():
    res = check_boundary_squared(
        chain_of_term(identity_term(2)), CoefficientTuple([1, 1]), small_grid(0)
    )
    data = res.to_json()
    assert data["check"] == "boundary-squared"
    assert data["verdict"] == "pass"
    assert data["summands"] == 24
    assert data["pairs_checked"] == 12


def test_certificate_grid_size_is_the_grid_length():
    grid = small_grid(1, 4)
    res = check_boundary_squared(chain_of_term(identity_term(3)), CoefficientTuple([9, 4]), grid)
    assert res.points_checked > len(grid)  # every pair runs the whole grid
    assert res.to_json()["grid"] == {"size": len(grid)}


def test_checks_copy_the_grid_origin():
    origin = {"denominator": 60, "seed": 7}
    grid = small_grid(1)
    equation = check_equation(2, 0, 1, 0, 1, grid, grid_meta=origin)
    certificate = check_boundary_squared(
        chain_of_term(identity_term(2)), CoefficientTuple([9, 4]), small_grid(0), grid_meta=origin
    )
    assert equation.to_json()["grid"] == {"denominator": 60, "seed": 7, "size": len(grid)}
    assert certificate.to_json()["grid"] == {"denominator": 60, "seed": 7, "size": 1}
    assert origin == {"denominator": 60, "seed": 7}


# ---------------------------------------------------------------------------
# Term evaluation plumbing


def test_term_validation():
    with pytest.raises(ValueError, match="expects domain 1, got 2"):
        SingularTerm((FaceMap(1, 2, 0, 0), FaceMap(1, 2, 0, 0)), 1)  # inner codomain 2, outer domain 1


def test_term_evaluation_matches_direct_composition():
    term = SingularTerm((FaceMap(1, 2, 1, 0),), 1)
    x = BaryPoint([F(1, 4), F(3, 4)])
    assert term.evaluate(x) == BaryPoint([F(1, 6), F(1, 6), F(2, 3)])


def test_grid_agreement_is_an_equivalence_on_generated_terms():
    # Group the 24 double-boundary composites of the 2-simplex identity by
    # their exact value vectors; pairing partners must share a class, and
    # membership in a class is symmetric/transitive by construction.
    m = CoefficientTuple([9, 4])
    grid = small_grid(0)
    classes = {}
    for j in range(3):
        for i in range(2):
            for p in range(2):
                for k in range(2):
                    term = SingularTerm((FaceMap(1, 2, i, j), FaceMap(1, 1, k, p)), 0)
                    key = tuple(term.evaluate(x) for x in grid)
                    classes.setdefault(key, []).append((j, p, i, k))
    for members in classes.values():
        for (j, p, i, k) in members:
            if j <= p:
                assert (p + 1, j, k, i) in members
