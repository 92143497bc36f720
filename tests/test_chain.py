import hashlib
import json
from fractions import Fraction as F

import pytest

from simplexboundary.chain import (
    Chain,
    CoefficientTuple,
    SingularTerm,
    Witness,
    boundary,
    chain_of_term,
    check_boundary_squared,
    _double_boundary,
    check_equation,
    equation_instances,
    identity_term,
)
from simplexboundary.cli import main
from simplexboundary.geometry import DEFAULT_DENOMINATOR, DEFAULT_SEED, BaryPoint, canonical_grid, format_point
from simplexboundary.theta import FaceMap, ThetaKey, UnsupportedL, face_insert


def small_grid(n, k=8):
    return canonical_grid(n, sponge_cap=k, random_count=k)


def equation_sides(n, j, p, i, k, L=1):
    """The summands (j,p,i,k) and (p+1,j,k,i) of the double boundary of
    the identity (n+1)-chain: the two sides of one instance."""
    weights = CoefficientTuple([1] * (L + 1))
    summands = {key: term for key, _, term in _double_boundary(identity_term(n + 1), weights)}
    return summands[j, p, i, k], summands[p + 1, j, k, i]


def instance(results, j, p, i, k):
    """The result of instance (j, p, i, k) out of one level check."""
    [res] = [r for r in results if (r.j, r.p, r.i, r.k) == (j, p, i, k)]
    return res


def cli_report(tmp_path, *argv):
    """The JSON report that the CLI writes for a passing verify run."""
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Chains and the boundary operator


def test_boundary_of_dim0_is_zero():
    c = chain_of_term(identity_term(0))
    assert boundary(c, CoefficientTuple([9, 4])).terms == ()


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
            assert dict(d.terms)[term] == expected


def test_boundary_term_count_general():
    for n in (1, 2, 3):
        for m in (CoefficientTuple([1]), CoefficientTuple([9, 4])):
            d = boundary(chain_of_term(identity_term(n)), m)
            assert len(d.terms) == (n + 1) * len(m)


def test_boundary_point_target_collapses():
    # Pushed to the point, a chain is its coefficient sum times the point
    # simplex, and the boundary commutes with the push-forward: it
    # multiplies that sum by 0 in odd dimensions (the alternating signs
    # cancel) and by the coefficient sum σ in positive even ones.
    def pushed(c):
        return sum(coeff for _, coeff in c.terms)

    t1 = SingularTerm((FaceMap(1, 3, 0, 1),), 2)
    t2 = SingularTerm((FaceMap(1, 3, 1, 2),), 2)
    c = Chain.make(2, {identity_term(2): 1, t1: 3, t2: -5})
    for entries, sigma in (([9, 4], 13), ([1, -1], 0)):
        m = CoefficientTuple(entries)
        assert pushed(boundary(chain_of_term(identity_term(1)), m)) == 0
        assert pushed(boundary(c, m)) == sigma * pushed(c) == -sigma


def test_boundary_linearity():
    m = CoefficientTuple([9, 4])
    t1 = SingularTerm((FaceMap(1, 3, 0, 1),), 2)
    t2 = SingularTerm((FaceMap(1, 3, 1, 2),), 2)
    lhs = boundary(Chain.make(2, {t1: 3, t2: -5}), m)
    summed = {}
    for term, scale in ((t1, 3), (t2, -5)):
        for face, coeff in boundary(chain_of_term(term), m).terms:
            summed[face] = summed.get(face, 0) + scale * coeff
    assert lhs.terms
    assert lhs == Chain.make(1, summed)


def test_double_boundary_as_formal_chain():
    # SHA-256 of the (describe(), coefficient) list of ∂∂ of the identity
    # 3-chain for m = (9,4): pins the term order, the describe strings and
    # the coefficients.
    m = CoefficientTuple([9, 4])
    dd = boundary(boundary(chain_of_term(identity_term(3)), m), m)
    listing = [(term.describe(), coeff) for term, coeff in dd.terms]
    assert len(listing) == 48
    digest = "cbddbc05afbf49a0297c84705f2720a8b84a1139c04ac6676ecd53625b85cbbe"
    assert hashlib.sha256(repr(listing).encode()).hexdigest() == digest


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
    res = instance(check_equation(1, small_grid(0)), 0, 0, 0, 1)
    assert res.verdict and res.points_checked == 1
    res = instance(check_equation(2, small_grid(1)), 1, 2, 1, 0)
    assert res.verdict


def test_check_equation_trivial_diagonal():
    for n in (1, 2, 3):
        res = instance(check_equation(n, small_grid(n - 1, 4)), 0, n, 0, 0)
        assert res.verdict


def test_check_equation_index_validation():
    with pytest.raises(ValueError):
        check_equation(0, small_grid(0))


def test_check_equation_runs_every_instance_of_the_level():
    for n, L in ((1, 1), (2, 1), (3, 0)):
        grid = small_grid(n - 1, 4)
        results = check_equation(n, grid, L)
        assert [(r.n, r.L, r.j, r.p, r.i, r.k) for r in results] == [
            (n, L, *key) for key in equation_instances(n, L)
        ]
        assert all(r.verdict and r.points_checked == len(grid) for r in results)


def test_equation_instances_count():
    assert len(list(equation_instances(1))) == 12
    assert len(list(equation_instances(2))) == 24
    assert len(list(equation_instances(1, L=0))) == 3


def adversarial_points(n):
    """Inputs the lattice grids avoid: ties, zeros, vertices, cross values."""
    from simplexboundary.geometry import center, vertex

    from samplers import boundary_samples, cross_samples, multi_zero_samples

    pts = [center(n)] + [vertex(n, j) for j in range(n + 1)]
    if n >= 1:
        pts += boundary_samples(n, 4)
        pts += cross_samples(n, F(1, 2 * (n + 1)), 4)
    if n >= 2:
        pts += multi_zero_samples(n, 4)
    return pts


def test_check_equation_on_adversarial_inputs():
    for n in (2, 3, 4):
        assert all(res.verdict for res in check_equation(n, adversarial_points(n - 1)))


def patch_theta(monkeypatch, patched_key, point_map):
    """Patch chain's Θ lookup so that ``patched_key`` resolves to ``point_map``."""
    from simplexboundary import chain

    real_theta = chain.theta
    monkeypatch.setattr(chain, "theta", lambda key: point_map if key == patched_key else real_theta(key))


def rejecting_theta(monkeypatch, bad_key):
    """Patch chain's Θ lookup so that the map for ``bad_key`` rejects every point."""
    from simplexboundary.theta import WrongSlotValue

    def rejects(x):
        raise WrongSlotValue("rejected for the test")

    patch_theta(monkeypatch, bad_key, rejects)


def test_check_equation_records_rejections_as_witnesses(monkeypatch):
    rejecting_theta(monkeypatch, ThetaKey(1, 1, 1))
    grid = small_grid(1, 4)
    res = instance(check_equation(2, grid), 0, 1, 0, 1)
    assert not res.verdict
    assert res.points_checked == len(grid)
    assert len(res.witnesses) == len(grid)
    w = res.witnesses[0]
    assert (w.left, w.right) == ("-", "-")
    assert w.detail == "WrongSlotValue: rejected for the test"


def level_witnesses(L):
    """Per instance at levels 1..3, the witnesses, from one level check
    per level, whose sides share one memo per grid point."""
    return [res.witnesses for n in range(1, 4) for res in check_equation(n, small_grid(n - 1), L)]


def direct_witnesses(L):
    """Per instance at levels 1..3, the witnesses of the two sides composed
    step by step without a memo."""
    def compose(term, x):
        for homeo, fm, _, _ in term.steps:
            x = face_insert(fm, homeo(x))
        return x

    witnesses = []
    for n in range(1, 4):
        grid = small_grid(n - 1)
        for (j, p, i, k) in equation_instances(n, L):
            sides = equation_sides(n, j, p, i, k, L)
            found = []
            for x in grid:
                point = format_point(x)
                try:
                    left, right = (compose(side, x) for side in sides)
                except ValueError as exc:
                    found.append(Witness(point, "-", "-", f"{type(exc).__name__}: {exc}"))
                    continue
                if left != right:
                    found.append(Witness(point, format_point(left), format_point(right)))
            witnesses.append(found)
    return witnesses


def test_shared_theta_memo_changes_no_result():
    for L in (1, 0):
        assert level_witnesses(L) == direct_witnesses(L)


def test_shared_theta_memo_keeps_rejections(monkeypatch):
    rejecting_theta(monkeypatch, ThetaKey(1, 1, 1))
    witnessed = level_witnesses(1)
    assert any(witnessed) and not all(witnessed)
    assert witnessed == direct_witnesses(1)


def test_shared_theta_memo_keys_on_the_exact_point(monkeypatch):
    # Reversing three coordinates does not respect permutations, so a memo
    # keyed on a sorted form of the point would return wrong values.
    patch_theta(monkeypatch, ThetaKey(1, 2, 1), lambda x: BaryPoint(reversed(x)))
    witnessed = level_witnesses(1)
    assert any(witnessed)
    assert witnessed == direct_witnesses(1)


def test_identity_theta_values_are_not_memoized():
    values = {}
    x = BaryPoint([F(1, 4), F(3, 4)])
    SingularTerm((FaceMap(0, 2, 0, 1),), 1).evaluate(x, values)
    assert values == {}
    SingularTerm((FaceMap(1, 2, 1, 0),), 1).evaluate(x, values)
    assert list(values.values()) == [BaryPoint([F(1, 5), F(4, 5)])]


@pytest.mark.parametrize("L", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_equation_builds_each_inner_composite_once(monkeypatch, n, L):
    # Per point, each of the S summands makes its outer insertion, and each
    # of the (n+1)(L+1) inner faces makes its insertion once for all of them.
    from simplexboundary import chain

    calls = []

    def counting_insert(fm, y):
        calls.append(fm)
        return face_insert(fm, y)

    monkeypatch.setattr(chain, "face_insert", counting_insert)
    grid = small_grid(n - 1, 4)
    check_equation(n, grid, L)
    S = (n + 1) * (n + 2) * (L + 1) ** 2
    assert len(calls) == len(grid) * (S + (n + 1) * (L + 1))


def test_check_equation_past_dimension_cap_raises():
    with pytest.raises(ValueError, match="up to dimension 8"):
        check_equation(9, [])


def test_check_equation_asks_check_family_before_any_theta_lookup(monkeypatch):
    from simplexboundary import chain

    keys, real_theta = [], chain.theta
    monkeypatch.setattr(chain, "theta", lambda key: keys.append(key) or real_theta(key))
    with pytest.raises(UnsupportedL) as info:
        check_equation(9, [])
    assert str(info.value) == "Θ(1,9,1) is past the cap: the inductive family is built up to dimension 8"
    assert keys == []


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
    assert details[0] == "maps of (0, 0, 0, 1) and (1, 0, 1, 0) disagree: WrongSlotValue: rejected for the test"
    assert all(d.startswith("maps of ") for d in details)


def test_check_equation_report_shape(tmp_path):
    report = cli_report(tmp_path, "verify-equations", "--n", "1")
    [data] = [
        item for item in report["instances"] if [item["parameters"][key] for key in "jpik"] == [0, 1, 1, 0]
    ]
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


def test_certificate_report_shape(tmp_path):
    [data] = cli_report(tmp_path, "verify-boundary", "--n", "2", "--m", "1,1")["runs"]
    assert data["check"] == "boundary-squared"
    assert data["verdict"] == "pass"
    assert data["summands"] == 24
    assert data["pairs_checked"] == 12


def test_certificate_grid_size_is_the_grid_length(tmp_path):
    # Dimensions 1..3 run on the grids of dimensions 0, 0 and 1.
    report = cli_report(tmp_path, "verify-boundary", "--m", "9,4", "--n", "1", "--n-max", "3")
    sizes = [len(canonical_grid(dim, DEFAULT_DENOMINATOR, DEFAULT_SEED)) for dim in (0, 0, 1)]
    assert [run["grid"]["size"] for run in report["runs"]] == sizes
    assert report["grid"] == {"denominator": DEFAULT_DENOMINATOR, "seed": DEFAULT_SEED}


def test_certificate_runs_the_identity_once_per_call(monkeypatch):
    # Two terms with map checks: each pair reads its instance from one
    # level check, and the witnesses are those of the two one-term
    # certificates in the chain's term order.
    from simplexboundary import chain as chain_module

    rejecting_theta(monkeypatch, ThetaKey(1, 1, 1))
    m, grid = CoefficientTuple([9, 4]), small_grid(1, 4)
    chain = Chain.make(3, {identity_term(3): 1, SingularTerm((FaceMap(1, 4, 0, 1),), 3): 2})
    parts = [check_boundary_squared(Chain(3, (tc,)), m, grid) for tc in chain.terms]
    calls, real = [], chain_module.check_equation
    monkeypatch.setattr(chain_module, "check_equation", lambda n, *args: calls.append(n) or real(n, *args))
    res = check_boundary_squared(chain, m, grid)
    assert calls == [2]
    assert res.witnesses and res.witnesses == parts[0].witnesses + parts[1].witnesses
    assert res.consumed == res.summands_total == 2 * 48
    # A trivial certificate has no map to check and makes no call.
    check_boundary_squared(chain_of_term(identity_term(1)), m, grid)
    assert calls == [2]


def test_checks_copy_the_grid_origin(tmp_path):
    # Every item's grid is the run's origin plus the length of its own
    # level's grid; equation level n and certificate dimension n + 1 both
    # run on the grid of dimension max(n - 1, 0).
    origin = {"denominator": 60, "seed": 7}
    levels = ("--n", "1", "--n-max", "3", "--grid-denominator", "60", "--seed", "7")
    for argv, key in ((("verify-equations",), "instances"), (("verify-boundary", "--m", "9,4"), "runs")):
        report = cli_report(tmp_path, *argv, *levels)
        assert report["grid"] == origin
        for item in report[key]:
            grid = canonical_grid(max(item["parameters"]["n"] - 1, 0), 60, 7)
            assert item["grid"] == {**origin, "size": len(grid)}
        assert len({item["grid"]["size"] for item in report[key]}) > 1


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
