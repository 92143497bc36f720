import pytest

from simplexboundary import homology_point
from simplexboundary.chain import CoefficientTuple
from simplexboundary.homology_point import (
    homology_table,
    point_boundary_map,
    point_homology,
    sigma,
)


def test_sigma_examples():
    assert sigma(CoefficientTuple([9, 4])) == 13
    assert sigma(CoefficientTuple([1])) == 1
    assert sigma(CoefficientTuple([1, -1])) == 0


def test_point_boundary_map_examples():
    m = CoefficientTuple([9, 4])
    assert point_boundary_map(0, m) == 0
    assert point_boundary_map(2, m) == 13
    assert point_boundary_map(3, m) == 0
    assert point_boundary_map(3, CoefficientTuple([1, 1])) == 0
    with pytest.raises(ValueError):
        point_boundary_map(-1, m)


def test_cyclic_modules_are_normalized():
    # Z/q is written Z for q = 0, 0 for q = ±1 and Z/|q| otherwise.
    assert point_homology(1, CoefficientTuple([1, -1])) == "Z"  # Z/0
    assert point_homology(1, CoefficientTuple([1])) == "0"  # Z/1
    assert point_homology(1, CoefficientTuple([-1])) == "0"  # Z/-1
    assert point_homology(1, CoefficientTuple([-2])) == "Z/2"  # Z/-2
    assert point_homology(1, CoefficientTuple([9, 4])) == "Z/13"
    assert [hn for _, _, hn in homology_table(CoefficientTuple([3, -5]), 2)] == ["Z", "Z/2", "0"]


def test_point_homology_examples():
    assert point_homology(1, CoefficientTuple([9, 4])) == "Z/13"
    assert point_homology(2, CoefficientTuple([1])) == "0"
    assert point_homology(5, CoefficientTuple([1, -1])) == "Z"
    assert point_homology(0, CoefficientTuple([9, 4])) == "Z"


def test_closed_form_is_checked_against_the_chain_complex(monkeypatch):
    # A wrong factor from the chain complex in one degree must not pass.
    m = CoefficientTuple([9, 4])
    real = homology_point.point_boundary_map

    def wrong_in_degree_4(n, m):
        return 7 if n == 4 else real(n, m)

    monkeypatch.setattr(homology_point, "point_boundary_map", wrong_in_degree_4)
    assert point_homology(2, m) == "0"  # reads the factors of degrees 0..3
    message = "^boundary factor 7 in degree 4 disagrees with the closed form 13$"
    with pytest.raises(AssertionError, match=message):
        point_homology(3, m)


def test_consecutive_boundary_maps_compose_to_zero():
    for entries in ([9, 4], [1], [1, -1], [-2], [2]):
        m = CoefficientTuple(entries)
        for n in range(21):
            a = point_boundary_map(n, m)
            b = point_boundary_map(n + 1, m)
            assert a * b == 0


def closed_form_homology(n, s):
    # The closed form in the degree parity and the coefficient sum s:
    # Z in degree 0 and wherever s = 0, Z/|s| in odd degrees, else 0.
    if s == 0 or n == 0:
        return "Z"
    if n % 2 == 0:
        return "0"
    return "0" if abs(s) == 1 else f"Z/{abs(s)}"


def test_homology_agrees_with_kernel_image_for_various_sums():
    # The kernel/image of the checked factors against the closed form.
    for entries in ([-2], [1, -1], [1], [2], [9, 4], [0], [13]):
        m = CoefficientTuple(entries)
        rows = homology_table(m, 20)
        assert [hn for _, _, hn in rows] == [closed_form_homology(n, sigma(m)) for n in range(21)]
        for n in range(21):
            assert point_homology(n, m) == closed_form_homology(n, sigma(m))


def test_chain_boundary_reproduces_scalar_maps():
    # The maps derived from the chain complex against the closed form:
    # zero in degree 0 and in odd degrees, ×σ in positive even degrees.
    for entries in ([9, 4], [1], [1, -1], [-2]):
        m = CoefficientTuple(entries)
        for n in range(9):
            closed_form = 0 if n == 0 or n % 2 else sigma(m)
            assert point_boundary_map(n, m) == closed_form


def test_homology_table():
    rows = homology_table(CoefficientTuple([9, 4]), 4)
    assert rows == [
        (0, "0", "Z"),
        (1, "0", "Z/13"),
        (2, "×13", "0"),
        (3, "0", "Z/13"),
        (4, "×13", "0"),
    ]
    rows = homology_table(CoefficientTuple([1, -1]), 3)
    assert [hn for _, _, hn in rows] == ["Z", "Z", "Z", "Z"]
    rows = homology_table(CoefficientTuple([1]), 3)
    assert [hn for _, _, hn in rows] == ["Z", "0", "0", "0"]


def test_table_checks_every_printed_factor(monkeypatch):
    # Z/13 and Z/-13 print alike, so only a check of the factor itself
    # sees a boundary map of the wrong sign.
    m = CoefficientTuple([9, 4])
    real = homology_point.point_boundary_map

    def negated_in_degree_2(n, m):
        return -13 if n == 2 else real(n, m)

    monkeypatch.setattr(homology_point, "point_boundary_map", negated_in_degree_2)
    message = "^boundary factor -13 in degree 2 disagrees with the closed form 13$"
    with pytest.raises(AssertionError, match=message):
        homology_table(m, 4)


def test_table_reads_each_factor_once(monkeypatch):
    # Degrees 0..n_max print a row and degree n_max+1 closes the last
    # kernel/image check: n_max + 2 factors, each read once.
    m = CoefficientTuple([9, 4])
    real, calls = homology_point.point_boundary_map, []
    monkeypatch.setattr(homology_point, "point_boundary_map", lambda n, m: calls.append(n) or real(n, m))
    homology_table(m, 8)
    assert calls == list(range(10))
    calls.clear()
    assert point_homology(3, m) == "Z/13"
    assert calls == [0, 1, 2, 3, 4]
