import pytest

from simplexboundary.chain import CoefficientTuple, boundary, chain_of_term, point_term
from simplexboundary.homology_point import (
    ModuleDescription,
    ScalarMap,
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
    assert point_boundary_map(0, m).is_zero_map
    assert point_boundary_map(2, m) == ScalarMap(13)
    assert point_boundary_map(3, m).is_zero_map
    assert point_boundary_map(3, CoefficientTuple([1, 1])).is_zero_map
    with pytest.raises(ValueError):
        point_boundary_map(-1, m)


def test_module_description_normalization():
    assert ModuleDescription.cyclic(1) == ModuleDescription.zero()
    assert ModuleDescription.cyclic(0) == ModuleDescription.free()
    assert ModuleDescription.cyclic(-2) == ModuleDescription.cyclic(2)
    assert str(ModuleDescription.cyclic(13)) == "Z/13"
    assert str(ModuleDescription.free()) == "Z"
    assert str(ModuleDescription.zero()) == "0"


def test_point_homology_examples():
    assert point_homology(1, CoefficientTuple([9, 4])) == ModuleDescription.cyclic(13)
    assert point_homology(2, CoefficientTuple([1])) == ModuleDescription.zero()
    assert point_homology(5, CoefficientTuple([1, -1])) == ModuleDescription.free()
    assert point_homology(0, CoefficientTuple([9, 4])) == ModuleDescription.free()


def test_consecutive_boundary_maps_compose_to_zero():
    for entries in ([9, 4], [1], [1, -1], [-2], [2]):
        m = CoefficientTuple(entries)
        for n in range(21):
            a = point_boundary_map(n, m)
            b = point_boundary_map(n + 1, m)
            assert a.factor * b.factor == 0


def test_homology_agrees_with_kernel_image_for_various_sums():
    # point_homology raises internally on any symbolic/direct mismatch.
    for entries in ([-2], [1, -1], [1], [2], [9, 4]):
        m = CoefficientTuple(entries)
        for n in range(21):
            point_homology(n, m)


def test_chain_boundary_reproduces_scalar_maps():
    # The maps derived from the chain complex against the closed form:
    # zero in degree 0 and in odd degrees, ×σ in positive even degrees.
    for entries in ([9, 4], [1], [1, -1], [-2]):
        m = CoefficientTuple(entries)
        for n in range(9):
            closed_form = 0 if n == 0 or n % 2 else sigma(m)
            assert point_boundary_map(n, m) == ScalarMap(closed_form)
            d = boundary(chain_of_term(point_term(n)), m)
            assert d.terms == (((point_term(n - 1), closed_form),) if closed_form else ())


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
