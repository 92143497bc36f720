"""Homology of the one-point space under the weighted boundary operator.

Over the point there is exactly one singular simplex per dimension, so
every chain module is free of rank 1 and each boundary map is
multiplication by an integer factor.  The operator acts by
precomposition, so it commutes with pushing a chain forward to the
point, and every singular simplex of the point is the push-forward of
the identity simplex: the factor in degree n is the coefficient sum of
``chain.boundary`` applied to the identity n-simplex.  Each factor is
checked against its closed form, σ (the coefficient sum) in positive
even degrees and 0 otherwise, and H_n is the kernel of the factor of
degree n modulo the image of the factor of degree n+1, written ``Z``,
``0`` or ``Z/q``.
"""

from __future__ import annotations

from typing import List, Tuple

from .chain import CoefficientTuple, boundary, chain_of_term, identity_term


def sigma(m: CoefficientTuple) -> int:
    """Sum of the coefficient tuple entries."""
    return sum(m)


def point_boundary_map(n: int, m: CoefficientTuple) -> int:
    """The factor of the boundary map in degree n of the point complex.

    The factor is the coefficient sum of the weighted boundary of the
    identity n-simplex: pushed to the point, each of its terms becomes
    the point simplex of degree n-1.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return sum(coeff for _, coeff in boundary(chain_of_term(identity_term(n)), m).terms)


def _cyclic(q: int) -> str:
    """Z/q over the integers: ``Z`` for q = 0, ``0`` for q = ±1, else Z/|q|."""
    q = abs(q)
    return "Z" if q == 0 else "0" if q == 1 else f"Z/{q}"


def point_homology(n: int, m: CoefficientTuple) -> str:
    """Homology of the point in degree n over the integers: the last row
    of ``homology_table``."""
    return homology_table(m, n)[-1][2]


def homology_table(m: CoefficientTuple, n_max: int) -> List[Tuple[int, str, str]]:
    """Rows (n, boundary, H_n) for degrees 0..n_max; a factor f reads 0 or ×f.

    The factors of degrees 0..n_max+1 are read once each and checked
    against the closed form before any row is built; H_n cannot see a
    factor's sign, so only this check sees a factor of the wrong sign.
    H_n is the kernel of ×f_n modulo the image of ×f_(n+1) on the rank-1
    module over the integers, where ×f with f != 0 is injective."""
    if n_max < 0:
        raise ValueError("degree must be nonnegative")
    factors = []
    for n in range(n_max + 2):
        f = point_boundary_map(n, m)
        closed_form = sigma(m) if n > 0 and n % 2 == 0 else 0
        if f != closed_form:
            raise AssertionError(f"boundary factor {f} in degree {n} disagrees with the closed form {closed_form}")
        factors.append(f)
    return [
        (n, f"×{f}" if f else "0", "0" if f else _cyclic(factors[n + 1]))
        for n, f in enumerate(factors[:-1])
    ]
