"""Homology of the one-point space under the weighted boundary operator.

Over the point there is exactly one singular simplex per dimension, so
every chain module is free of rank 1 and each boundary map is
multiplication by an integer factor.  The operator acts by
precomposition, so it commutes with pushing a chain forward to the
point, and every singular simplex of the point is the push-forward of
the identity simplex: the factor in degree n is the coefficient sum of
``chain.boundary`` applied to the identity n-simplex.  The homology
modules have a closed form in the degree parity and the coefficient sum,
written ``Z``, ``0`` or ``Z/q``; every closed-form answer is
cross-validated against the kernel/image of the factors derived from the
chain complex.
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


def _checked_homology(n: int, m: CoefficientTuple, into: int, outof: int) -> str:
    """The closed-form H_n, checked against the kernel of ×``into`` modulo
    the image of ×``outof``, the factors of degrees n and n+1."""
    s = sigma(m)
    if s == 0 or n == 0:
        symbolic = "Z"
    elif n % 2 == 1:
        symbolic = _cyclic(s)
    else:
        symbolic = "0"

    # kernel(into) / image(outof) on the rank-1 module over the integers;
    # ×f with f != 0 is injective.
    direct = "0" if into else _cyclic(outof)
    if symbolic != direct:
        raise AssertionError(
            f"symbolic homology {symbolic} disagrees with kernel/image {direct} in degree {n}"
        )
    return symbolic


def point_homology(n: int, m: CoefficientTuple) -> str:
    """Homology of the point in degree n over the integers.

    Computed symbolically from the degree parity and the coefficient sum:
    the n+1 slot choices of the boundary contribute the sum with
    alternating signs, so odd degrees (and degree 0, by definition) map
    by zero and positive even degrees by the sum.  The answer is then
    cross-validated against the kernel/image of the adjacent factors
    derived from ``chain.boundary``; a mismatch would indicate a broken
    boundary operator and raises immediately.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _checked_homology(n, m, point_boundary_map(n, m), point_boundary_map(n + 1, m))


def homology_table(m: CoefficientTuple, n_max: int) -> List[Tuple[int, str, str]]:
    """Rows (n, boundary, H_n) for degrees 0..n_max; a factor f reads 0 or ×f.

    Each factor of degrees 0..n_max+1 is read once.  Every printed factor
    is checked against the closed form, σ in positive even degrees and 0
    otherwise, since H_n cannot see the factor's sign."""
    factors = [point_boundary_map(n, m) for n in range(n_max + 2)]
    rows = []
    for n in range(n_max + 1):
        f = factors[n]
        closed_form = sigma(m) if n > 0 and n % 2 == 0 else 0
        if f != closed_form:
            raise AssertionError(f"boundary factor {f} in degree {n} disagrees with the closed form {closed_form}")
        rows.append((n, f"×{f}" if f else "0", _checked_homology(n, m, f, factors[n + 1])))
    return rows
