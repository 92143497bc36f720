"""Homology of the one-point space under the weighted boundary operator.

Over the point there is exactly one singular simplex per dimension, so
every chain module is free of rank 1 and each boundary map is a scalar.
The scalars are read off ``chain.boundary`` applied to the point
simplex.  The homology modules have a closed form in the degree parity
and the coefficient sum; every closed-form answer is cross-validated
against the kernel/image of the scalars derived from the chain complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .chain import CoefficientTuple, boundary, chain_of_term, point_term


def sigma(m: CoefficientTuple) -> int:
    """Sum of the coefficient tuple entries."""
    return sum(m)


@dataclass(frozen=True)
class ScalarMap:
    """An endomorphism of the rank-1 free module: zero or ×factor."""

    factor: int

    @property
    def is_zero_map(self) -> bool:
        return self.factor == 0

    def __str__(self) -> str:
        return "0" if self.factor == 0 else f"×{self.factor}"


def point_boundary_map(n: int, m: CoefficientTuple) -> ScalarMap:
    """The boundary map in degree n of the point complex.

    The factor is the coefficient of the point simplex of degree n-1 in
    the weighted boundary of the point simplex of degree n.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return ScalarMap(boundary(chain_of_term(point_term(n)), m).coefficient(point_term(n - 1)))


@dataclass(frozen=True)
class ModuleDescription:
    """Isomorphism type of a rank-1 subquotient of the integers."""

    kind: str  # "free" | "cyclic" | "zero"
    order: Optional[int] = None

    @staticmethod
    def free() -> "ModuleDescription":
        return ModuleDescription("free")

    @staticmethod
    def zero() -> "ModuleDescription":
        return ModuleDescription("zero")

    @staticmethod
    def cyclic(order: int) -> "ModuleDescription":
        order = abs(int(order))
        if order == 0:
            return ModuleDescription("free")
        if order == 1:
            return ModuleDescription("zero")
        return ModuleDescription("cyclic", order)

    def __str__(self) -> str:
        if self.kind == "free":
            return "Z"
        if self.kind == "zero":
            return "0"
        return f"Z/{self.order}"


def _homology_from_scalar_maps(into: ScalarMap, outof: ScalarMap) -> ModuleDescription:
    # kernel(into) / image(outof) on the rank-1 module over the integers.
    kernel_is_everything = into.is_zero_map
    if not kernel_is_everything:
        return ModuleDescription.zero()  # ×σ with σ != 0 is injective
    if outof.is_zero_map:
        return ModuleDescription.free()
    return ModuleDescription.cyclic(outof.factor)


def point_homology(n: int, m: CoefficientTuple) -> ModuleDescription:
    """Homology of the point in degree n over the integers.

    Computed symbolically from the degree parity and the coefficient sum:
    the n+1 slot choices of the boundary contribute the sum with
    alternating signs, so odd degrees (and degree 0, by definition) map
    by zero and positive even degrees by the sum.  The answer is then
    cross-validated against the kernel/image of the adjacent scalar maps
    derived from ``chain.boundary``; a mismatch would indicate a broken
    boundary operator and raises immediately.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    s = sigma(m)
    if s == 0:
        symbolic = ModuleDescription.free()
    elif n == 0:
        symbolic = ModuleDescription.free()
    elif n % 2 == 1:
        symbolic = ModuleDescription.cyclic(s)
    else:
        symbolic = ModuleDescription.zero()

    direct = _homology_from_scalar_maps(
        point_boundary_map(n, m), point_boundary_map(n + 1, m)
    )
    if symbolic != direct:
        raise AssertionError(
            f"symbolic homology {symbolic} disagrees with kernel/image {direct} in degree {n}"
        )
    return symbolic


def homology_table(m: CoefficientTuple, n_max: int) -> List[Tuple[int, str, str]]:
    """Rows (n, boundary, H_n) for degrees 0..n_max."""
    return [
        (n, str(point_boundary_map(n, m)), str(point_homology(n, m)))
        for n in range(n_max + 1)
    ]
