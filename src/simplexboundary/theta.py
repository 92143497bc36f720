"""Face maps and the Θ homeomorphism family.

A face map inserts the value v = i/((L+1)(n+1)) at a chosen slot and
scales the remaining coordinates by 1-v; its left inverse deletes that
slot again.  The Θ family supplies, for every face map, the simplex
homeomorphism that precomposes it inside the boundary operator:

* L = 0: the identity in every dimension (the classical operator);
* L = 1, i = 0: the lift of the ``phi_n0`` interval map;
* L = 1, i = 1: built by induction on the dimension — a seven-map
  composite defines it on the boundary faces, and the boundary
  extension carries it inward so that the 1/(2(n+1))-cross lands on the
  1/(2(n+1)+1)-cross.  Each boundary face has its own table of
  (map, inverse) pairs, the same seven maps written for its zero slot
  and resolved once; the inverse runs the inverses in reverse order, so
  every member of the family carries an exact inverse.

Maps are constructed once per key and cached with ``functools.cache``;
after construction a map is read-only and safe to share.  The inductive
family is built up to dimension ``THETA1_DIM_CAP`` and no further.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .comfort import PointMap, SimplexHomeo, extend_from_boundary, identity_homeo, lambda_lift
from .geometry import BaryPoint, format_point, format_rational
from .pl1d import kappa, phi_n0, restrict


class UnsupportedL(ValueError):
    """Only the families L = 0 and L = 1 are constructible."""


class WrongSlotValue(ValueError):
    """Face deletion found a value other than v at the deletion slot."""


class NotOnFace(ValueError):
    """The point does not lie on the requested boundary face."""


#: Construction of the inductive family stops at this dimension.  The cost
#: per point does not grow by a constant factor per dimension: measured
#: Θ(1,n,1) latencies are 77, 316, 615, 982, 1445 and 1972 µs at
#: n = 1..6 (median over 128 seeded points per n, 2 shared vCPUs,
#: Python 3.11.7), so each extra dimension adds 0.24-0.53 ms.
THETA1_DIM_CAP = 6


@dataclass(frozen=True)
class FaceMap:
    """Injection of the (n-1)-simplex into the n-simplex at slot j.

    The inserted value is v = i/((L+1)(n+1)); the remaining coordinates
    are scaled by 1-v, so the image coordinates again sum to 1.
    """

    L: int
    n: int
    i: int
    j: int

    def __post_init__(self):
        if self.L < 0 or self.n < 1:
            raise ValueError(f"invalid face map parameters L={self.L}, n={self.n}")
        if not 0 <= self.i <= self.L:
            raise ValueError(f"face map layer index {self.i} outside 0..{self.L}")
        if not 0 <= self.j <= self.n:
            raise ValueError(f"face map slot {self.j} outside 0..{self.n}")

    @property
    def denominator(self) -> int:
        """K = (L+1)(n+1); the inserted value is v = i/K."""
        return (self.L + 1) * (self.n + 1)

    @property
    def v(self) -> Fraction:
        return Fraction(self.i, self.denominator)


def face_insert(key: FaceMap, x: BaryPoint) -> BaryPoint:
    """Insert v at slot j, scaling the other coordinates by 1-v."""
    if x.dim != key.n - 1:
        raise ValueError(f"face map expects dimension {key.n - 1}, got {x.dim}")
    # With v = i/K, each coordinate c = p/q becomes p*(K-i) / (q*K),
    # reduced once.
    K = key.denominator
    keep = K - key.i
    coords = [Fraction(c.numerator * keep, c.denominator * K) for c in x]
    coords.insert(key.j, Fraction(key.i, K))
    return BaryPoint(coords)


def face_delete(key: FaceMap, y: BaryPoint) -> BaryPoint:
    """Left inverse of ``face_insert``: delete slot j, rescale by 1/(1-v)."""
    if y.dim != key.n:
        raise ValueError(f"face deletion expects dimension {key.n}, got {y.dim}")
    v = key.v
    if y[key.j] != v:
        raise WrongSlotValue(
            f"slot {key.j} holds {format_rational(y[key.j])}, expected {format_rational(v)}"
        )
    # Each other coordinate c = p/q becomes p*K / (q*(K-i)), reduced once.
    K = key.denominator
    keep = K - key.i
    return BaryPoint(
        Fraction(c.numerator * K, c.denominator * keep) for m, c in enumerate(y) if m != key.j
    )


@dataclass(frozen=True)
class ThetaKey:
    """Key (L, n, i) of one member of the homeomorphism family."""

    L: int
    n: int
    i: int

    def __post_init__(self):
        if self.L not in (0, 1):
            raise UnsupportedL(f"no construction for L={self.L}")
        if self.n < 0:
            raise ValueError(f"negative dimension {self.n}")
        if not 0 <= self.i <= self.L:
            raise ValueError(f"index {self.i} outside 0..{self.L}")

    @property
    def is_identity(self) -> bool:
        """Θ is the identity for the classical family (L = 0) and on the point."""
        return self.L == 0 or self.n == 0

    def map_id(self) -> str:
        return f"theta:L={self.L},n={self.n},i={self.i}"


@functools.cache
def theta(key: ThetaKey) -> SimplexHomeo:
    """The homeomorphism for ``key``, built once and cached.  A key past
    the dimension cap raises on every call; the cache keeps no errors."""
    if key.is_identity:
        homeo = identity_homeo(key.n)
    elif key.i == 0:
        homeo = lambda_lift(phi_n0(key.n), key.n)
    elif key.n == 1:
        # Base of the induction: both coordinates move through the kappa
        # polygon, which restricts to a homeomorphism of [0, 1/2].
        homeo = lambda_lift(restrict(kappa(), 0, Fraction(1, 2)), 1)
    else:
        if key.n > THETA1_DIM_CAP:
            raise ValueError(
                f"the inductive family Θ(1,n,1) is built up to dimension {THETA1_DIM_CAP}, "
                f"not {key.n}"
            )
        homeo = theta1_full(key.n)
    homeo.label = key.map_id()
    return homeo


def _first_zero(y: BaryPoint) -> int:
    for m, c in enumerate(y):
        if c == 0:
            return m
    raise NotOnFace(f"{format_point(y)} has no zero coordinate")


def _inserting(key: FaceMap) -> Tuple[PointMap, PointMap]:
    # Look the face maps up at call time, so a rebound name is what runs.
    return (lambda x: face_insert(key, x)), (lambda y: face_delete(key, y))


def _deleting(key: FaceMap) -> Tuple[PointMap, PointMap]:
    insert, delete = _inserting(key)
    return delete, insert


@functools.cache
def _face_steps(dim: int, j: int) -> Tuple[Tuple[PointMap, PointMap], ...]:
    """The seven-map composite on the face with slot j zero, as (map,
    inverse) pairs in order: peel off the zero at slot j, undo the
    previous dimension's lift, apply its inductive map, insert the
    distinguished cross value at slot 0, lift once more, put the zero
    back at slot j (now j+1), and delete the cross value from slot 0.
    Every map respects permutations, so the faces agree where they
    meet.  The Θ maps are resolved once per face."""
    lift = theta(ThetaKey(1, dim - 1, 0))
    lower = theta(ThetaKey(1, dim - 1, 1))
    relift = theta(ThetaKey(1, dim, 0))
    return (
        _deleting(FaceMap(1, dim, 0, j)),
        (lift.inverse_at, lift),
        (lower, lower.inverse_at),
        _inserting(FaceMap(1, dim, 1, 0)),
        (relift, relift.inverse_at),
        _inserting(FaceMap(1, dim + 1, 0, j + 1)),
        _deleting(FaceMap(1, dim + 1, 1, 0)),
    )


def theta1_on_face(dim: int, j: int, y: BaryPoint) -> BaryPoint:
    """Value of the inductive map on the boundary face with slot j zero:
    the seven-map composite of ``_face_steps(dim, j)``."""
    if dim < 2:
        raise ValueError("the inductive face construction starts at dimension 2")
    if y.dim != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {y.dim}")
    if y[j] != 0:
        raise NotOnFace(f"slot {j} of {format_point(y)} is not zero")
    for step, _ in _face_steps(dim, j):
        y = step(y)
    return y


def theta1_full(n: int) -> SimplexHomeo:
    """The inductive map on the whole n-simplex (n >= 2).

    The boundary values come from ``theta1_on_face``; the boundary
    extension with levels 1/(2(n+1)) and 1/(2(n+1)+1) produces a
    homeomorphism carrying the first cross onto the second.  Its exact
    inverse extends the boundary inverse, which runs the same face
    table in reverse, each pair's inverse.  The face tables, and the
    lower Θ maps they use, are resolved here, once.
    """
    if n < 2:
        raise ValueError("the inductive construction starts at dimension 2")

    tables = [_face_steps(n, j) for j in range(n + 1)]

    def on_boundary(b: BaryPoint) -> BaryPoint:
        return theta1_on_face(n, _first_zero(b), b)

    def on_boundary_inverse(c: BaryPoint) -> BaryPoint:
        for _, inverse in reversed(tables[_first_zero(c)]):
            c = inverse(c)
        return c

    alpha = Fraction(1, 2 * (n + 1))
    beta = Fraction(1, 2 * (n + 1) + 1)
    return extend_from_boundary(on_boundary, alpha, beta, n, on_boundary_inverse)
