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
  1/(2(n+1)+1)-cross.  The composite is a table of (map, inverse)
  pairs, resolved once per dimension; its inverse runs the inverses in
  reverse order, so every member of the family carries an exact inverse.

Maps are constructed once per key and cached; after construction the
cache is read-only and safe to share.  The inductive family is built up
to dimension ``THETA1_DIM_CAP`` and no further.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .comfort import PointMap, SimplexHomeo, extend_from_boundary, identity_homeo, lambda_lift
from .geometry import BaryPoint, apply_perm, format_point, format_rational, transposition
from .pl1d import kappa, phi_n0, restrict


class UnsupportedL(ValueError):
    """Only the families L = 0 and L = 1 are constructible."""


class WrongSlotValue(ValueError):
    """Face deletion found a value other than v at the deletion slot."""


class NotOnFace(ValueError):
    """The point does not lie on the requested boundary face."""


#: Construction of the inductive family stops at this dimension; each
#: extra dimension multiplies evaluation cost by a constant factor.
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
    def v(self) -> Fraction:
        return Fraction(self.i, (self.L + 1) * (self.n + 1))


def face_insert(key: FaceMap, x: BaryPoint) -> BaryPoint:
    """Insert v at slot j, scaling the other coordinates by 1-v."""
    if x.dim != key.n - 1:
        raise ValueError(f"face map expects dimension {key.n - 1}, got {x.dim}")
    v = key.v
    scale = 1 - v
    coords = [scale * c for c in x]
    coords.insert(key.j, v)
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
    scale = 1 / (1 - v)
    return BaryPoint(scale * c for m, c in enumerate(y) if m != key.j)


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

    def map_id(self) -> str:
        return f"theta:L={self.L},n={self.n},i={self.i}"


_CACHE: Dict[ThetaKey, SimplexHomeo] = {}


def theta(key: ThetaKey) -> SimplexHomeo:
    """The homeomorphism for ``key``, built once and cached."""
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    if key.L == 0 or key.n == 0:
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
    _CACHE[key] = homeo
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
def _face0_steps(dim: int) -> Tuple[Tuple[PointMap, PointMap], ...]:
    """The seven-map composite on the face with slot 0 zero, as (map,
    inverse) pairs in order: peel off the zero, undo the previous
    dimension's lift, apply its inductive map, insert the distinguished
    cross value, lift once more, and trade the inserted value for the
    zero.  The Θ maps are resolved once per dimension."""
    lift = theta(ThetaKey(1, dim - 1, 0))
    lower = theta(ThetaKey(1, dim - 1, 1))
    relift = theta(ThetaKey(1, dim, 0))
    return (
        _deleting(FaceMap(1, dim, 0, 0)),
        (lift.inverse_at, lift),
        (lower, lower.inverse_at),
        _inserting(FaceMap(1, dim, 1, 0)),
        (relift, relift.inverse_at),
        _inserting(FaceMap(1, dim + 1, 0, 0)),
        _deleting(FaceMap(1, dim + 1, 1, 1)),
    )


def _on_face(steps: Sequence[Tuple[PointMap, PointMap]], j: int, y: BaryPoint) -> BaryPoint:
    """Run the first map of each pair on the face with slot j zero: on
    face 0 directly, on face j conjugated by the transposition of slots
    0 and j."""
    if j != 0:
        swap = transposition(y.dim, 0, j)
        return apply_perm(_on_face(steps, 0, apply_perm(y, swap)), swap)
    for step, _ in steps:
        y = step(y)
    return y


def theta1_on_face(dim: int, j: int, y: BaryPoint) -> BaryPoint:
    """Value of the inductive map on the boundary face with slot j zero.

    For j = 0 this is the seven-map composite of ``_face0_steps``.  For
    j > 0 the value is obtained by conjugating with the transposition that
    swaps slots 0 and j; all seven maps respect permutations, so every
    face yields consistent values on overlaps.
    """
    if dim < 2:
        raise ValueError("the inductive face construction starts at dimension 2")
    if y.dim != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {y.dim}")
    if y[j] != 0:
        raise NotOnFace(f"slot {j} of {format_point(y)} is not zero")
    return _on_face(_face0_steps(dim), j, y)


def theta1_full(n: int) -> SimplexHomeo:
    """The inductive map on the whole n-simplex (n >= 2).

    The boundary values come from ``theta1_on_face``; the boundary
    extension with levels 1/(2(n+1)) and 1/(2(n+1)+1) produces a
    homeomorphism carrying the first cross onto the second.  Its exact
    inverse extends the boundary inverse, which runs the face composite
    in reverse: the same pairs, reversed and swapped, under the same
    transposition.  The face table and the lower Θ maps it uses are
    resolved here, once.
    """
    if n < 2:
        raise ValueError("the inductive construction starts at dimension 2")

    backward = tuple((inverse, forward) for forward, inverse in reversed(_face0_steps(n)))

    def on_boundary(b: BaryPoint) -> BaryPoint:
        return theta1_on_face(n, _first_zero(b), b)

    def on_boundary_inverse(c: BaryPoint) -> BaryPoint:
        return _on_face(backward, _first_zero(c), c)

    alpha = Fraction(1, 2 * (n + 1))
    beta = Fraction(1, 2 * (n + 1) + 1)
    return extend_from_boundary(on_boundary, alpha, beta, n, on_boundary_inverse)
