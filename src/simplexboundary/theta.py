"""Face maps and the Θ homeomorphism family.

A face map inserts the value v = i/((L+1)(n+1)) at a chosen slot and
scales the remaining coordinates by 1-v; its left inverse deletes that
slot again.  The Θ family supplies, for every face map, the simplex
homeomorphism that precomposes it inside the boundary operator; Θ(L,n,i)
carries the cross x_m = α onto x_m = β, for (α, β) = ``ThetaKey.levels``:

* L = 0: the identity in every dimension (the classical operator);
* L = 1, i = 0: the lift of the polygon α ↦ β of [0, 1/(n+1)];
* L = 1, i = 1: the lift of ``kappa`` on [0, 1/2] at n = 1; above it,
  built by induction on the dimension — a seven-map composite defines
  it on the boundary faces, and the boundary extension with levels α and
  β carries it inward.  Each boundary face has its own table of
  (map, inverse) pairs, the same seven maps written for its zero slot
  and resolved once; the inverse runs the inverses in reverse order, so
  every member of the family carries an exact inverse.

Maps are constructed once per key and cached with ``functools.cache``;
after construction a map is read-only and safe to share.  ``check_family``
says which Θ exist: L in {0, 1}, the inductive family up to ``THETA1_DIM_CAP``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .comfort import PointMap, SimplexHomeo, extend_from_boundary, identity_homeo, lambda_lift
from .geometry import BaryPoint, format_rational
from .pl1d import kappa, restrict, sigma_polygon


class UnsupportedL(ValueError):
    """A Θ that is not built: its L lies outside {0, 1}, or it is the
    inductive Θ(1,n,1) past the dimension cap ``THETA1_DIM_CAP``."""


class WrongSlotValue(ValueError):
    """Face deletion found a value other than v at the deletion slot."""


#: Construction of the inductive family stops at this dimension.  What
#: limits a level is the growth of the denominators, not the cost per point
#: at a fixed size: the largest output denominator of Θ(1,n,1) about
#: doubles in bits with each dimension, and the identity at level n runs
#: composites of every lower Θ on such points.  On 2 shared vCPUs (Python
#: 3.11.7) the level 7 suite of ``verify-equations`` takes about 5.3 s with
#: a max RSS of 17.5 MB, and level 8 about 33 s with 18.4 MB.
THETA1_DIM_CAP = 8


def check_family(L: int, n: int = 0) -> None:
    """Raise ``UnsupportedL`` unless every Θ(L, m, i) with m <= n is built;
    the one test of which Θ exist, which every other module asks."""
    if L not in (0, 1):
        raise UnsupportedL(f"the homeomorphism family exists for L in {{0,1}}, got {L}")
    if L == 1 and n > THETA1_DIM_CAP:
        raise UnsupportedL(
            f"Θ(1,{n},1) is past the cap: the inductive family is built up to dimension {THETA1_DIM_CAP}"
        )


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
    if len(x.nums) != key.n:
        raise ValueError(f"face map expects dimension {key.n - 1}, got {x.dim}")
    if not key.i:  # a zero keeps the numerators and D, which stay reduced
        nums = list(x.nums)
        nums.insert(key.j, 0)
        return BaryPoint(nums, x.den, 1)
    # With x = X/D and v = i/K, the image is over D*K: X_m*(K-i) for the
    # kept coordinates and i*D at slot j.  Their gcd divides K*(K-i): a
    # prime of D misses some X_m, so its power is at most that in K-i, and
    # any other prime's power is at most that in K.
    K = key.denominator
    keep = K - key.i
    nums = [xm * keep for xm in x.nums]
    nums.insert(key.j, key.i * x.den)
    return BaryPoint(nums, x.den * K, K * keep)


def face_delete(key: FaceMap, y: BaryPoint) -> BaryPoint:
    """Left inverse of ``face_insert``: delete slot j, rescale by 1/(1-v)."""
    j, nums = key.j, y.nums
    if len(nums) != key.n + 1:
        raise ValueError(f"face deletion expects dimension {key.n}, got {y.dim}")
    # With y = Y/D, slot j holds v = i/K exactly when Y_j*K = i*D; the
    # other coordinates, scaled by 1/(1-v), are Y_m over D - Y_j.  When
    # v = 0 they are Y_m over D, already reduced.
    if nums[j] * key.denominator != key.i * y.den:
        raise WrongSlotValue(
            f"slot {j} holds {format_rational(y[j])}, expected {format_rational(key.v)}"
        )
    return BaryPoint(nums[:j] + nums[j + 1 :], y.den - nums[j], 0 if key.i else 1)


@dataclass(frozen=True)
class ThetaKey:
    """Key (L, n, i) of one member of the homeomorphism family."""

    L: int
    n: int
    i: int

    def __post_init__(self):
        check_family(self.L)
        if self.n < 0:
            raise ValueError(f"negative dimension {self.n}")
        if not 0 <= self.i <= self.L:
            raise ValueError(f"index {self.i} outside 0..{self.L}")

    @property
    def is_identity(self) -> bool:
        """Θ is the identity for the classical family (L = 0) and on the point."""
        return self.L == 0 or self.n == 0

    @property
    def levels(self) -> Tuple[Fraction, Fraction]:
        """(α, β) = (1/((L+1)(n+1)), 1/((L+1)(n+2)-i)): Θ carries the α-cross onto β."""
        return Fraction(1, (self.L + 1) * (self.n + 1)), Fraction(1, (self.L + 1) * (self.n + 2) - self.i)


@functools.cache
def theta(key: ThetaKey) -> SimplexHomeo:
    """The homeomorphism for ``key``, built once and cached.  A key past
    the dimension cap raises on every call; the cache keeps no errors."""
    if key.is_identity:
        return identity_homeo(key.n)
    if key.i == 0:
        return lambda_lift(sigma_polygon(*key.levels, Fraction(1, key.n + 1)), key.n)
    if key.n == 1:
        # Base of the induction: both coordinates move through the kappa
        # polygon, which restricts to a homeomorphism of [0, 1/2].
        return lambda_lift(restrict(kappa(), 0, Fraction(1, 2)), 1)
    return _inductive(key)


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
    meet.  The Θ maps are resolved once per face; past the cap
    ``check_family`` raises on every call."""
    check_family(1, dim)
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
    the seven-map composite of ``_face_steps(dim, j)``.  Its first map,
    deleting the zero at slot j, is the one check that y lies on the face."""
    if dim < 2:
        raise ValueError("the inductive face construction starts at dimension 2")
    for step, _ in _face_steps(dim, j):
        y = step(y)
    return y


def _inductive(key: ThetaKey) -> SimplexHomeo:
    """The inductive Θ(1,n,1), n >= 2: the boundary extension, with the
    key's levels, of ``theta1_on_face``.  Its exact inverse extends the
    boundary inverse, which runs the same face table in reverse, each
    pair's inverse.  The face tables, and the lower Θ maps they use, are
    resolved here, once."""
    n = key.n
    tables = [_face_steps(n, j) for j in range(n + 1)]

    def on_boundary(b: BaryPoint) -> BaryPoint:
        return theta1_on_face(n, b.nums.index(0), b)

    def on_boundary_inverse(c: BaryPoint) -> BaryPoint:
        for _, inverse in reversed(tables[c.nums.index(0)]):
            c = inverse(c)
        return c

    return extend_from_boundary(on_boundary, *key.levels, n, on_boundary_inverse)
