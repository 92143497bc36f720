"""Exact barycentric geometry of the standard simplex.

A point is stored as integer numerators over one common denominator D,
kept canonical: D is the least common multiple of the reduced
coordinate denominators, so ``gcd(D, *nums) == 1`` and two points are
equal exactly when their numerator tuples are.  Every operation is pure
and exact, so geometric identities can be asserted with ``==`` instead
of a tolerance.  The simplex constraints are integer comparisons on the
numerators, and the kernels (face maps, convex combinations, layer
projection, the lift and the per-ray polygons) read and write numerators
directly.  Indexing or iterating a point yields its coordinates as
reduced ``fractions.Fraction`` values, built on first use.

The module provides the standard simplex primitives (center, minimum
coordinate, radial layer projection, region membership, convex
combinations) plus the deterministic sample grids used by the
verification checks.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import abc
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

#: Seed used by every deterministic sampler unless the caller overrides it.
DEFAULT_SEED = 0x5EED

#: Common denominator of the canonical sponge grid.  60 is divisible by the
#: small denominators (4, 5, 6) that the named interval maps produce, so
#: their distinguished values land exactly on grid points.
DEFAULT_DENOMINATOR = 60

#: Pseudorandom grid points keep denominators at most this large.
RANDOM_POINT_MAX_DENOMINATOR = 10**4


class CenterProjection(ValueError):
    """Radial projection toward the boundary is undefined at the center."""


class DimensionMismatch(ValueError):
    """Operands live on standard simplices of different dimensions."""


def format_rational(q: Fraction) -> str:
    """ASCII form ``p/q`` in lowest terms; the denominator 1 is omitted."""
    return str(Fraction(q))


def parse_rational(text: str) -> Fraction:
    """The rational written as ``p``, ``p/q`` or a decimal; a zero
    denominator is a ``ValueError`` like any other malformed text."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text.strip()!r}") from exc


class BaryPoint(abc.Sequence):
    """A point of the standard simplex, stored exactly as integer
    numerators ``nums`` over one denominator ``den``.

    Construction is the only way to make one, and it validates the
    defining constraints on every point: every numerator is nonnegative
    and the numerators sum to exactly ``den``.  ``BaryPoint(coords)``
    takes coordinates (a ``Fraction`` is kept, anything else goes through
    ``Fraction(c)``) and puts them over the least common multiple of their
    denominators; ``BaryPoint(nums, den)`` takes integer numerators and
    divides out ``gcd(den, *nums)``.  A private third argument, a small
    known multiple of that gcd, only seeds it, so that each step reduces a
    big number modulo a small one.  Either way ``gcd(den, *nums) == 1``,
    so equal points have equal numerator tuples, which are what equality
    and the hash compare (the numerators sum to ``den``, so they fix it).
    As a sequence a point yields its coordinates as reduced ``Fraction``
    values, built once, on first use.  Instances are immutable by
    convention and hashable.
    """

    __slots__ = ("nums", "den", "_coords")

    def __new__(cls, coords: Iterable, den: Optional[int] = None, _gcd_bound: int = 0) -> "BaryPoint":
        vals = None
        if den is None:  # over the lcm of the denominators, so already reduced
            vals = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
            dens = [c.denominator for c in vals]
            den = math.lcm(*dens)
            nums = tuple(c.numerator * (den // q) for c, q in zip(vals, dens))
        else:
            nums = tuple(coords)
        if not nums:
            raise ValueError("a barycentric point needs at least one coordinate")
        if den <= 0:
            raise ValueError(f"barycentric denominator must be positive, got {den}")
        if min(nums) < 0:
            vals = vals or tuple(Fraction(p, den) for p in nums)
            raise ValueError(f"negative barycentric coordinate in {format_point(vals)}")
        if sum(nums) != den:
            vals = vals or tuple(Fraction(p, den) for p in nums)
            raise ValueError(f"barycentric coordinates must sum to 1, got {format_point(vals)}")
        if vals is None:  # a caller that knows a multiple of the gcd passes it first
            g = math.gcd(_gcd_bound, den, *nums)
            if g != 1:
                nums, den = tuple([p // g for p in nums]), den // g
        self = object.__new__(cls)
        self.nums, self.den, self._coords = nums, den, vals
        return self

    @property
    def coords(self) -> Tuple[Fraction, ...]:
        """The coordinates as reduced ``Fraction`` values."""
        if self._coords is None:
            den = self.den
            self._coords = tuple([Fraction(p, den) for p in self.nums])
        return self._coords

    def __getitem__(self, m):
        return self.coords[m]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, BaryPoint):
            return self.nums == other.nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.nums)

    @property
    def dim(self) -> int:
        return len(self.nums) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BaryPoint({format_point(self)})"


def format_point(x: Sequence[Fraction]) -> str:
    """Bracketed comma-separated tuple, e.g. ``[1/6,1/6,2/3]``."""
    return "[" + ",".join(format_rational(c) for c in x) + "]"


def parse_point(text: str) -> BaryPoint:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = body.split(",")
    if not all(p.strip() for p in parts):  # an empty field, or no field at all
        raise ValueError(f"cannot parse point from {text!r}")
    return BaryPoint(parse_rational(p) for p in parts)


def center(n: int) -> BaryPoint:
    """Barycenter of the n-dimensional standard simplex."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return BaryPoint((1,) * (n + 1), n + 1)


def vertex(n: int, j: int) -> BaryPoint:
    """The j-th vertex, i.e. the j-th standard unit vector."""
    if not 0 <= j <= n:
        raise ValueError(f"vertex index {j} out of range for dimension {n}")
    return BaryPoint([1 if m == j else 0 for m in range(n + 1)], 1)


def min_value(x: BaryPoint) -> Fraction:
    """Smallest coordinate of ``x`` (lies in [0, 1/(n+1)])."""
    return Fraction(min(x.nums), x.den)


def sort_perm(x: Sequence) -> Tuple[int, ...]:
    """Permutation placing the coordinates in ascending order.

    ``x`` may be a point, its coordinates, or its integer numerators
    ``x.nums``, which sort the same way and compare faster.

    Ties keep the original index order (the sort is stable), which keeps runs
    reproducible; downstream maps are permutation-respecting, so results
    do not depend on the tie-breaking rule.
    """
    return tuple(sorted(range(len(x)), key=x.__getitem__))


def apply_perm(x: BaryPoint, perm: Sequence[int]) -> BaryPoint:
    """The permuted point x∘θ with coordinates ``(x[θ(0)], ..., x[θ(n)])``."""
    nums = x.nums
    if len(perm) != len(nums) or sorted(perm) != list(range(len(nums))):
        raise ValueError(f"{perm!r} is not a permutation of 0..{len(nums) - 1}")
    return BaryPoint([nums[p] for p in perm], x.den)


def segment_eval(a: BaryPoint, b: BaryPoint, t: Fraction) -> BaryPoint:
    """Exact convex combination ``t*a + (1-t)*b``; t=1 gives ``a``."""
    if len(a.nums) != len(b.nums):
        raise DimensionMismatch(f"segment endpoints have dims {len(a)-1} and {len(b)-1}")
    t = t if type(t) is Fraction else Fraction(t)
    p, q = t.numerator, t.denominator
    if not 0 <= p <= q:
        raise ValueError(f"segment parameter {t} outside [0,1]")
    # With a = A/Da, b = B/Db, D = lcm(Da, Db) and t = p/q, coordinate m
    # is (p*A_m*(D/Da) + (q-p)*B_m*(D/Db)) / (q*D).
    den = math.lcm(a.den, b.den)
    ua, ub = p * (den // a.den), (q - p) * (den // b.den)
    return BaryPoint([ua * am + ub * bm for am, bm in zip(a.nums, b.nums)], q * den)


def project_layer(x: BaryPoint, alpha: Fraction) -> BaryPoint:
    """Radial projection of ``x`` onto the layer of minimum value ``alpha``.

    The projection moves along the ray from the center through ``x``:
    with b_i = (x_i - min(x)) / (1 - (n+1)*min(x)) the image has
    coordinates alpha + (1 - (n+1)*alpha) * b_i.  For alpha = 1/(n+1) it
    is the constant map to the center; for alpha < 1/(n+1) it is
    undefined at the center.
    """
    k = len(x.nums)
    alpha = alpha if type(alpha) in (int, Fraction) else Fraction(alpha)
    a, d = alpha.numerator, alpha.denominator
    if not 0 <= a * k <= d:  # 0 <= alpha <= 1/(n+1) for alpha = a/d
        raise ValueError(f"layer level {alpha} outside [0, 1/{k}]")
    if a * k == d:
        return center(k - 1)
    # Over D, x_m = X_m/D with minimum M/D; the image coordinate is
    # (a*(D - (n+1)*M) + (d - (n+1)*a)*(X_m - M)) / (d*(D - (n+1)*M)).
    nums = x.nums
    low = min(nums)
    rest = x.den - k * low
    if rest == 0:
        raise CenterProjection(f"projection to layer {alpha} undefined at the center")
    base, scale = a * rest, d - k * a
    return BaryPoint([base + scale * (xm - low) for xm in nums], d * rest)


def project_boundary(x: BaryPoint) -> BaryPoint:
    """Radial projection onto the topological boundary (layer 0)."""
    return project_layer(x, 0)


# ---------------------------------------------------------------------------
# Region membership


def on_cross(x: BaryPoint, alpha) -> bool:
    """Whether some coordinate of ``x`` equals ``alpha``."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"cross level {alpha} outside [0,1]")
    level = alpha.numerator * x.den
    return any(xm * alpha.denominator == level for xm in x.nums)


def on_boundary(x: BaryPoint) -> bool:
    """Whether ``x`` has a zero coordinate."""
    return 0 in x.nums


# ---------------------------------------------------------------------------
# Deterministic sample grids


def _child_rng(seed: int, tag: int, n: int) -> random.Random:
    # Arithmetic seed derivation; never hash(), which is process-dependent.
    return random.Random(seed * 1_000_003 + tag * 9_973 + n)


def _composition(rng: random.Random, total: int, parts: int) -> List[int]:
    """A uniformly chosen composition of ``total`` into ``parts`` parts >= 0."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    out = []
    prev = 0
    for c in cuts:
        out.append(c - prev)
        prev = c
    out.append(total - prev)
    return out


class _DistinctLattice(abc.Sequence):
    """The tuples of k in {2, 3} pairwise distinct nonnegative integers
    summing to D, in the order of ``itertools.product`` over all but the
    last entry, indexed without enumerating them.

    A row fixes the head (the first k-2 entries, distinct, with remainder
    R = D - sum(head)); its entries are the c in 0..R with R-c as the last
    entry, less the c that repeat a head entry (c = h or R - c = h) or
    each other (2c = R).  Each row's count takes O(1), and a prefix sum
    over the rows locates the row of an index.
    """

    def __init__(self, denominator: int, k: int):
        heads = [()] if k == 2 else [(h,) for h in range(denominator + 1)]
        self._rows = []  # (head, R, skipped c ascending)
        self._starts = []
        total = 0
        for head in heads:
            rest = denominator - sum(head)
            skip = set(head) | {rest - h for h in head}
            if rest % 2 == 0:
                skip.add(rest // 2)
            skip = sorted(c for c in skip if 0 <= c <= rest)
            self._rows.append((head, rest, skip))
            self._starts.append(total)
            total += rest + 1 - len(skip)
        self._len = total

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> Tuple[int, ...]:
        if not 0 <= index < self._len:
            raise IndexError("lattice index out of range")
        row = bisect.bisect_right(self._starts, index) - 1
        head, rest, skip = self._rows[row]
        c = index - self._starts[row]
        for s in skip:  # the c-th kept value, counting from 0
            if s <= c:
                c += 1
        return head + (c, rest - c)


def sponge_points(
    n: int,
    denominator: int = DEFAULT_DENOMINATOR,
    cap: int = 64,
    seed: int = DEFAULT_SEED,
) -> List[BaryPoint]:
    """Points of the denominator-D lattice with pairwise distinct coordinates.

    For dimensions 1 and 2 the set is indexed in product order and, when
    larger than ``cap``, subsampled deterministically; only the sampled
    tuples are built.  For higher dimensions the set is sampled directly
    by seeded rejection, since the lattice grows combinatorially.
    """
    if n == 0:
        return [BaryPoint((1,))]
    if denominator < max(n + 2, n * (n + 1) // 2):  # n+1 distinct numerators sum to >= 0+1+...+n
        raise ValueError("denominator too small to host distinct coordinates")
    rng = _child_rng(seed, 1, n)
    k = n + 1
    lattice: Sequence[Tuple[int, ...]]
    if k <= 3:
        # Sample the indexed numerator tuples; only the kept ones become points.
        lattice = _DistinctLattice(denominator, k)
        if len(lattice) > cap:
            lattice = rng.sample(lattice, cap)
    else:
        lattice = []
        seen = set()
        attempts = 0
        while len(lattice) < cap and attempts < 200 * cap:
            attempts += 1
            parts = tuple(_composition(rng, denominator, k))
            if len(set(parts)) != k or parts in seen:
                continue
            seen.add(parts)
            lattice.append(parts)
    return [BaryPoint(parts, denominator) for parts in lattice]


def random_rational_points(
    n: int,
    count: int = 64,
    seed: int = DEFAULT_SEED,
    max_denominator: int = RANDOM_POINT_MAX_DENOMINATOR,
) -> List[BaryPoint]:
    """Seeded pseudorandom points with coordinate denominators bounded."""
    if n == 0:
        return [BaryPoint((1,))] if count else []
    rng = _child_rng(seed, 2, n)
    points = []
    for _ in range(count):
        d = rng.randint(n + 2, max_denominator)
        points.append(BaryPoint(_composition(rng, d, n + 1), d))
    return points


def canonical_grid(
    n: int,
    denominator: int = DEFAULT_DENOMINATOR,
    seed: int = DEFAULT_SEED,
    sponge_cap: int = 64,
    random_count: int = 64,
) -> List[BaryPoint]:
    """The reproducible verification grid: sponge lattice plus random points."""
    if n == 0:
        return [BaryPoint((1,))]
    pts = sponge_points(n, denominator, sponge_cap, seed)
    pts.extend(random_rational_points(n, random_count, seed))
    return pts
