"""Exact barycentric geometry of the standard simplex.

Every coordinate is stored as a reduced ``fractions.Fraction`` and every
operation is pure and exact, so geometric identities can be asserted with
``==`` instead of a tolerance.  Points are checked and built over one
integer common denominator: a point's coordinates are put over the least
common multiple D of their denominators, the simplex constraints become
integer comparisons on the numerators, and each output coordinate is
reduced once, as one ``Fraction(numerator, denominator)``.

The module provides the standard simplex primitives (center, minimum
coordinate, radial layer projection, region membership, convex
combinations) plus the deterministic sample grids used by the
verification checks.
"""

from __future__ import annotations

import itertools
import math
import random
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


def _over_common_denominator(coords: Sequence[Fraction]) -> Tuple[List[int], int]:
    """The integer numerators of ``coords`` over their least common
    denominator D, and D."""
    dens = [c.denominator for c in coords]
    den = math.lcm(*dens)
    return [c.numerator * (den // q) for c, q in zip(coords, dens)], den


class BaryPoint(tuple):
    """A point of the standard simplex as an exact barycentric tuple.

    Construction is the only way to make one, and it validates the
    defining constraints on every point: over the common denominator D of
    the coordinates, every numerator is nonnegative and the numerators sum
    to exactly D.  Coordinates that are already ``Fraction`` are kept;
    anything else goes through ``Fraction(c)``.  Instances are immutable
    and hashable tuples of reduced ``Fraction``.
    """

    def __new__(cls, coords: Iterable) -> "BaryPoint":
        vals = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
        if not vals:
            raise ValueError("a barycentric point needs at least one coordinate")
        nums, den = _over_common_denominator(vals)
        if min(nums) < 0:
            raise ValueError(f"negative barycentric coordinate in {vals!r}")
        if sum(nums) != den:
            raise ValueError(f"barycentric coordinates must sum to 1, got {vals!r}")
        return super().__new__(cls, vals)

    @property
    def dim(self) -> int:
        return len(self) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BaryPoint({format_point(self)})"


def format_point(x: Sequence[Fraction]) -> str:
    """Bracketed comma-separated tuple, e.g. ``[1/6,1/6,2/3]``."""
    return "[" + ",".join(format_rational(c) for c in x) + "]"


def parse_point(text: str) -> BaryPoint:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = [p for p in body.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"cannot parse point from {text!r}")
    return BaryPoint(parse_rational(p) for p in parts)


def center(n: int) -> BaryPoint:
    """Barycenter of the n-dimensional standard simplex."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    c = Fraction(1, n + 1)
    return BaryPoint((c,) * (n + 1))


def vertex(n: int, j: int) -> BaryPoint:
    """The j-th vertex, i.e. the j-th standard unit vector."""
    if not 0 <= j <= n:
        raise ValueError(f"vertex index {j} out of range for dimension {n}")
    return BaryPoint(tuple(1 if m == j else 0 for m in range(n + 1)))


def min_value(x: Sequence[Fraction]) -> Fraction:
    """Smallest coordinate of ``x`` (lies in [0, 1/(n+1)])."""
    return min(x)


def sort_perm(x: Sequence) -> Tuple[int, ...]:
    """Permutation placing the coordinates in ascending order.

    ``x`` may be the coordinates or their integer numerators over one
    common denominator, which sort the same way.

    Ties are broken by the original index (stable), which keeps runs
    reproducible; downstream maps are permutation-respecting, so results
    do not depend on the tie-breaking rule.
    """
    return tuple(sorted(range(len(x)), key=lambda m: (x[m], m)))


def apply_perm(x: Sequence[Fraction], perm: Sequence[int]) -> BaryPoint:
    """The permuted point x∘θ with coordinates ``(x[θ(0)], ..., x[θ(n)])``."""
    if len(perm) != len(x) or sorted(perm) != list(range(len(x))):
        raise ValueError(f"{perm!r} is not a permutation of 0..{len(x) - 1}")
    return BaryPoint(tuple(x[p] for p in perm))


def transposition(n: int, a: int, b: int) -> Tuple[int, ...]:
    perm = list(range(n + 1))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def segment_eval(a: BaryPoint, b: BaryPoint, t: Fraction) -> BaryPoint:
    """Exact convex combination ``t*a + (1-t)*b``; t=1 gives ``a``."""
    if len(a) != len(b):
        raise DimensionMismatch(f"segment endpoints have dims {len(a)-1} and {len(b)-1}")
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"segment parameter {t} outside [0,1]")
    # Over D = lcm of all denominators and t = p/q, coordinate m is
    # (p*A_m + (q-p)*B_m) / (q*D).
    nums, den = _over_common_denominator(a + b)
    p, q = t.numerator, t.denominator
    k = len(a)
    return BaryPoint(
        tuple(Fraction(p * am + (q - p) * bm, q * den) for am, bm in zip(nums[:k], nums[k:]))
    )


def project_layer(x: BaryPoint, alpha: Fraction) -> BaryPoint:
    """Radial projection of ``x`` onto the layer of minimum value ``alpha``.

    The projection moves along the ray from the center through ``x``:
    with b_i = (x_i - min(x)) / (1 - (n+1)*min(x)) the image has
    coordinates alpha + (1 - (n+1)*alpha) * b_i.  For alpha = 1/(n+1) it
    is the constant map to the center; for alpha < 1/(n+1) it is
    undefined at the center.
    """
    n = x.dim
    alpha = Fraction(alpha)
    cval = Fraction(1, n + 1)
    if not 0 <= alpha <= cval:
        raise ValueError(f"layer level {alpha} outside [0, 1/{n + 1}]")
    if alpha == cval:
        return center(n)
    # Over D, x_m = X_m/D with minimum M/D; with alpha = a/d the image
    # coordinate is (a*(D - (n+1)*M) + (d - (n+1)*a)*(X_m - M)) / (d*(D - (n+1)*M)).
    nums, den = _over_common_denominator(x)
    low = min(nums)
    rest = den - (n + 1) * low
    if rest == 0:
        raise CenterProjection(f"projection to layer {alpha} undefined at the center")
    a, d = alpha.numerator, alpha.denominator
    base, scale = a * rest, d - (n + 1) * a
    return BaryPoint(tuple(Fraction(base + scale * (xm - low), d * rest) for xm in nums))


def project_boundary(x: BaryPoint) -> BaryPoint:
    """Radial projection onto the topological boundary (layer 0)."""
    return project_layer(x, Fraction(0))


# ---------------------------------------------------------------------------
# Region membership


def on_cross(x: BaryPoint, alpha) -> bool:
    """Whether some coordinate of ``x`` equals ``alpha``."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"cross level {alpha} outside [0,1]")
    return any(xi == alpha for xi in x)


def on_layer(x: BaryPoint, alpha) -> bool:
    """Whether the smallest coordinate of ``x`` equals ``alpha``."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= Fraction(1, x.dim + 1):
        raise ValueError(f"layer level {alpha} outside [0, 1/{x.dim + 1}]")
    return min(x) == alpha


def on_boundary(x: BaryPoint) -> bool:
    """Whether ``x`` has a zero coordinate."""
    return any(xi == 0 for xi in x)


def in_section(x: BaryPoint, j: int) -> bool:
    """Whether coordinate j of ``x`` is a smallest one."""
    if not 0 <= j <= x.dim:
        raise ValueError(f"section index {j} out of range")
    return min(x) == x[j]


def in_sponge(x: BaryPoint) -> bool:
    """Whether the coordinates of ``x`` are pairwise distinct."""
    return len(set(x)) == len(x)


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


def sponge_points(
    n: int,
    denominator: int = DEFAULT_DENOMINATOR,
    cap: Optional[int] = 64,
    seed: int = DEFAULT_SEED,
) -> List[BaryPoint]:
    """Points of the denominator-D lattice with pairwise distinct coordinates.

    For dimensions whose lattice is small the full set is enumerated and,
    when larger than ``cap``, subsampled deterministically.  For higher
    dimensions the set is sampled directly by seeded rejection, since the
    lattice grows combinatorially.
    """
    if n == 0:
        return [BaryPoint((1,))]
    if denominator < max(n + 2, n * (n + 1) // 2):  # n+1 distinct numerators sum to >= 0+1+...+n
        raise ValueError("denominator too small to host distinct coordinates")
    rng = _child_rng(seed, 1, n)
    k = n + 1
    points: List[BaryPoint] = []
    if k <= 3:
        for combo in itertools.product(range(denominator + 1), repeat=k - 1):
            last = denominator - sum(combo)
            if last < 0:
                continue
            parts = combo + (last,)
            if len(set(parts)) == k:
                points.append(BaryPoint(Fraction(p, denominator) for p in parts))
        if cap is not None and len(points) > cap:
            points = rng.sample(points, cap)
    else:
        want = cap if cap is not None else 64
        seen = set()
        attempts = 0
        while len(points) < want and attempts < 200 * want:
            attempts += 1
            parts = tuple(_composition(rng, denominator, k))
            if len(set(parts)) != k or parts in seen:
                continue
            seen.add(parts)
            points.append(BaryPoint(Fraction(p, denominator) for p in parts))
    return points


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
        parts = _composition(rng, d, n + 1)
        points.append(BaryPoint(Fraction(p, d) for p in parts))
    return points


def canonical_grid(
    n: int,
    denominator: int = DEFAULT_DENOMINATOR,
    seed: int = DEFAULT_SEED,
    sponge_cap: Optional[int] = 64,
    random_count: int = 64,
) -> List[BaryPoint]:
    """The reproducible verification grid: sponge lattice plus random points."""
    if n == 0:
        return [BaryPoint((1,))]
    pts = sponge_points(n, denominator, sponge_cap, seed)
    pts.extend(random_rational_points(n, random_count, seed))
    return pts


def boundary_samples(n: int, count: int, seed: int = DEFAULT_SEED) -> List[BaryPoint]:
    """Seeded points with at least one zero coordinate."""
    if n < 1:
        raise ValueError("the 0-simplex has no boundary")
    rng = _child_rng(seed, 3, n)
    points = []
    for m in range(count):
        slot = m % (n + 1)
        d = rng.randint(n + 1, 3_000)
        parts = _composition(rng, d, n)
        coords = [Fraction(p, d) for p in parts]
        coords.insert(slot, Fraction(0))
        points.append(BaryPoint(coords))
    return points


def cross_samples(n: int, alpha, count: int, seed: int = DEFAULT_SEED) -> List[BaryPoint]:
    """Seeded points carrying at least one coordinate exactly ``alpha``."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"cross level {alpha} outside [0,1]")
    if n < 1:
        raise ValueError("cross sampling needs dimension >= 1")
    rng = _child_rng(seed, 4, n)
    rest = 1 - alpha
    points = []
    for m in range(count):
        slot = m % (n + 1)
        d = rng.randint(n + 1, 3_000)
        parts = _composition(rng, d, n)
        coords = [rest * Fraction(p, d) for p in parts]
        coords.insert(slot, alpha)
        points.append(BaryPoint(coords))
    return points


def multi_zero_samples(n: int, count: int, seed: int = DEFAULT_SEED) -> List[BaryPoint]:
    """Seeded boundary points with at least two zero coordinates (n >= 2)."""
    if n < 2:
        raise ValueError("two zero slots need dimension >= 2")
    rng = _child_rng(seed, 5, n)
    slot_pairs = list(itertools.combinations(range(n + 1), 2))
    points = []
    for m in range(count):
        z1, z2 = slot_pairs[m % len(slot_pairs)]
        d = rng.randint(n + 1, 3_000)
        parts = _composition(rng, d, n - 1)
        coords = [Fraction(p, d) for p in parts]
        coords.insert(z1, Fraction(0))
        coords.insert(z2, Fraction(0))
        points.append(BaryPoint(coords))
    return points


def layer_samples(n: int, alpha, count: int, seed: int = DEFAULT_SEED) -> List[BaryPoint]:
    """Seeded points whose minimum coordinate is exactly ``alpha``."""
    alpha = Fraction(alpha)
    if alpha == Fraction(1, n + 1):
        return [center(n)]
    return [project_layer(b, alpha) for b in boundary_samples(n, count, seed)]
