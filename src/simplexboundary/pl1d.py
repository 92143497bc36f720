"""Increasing piecewise-linear self-homeomorphisms of rational intervals.

A ``PLMap`` is stored as its ordered breakpoint list and normalized so
that collinear interior breakpoints are removed; two maps are equal as
functions exactly when their normalized breakpoint tuples are equal.
Besides the generic operations (evaluate, invert, compose) the module
provides the named constructors used by the simplex homeomorphisms: the
two symmetric seed polygons, the ``phi_n0`` family, the three-point level
matching polygon and the per-ray ``tau`` polygon of the boundary
extension.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .geometry import BaryPoint, format_rational

Breakpoint = Tuple[Fraction, Fraction]


class NonMonotone(ValueError):
    """Breakpoints do not describe a strictly increasing map."""


class BadEndpoints(ValueError):
    """The requested domain endpoints are missing from the breakpoints."""


class OutOfDomain(ValueError):
    """Evaluation argument outside the map's interval."""


class CrossMismatch(ValueError):
    """Boundary images violate the level correspondence b_j = α iff c_j = β."""


@dataclass(frozen=True)
class PLMap:
    """Increasing piecewise-linear homeomorphism given by its breakpoints."""

    points: Tuple[Breakpoint, ...]

    @property
    def lo(self) -> Fraction:
        return self.points[0][0]

    @property
    def hi(self) -> Fraction:
        return self.points[-1][0]

    @property
    def out_lo(self) -> Fraction:
        return self.points[0][1]

    @property
    def out_hi(self) -> Fraction:
        return self.points[-1][1]

    @property
    def domain(self) -> Tuple[Fraction, Fraction]:
        return (self.lo, self.hi)

    def __call__(self, t: Fraction) -> Fraction:
        return pl_eval(self, t)

    def fixed_points(self) -> Tuple[Fraction, ...]:
        """Breakpoint inputs mapped to themselves (includes both endpoints
        when the map fixes them)."""
        return tuple(u for u, v in self.points if u == v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pts = " ".join(f"({format_rational(u)},{format_rational(v)})" for u, v in self.points)
        return f"PLMap[{pts}]"


def _normalize(points: Sequence[Breakpoint]) -> Tuple[Breakpoint, ...]:
    # Drop interior breakpoints where the slope does not change, so map
    # equality is decidable by comparing breakpoint tuples.
    out: List[Breakpoint] = []
    for pt in points:
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            x2, y2 = pt
            if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
                out.pop()
            else:
                break
        out.append(pt)
    return tuple(out)


def polygon(points: Iterable, domain: Tuple = None) -> PLMap:
    """The increasing polygon through the given (input, output) pairs.

    Exact duplicate pairs are collapsed first.  After deduplication both
    the inputs and the outputs must be strictly increasing; if a domain
    is supplied its endpoints must occur among the breakpoint inputs.
    """
    pairs = sorted({(Fraction(u), Fraction(v)) for u, v in points})
    if len(pairs) < 2:
        raise NonMonotone(f"a polygon needs at least two distinct points, got {pairs!r}")
    for (u0, v0), (u1, v1) in zip(pairs, pairs[1:]):
        if u0 == u1:
            raise NonMonotone(f"inputs collide at {format_rational(u0)}: outputs {v0} and {v1}")
        if v0 >= v1:
            raise NonMonotone(
                f"outputs not strictly increasing at input {format_rational(u1)}: {v0} then {v1}"
            )
    if domain is not None:
        lo, hi = Fraction(domain[0]), Fraction(domain[1])
        if pairs[0][0] != lo or pairs[-1][0] != hi:
            raise BadEndpoints(
                f"breakpoints span [{pairs[0][0]}, {pairs[-1][0]}], expected [{lo}, {hi}]"
            )
    return PLMap(_normalize(pairs))


def identity_map(lo, hi) -> PLMap:
    lo, hi = Fraction(lo), Fraction(hi)
    return polygon([(lo, lo), (hi, hi)])


def pl_eval(f: PLMap, t: Fraction) -> Fraction:
    """Exact value of ``f`` at ``t`` by linear interpolation."""
    t = Fraction(t)
    if not f.lo <= t <= f.hi:
        raise OutOfDomain(f"{format_rational(t)} outside [{f.lo}, {f.hi}]")
    inputs = [u for u, _ in f.points]
    idx = bisect_right(inputs, t)
    if idx == len(inputs):
        return f.points[-1][1]
    x0, y0 = f.points[idx - 1] if idx > 0 else f.points[0]
    x1, y1 = f.points[idx]
    if t == x0:
        return y0
    return y0 + (t - x0) * (y1 - y0) / (x1 - x0)


def pl_inverse(f: PLMap) -> PLMap:
    """The inverse homeomorphism; breakpoint pairs are swapped."""
    return PLMap(tuple((v, u) for u, v in f.points))


def pl_compose(g: PLMap, f: PLMap) -> PLMap:
    """The composite g∘f as a PLMap.

    The breakpoint inputs are f's inputs together with the f-preimages of
    g's inputs, so the composite is linear on every segment.
    """
    if (f.out_lo, f.out_hi) != (g.lo, g.hi):
        raise ValueError(
            f"codomain [{f.out_lo}, {f.out_hi}] of the inner map does not match "
            f"domain [{g.lo}, {g.hi}] of the outer map"
        )
    finv = pl_inverse(f)
    inputs = {u for u, _ in f.points}
    inputs.update(pl_eval(finv, u) for u, _ in g.points)
    pairs = [(t, pl_eval(g, pl_eval(f, t))) for t in sorted(inputs)]
    return PLMap(_normalize(tuple(pairs)))


# ---------------------------------------------------------------------------
# Named constructors


def eta() -> PLMap:
    """Seed polygon through (0,0), (1/4,1/6), (3/4,5/6), (1,1)."""
    q = Fraction
    return polygon([(0, 0), (q(1, 4), q(1, 6)), (q(3, 4), q(5, 6)), (1, 1)])


def kappa() -> PLMap:
    """Seed polygon through (0,0), (1/4,1/5), (3/4,4/5), (1,1)."""
    q = Fraction
    return polygon([(0, 0), (q(1, 4), q(1, 5)), (q(3, 4), q(4, 5)), (1, 1)])


def restrict(f: PLMap, lo, hi) -> PLMap:
    """Restriction of ``f`` to a closed subinterval of its domain."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not f.lo <= lo < hi <= f.hi:
        raise OutOfDomain(f"[{lo}, {hi}] is not a subinterval of [{f.lo}, {f.hi}]")
    pairs = [(lo, pl_eval(f, lo))]
    pairs.extend((u, v) for u, v in f.points if lo < u < hi)
    pairs.append((hi, pl_eval(f, hi)))
    return PLMap(_normalize(tuple(pairs)))


def phi_n0(n: int) -> PLMap:
    """Homeomorphism of [0, 1/(n+1)] through (1/(2(n+1)), 1/(2(n+2)))."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    top = Fraction(1, n + 1)
    return polygon([(0, 0), (Fraction(1, 2 * (n + 1)), Fraction(1, 2 * (n + 2))), (top, top)])


def sigma_polygon(alpha, beta, hi) -> PLMap:
    """Three-point polygon on [0, hi] fixing the endpoints with α ↦ β."""
    alpha, beta, hi = Fraction(alpha), Fraction(beta), Fraction(hi)
    if alpha == beta:
        return identity_map(0, hi)
    if not (0 < alpha < hi and 0 < beta < hi):
        raise ValueError(f"levels ({alpha}, {beta}) must lie strictly inside (0, {hi})")
    return polygon([(0, 0), (alpha, beta), (hi, hi)])


def tau_polygon(b: BaryPoint, c: BaryPoint, alpha, beta) -> PLMap:
    """Per-ray reparametrization of [0,1] used by the boundary extension.

    ``b`` is a boundary point, ``c`` its image under the boundary
    homeomorphism.  For every index with b_j <= alpha the polygon passes
    through ((α-b_j)/(1/(n+1)-b_j), (β-c_j)/(1/(n+1)-c_j)); coincident
    pairs collapse.  Monotonicity of the resulting breakpoints encodes
    that the boundary map keeps the order and matches the crosses.
    """
    if len(b) != len(c):
        raise ValueError("boundary point and image have different dimensions")
    n = b.dim
    alpha, beta = Fraction(alpha), Fraction(beta)
    cv = Fraction(1, n + 1)
    if not (0 <= alpha < cv and 0 <= beta < cv):
        raise ValueError(f"levels ({alpha}, {beta}) must lie in [0, 1/{n + 1})")
    if min(b) != 0 or min(c) != 0:
        raise ValueError("tau is defined for boundary points only")
    for bj, cj in zip(b, c):
        if (bj == alpha) != (cj == beta):
            raise CrossMismatch(
                f"component {format_rational(bj)} of b sits on level {alpha} "
                f"but its image {format_rational(cj)} misses level {beta}"
            )
    pairs = {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))}
    for bj, cj in zip(b, c):
        if bj <= alpha:
            if cj >= cv:
                raise NonMonotone(
                    f"image component {format_rational(cj)} should be below 1/{n + 1}"
                )
            pairs.add(((alpha - bj) / (cv - bj), (beta - cj) / (cv - cj)))
    return polygon(pairs, domain=(0, 1))

