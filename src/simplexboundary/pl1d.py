"""Increasing piecewise-linear self-homeomorphisms of rational intervals.

A ``PLMap`` is stored as its ordered breakpoint list and normalized so
that collinear interior breakpoints are removed; two maps are equal as
functions exactly when their normalized breakpoint tuples are equal.
One constructor, ``_normalized``, builds every map and checks that its
inputs and outputs strictly increase.  Evaluation runs on integer
numerators: each map is built together with its piece table, which gives
every linear piece as its right end and two integers a, b over one common
denominator C, so that f(t) = (a*t + b)/C there.
At t = p/q the value is (a*p + b*q)/(C*q), reduced once.
Besides the generic operations (evaluate, invert, compose) the module
provides the named constructors used by the simplex homeomorphisms: the
symmetric seed polygon ``kappa``, the three-point level matching polygon
(lifted, it is Θ(1,n,0)) and the per-ray ``tau`` polygon of the boundary
extension, which ``tau_at`` evaluates on integers without building it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .geometry import BaryPoint, format_rational

Breakpoint = Tuple[Fraction, Fraction]

#: One linear piece (rp, rq, a, b): on the piece with right end rp/rq,
#: f(t) = (a*t + b)/C for the table's common denominator C.
Piece = Tuple[int, int, int, int]

#: The levels α = pa/qa and β = pb/qb of a ray polygon as (pa, qa, pb, qb).
Levels = Tuple[int, int, int, int]


class NonMonotone(ValueError):
    """Breakpoints do not describe a strictly increasing map."""


class OutOfDomain(ValueError):
    """Evaluation argument outside the map's interval."""


class CrossMismatch(ValueError):
    """Boundary images violate the level correspondence b_j = α iff c_j = β."""


@dataclass(frozen=True)
class PLMap:
    """Increasing piecewise-linear homeomorphism given by its breakpoints.

    ``pieces`` is the piece table (C, pieces), left to right, built with
    the map by ``_normalized`` from the lines normalization computed.  C
    is the least common denominator of every slope and intercept, so that
    each piece's a = C*slope and b = C*intercept are integers.
    """

    points: Tuple[Breakpoint, ...]
    pieces: Tuple[int, Tuple[Piece, ...]] = field(compare=False)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pts = " ".join(f"({format_rational(u)},{format_rational(v)})" for u, v in self.points)
        return f"PLMap[{pts}]"


def _exact(c) -> Fraction:
    """``c`` as a ``Fraction``; a value that is already one is kept."""
    return c if type(c) is Fraction else Fraction(c)


def _line(u0: Fraction, v0: Fraction, u1: Fraction, v1: Fraction) -> Tuple[int, int, int]:
    """The line through (u0, v0) and (u1, v1), u0 <= u1, as integers (a, b, den)
    in lowest terms, mapping t to (a*t + b)/den; den >= 0 is 0 exactly when
    u0 = u1, and a > 0 exactly when v0 < v1.

    With u = p/q and v = r/s, a = (r1*s0 - r0*s1)*q0*q1,
    b = r0*p1*s1*q0 - r1*p0*s0*q1 and den = s0*s1*(p1*q0 - p0*q1).
    """
    p0, q0, p1, q1 = u0.numerator, u0.denominator, u1.numerator, u1.denominator
    r0, s0, r1, s1 = v0.numerator, v0.denominator, v1.numerator, v1.denominator
    a = (r1 * s0 - r0 * s1) * q0 * q1
    b = r0 * p1 * s1 * q0 - r1 * p0 * s0 * q1
    den = s0 * s1 * (p1 * q0 - p0 * q1)
    g = math.gcd(a, b, den) or 1  # 0 only for a repeated pair
    return a // g, b // g, den // g


def _normalized(points: Sequence[Breakpoint]) -> PLMap:
    """The map through ``points``, given in nondecreasing input order, with
    the interior breakpoints where the line does not change dropped, so map
    equality is decidable by comparing breakpoint tuples.  A line in lowest
    terms is unique, so two segments are collinear exactly when their lines
    are equal.  Each line is computed once; its signs check that the inputs
    and outputs strictly increase (``NonMonotone`` otherwise, at the first
    segment that fails), and the piece table is built from the same lines."""
    out: List[Breakpoint] = list(points[:1])
    lines: List[Tuple[int, int, int]] = []
    for (u0, v0), (u1, v1) in zip(points, points[1:]):
        a, _, den = line = _line(u0, v0, u1, v1)
        if den == 0:
            raise NonMonotone(f"inputs collide at {format_rational(u0)}: outputs {v0} and {v1}")
        if a <= 0:
            raise NonMonotone(
                f"outputs not strictly increasing at input {format_rational(u1)}: {v0} then {v1}"
            )
        if lines and line == lines[-1]:
            out[-1] = (u1, v1)
        else:
            out.append((u1, v1))
            lines.append(line)
    C = math.lcm(*(den for _, _, den in lines))
    pieces = tuple(
        (u.numerator, u.denominator, a * (C // den), b * (C // den))
        for (u, _), (a, b, den) in zip(out[1:], lines)
    )
    return PLMap(tuple(out), (C, pieces))


def polygon(points: Iterable) -> PLMap:
    """The increasing polygon through the given (input, output) pairs.

    Exact duplicate pairs are collapsed first: they are adjacent once the
    pairs are sorted.  At least two distinct pairs must remain, and
    ``_normalized`` checks that their inputs and outputs strictly increase.
    """
    ordered = sorted((_exact(u), _exact(v)) for u, v in points)
    pairs = [pt for pt, prev in zip(ordered, [None] + ordered) if pt != prev]
    if len(pairs) < 2:
        raise NonMonotone(f"a polygon needs at least two distinct points, got {pairs!r}")
    return _normalized(pairs)


def identity_map(lo, hi) -> PLMap:
    lo, hi = Fraction(lo), Fraction(hi)
    return polygon([(lo, lo), (hi, hi)])


def pl_eval(f: PLMap, t: Fraction) -> Fraction:
    """Exact value of ``f`` at ``t``, read off the piece table: for t = p/q
    the first piece with t <= rp/rq gives (a*p + b*q)/(C*q)."""
    t = _exact(t)
    p, q = t.numerator, t.denominator
    lo = f.lo
    if p * lo.denominator >= lo.numerator * q:
        C, pieces = f.pieces
        for rp, rq, a, b in pieces:
            if p * rq <= rp * q:
                return Fraction(a * p + b * q, C * q)
    raise OutOfDomain(f"{format_rational(t)} outside [{f.lo}, {f.hi}]")


def pl_inverse(f: PLMap) -> PLMap:
    """The inverse homeomorphism; breakpoint pairs are swapped."""
    return _normalized([(v, u) for u, v in f.points])


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
    return _normalized(pairs)


# ---------------------------------------------------------------------------
# Named constructors


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
    return _normalized(pairs)


def sigma_polygon(alpha, beta, hi) -> PLMap:
    """Three-point polygon on [0, hi] fixing the endpoints with α ↦ β."""
    alpha, beta, hi = Fraction(alpha), Fraction(beta), Fraction(hi)
    if alpha == beta:
        if not 0 <= alpha <= hi:
            raise ValueError(f"level {alpha} must lie in [0, {hi}]")
        return identity_map(0, hi)
    if not (0 < alpha < hi and 0 < beta < hi):
        raise ValueError(f"levels ({alpha}, {beta}) must lie strictly inside (0, {hi})")
    return polygon([(0, 0), (alpha, beta), (hi, hi)])


def cross_levels(alpha, beta, k: int) -> Levels:
    """The levels of the ray polygons of the (k-1)-simplex, checked to lie
    in [0, 1/k)."""
    alpha, beta = _exact(alpha), _exact(beta)
    pa, qa, pb, qb = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    if not (0 <= pa and k * pa < qa and 0 <= pb and k * pb < qb):
        raise ValueError(f"levels ({alpha}, {beta}) must lie in [0, 1/{k})")
    return pa, qa, pb, qb


def _tau_breakpoints(b: BaryPoint, c: BaryPoint, levels: Levels) -> List[Tuple[int, int, int, int]]:
    """The breakpoints of ``tau_polygon(b, c, alpha, beta)``, in ascending
    order and before normalization, each as integers (u, du, v, dv) for
    the pair (u/du, v/dv) with du, dv > 0, from the checked ``levels =
    cross_levels(alpha, beta, n+1)``; every other check of ``tau_polygon``
    runs here.

    With b = B/Db, α = pa/qa and k = n+1, b_j <= α reads qa*B_j <= pa*Db
    and the input breakpoint is k*(pa*Db - qa*B_j) / (qa*(Db - k*B_j));
    likewise for c and β.  As α, β < 1/k, the input strictly decreases in
    B_j and the output in C_j, so the distinct pairs (B_j, C_j) with
    b_j < α, sorted descending, give the inner breakpoints between the
    anchors (0, 0) and (1, 1), with nondecreasing inputs; b_j = α forces
    c_j = β and gives the anchor (0, 0).  Consecutive breakpoints are
    compared by cross-multiplying; if the inputs or outputs do not strictly
    increase, ``_normalized`` finds the same segment and raises.
    """
    if len(b.nums) != len(c.nums):
        raise ValueError("boundary point and image have different dimensions")
    k = len(b.nums)
    pa, qa, pb, qb = levels
    B, Db, Cn, Dc = b.nums, b.den, c.nums, c.den
    if min(B) != 0 or min(Cn) != 0:
        raise ValueError("tau is defined for boundary points only")
    level_b, level_c = pa * Db, pb * Dc  # α and β over Db and Dc, times qa and qb
    for j, (bj, cj) in enumerate(zip(B, Cn)):
        if (qa * bj == level_b) != (qb * cj == level_c):
            raise CrossMismatch(
                f"component {format_rational(b[j])} of b sits on level {Fraction(pa, qa)} "
                f"but its image {format_rational(c[j])} misses level {Fraction(pb, qb)}"
            )
    below = set()
    for j, (bj, cj) in enumerate(zip(B, Cn)):
        if qa * bj < level_b:
            if k * cj >= Dc:
                raise NonMonotone(f"image component {format_rational(c[j])} should be below 1/{k}")
            below.add((bj, cj))
    points = [(0, 1, 0, 1)]
    for bj, cj in sorted(below, reverse=True):
        u, v = k * (level_b - qa * bj), k * (level_c - qb * cj)
        points.append((u, qa * (Db - k * bj), v, qb * (Dc - k * cj)))
    points.append((1, 1, 1, 1))
    for (u0, du0, v0, dv0), (u1, du1, v1, dv1) in zip(points, points[1:]):
        if u0 * du1 >= u1 * du0 or v0 * dv1 >= v1 * dv0:
            _normalized([(Fraction(u, du), Fraction(v, dv)) for u, du, v, dv in points])
    return points


def tau_polygon(b: BaryPoint, c: BaryPoint, alpha, beta) -> PLMap:
    """Per-ray reparametrization of [0,1] used by the boundary extension.

    ``b`` is a boundary point, ``c`` its image under the boundary
    homeomorphism.  For every index with b_j <= alpha the polygon passes
    through ((α-b_j)/(1/(n+1)-b_j), (β-c_j)/(1/(n+1)-c_j)); coincident
    pairs collapse.  Monotonicity of the resulting breakpoints encodes
    that the boundary map keeps the order and matches the crosses.
    ``cross_levels`` checks the levels, and the breakpoints and their
    other checks are ``_tau_breakpoints``.
    """
    points = _tau_breakpoints(b, c, cross_levels(alpha, beta, len(b.nums)))
    return _normalized([(Fraction(u, du), Fraction(v, dv)) for u, du, v, dv in points])


def tau_at(b: BaryPoint, c: BaryPoint, levels: Levels, p: int, q: int) -> Fraction:
    """``pl_eval(tau_polygon(b, c, alpha, beta), p/q)`` for integers
    0 <= p/q <= 1, q > 0 and ``levels = cross_levels(alpha, beta, n+1)``,
    with no map built: the first breakpoint with p/q <= u/du ends the
    piece, and the value on it is formed over integers and reduced once."""
    points = _tau_breakpoints(b, c, levels)
    if p >= 0:
        for (u0, du0, v0, dv0), (u1, du1, v1, dv1) in zip(points, points[1:]):
            if p * du1 <= u1 * q:
                # (v0*(u1 - t) + v1*(t - u0)) / (u1 - u0) at t = p/q, denominators cleared
                num = v0 * dv1 * du0 * (u1 * q - p * du1) + v1 * dv0 * du1 * (p * du0 - u0 * q)
                return Fraction(num, dv0 * dv1 * q * (u1 * du0 - u0 * du1))
    raise OutOfDomain(f"{format_rational(Fraction(p, q))} outside [0, 1]")
