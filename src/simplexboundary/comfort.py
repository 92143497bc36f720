"""Permutation-respecting, order-keeping homeomorphisms of the simplex.

The central objects are ``SimplexHomeo`` (an evaluable self-map of the
standard simplex with its exact inverse) and two
constructions:

* ``lambda_lift`` turns an increasing homeomorphism of [0, 1/(n+1)]
  fixing the endpoints into a homeomorphism of the whole simplex by
  applying it to the small coordinates and redistributing the defect
  over the large ones;
* the ray extension carries each ray from the center onto the ray
  through the image of its boundary point, reparametrized by a polygon
  of [0, 1].  ``extend_from_layer`` extends a homeomorphism between two
  layers with one polygon, matching the two levels, on every ray;
  ``extend_from_boundary`` extends a boundary homeomorphism inward with
  a per-ray polygon that carries a chosen cross onto another cross.

Each construction writes its per-point map once, in a private builder.
The inverse is the same builder applied to the inverse data: the lift
of the inverse 1-D map, or the extension of the inverse layer or
boundary map with the two levels swapped.

``check_comfort`` verifies the two defining conditions (respecting
coordinate permutations, keeping the sorted order) and the exact round
trip through the inverse on a sample grid, and returns every violation
with a witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple, Union

from .geometry import (
    DEFAULT_SEED,
    BaryPoint,
    apply_perm,
    center,
    format_point,
    project_boundary,
    project_layer,
    segment_eval,
    sort_perm,
)
from .pl1d import (
    PLMap,
    pl_eval,
    pl_inverse,
    polygon,
    sigma_polygon,
    tau_at,
)


#: A per-point map of the simplex (or of its boundary).
PointMap = Callable[[BaryPoint], BaryPoint]


class BadDomain(ValueError):
    """The 1-D map does not live on the interval [0, 1/(n+1)]."""


class EndpointNotFixed(ValueError):
    """The 1-D map moves an endpoint of its interval."""


class BadLevels(ValueError):
    """Layer or cross levels outside the range the construction supports."""


class SimplexHomeo:
    """Evaluable self-map of the n-simplex with its exact inverse.

    ``forward`` and ``inverse`` act on ``BaryPoint`` values of the stated
    dimension.  The map is assumed pure; instances are shareable.
    """

    def __init__(self, dim: int, forward: PointMap, inverse: PointMap):
        self.dim = dim
        self._forward = forward
        self._inverse = inverse

    def __call__(self, x: BaryPoint) -> BaryPoint:
        if len(x.nums) != self.dim + 1:
            raise ValueError(f"map expects dimension {self.dim}, got {len(x) - 1}")
        return self._forward(x)

    def inverse_at(self, y: BaryPoint) -> BaryPoint:
        if len(y.nums) != self.dim + 1:
            raise ValueError(f"map expects dimension {self.dim}, got {len(y) - 1}")
        return self._inverse(y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimplexHomeo(dim={self.dim})"


def identity_homeo(n: int) -> SimplexHomeo:
    return SimplexHomeo(n, lambda x: x, lambda y: y)


# ---------------------------------------------------------------------------
# The lift of a 1-D homeomorphism


def _lift(f: PLMap, n: int) -> PointMap:
    # Over the common denominator D, x_m = X_m/D, and slot m is small when
    # X_m*(n+1) <= D.  A small slot maps to (a*X_m + b*D)/(C*D) on its
    # piece of f's table; the defect S = sum over small slots of
    # C*X_m - a*X_m - b*D, over C*D, is spread over the big slots in
    # proportion to x_m - 1/(n+1), whose sum is Bg/((n+1)*D) with
    # Bg = sum over big slots of (n+1)*X_m - D.  Every coordinate is then
    # over E = C*Bg*D.
    k = n + 1
    C, pieces = f.pieces

    def forward(x: BaryPoint) -> BaryPoint:
        X, D = x.nums, x.den
        perm = sort_perm(X)
        out = [0] * k
        defect = 0
        table = iter(pieces)
        rp, rq, a, b = next(table)
        for r, slot in enumerate(perm):
            xm = X[slot]
            if xm * k > D:
                break
            while xm * rq > rp * D:  # small slots ascend, so the pieces only move right
                rp, rq, a, b = next(table)
            out[slot] = a * xm + b * D
            defect += C * xm - out[slot]
        else:
            return x  # all coordinates equal 1/(n+1): the center, fixed
        big = perm[r:]
        bg = sum(k * X[slot] - D for slot in big)
        for slot in perm[:r]:
            out[slot] *= bg
        cbg = C * bg
        for slot in big:
            out[slot] = X[slot] * cbg + defect * (k * X[slot] - D)
        E = cbg * D
        return BaryPoint(out, E)

    return forward


def lambda_lift(f: PLMap, n: int) -> SimplexHomeo:
    """Lift an increasing homeomorphism of [0, 1/(n+1)] to the n-simplex.

    Coordinates at most 1/(n+1) are mapped through ``f``; the resulting
    defect is redistributed proportionally over the remaining
    coordinates, which keeps the coordinate sum at exactly 1.  The
    inverse is the lift of ``f``'s inverse, whose redistribution undoes
    the forward one exactly; ``f`` fixes 1/(n+1), so both lifts agree on
    which coordinates are small.

    Both directions run on the point's integer numerators over its
    denominator, with ``f`` read off its piece table, and write the image
    as numerators over one denominator.
    """
    cval = Fraction(1, n + 1)
    if (f.lo, f.hi) != (0, cval):
        raise BadDomain(f"lift needs a map on [0, 1/{n + 1}], got [{f.lo}, {f.hi}]")
    if f.out_lo != 0 or f.out_hi != cval:
        raise EndpointNotFixed(f"lifted map must fix 0 and 1/{n + 1}")
    return SimplexHomeo(n, _lift(f, n), _lift(pl_inverse(f), n))


# ---------------------------------------------------------------------------
# Extensions along the rays through the center


def _ray_extension(
    foot: PointMap, ray: Callable[[BaryPoint, BaryPoint, int, int], Fraction], n: int
) -> PointMap:
    # Over D, x has minimum M/D and lies at parameter t = (n+1)*M/D on the
    # segment from the boundary point b = project_boundary(x) to the
    # center; the image lies at parameter ray(b, c, (n+1)*M, D), the value
    # at t of a polygon of [0, 1], on the segment from c = foot(b).  On the
    # boundary b = x and t = 0, which every ray polygon fixes.
    k = n + 1
    ctr = center(n)

    def forward(x: BaryPoint) -> BaryPoint:
        M, D = min(x.nums), x.den
        if M == 0:
            return foot(x)
        if k * M == D:
            return ctr
        b = project_boundary(x)
        c = foot(b)
        return segment_eval(ctr, c, ray(b, c, k * M, D))

    return forward


def extend_from_layer(phi: PointMap, alpha, beta, n: int, phi_inverse: PointMap) -> SimplexHomeo:
    """Extend a homeomorphism between the α- and β-layers to the simplex.

    Allowed level pairs: 0 < α, β <= 1/(n+1), or α = β = 0.  Each ray
    from the center is mapped onto the ray through the image of its
    layer point; the position on the ray is reparametrized by the
    three-point polygon matching α to β, the same on every ray.  The
    inverse is the extension of ``phi_inverse`` from β to α.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    cval = Fraction(1, n + 1)
    if not (alpha == beta == 0 or 0 < alpha <= cval and 0 < beta <= cval):
        raise BadLevels(f"unsupported layer levels ({alpha}, {beta})")
    if (alpha == cval) != (beta == cval):
        raise BadLevels(f"a layer homeomorphism cannot pair {alpha} with {beta}")
    if alpha == cval:
        return identity_homeo(n)

    def extension(f: PointMap, lo: Fraction, hi: Fraction) -> PointMap:
        # A ray's layer point is the layer point of its boundary point, and
        # the ray parameter of a point at level a is a*(n+1).
        sig = sigma_polygon(lo * (n + 1), hi * (n + 1), 1)
        foot = lambda b: project_boundary(f(project_layer(b, lo)))
        return _ray_extension(foot, lambda b, c, p, q: pl_eval(sig, Fraction(p, q)), n)

    forward, inverse = extension(phi, alpha, beta), extension(phi_inverse, beta, alpha)
    return SimplexHomeo(n, forward, inverse)


def extend_from_boundary(phi: PointMap, alpha, beta, n: int, phi_inverse: PointMap) -> SimplexHomeo:
    """Extend a boundary homeomorphism inward, α-cross onto β-cross.

    ``phi`` must be a homeomorphism of the boundary that respects
    permutations, keeps the order, and carries the boundary part of the
    α-cross onto the boundary part of the β-cross.  A point at ray
    parameter t over the boundary point b is sent to parameter tau[b](t)
    over phi(b), which pins every coordinate equal to α to an image
    coordinate equal to β.

    The inverse is the extension of ``phi_inverse`` from β to α: the
    preconditions give b_j < α exactly when c_j < β (lowering b_j to 0
    never crosses α, and a minimal coordinate maps to 0), so its per-ray
    polygon over c = phi(b) has the swapped breakpoints of tau[b].
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    cval = Fraction(1, n + 1)
    if not (0 <= alpha < cval and 0 <= beta < cval):
        raise BadLevels(f"cross levels ({alpha}, {beta}) must lie in [0, 1/{n + 1})")

    forward = _ray_extension(phi, lambda b, c, p, q: tau_at(b, c, alpha, beta, p, q), n)
    inverse = _ray_extension(phi_inverse, lambda b, c, p, q: tau_at(b, c, beta, alpha, p, q), n)
    return SimplexHomeo(n, forward, inverse)


# ---------------------------------------------------------------------------
# Conformance checking


@dataclass
class ComfortViolation:
    kind: str
    witness: str
    expected: str
    actual: str


def _test_permutations(n: int) -> List[Tuple[int, ...]]:
    # Adjacent transpositions generate the symmetric group; the reversal and
    # a few seeded permutations guard against composition bugs.
    perms: List[Tuple[int, ...]] = []
    for m in range(n):
        p = list(range(n + 1))
        p[m], p[m + 1] = p[m + 1], p[m]
        perms.append(tuple(p))
    perms.append(tuple(reversed(range(n + 1))))
    rng = random.Random(DEFAULT_SEED * 1_000_003 + 11 * n + 6)
    for _ in range(8):
        p = list(range(n + 1))
        rng.shuffle(p)
        perms.append(tuple(p))
    return perms


def _image(f: PointMap, x: BaryPoint) -> Union[BaryPoint, str]:
    """``f(x)``, or the name and message of the ``ValueError`` it raises."""
    try:
        return f(x)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _shown(value: Union[BaryPoint, str]) -> str:
    return value if isinstance(value, str) else format_point(value)


def check_comfort(homeo: SimplexHomeo, grid: Sequence[BaryPoint]) -> List[ComfortViolation]:
    """Check permutation-respect, order-keeping and the exact round trip
    through the inverse on every grid point.

    Violations are collected, not raised, one condition after the other,
    and returned; an empty list means the map passed.
    A ``ValueError`` raised by the map or its inverse is a violation
    whose ``actual`` names the exception: at a grid point it fails the
    round trip, and at a permuted point the permutation check.
    """
    n = homeo.dim
    violations: List[ComfortViolation] = []
    perms = _test_permutations(n)
    images = [(x, _image(homeo, x)) for x in grid]
    mapped = [(x, y) for x, y in images if not isinstance(y, str)]

    for x, y in mapped:
        for perm in perms:
            expected = apply_perm(y, perm)
            actual = _image(homeo, apply_perm(x, perm))
            if actual != expected:
                violations.append(
                    ComfortViolation(
                        kind="permutation",
                        witness=f"x={format_point(x)} perm={perm}",
                        expected=format_point(expected),
                        actual=_shown(actual),
                    )
                )

    for x, y in mapped:
        X, Y = x.nums, y.nums  # each over one denominator: they order like the coordinates
        for a in range(n + 1):
            for b in range(n + 1):
                if X[a] <= X[b] and not Y[a] <= Y[b]:
                    violations.append(
                        ComfortViolation(
                            kind="order",
                            witness=f"x={format_point(x)} slots=({a},{b})",
                            expected=f"y[{a}] <= y[{b}]",
                            actual=format_point(y),
                        )
                    )

    for x, y in images:
        back = y if isinstance(y, str) else _image(homeo.inverse_at, y)
        if back != x:
            violations.append(
                ComfortViolation(
                    kind="bijectivity",
                    witness=f"x={format_point(x)}",
                    expected=format_point(x),
                    actual=_shown(back),
                )
            )
    return violations


# ---------------------------------------------------------------------------
# A layer-fixing homeomorphism that is not a lift


def counterexample_map() -> SimplexHomeo:
    """A homeomorphism of the 2-simplex fixing every layer setwise, yet not
    the lift of any 1-D map.

    On each edge of the boundary it is the lift to the 1-simplex of a map
    that contracts then stretches the smaller coordinate piecewise
    (1/8 ↦ 1/16 while 1/2 stays fixed); the boundary extension with both
    cross levels 0 carries it inward without moving any layer.
    """
    q = Fraction
    g = polygon([(0, 0), (q(1, 4), q(1, 8)), (q(1, 3), q(1, 3)), (q(1, 2), q(1, 2))])
    edge = lambda_lift(g, 1)

    def on_edges(f: PointMap) -> PointMap:
        def boundary_map(y: BaryPoint) -> BaryPoint:
            slot = y.nums.index(0)  # delete a zero slot, map the edge, put the zero back
            image = f(BaryPoint(y.nums[:slot] + y.nums[slot + 1 :], y.den))
            return BaryPoint(image.nums[:slot] + (0,) + image.nums[slot:], image.den)

        return boundary_map

    return extend_from_boundary(on_edges(edge), 0, 0, 2, on_edges(edge.inverse_at))
