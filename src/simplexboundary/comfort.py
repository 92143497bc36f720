"""Permutation-respecting, order-keeping homeomorphisms of the simplex.

The central objects are ``SimplexHomeo`` (an evaluable self-map of the
standard simplex with its exact inverse and a label) and three
constructors:

* ``lambda_lift`` turns an increasing homeomorphism of [0, 1/(n+1)]
  fixing the endpoints into a homeomorphism of the whole simplex by
  applying it to the small coordinates and redistributing the defect
  over the large ones;
* ``extend_from_layer`` extends a homeomorphism between two layers to
  the whole simplex along the rays through the center;
* ``extend_from_boundary`` extends a boundary homeomorphism inward,
  reparametrizing each ray by a per-ray polygon so that a chosen cross
  is carried onto another cross.

Each construction writes its per-point map once, in a private builder.
The inverse is the same builder applied to the inverse data: the lift
of the inverse 1-D map, or the extension of the inverse layer or
boundary map with the two levels swapped.

``check_comfort`` verifies the two defining conditions (respecting
coordinate permutations, keeping the sorted order) and the exact round
trip through the inverse on a sample grid, and reports every violation
with a witness.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .geometry import (
    DEFAULT_SEED,
    BaryPoint,
    apply_perm,
    center,
    format_point,
    min_value,
    project_boundary,
    project_layer,
    segment_eval,
    sort_perm,
)
from .pl1d import (
    CrossMismatch,
    PLMap,
    pl_eval,
    pl_inverse,
    polygon,
    sigma_polygon,
    tau_polygon,
)


#: A per-point map of the simplex (or of its boundary).
PointMap = Callable[[BaryPoint], BaryPoint]


class BadDomain(ValueError):
    """The 1-D map does not live on the interval [0, 1/(n+1)]."""


class EndpointNotFixed(ValueError):
    """The 1-D map moves an endpoint of its interval."""


class BadLevels(ValueError):
    """Layer or cross levels outside the range the construction supports."""


class CrossPropertyViolation(ValueError):
    """A boundary point on the source cross maps off the target cross."""


class SimplexHomeo:
    """Evaluable self-map of the n-simplex with its exact inverse.

    ``forward`` and ``inverse`` act on ``BaryPoint`` values of the stated
    dimension; ``label`` names the map in messages and reports.  The map
    is assumed pure; instances are shareable.
    """

    def __init__(self, dim: int, forward: PointMap, inverse: PointMap, label: str = "custom"):
        self.dim = dim
        self._forward = forward
        self._inverse = inverse
        self.label = label

    def __call__(self, x: BaryPoint) -> BaryPoint:
        if len(x) != self.dim + 1:
            raise ValueError(f"{self.label} expects dimension {self.dim}, got {len(x) - 1}")
        return self._forward(x)

    def inverse_at(self, y: BaryPoint) -> BaryPoint:
        if len(y) != self.dim + 1:
            raise ValueError(f"{self.label} expects dimension {self.dim}, got {len(y) - 1}")
        return self._inverse(y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimplexHomeo(dim={self.dim}, label={self.label!r})"


def identity_homeo(n: int) -> SimplexHomeo:
    return SimplexHomeo(n, lambda x: x, lambda y: y, label="identity")


# ---------------------------------------------------------------------------
# The lift of a 1-D homeomorphism


def _lift(f: PLMap, n: int) -> PointMap:
    cval = Fraction(1, n + 1)

    def forward(x: BaryPoint) -> BaryPoint:
        perm = sort_perm(x)
        r = -1
        while r + 1 <= n and x[perm[r + 1]] <= cval:
            r += 1
        if r == n:
            return x  # all coordinates equal 1/(n+1): the center, fixed
        y = list(x)
        dsum = Fraction(0)
        for m in range(r + 1):
            slot = perm[m]
            y[slot] = pl_eval(f, x[slot])
            dsum += x[slot] - y[slot]
        big = sum(x[perm[m]] - cval for m in range(r + 1, n + 1))
        delta = dsum / big
        for m in range(r + 1, n + 1):
            slot = perm[m]
            y[slot] = x[slot] + delta * (x[slot] - cval)
        return BaryPoint(y)

    return forward


def lambda_lift(f: PLMap, n: int) -> SimplexHomeo:
    """Lift an increasing homeomorphism of [0, 1/(n+1)] to the n-simplex.

    Coordinates at most 1/(n+1) are mapped through ``f``; the resulting
    defect D is redistributed proportionally over the remaining
    coordinates, which keeps the coordinate sum at exactly 1.  The
    inverse is the lift of ``f``'s inverse, whose redistribution undoes
    the forward one exactly; ``f`` fixes 1/(n+1), so both lifts agree on
    which coordinates are small.
    """
    cval = Fraction(1, n + 1)
    if f.domain != (Fraction(0), cval):
        raise BadDomain(f"lift needs a map on [0, 1/{n + 1}], got [{f.lo}, {f.hi}]")
    if f.out_lo != 0 or f.out_hi != cval:
        raise EndpointNotFixed(f"lifted map must fix 0 and 1/{n + 1}")
    return SimplexHomeo(n, _lift(f, n), _lift(pl_inverse(f), n), label="lambda-lift")


# ---------------------------------------------------------------------------
# Extension of a layer homeomorphism


def _layer_extension(phi: PointMap, alpha: Fraction, beta: Fraction, n: int) -> PointMap:
    cval = Fraction(1, n + 1)
    ctr = center(n)
    sig = sigma_polygon(alpha, beta, cval)

    def forward(x: BaryPoint) -> BaryPoint:
        a = min_value(x)
        if a == cval:
            return ctr
        ray_foot = project_boundary(phi(project_layer(x, alpha)))
        return segment_eval(ctr, ray_foot, pl_eval(sig, a) * (n + 1))

    return forward


def extend_from_layer(phi: PointMap, alpha, beta, n: int, phi_inverse: PointMap) -> SimplexHomeo:
    """Extend a homeomorphism between the α- and β-layers to the simplex.

    Allowed level pairs: 0 < α, β <= 1/(n+1), or α = β = 0.  Each ray
    from the center is mapped onto the ray through the image of its
    layer point; the position on the ray is reparametrized by the
    three-point polygon matching α to β.  The inverse is the extension
    of ``phi_inverse`` from β to α.  For α = β = 0 this is the boundary
    extension with both levels 0, which keeps every ray parameter.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    cval = Fraction(1, n + 1)
    if alpha == beta == 0:
        return extend_from_boundary(phi, 0, 0, n, phi_inverse)
    if not (0 < alpha <= cval and 0 < beta <= cval):
        raise BadLevels(f"unsupported layer levels ({alpha}, {beta})")
    if (alpha == cval) != (beta == cval):
        raise BadLevels(f"a layer homeomorphism cannot pair {alpha} with {beta}")
    if alpha == cval:
        return identity_homeo(n)
    forward = _layer_extension(phi, alpha, beta, n)
    inverse = _layer_extension(phi_inverse, beta, alpha, n)
    return SimplexHomeo(n, forward, inverse, label="layer-extension")


# ---------------------------------------------------------------------------
# Extension of a boundary homeomorphism


def _boundary_extension(phi: PointMap, alpha: Fraction, beta: Fraction, n: int) -> PointMap:
    cval = Fraction(1, n + 1)
    ctr = center(n)

    def forward(x: BaryPoint) -> BaryPoint:
        a = min_value(x)
        if a == 0:
            return phi(x)
        if a == cval:
            return ctr
        b = project_boundary(x)
        c = phi(b)
        try:
            ray_map = tau_polygon(b, c, alpha, beta)
        except CrossMismatch as exc:
            raise CrossPropertyViolation(
                f"boundary image of {format_point(b)} leaves the target cross: {exc}"
            ) from exc
        return segment_eval(ctr, c, pl_eval(ray_map, a * (n + 1)))

    return forward


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
    forward = _boundary_extension(phi, alpha, beta, n)
    inverse = _boundary_extension(phi_inverse, beta, alpha, n)
    return SimplexHomeo(n, forward, inverse, label="boundary-extension")


# ---------------------------------------------------------------------------
# Conformance checking


@dataclass
class ComfortViolation:
    kind: str
    witness: str
    expected: str
    actual: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "witness": self.witness,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass
class ComfortReport:
    """Outcome of sampling the two defining conditions on a grid."""

    map_id: str
    dim: int
    samples_checked: int = 0
    violations: List[ComfortViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "map_id": self.map_id,
            "n": self.dim,
            "samples": self.samples_checked,
            "violations": [v.to_json() for v in self.violations],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def _test_permutations(n: int, seed: int) -> List[Tuple[int, ...]]:
    # Adjacent transpositions generate the symmetric group; the reversal and
    # a few seeded permutations guard against composition bugs.
    perms: List[Tuple[int, ...]] = []
    for m in range(n):
        p = list(range(n + 1))
        p[m], p[m + 1] = p[m + 1], p[m]
        perms.append(tuple(p))
    perms.append(tuple(reversed(range(n + 1))))
    rng = random.Random(seed * 1_000_003 + 11 * n + 6)
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


def check_comfort(
    homeo: SimplexHomeo,
    grid: Sequence[BaryPoint],
    seed: int = DEFAULT_SEED,
    map_id: Optional[str] = None,
) -> ComfortReport:
    """Check permutation-respect, order-keeping and the exact round trip
    through the inverse on every grid point.

    Violations are collected, not raised, one condition after the other.
    A ``ValueError`` raised by the map or its inverse is a violation
    whose ``actual`` names the exception: at a grid point it fails the
    round trip, and at a permuted point the permutation check.
    """
    n = homeo.dim
    report = ComfortReport(map_id=map_id or homeo.label, dim=n, samples_checked=len(grid))
    perms = _test_permutations(n, seed)
    images = [(x, _image(homeo, x)) for x in grid]
    mapped = [(x, y) for x, y in images if not isinstance(y, str)]

    for x, y in mapped:
        for perm in perms:
            expected = apply_perm(y, perm)
            actual = _image(homeo, apply_perm(x, perm))
            if actual != expected:
                report.violations.append(
                    ComfortViolation(
                        kind="permutation",
                        witness=f"x={format_point(x)} perm={perm}",
                        expected=format_point(expected),
                        actual=_shown(actual),
                    )
                )

    for x, y in mapped:
        for a in range(n + 1):
            for b in range(n + 1):
                if x[a] <= x[b] and not y[a] <= y[b]:
                    report.violations.append(
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
            report.violations.append(
                ComfortViolation(
                    kind="bijectivity",
                    witness=f"x={format_point(x)}",
                    expected=format_point(x),
                    actual=_shown(back),
                )
            )
    return report


# ---------------------------------------------------------------------------
# A layer-fixing homeomorphism that is not a lift


def counterexample_map() -> SimplexHomeo:
    """A homeomorphism of the 2-simplex fixing every layer setwise, yet not
    the lift of any 1-D map.

    On the face with first coordinate zero it contracts then stretches the
    second coordinate piecewise (1/8 ↦ 1/16 while 1/2 stays fixed); the
    permutation rules extend it to the whole boundary and the ray
    extension carries it inward without moving any layer.
    """
    q = Fraction
    g = polygon([(0, 0), (q(1, 4), q(1, 8)), (q(1, 3), q(1, 3)), (q(1, 2), q(1, 2))])
    ginv = pl_inverse(g)

    def warp_pair(u: Fraction, v: Fraction, h: PLMap) -> Tuple[Fraction, Fraction]:
        # (u, v) with u + v = 1; the smaller entry moves through h.
        if u <= v:
            w = pl_eval(h, u)
            return w, 1 - w
        w = pl_eval(h, v)
        return 1 - w, w

    def boundary_map_with(h: PLMap, y: BaryPoint) -> BaryPoint:
        slot = y.index(Fraction(0))
        rest = [m for m in range(3) if m != slot]
        u, v = y[rest[0]], y[rest[1]]
        nu, nv = warp_pair(u, v, h)
        out = [Fraction(0)] * 3
        out[rest[0]], out[rest[1]] = nu, nv
        return BaryPoint(out)

    phi = lambda y: boundary_map_with(g, y)
    phi_inv = lambda y: boundary_map_with(ginv, y)
    homeo = extend_from_layer(phi, 0, 0, 2, phi_inverse=phi_inv)
    homeo.label = "counterexample"
    return homeo
