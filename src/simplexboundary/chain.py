"""Formal chains, the weighted boundary operator, and its certificates.

Chains are finite linear combinations of singular terms over the
integers or the integers mod m.  A singular term is a base map (the
identity of a standard simplex, or the unique map to a one-point space)
together with an ordered list of precomposed face maps; each face is
"Θ, then insert": the Θ map of its layer, then the insertion of the
internal face parallel to its slot.  The boundary operator appends one
face per summand.

One generator expands a term into the summands of its boundary; the
operator, both sides of the commutation identity and the cancellation
certificate all use it, and every composite is evaluated by
``SingularTerm.evaluate``.  Every summand of the double boundary is "Θ,
then insert, Θ, then insert", so all checks on one grid run the same few
Θ maps at the same points; they share one memo of Θ values (a dict
keyed by the resolved map object and the exact point, never a sorted
form of it), and only values whose map returned are stored.  Identity Θ
maps (all of L = 0, and Θ on the 0-simplex) bypass it.  Two checks make
the defining identities executable:

* ``check_equation`` evaluates the two summands (j,p,i,k) and
  (p+1,j,k,i) of the double boundary of the identity chain on a grid and
  demands exact agreement;
* ``check_boundary_squared`` pairs the summands of the double boundary
  through the explicit index bijection (j,p) ↦ (p+1,j) with the layer
  indices swapped, certifies that each pair carries opposite
  coefficients, and delegates the map agreement of each pair to
  ``check_equation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .comfort import SimplexHomeo
from .geometry import BaryPoint, format_point
from .theta import FaceMap, ThetaKey, UnsupportedL, face_insert, theta


# ---------------------------------------------------------------------------
# Rings and coefficient tuples


@dataclass(frozen=True)
class RingSpec:
    """The integers (modulus None) or the integers modulo m."""

    modulus: Optional[int] = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")

    def norm(self, a: int) -> int:
        return a if self.modulus is None else a % self.modulus


INTEGERS = RingSpec()


class CoefficientTuple(tuple):
    """Weights (m_0, ..., m_L) attached to the L+1 parallel faces."""

    def __new__(cls, entries):
        vals = tuple(int(e) for e in entries)
        if not vals:
            raise ValueError("a coefficient tuple needs at least one entry")
        return super().__new__(cls, vals)

    @property
    def L(self) -> int:
        return len(self) - 1


# ---------------------------------------------------------------------------
# Singular terms


#: Returned by evaluation of point terms.
POINT_VALUE = object()

#: A memo of Θ values, keyed by (map object, exact point).
ThetaValues = Dict[Tuple[SimplexHomeo, BaryPoint], BaryPoint]


@dataclass(frozen=True)
class SingularTerm:
    """A basis element: a base map precomposed with a list of faces.

    The base is the identity of the simplex of the outermost face (of
    ``domain_dim`` when there is none) or, with ``to_point``, the map to
    the one-point space.  A face ``fm`` stands for
    ``face_insert(fm, ·) ∘ Θ(fm.L, fm.n-1, fm.i)``: Θ, then insert.
    ``faces[0]`` is outermost; evaluation applies the list from the
    right, and each face's domain must be the next inner face's simplex.
    Point terms are canonicalized to empty lists, so all maps into the
    point of equal domain dimension coincide.
    """

    faces: Tuple[FaceMap, ...]
    domain_dim: int
    to_point: bool = False

    def __post_init__(self):
        d = self.domain_dim
        for fm in reversed(self.faces):
            if fm.n - 1 != d:
                raise ValueError(f"face {fm} expects domain {fm.n - 1}, got {d}")
            d = fm.n

    @cached_property
    def steps(self) -> Tuple[Tuple[SimplexHomeo, FaceMap, bool], ...]:
        """The (Θ map, face, memoized) triples, innermost first, resolved on
        first use.  An identity Θ is not memoized: hashing the point for
        the lookup costs more than the map."""
        steps = []
        for fm in reversed(self.faces):
            key = ThetaKey(fm.L, fm.n - 1, fm.i)
            steps.append((theta(key), fm, not key.is_identity))
        return tuple(steps)

    def canonical(self) -> "SingularTerm":
        if self.to_point and self.faces:
            return point_term(self.domain_dim)
        return self

    def evaluate(self, x: BaryPoint, values: Optional[ThetaValues] = None):
        """The term's value at ``x``.

        ``values`` memoizes the values of non-identity Θ maps by (map
        object, exact point): a step whose Θ value is there skips the map,
        and a value is stored only once the map has returned, so a point
        that raises raises again.  Terms evaluated on one grid can share
        one dict.
        """
        if x.dim != self.domain_dim:
            raise ValueError(f"term expects dimension {self.domain_dim}, got {x.dim}")
        if self.to_point:
            return POINT_VALUE
        if values is None:
            values = {}
        for homeo, fm, memoized in self.steps:
            if not memoized:
                y = homeo(x)
            else:
                y = values.get((homeo, x))
                if y is None:
                    y = values[homeo, x] = homeo(x)
            x = face_insert(fm, y)
        return x

    def describe(self) -> str:
        inner = "∘".join(
            f"ins({fm.L},{fm.n},{fm.i},{fm.j})∘th({fm.L},{fm.n - 1},{fm.i})" for fm in self.faces
        )
        if self.to_point:
            target = "pt"
        else:
            target = f"simplex{self.faces[0].n if self.faces else self.domain_dim}"
        return f"{target}←{inner or 'id'}"


def identity_term(n: int) -> SingularTerm:
    return SingularTerm((), n)


def point_term(n: int) -> SingularTerm:
    return SingularTerm((), n, to_point=True)


# ---------------------------------------------------------------------------
# Chains


@dataclass(frozen=True)
class Chain:
    """Finite formal sum of equal-dimension terms with ring coefficients."""

    ring: RingSpec
    dim: int
    terms: Tuple[Tuple[SingularTerm, int], ...]

    @staticmethod
    def make(ring: RingSpec, dim: int, entries: Dict[SingularTerm, int]) -> "Chain":
        merged: Dict[SingularTerm, int] = {}
        for term, coeff in entries.items():
            if term.domain_dim != dim:
                raise ValueError(f"term of dimension {term.domain_dim} in a chain of dimension {dim}")
            key = term.canonical()
            merged[key] = merged.get(key, 0) + coeff
        normed = ((t, ring.norm(c)) for t, c in merged.items())
        kept = tuple(sorted(((t, c) for t, c in normed if c), key=lambda tc: tc[0].describe()))
        return Chain(ring, dim, kept)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, term: SingularTerm) -> int:
        want = term.canonical()
        for t, c in self.terms:
            if t == want:
                return c
        return 0


def zero_chain(ring: RingSpec, dim: int) -> Chain:
    return Chain(ring, dim, ())


def chain_of_term(term: SingularTerm, ring: RingSpec = INTEGERS, coeff: int = 1) -> Chain:
    return Chain.make(ring, term.domain_dim, {term: coeff})


def _face_summands(
    term: SingularTerm, m: CoefficientTuple
) -> Iterator[Tuple[Tuple[int, int], int, SingularTerm]]:
    """The (n+1)(L+1) summands ((j, i), weight, term') of ∂term.

    Slot j carries the sign (-1)^j and layer i the weight m_i; term'
    precomposes the face (L, n, i, j).  Summands come in (j, i) order and
    are not canonicalized.
    """
    L, n = m.L, term.domain_dim
    for j in range(n + 1):
        sign = -1 if j % 2 else 1
        for i in range(L + 1):
            faces = term.faces + (FaceMap(L, n, i, j),)
            yield (j, i), sign * m[i], SingularTerm(faces, n - 1, term.to_point)


def boundary(c: Chain, m: CoefficientTuple) -> Chain:
    """The weighted boundary of ``c``.

    Every dimension-n term spawns the (n+1)(L+1) summands of
    ``_face_summands``.  Dimension-0 chains bound to the zero chain by
    definition.
    """
    if m.L > 1:
        raise UnsupportedL(f"no Θ family for L={m.L}")
    n = c.dim
    if n == 0:
        return zero_chain(c.ring, -1)
    entries: Dict[SingularTerm, int] = {}
    for term, coeff in c.terms:
        for _, weight, face_term in _face_summands(term, m):
            entries[face_term] = entries.get(face_term, 0) + coeff * weight
    return Chain.make(c.ring, n - 1, entries)


# ---------------------------------------------------------------------------
# The commutation identity


@dataclass
class Witness:
    point: str
    left: str
    right: str
    detail: str = ""

    def to_json(self) -> dict:
        out = {"point": self.point, "left": self.left, "right": self.right}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class EquationCheck:
    """Result of evaluating one commutation instance on a grid."""

    n: int
    L: int
    j: int
    p: int
    i: int
    k: int
    grid_meta: dict
    points_checked: int
    witnesses: List[Witness] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return not self.witnesses

    def to_json(self) -> dict:
        return {
            "check": "equation",
            "parameters": {"n": self.n, "L": self.L, "j": self.j, "p": self.p, "i": self.i, "k": self.k},
            "grid": self.grid_meta,
            "verdict": "pass" if self.verdict else "fail",
            "points_checked": self.points_checked,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def equation_sides(
    n: int, j: int, p: int, i: int, k: int, L: int = 1
) -> Tuple[SingularTerm, SingularTerm]:
    """The two composites Δ_{n-1} → Δ_{n+1} of the identity.

    They are the summands (j,p,i,k) and (p+1,j,k,i) of the double
    boundary of the identity (n+1)-chain.
    """
    weights = CoefficientTuple([1] * (L + 1))  # the weights do not enter the maps

    def faces(term):
        return {key: face for key, _, face in _face_summands(term, weights)}

    top = faces(identity_term(n + 1))
    return faces(top[j, i])[p, k], faces(top[p + 1, k])[j, i]


def check_equation(
    n: int,
    j: int,
    p: int,
    i: int,
    k: int,
    grid: Sequence[BaryPoint],
    L: int = 1,
    grid_meta: Optional[dict] = None,
    values: Optional[ThetaValues] = None,
) -> EquationCheck:
    """Exact grid agreement of the two doubled face/Θ composites.

    The report's grid object is a copy of ``grid_meta`` (the grid's
    origin, such as its denominator and seed) plus the grid's size.
    Both sides evaluate through the Θ memo ``values`` (a fresh dict when
    it is not given); callers pass one dict to every instance they run
    on the same grid, since the instances run the same Θ maps at the
    same points and differ only in where values are inserted.

    A point that a side rejects (any ``ValueError`` raised while
    evaluating, such as a point-validation or face-slot failure) becomes
    a witness carrying the exception in ``detail``.  A Θ map that cannot
    be constructed, such as one past the dimension cap, raises instead.
    """
    if n < 1:
        raise ValueError("the identity needs n >= 1")
    if not 0 <= j <= p <= n:
        raise ValueError(f"slot indices must satisfy 0 <= j <= p <= n, got j={j}, p={p}")
    if not (0 <= i <= L and 0 <= k <= L):
        raise ValueError(f"layer indices ({i},{k}) outside 0..{L}")
    left, right = equation_sides(n, j, p, i, k, L)
    left.steps, right.steps  # resolve the Θ maps before the loop: one past the cap raises here
    if values is None:
        values = {}
    grid_meta = {**(grid_meta or {}), "size": len(grid)}  # a copy: the caller's dict stays as it is
    result = EquationCheck(n=n, L=L, j=j, p=p, i=i, k=k, grid_meta=grid_meta, points_checked=0)
    for x in grid:
        result.points_checked += 1
        try:
            lhs, rhs = left.evaluate(x, values), right.evaluate(x, values)
        except ValueError as exc:
            result.witnesses.append(Witness(format_point(x), "-", "-", f"{type(exc).__name__}: {exc}"))
            continue
        if lhs != rhs:
            result.witnesses.append(Witness(format_point(x), format_point(lhs), format_point(rhs)))
    return result


def equation_instances(n: int, L: int = 1):
    """All index tuples (j, p, i, k) of the identity at level n."""
    for j in range(n + 1):
        for p in range(j, n + 1):
            for i in range(L + 1):
                for k in range(L + 1):
                    yield (j, p, i, k)


# ---------------------------------------------------------------------------
# The cancellation certificate


@dataclass
class CancellationCheck:
    """Certificate that the double boundary cancels pairwise."""

    dim: int
    L: int
    m: Tuple[int, ...]
    summands_total: int
    pairs_checked: int
    consumed: int
    points_checked: int
    trivial: bool
    grid_meta: dict
    witnesses: List[Witness] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return not self.witnesses and (self.trivial or self.consumed == self.summands_total)

    def to_json(self) -> dict:
        return {
            "check": "boundary-squared",
            "parameters": {"n": self.dim - 1, "L": self.L, "m": list(self.m)},
            "grid": self.grid_meta,
            "verdict": "pass" if self.verdict else "fail",
            "summands": self.summands_total,
            "pairs_checked": self.pairs_checked,
            "consumed": self.consumed,
            "trivial": self.trivial,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def check_boundary_squared(
    c: Chain,
    m: CoefficientTuple,
    grid: Sequence[BaryPoint],
    grid_meta: Optional[dict] = None,
) -> CancellationCheck:
    """Pair the summands of the double boundary and certify cancellation.

    Each summand of the expansion is indexed by (j, p, i, k); the summand
    with j <= p is paired with the one at (p+1, j) and swapped layer
    indices.  The certificate checks that paired coefficients are exact
    negatives and that the pairing consumes every summand exactly once.
    A pair's composites are term ∘ s and term ∘ s' for the two sides s,
    s' of the commutation identity (j, p, i, k) at level d-1; every step
    is injective, so they agree at a point exactly when s and s' do, and
    ``check_equation`` decides that on the grid, with one Θ memo shared
    by every term and pair of the call.  For dimension-1 chains
    the second boundary is the zero map by definition and the
    certificate is trivial.  The report's grid object is a copy of
    ``grid_meta`` plus the grid's size, as in ``check_equation``.
    """
    L = m.L
    if L > 1:
        raise UnsupportedL(f"no Θ family for L={L}")
    d = c.dim
    if d < 1:
        raise ValueError("the double boundary needs chains of dimension >= 1")
    ring = c.ring
    check = CancellationCheck(
        dim=d, L=L, m=tuple(m), summands_total=0, pairs_checked=0, consumed=0,
        points_checked=0, trivial=d == 1, grid_meta={**(grid_meta or {}), "size": len(grid)},
    )
    if check.trivial:
        return check
    values: ThetaValues = {}

    for term, coeff in c.terms:
        summands: Dict[Tuple[int, int, int, int], int] = {}
        for (j, i), w1, face in _face_summands(term, m):
            for (p, k), w2, _ in _face_summands(face, m):
                summands[(j, p, i, k)] = ring.norm(coeff * w1 * w2)
        check.summands_total += len(summands)

        consumed = set()
        for (j, p, i, k), coeff_small in summands.items():
            if j > p:
                continue
            partner = (p + 1, j, k, i)
            coeff_big = summands[partner]
            check.pairs_checked += 1
            consumed.add((j, p, i, k))
            consumed.add(partner)
            if ring.norm(coeff_small + coeff_big) != 0:
                check.witnesses.append(
                    Witness(
                        point="-",
                        left=str(coeff_small),
                        right=str(coeff_big),
                        detail=f"coefficients of {(j, p, i, k)} and {partner} do not cancel",
                    )
                )
                continue
            if term.to_point:
                continue  # all composites into the point coincide
            maps = check_equation(d - 1, j, p, i, k, grid, L, values=values)
            check.points_checked += maps.points_checked
            for w in maps.witnesses:
                detail = f"maps of {(j, p, i, k)} and {partner} disagree"
                if w.detail:
                    detail += f": {w.detail}"
                check.witnesses.append(Witness(w.point, w.left, w.right, detail))
        check.consumed += len(consumed)
    return check

