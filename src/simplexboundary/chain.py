"""Formal chains, the weighted boundary operator, and its certificates.

Chains are finite integer combinations of singular terms.  A singular
term is the identity of a standard simplex together with an ordered list
of precomposed face maps; each face is "Θ, then insert": the Θ map of its
layer, then the insertion of the internal face parallel to its slot.  The
boundary operator appends one face per summand.  It acts by
precomposition, so it commutes with composing on the left: pushed forward
along a map, the boundary of a chain is the boundary of the pushed
chain.  Pushed to the one-point space, where every term becomes the one
simplex of its dimension, a chain becomes its coefficient sum times that
simplex; ``homology_point`` reads the point complex that way.

One generator expands a term into the summands of its boundary and
another, nesting it, into those of its double boundary; the operator
uses the first and both checks the second, and every composite is
evaluated by ``SingularTerm.evaluate``.  Every summand of the double
boundary is "Θ, then insert, Θ, then insert", so at one point the
summands that share an inner face share their whole inner composite,
and those that also share the outer Θ share its value.  The level check
therefore runs point by point, with one memo per point, dropped once
the point is done: it holds the value of each inner part of a term,
keyed by its inner faces, and each non-identity Θ value, keyed by the
inner faces it was applied to and the Θ key.  Keys are tuples of small
ints; no point is hashed, and a key is never a sorted form of anything.
Only values whose map returned are stored.  Identity Θ maps (all of
L = 0, and Θ on the 0-simplex) bypass it.  Two checks make the defining
identities executable:

* ``check_equation`` evaluates, for every instance of a level, the two
  summands (j,p,i,k) and (p+1,j,k,i) of the double boundary of the
  identity chain on a grid and demands exact agreement;
* ``check_boundary_squared`` pairs the summands of the double boundary
  through the explicit index bijection (j,p) ↦ (p+1,j) with the layer
  indices swapped, certifies that each pair carries opposite
  coefficients, and reads the map agreement of each pair from one
  ``check_equation`` call one level down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .comfort import SimplexHomeo
from .geometry import BaryPoint, format_point
from .theta import FaceMap, ThetaKey, check_family, face_insert, theta


# ---------------------------------------------------------------------------
# Coefficient tuples


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


@dataclass(frozen=True)
class SingularTerm:
    """A basis element: a base map precomposed with a list of faces.

    The base is the identity of the simplex of the outermost face (of
    ``domain_dim`` when there is none).  A face ``fm`` stands for
    ``face_insert(fm, ·) ∘ Θ(fm.L, fm.n-1, fm.i)``: Θ, then insert.
    ``faces[0]`` is outermost; evaluation applies the list from the
    right, and each face's domain must be the next inner face's simplex.
    """

    faces: Tuple[FaceMap, ...]
    domain_dim: int

    def __post_init__(self):
        d = self.domain_dim
        for fm in reversed(self.faces):
            if fm.n - 1 != d:
                raise ValueError(f"face {fm} expects domain {fm.n - 1}, got {d}")
            d = fm.n

    @cached_property
    def steps(self) -> Tuple[Tuple[SimplexHomeo, FaceMap, Optional[tuple], Optional[tuple]], ...]:
        """The (Θ map, face, Θ key, part key) of each face, innermost
        first, resolved on first use.  The keys are the memo keys of
        ``evaluate``, tuples of ints: the part key lists (L, n, i, j) of
        every face applied up to this one and names the value after this
        step, and the Θ key appends Θ's (L, n, i) to the faces applied
        before it.  Their lengths differ mod 4, so they never collide.
        The outermost step has no part key, since a term's own value is
        not shared, and an identity Θ has no Θ key, since a lookup costs
        more than the map."""
        steps, faces = [], ()
        for m, fm in enumerate(reversed(self.faces), 1):
            key = ThetaKey(fm.L, fm.n - 1, fm.i)
            theta_key = None if key.is_identity else faces + (key.L, key.n, key.i)
            faces += (fm.L, fm.n, fm.i, fm.j)
            steps.append((theta(key), fm, theta_key, faces if m < len(self.faces) else None))
        return tuple(steps)

    def evaluate(self, x: BaryPoint, values: Optional[Dict[tuple, BaryPoint]] = None):
        """The term's value at ``x``.

        ``values`` is a memo for the one point ``x``, shared by the terms
        evaluated there: it holds the value of each inner part of a term,
        keyed by its inner faces, and each non-identity Θ value, keyed by
        the faces it was applied to and the Θ key (see ``steps``).  A step
        whose part is there is skipped, and a Θ whose value is there is
        not run.  A value is stored only once its map has returned, so a
        point that raises raises again.  The keys do not name the point:
        a caller passes a fresh dict for every point, as
        ``check_equation`` does.
        """
        if len(x.nums) != self.domain_dim + 1:
            raise ValueError(f"term expects dimension {self.domain_dim}, got {x.dim}")
        if values is None:
            values = {}
        for homeo, fm, theta_key, part_key in self.steps:
            y = values.get(part_key)
            if y is not None:
                x = y
                continue
            if theta_key is None:
                y = homeo(x)
            else:
                y = values.get(theta_key)
                if y is None:
                    y = values[theta_key] = homeo(x)
            x = face_insert(fm, y)
            if part_key is not None:
                values[part_key] = x
        return x

    def describe(self) -> str:
        inner = "∘".join(
            f"ins({fm.L},{fm.n},{fm.i},{fm.j})∘th({fm.L},{fm.n - 1},{fm.i})" for fm in self.faces
        )
        target = self.faces[0].n if self.faces else self.domain_dim
        return f"simplex{target}←{inner or 'id'}"


def identity_term(n: int) -> SingularTerm:
    return SingularTerm((), n)


# ---------------------------------------------------------------------------
# Chains


@dataclass(frozen=True)
class Chain:
    """Finite formal sum of equal-dimension terms with integer coefficients."""

    dim: int
    terms: Tuple[Tuple[SingularTerm, int], ...]

    @staticmethod
    def make(dim: int, entries: Dict[SingularTerm, int]) -> "Chain":
        for term in entries:
            if term.domain_dim != dim:
                raise ValueError(f"term of dimension {term.domain_dim} in a chain of dimension {dim}")
        kept = tuple(sorted(((t, c) for t, c in entries.items() if c), key=lambda tc: tc[0].describe()))
        return Chain(dim, kept)


def chain_of_term(term: SingularTerm) -> Chain:
    return Chain.make(term.domain_dim, {term: 1})


def _face_summands(
    term: SingularTerm, m: CoefficientTuple
) -> Iterator[Tuple[Tuple[int, int], int, SingularTerm]]:
    """The (n+1)(L+1) summands ((j, i), weight, term') of ∂term.

    Slot j carries the sign (-1)^j and layer i the weight m_i; term'
    precomposes the face (L, n, i, j).  Summands come in (j, i) order.
    """
    L, n = m.L, term.domain_dim
    for j in range(n + 1):
        sign = -1 if j % 2 else 1
        for i in range(L + 1):
            faces = term.faces + (FaceMap(L, n, i, j),)
            yield (j, i), sign * m[i], SingularTerm(faces, n - 1)


def _double_boundary(
    term: SingularTerm, m: CoefficientTuple
) -> Iterator[Tuple[Tuple[int, int, int, int], int, SingularTerm]]:
    """The summands ((j, p, i, k), w, term'') of ∂∂term in (j, i, p, k) order:
    term'' precomposes the faces (L, n, i, j) and (L, n-1, k, p), w is the
    product of their weights."""
    for (j, i), w1, face_term in _face_summands(term, m):
        for (p, k), w2, summand in _face_summands(face_term, m):
            yield (j, p, i, k), w1 * w2, summand


def boundary(c: Chain, m: CoefficientTuple) -> Chain:
    """The weighted boundary of ``c``.

    Every dimension-n term spawns the (n+1)(L+1) summands of
    ``_face_summands``.  Dimension-0 chains bound to the zero chain by
    definition.
    """
    check_family(m.L)
    n = c.dim
    if n == 0:
        return Chain(-1, ())
    entries: Dict[SingularTerm, int] = {}
    for term, coeff in c.terms:
        for _, weight, face_term in _face_summands(term, m):
            entries[face_term] = entries.get(face_term, 0) + coeff * weight
    return Chain.make(n - 1, entries)


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


def check_equation(
    n: int,
    grid: Sequence[BaryPoint],
    L: int = 1,
    grid_meta: Optional[dict] = None,
) -> List[EquationCheck]:
    """Exact grid agreement of the two sides of every instance at level n.

    One result per instance, in ``equation_instances(n, L)`` order; the
    sides of (j, p, i, k) are the summands (j,p,i,k) and (p+1,j,k,i) of
    one expansion of the double boundary of the identity (n+1)-chain.
    Every report's grid object is a copy of ``grid_meta`` (the grid's
    origin, such as its denominator and seed) plus the grid's size.  The
    sides that share an inner face share their inner composite at a
    point, so the check runs point by point: every instance at one point,
    with one ``SingularTerm.evaluate`` memo for that point, dropped
    before the next.  Witnesses stay in grid order within each instance.

    A point that a side rejects (any ``ValueError`` raised while
    evaluating, such as a point-validation or face-slot failure) becomes
    a witness carrying the exception in ``detail``.  A Θ map that is not
    built (see ``theta.check_family``) raises ``UnsupportedL`` instead,
    before any point is evaluated.
    """
    if n < 1:
        raise ValueError("the identity needs n >= 1")
    weights = CoefficientTuple([1] * (L + 1))  # the weights do not enter the maps
    summands = {key: term for key, _, term in _double_boundary(identity_term(n + 1), weights)}
    for term in summands.values():  # every summand is a side of exactly one instance
        term.steps  # resolve the Θ maps before the loop: one that is not built raises here
    grid_meta = {**(grid_meta or {}), "size": len(grid)}  # a copy: the caller's dict stays as it is
    results, sides = [], []
    for (j, p, i, k) in equation_instances(n, L):
        sides.append((summands[j, p, i, k], summands[p + 1, j, k, i]))
        results.append(
            EquationCheck(n=n, L=L, j=j, p=p, i=i, k=k, grid_meta=grid_meta, points_checked=len(grid))
        )
    for x in grid:
        values: Dict[tuple, BaryPoint] = {}
        for (left, right), result in zip(sides, results):
            try:
                lhs, rhs = left.evaluate(x, values), right.evaluate(x, values)
            except ValueError as exc:
                result.witnesses.append(Witness(format_point(x), "-", "-", f"{type(exc).__name__}: {exc}"))
                continue
            if lhs != rhs:
                result.witnesses.append(Witness(format_point(x), format_point(lhs), format_point(rhs)))
    return results


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
    one ``check_equation`` call for the whole level, made at the first
    pair that needs it, decides that on the grid for every pair.  For
    dimension-1 chains the second boundary is the zero map by definition
    and the certificate is trivial.  The report's grid object is a copy
    of ``grid_meta`` plus the grid's size, as in ``check_equation``.
    """
    L = m.L
    check_family(L)
    d = c.dim
    if d < 1:
        raise ValueError("the double boundary needs chains of dimension >= 1")
    check = CancellationCheck(
        dim=d, L=L, m=tuple(m), summands_total=0, pairs_checked=0, consumed=0,
        trivial=d == 1, grid_meta={**(grid_meta or {}), "size": len(grid)},
    )
    if check.trivial:
        return check
    equations = None  # the identity at level d-1, run once, on the first pair that needs it

    for term, coeff in c.terms:
        summands = {key: coeff * weight for key, weight, _ in _double_boundary(term, m)}
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
            if coeff_small + coeff_big != 0:
                check.witnesses.append(
                    Witness(
                        point="-",
                        left=str(coeff_small),
                        right=str(coeff_big),
                        detail=f"coefficients of {(j, p, i, k)} and {partner} do not cancel",
                    )
                )
                continue
            if equations is None:
                equations = {(r.j, r.p, r.i, r.k): r for r in check_equation(d - 1, grid, L)}
            maps = equations[j, p, i, k]
            for w in maps.witnesses:
                detail = f"maps of {(j, p, i, k)} and {partner} disagree"
                if w.detail:
                    detail += f": {w.detail}"
                check.witnesses.append(Witness(w.point, w.left, w.right, detail))
        check.consumed += len(consumed)
    return check

