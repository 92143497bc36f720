"""Input checks that no other test reaches: each raises its own exception
type with its own message."""

from fractions import Fraction as F

import pytest

from simplexboundary.chain import (
    Chain,
    CoefficientTuple,
    chain_of_term,
    check_boundary_squared,
    check_equation,
    identity_term,
)
from simplexboundary.comfort import (
    BadDomain,
    EndpointNotFixed,
    SimplexHomeo,
    extend_from_boundary,
    extend_from_layer,
    identity_homeo,
    lambda_lift,
)
from simplexboundary.geometry import BaryPoint, center, parse_point, vertex
from simplexboundary.homology_point import point_homology
from simplexboundary.pl1d import (
    OutOfDomain,
    identity_map,
    polygon,
    restrict,
    sigma_polygon,
    tau_polygon,
)
from simplexboundary.theta import FaceMap, ThetaKey, WrongSlotValue, theta1_on_face

LINE = BaryPoint([F(1, 4), F(3, 4)])
PLANE = BaryPoint([F(1, 6), F(1, 3), F(1, 2)])
EDGE = BaryPoint([0, F(1, 3), F(2, 3)])
ID = lambda b: b

CHECKS = [
    # chain
    ("coefficient tuple", lambda: CoefficientTuple([]), ValueError,
     "a coefficient tuple needs at least one entry"),
    ("term dimension", lambda: identity_term(2).evaluate(LINE), ValueError, "term expects dimension 2, got 1"),
    ("chain dimension", lambda: Chain.make(2, {identity_term(1): 1}), ValueError,
     "term of dimension 1 in a chain of dimension 2"),
    ("double boundary dimension",
     lambda: check_boundary_squared(chain_of_term(identity_term(0)), CoefficientTuple([1, 1]), []), ValueError,
     "the double boundary needs chains of dimension >= 1"),
    ("identity level", lambda: check_equation(0, []), ValueError, "the identity needs n >= 1"),
    # comfort
    ("homeo dimension", lambda: identity_homeo(2)(LINE), ValueError, "map expects dimension 2, got 1"),
    ("homeo inverse dimension", lambda: SimplexHomeo(1, None, None).inverse_at(PLANE), ValueError,
     "map expects dimension 1, got 2"),
    ("layer levels zero", lambda: extend_from_layer(ID, 0, F(1, 6), 2, ID), ValueError,
     "levels (0, 1/6) must lie strictly inside (0, 1/3)"),
    ("layer levels center", lambda: extend_from_layer(ID, F(1, 3), F(1, 6), 2, ID), ValueError,
     "levels (1/3, 1/6) must lie strictly inside (0, 1/3)"),
    ("boundary levels", lambda: extend_from_boundary(ID, F(1, 3), F(1, 6), 2, ID), ValueError,
     "levels (1/3, 1/6) must lie in [0, 1/3)"),
    ("lift domain", lambda: lambda_lift(identity_map(0, 1), 2), BadDomain,
     "lift needs a map on [0, 1/3], got [0, 1]"),
    ("lift endpoints", lambda: lambda_lift(polygon([(0, 0), (F(1, 3), F(1, 4))]), 2), EndpointNotFixed,
     "lifted map must fix 0 and 1/3"),
    # geometry
    ("empty point", lambda: parse_point("[]"), ValueError, "cannot parse point from '[]'"),
    ("center dimension", lambda: center(-1), ValueError, "dimension must be nonnegative"),
    ("vertex index", lambda: vertex(2, 3), ValueError, "vertex index 3 out of range for dimension 2"),
    ("point denominator", lambda: BaryPoint([1, 0], 0), ValueError,
     "barycentric denominator must be positive, got 0"),
    # homology_point
    ("homology degree", lambda: point_homology(-1, CoefficientTuple([9, 4])), ValueError,
     "degree must be nonnegative"),
    # pl1d
    ("restriction interval", lambda: restrict(identity_map(0, 1), F(1, 2), 2), OutOfDomain,
     "[1/2, 2] is not a subinterval of [0, 1]"),
    ("sigma levels", lambda: sigma_polygon(0, F(1, 2), 1), ValueError,
     "levels (0, 1/2) must lie strictly inside (0, 1)"),
    ("tau dimensions", lambda: tau_polygon(EDGE, BaryPoint([0, 1]), F(1, 6), F(1, 7)), ValueError,
     "boundary point and image have different dimensions"),
    ("tau levels", lambda: tau_polygon(EDGE, EDGE, F(1, 3), F(1, 7)), ValueError,
     "levels (1/3, 1/7) must lie in [0, 1/3)"),
    ("tau boundary", lambda: tau_polygon(PLANE, PLANE, F(1, 6), F(1, 7)), ValueError,
     "tau is defined for boundary points only"),
    # theta
    ("face map parameters", lambda: FaceMap(0, 0, 0, 0), ValueError, "invalid face map parameters L=0, n=0"),
    ("face map layer", lambda: FaceMap(1, 2, 2, 0), ValueError, "face map layer index 2 outside 0..1"),
    ("theta dimension", lambda: ThetaKey(1, -1, 0), ValueError, "negative dimension -1"),
    ("theta index", lambda: ThetaKey(1, 2, 2), ValueError, "index 2 outside 0..1"),
    # The face table's first map, deleting the zero at slot j, checks the point.
    ("face zero", lambda: theta1_on_face(2, 0, PLANE), WrongSlotValue, "slot 0 holds 1/6, expected 0"),
    ("face dimension", lambda: theta1_on_face(1, 0, LINE), ValueError,
     "the inductive face construction starts at dimension 2"),
    ("face point dimension", lambda: theta1_on_face(2, 0, LINE), ValueError,
     "face deletion expects dimension 2, got 1"),
    ("face slot range", lambda: theta1_on_face(2, 5, PLANE), ValueError, "face map slot 5 outside 0..2"),
]


@pytest.mark.parametrize("call, kind, message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_check_raises_its_message(call, kind, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (kind, message)

