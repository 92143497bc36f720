"""Exact-arithmetic library for a generalized simplicial boundary operator.

The package provides the barycentric geometry of the standard simplex,
increasing piecewise-linear interval maps, the permutation-respecting
homeomorphism machinery (lifts and extensions), the face-map/Θ family,
formal chains with the weighted boundary operator and its cancellation
certificate, and the homology table of the one-point space.  Everything
is computed in exact rational arithmetic; verification checks assert
bit-exact equality.
"""

from .geometry import (
    BaryPoint,
    DEFAULT_DENOMINATOR,
    DEFAULT_SEED,
    canonical_grid,
    center,
    format_point,
    format_rational,
    min_value,
    on_boundary,
    on_cross,
    parse_point,
    parse_rational,
    project_boundary,
    project_layer,
    segment_eval,
    sort_perm,
    vertex,
)
from .pl1d import (
    PLMap,
    identity_map,
    kappa,
    phi_n0,
    pl_compose,
    pl_eval,
    pl_inverse,
    polygon,
    sigma_polygon,
    tau_polygon,
)
from .comfort import (
    ComfortReport,
    SimplexHomeo,
    check_comfort,
    counterexample_map,
    extend_from_boundary,
    extend_from_layer,
    identity_homeo,
    lambda_lift,
)
from .theta import (
    FaceMap,
    ThetaKey,
    face_delete,
    face_insert,
    theta,
    theta1_full,
    theta1_on_face,
)
from .chain import (
    Chain,
    CoefficientTuple,
    INTEGERS,
    RingSpec,
    SingularTerm,
    boundary,
    chain_of_term,
    check_boundary_squared,
    check_equation,
    equation_instances,
    identity_term,
    point_term,
    zero_chain,
)
from .homology_point import (
    ModuleDescription,
    ScalarMap,
    homology_table,
    point_boundary_map,
    point_homology,
    sigma,
)

__version__ = "0.1.0"
