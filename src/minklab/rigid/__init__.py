"""Born-rigidity kinematics: projected metric, expansion/vorticity split by
finite differences, the boost and rotation isometry flows with the wedge
chart, and the single-worldline construction of irrotational rigid motion."""

from .curvature import christoffels_fd, riemann_lowered_fd, total_antisymmetrizer
from .decomp import (DEFAULT_STEP, FIRST_DERIV_TOL, SECOND_DERIV_TOL,
                     KinematicDecomposition, killing_test,
                     kinematic_decomposition, lie_accel,
                     reparameterization_invariance_check, spatial_metric)
from .export import field_csv, trajectory_csv
from .fields import (VelocityField, boost_killing_field, boost_killing_flow,
                     rindler_from_event, rotation_killing_field,
                     wedge_chart_metric)
from .rotation import (comoving_coords, comoving_frame_vectors,
                       comoving_rotation_metric, projected_curvature_check,
                       rotation_killing_checks)
from .worldline import (WorldLineCurve, expected_accel_curl,
                        foliation_gap, foliation_time, herglotz_field,
                        hyperbolic_worldline, wiggly_worldline)

__all__ = [
    "DEFAULT_STEP",
    "FIRST_DERIV_TOL",
    "SECOND_DERIV_TOL",
    "VelocityField",
    "KinematicDecomposition",
    "WorldLineCurve",
    "spatial_metric",
    "kinematic_decomposition",
    "reparameterization_invariance_check",
    "killing_test",
    "lie_accel",
    "boost_killing_field",
    "rotation_killing_field",
    "boost_killing_flow",
    "rindler_from_event",
    "wedge_chart_metric",
    "hyperbolic_worldline",
    "wiggly_worldline",
    "foliation_time",
    "foliation_gap",
    "herglotz_field",
    "expected_accel_curl",
    "comoving_coords",
    "comoving_frame_vectors",
    "comoving_rotation_metric",
    "rotation_killing_checks",
    "projected_curvature_check",
    "christoffels_fd",
    "riemann_lowered_fd",
    "total_antisymmetrizer",
    "field_csv",
    "trajectory_csv",
]
