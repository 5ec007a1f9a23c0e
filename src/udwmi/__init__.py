"""Mutual-information harvesting by uniformly rotating Unruh-DeWitt
detectors coupled to a massless scalar field, with an optional Dirichlet
mirror handled by the image construction.

All quantities are dimensionless: the Gaussian switching width sets the
time unit, the coupling is unity. The package splits into kinematics
(orbits), quadrature (adaptive panels, one principal-value routine, root
bracketing, regulator extrapolation), response (single-detector excitation
probability), correlation (the pair coherence), infomeasure (mutual
information), and sweep (batch tables and oracle cross-checks).
"""

from .correlation import (CorrelationResult, OracleEstimate, PairConfig,
                          correlation_equal, correlation_general,
                          correlation_general_result, wightman_boundary,
                          wightman_free)
from .infomeasure import (DensityBlock, MIResult, PairPointResult,
                          PerturbativeRegimeWarning, assemble_density_block,
                          mutual_information, mutual_information_point)
from .kinematics import (CircularDetectorSpec, DomainError, SpacetimePoint,
                         detector_from_accel_radius, omega_from_accel_radius,
                         trajectory_point)
from .quadrature import (ExtrapolationResult, QuadratureResult,
                         epsilon_extrapolate, find_root_bracketed,
                         integrate_adaptive, principal_value_integral)
from .response import (ResponseBreakdown, image_pole_location,
                       inertial_response, transition_probability,
                       transition_probability_free,
                       transition_probability_oracle,
                       transition_probability_oracle_result)
from .sweep import (SweepAxis, SweepRow, SweepSpec, count_interior_maxima,
                    emit_table, load_config, load_grid, run_oracle_suite,
                    run_sweep)

__version__ = "0.1.0"

__all__ = [
    "CircularDetectorSpec", "SpacetimePoint", "DomainError",
    "detector_from_accel_radius", "omega_from_accel_radius",
    "trajectory_point",
    "QuadratureResult", "ExtrapolationResult",
    "integrate_adaptive", "principal_value_integral", "epsilon_extrapolate",
    "find_root_bracketed",
    "ResponseBreakdown", "inertial_response", "image_pole_location",
    "transition_probability", "transition_probability_free",
    "transition_probability_oracle", "transition_probability_oracle_result",
    "PairConfig", "CorrelationResult", "OracleEstimate",
    "wightman_free", "wightman_boundary", "correlation_equal",
    "correlation_general", "correlation_general_result",
    "DensityBlock", "MIResult", "PairPointResult",
    "PerturbativeRegimeWarning", "assemble_density_block",
    "mutual_information", "mutual_information_point",
    "SweepAxis", "SweepSpec", "SweepRow", "run_sweep", "emit_table",
    "run_oracle_suite", "load_config", "load_grid", "count_interior_maxima",
    "__version__",
]
