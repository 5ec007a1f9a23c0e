"""Mutual-information harvesting by uniformly rotating Unruh-DeWitt
detectors coupled to a massless scalar field, with an optional Dirichlet
mirror handled by the image construction.

All quantities are dimensionless: the Gaussian switching width sets the
time unit, the coupling is unity. The package splits into kinematics
(orbits, at real or complex proper time), quadrature (adaptive panels
and one principal-value routine), response (single-detector excitation
probability), correlation (the pair coherence), infomeasure (mutual
information), and sweep (batch tables and oracle cross-checks). One
definition-level oracle, in correlation, judges both P and C: the
response is the correlation of a detector with itself, and the
defining double integral is taken on a proper-time contour shifted off
the real axis, with no regulator to extrapolate.
"""

from .correlation import (CorrelationResult, OracleEstimate, PairConfig,
                          correlation_equal, correlation_general_result)
from .infomeasure import (DensityBlock, MIResult, PairPointResult,
                          PerturbativeRegimeWarning, PointTerms,
                          assemble_density_block, mutual_information,
                          mutual_information_point)
from .kinematics import (CircularDetectorSpec, DomainError,
                         detector_from_accel_radius, omega_from_accel_radius)
from .quadrature import (QuadratureResult, integrate_adaptive,
                         principal_value_integral)
from .response import (ResponseBreakdown, inertial_response,
                       transition_probability,
                       transition_probability_oracle_result)
from .sweep import (SweepAxis, SweepRow, SweepSpec, count_interior_maxima,
                    emit_table, load_config, load_grid, point_record,
                    run_oracle_suite, run_sweep)

__version__ = "0.1.0"

__all__ = [
    "CircularDetectorSpec", "DomainError",
    "detector_from_accel_radius", "omega_from_accel_radius",
    "QuadratureResult", "integrate_adaptive", "principal_value_integral",
    "ResponseBreakdown", "inertial_response",
    "transition_probability", "transition_probability_oracle_result",
    "PairConfig", "CorrelationResult", "OracleEstimate",
    "correlation_equal", "correlation_general_result",
    "DensityBlock", "MIResult", "PairPointResult", "PointTerms",
    "PerturbativeRegimeWarning", "assemble_density_block",
    "mutual_information", "mutual_information_point",
    "SweepAxis", "SweepSpec", "SweepRow", "point_record", "run_sweep",
    "emit_table",
    "run_oracle_suite", "load_config", "load_grid", "count_interior_maxima",
    "__version__",
]
