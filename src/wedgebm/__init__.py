"""Exact simulation and closed-form transition densities for planar
Brownian motion stopped or normally reflected in a wedge."""

from .bessel import SeriesCapExceeded, log_bessel_i, series_tail_cutoff
from .corner import (CornerState, corner_triggered, reference_cdf,
                     reference_mass, sample_corner, sample_driving_angle,
                     sample_reference_radius)
from .densities import (ExitLawParams, Kind, corner_kernel,
                        density_drdtheta_to_dy, density_dy_to_drdtheta,
                        exit_joint_density, exit_radius_marginal,
                        killed_density_images, killed_density_series,
                        one_dim_factor, reflected_density_images,
                        reflected_density_series, survival_probability)
from .drift import (CoefficientField, DriftSpec, TimeGrid, euler_reflected,
                    euler_stopped, girsanov_log_weight, girsanov_weight,
                    linear_field, reflected_with_drift, stopped_with_drift)
from .geometry import (CorrelatedSetup, DecorrelatedProblem, PolarPoint,
                       RegionCase, Side, WedgeSpec, decorrelate,
                       fold_into_wedge, image_angles, require_pi_over_m)
from .montecarlo import (EstimatorConfig, FaultFractionExceeded, FoldingStats,
                         McReport, Mode, TestFunction,
                         double_barrier_constants, eps_sweep, estimate,
                         folding_stats)
from .rng import RngStream
from .samplers import (DEFAULT_EPSILON, DEFAULT_FOLD_CAP, FoldCapExceeded,
                       PathSample, algorithm_reflected, algorithm_stopped,
                       direct_pi_over_m_reflected, sample_exit_radius,
                       sample_exit_side, sample_exit_time,
                       sample_reflected_from_origin, sample_survivor)

__version__ = "0.1.0"
