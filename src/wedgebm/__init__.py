"""Exact simulation and closed-form transition densities for planar
Brownian motion stopped or normally reflected in a wedge."""

from .bessel import SeriesCapExceeded, series_tail_cutoff
from .corner import corner_triggered, sample_corner
from .densities import (ExitLawParams, Kind, killed_density_images,
                        killed_density_series, reflected_density_images,
                        reflected_density_series)
from .drift import girsanov_log_weight, linear_field
from .geometry import (CorrelatedSetup, PolarPoint, RegionCase, Side,
                       WedgeSpec, fold_into_wedge, image_angles,
                       require_pi_over_m)
from .montecarlo import (EstimatorConfig, FaultFractionExceeded, FoldingStats,
                         McReport, Mode, TestFunction, eps_sweep, estimate,
                         folding_stats, run_frame)
from .rng import RngStream
from .samplers import (DEFAULT_EPSILON, DEFAULT_FOLD_CAP, FoldCapExceeded,
                       PathSample, algorithm_reflected, algorithm_stopped)

__version__ = "0.1.0"
