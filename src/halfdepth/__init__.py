"""Halfspace depth toolkit.

Exact and certified sample depth, closed-form population depth for
normal families, finite-sample deviation bounds for the empirical depth
process, and a seeded Monte Carlo harness that compares the bounds
against observed deviations.
"""

from .bounds import (
    BOUND_KINDS,
    BoundParams,
    BoundReport,
    Precondition,
    evaluate_bound,
    halfplane_subset_count,
    improvement_factor,
    regular_polygon,
    shatter_exact_2d,
)
from .experiments import (
    BoundComparison,
    ExperimentConfig,
    ExperimentResult,
    TrialResult,
    auto_queries,
    default_sweep_grid,
    draw_sample,
    run_bound_sweep,
    run_deviation_experiment,
    split_seed,
    sweep_rows_to_csv,
    write_outputs,
)
from .geometry import (
    CoverCheck,
    SphericalCover,
    build_cover,
    cover_radius,
    log_covering_count,
    max_cover_radius,
    sample_directions,
    verify_cover,
)
from .population import (
    AffineReduction,
    DistributionSpec,
    affine_reduce,
    cdf_projected_many,
    elliptical_normal,
    population_depth,
    standard_normal,
    tail_probability_bound,
)
from .sample_depth import (
    DepthInterval,
    DepthValue,
    Sample,
    depth_1d,
    depth_brute,
    depth_certified,
    depth_certified_many,
    depth_exact_2d,
    depth_exact_2d_many,
    ks_statistic,
    sup_deviation,
)

__version__ = "0.1.0"

__all__ = [
    "BOUND_KINDS",
    "AffineReduction",
    "BoundComparison",
    "BoundParams",
    "BoundReport",
    "CoverCheck",
    "DepthInterval",
    "DepthValue",
    "DistributionSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "Precondition",
    "Sample",
    "SphericalCover",
    "TrialResult",
    "affine_reduce",
    "auto_queries",
    "build_cover",
    "cdf_projected_many",
    "cover_radius",
    "default_sweep_grid",
    "depth_1d",
    "depth_brute",
    "depth_certified",
    "depth_certified_many",
    "depth_exact_2d",
    "depth_exact_2d_many",
    "draw_sample",
    "elliptical_normal",
    "evaluate_bound",
    "halfplane_subset_count",
    "improvement_factor",
    "ks_statistic",
    "log_covering_count",
    "max_cover_radius",
    "population_depth",
    "regular_polygon",
    "run_bound_sweep",
    "run_deviation_experiment",
    "sample_directions",
    "shatter_exact_2d",
    "split_seed",
    "standard_normal",
    "sup_deviation",
    "sweep_rows_to_csv",
    "tail_probability_bound",
    "verify_cover",
    "write_outputs",
]
