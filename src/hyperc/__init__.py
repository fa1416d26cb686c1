"""Geodesic continuum percolation in the hyperbolic plane.

Exact hyperbolic geometry, Poisson point and line samplers under the
invariant measures, closed forms and the integral-equation solver for
the decay exponents and critical intensities, Monte Carlo containment
experiments, and the reflection-group tree construction.
"""

__version__ = "0.1.0"

from .geometry import (
    INF,
    Geodesic,
    GeodesicFrame,
    HPoint,
    Isometry,
    ORIGIN,
    ball_metrics,
    dist,
    dist_to_geodesic,
    frame_point,
    from_disk,
    offset_point,
    reflect,
    to_disk,
)
from .sampling import (
    BooleanSample,
    LineSample,
    ModelParams,
    RngStream,
    WindowError,
    phi_ball,
    phi_segment,
    phi_separating,
    sample_lines,
    sample_points,
)
from .analytic import (
    AlphaResult,
    SolverError,
    alpha_occupied,
    alpha_vacant,
    f_grassmann,
    f_vacant,
    hitting_cdf,
    lambda_gc,
    lambda_gv,
    lrp_edge_measure,
    lrp_edge_prob,
)
from .percolation import (
    ExperimentResult,
    RaySurvival,
    Segment,
    detect_line_through_ball,
    estimate_S_cdf,
    estimate_f,
    sandwich_AQ,
    segment_avoids_lines,
    segment_in_occupied,
    segment_in_vacant,
    surviving_directions,
)
from .treecover import EmbeddedTree, build_tree, check_separation, estimate_R_prime

__all__ = [name for name in dir() if not name.startswith("_")]
