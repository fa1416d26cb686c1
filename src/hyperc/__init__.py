"""Geodesic continuum percolation in the hyperbolic plane.

Exact hyperbolic geometry, Poisson point and line samplers under the
invariant measures, closed forms and the integral-equation solver for
the decay exponents and critical intensities, Monte Carlo containment
experiments, and the reflection-group tree construction.

The package namespace holds only the entry points that the command line
and the paper's results run through; import the rest from its module.
"""

__version__ = "0.1.0"

from .geometry import HPoint
from .sampling import ModelParams, RngStream, WindowError, sample_lines, sample_points
from .analytic import (
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
    detect_line_through_ball,
    estimate_S_cdf,
    estimate_f,
    sandwich_AQ,
    surviving_directions,
)
from .treecover import build_tree, tube_constants

__all__ = [name for name in dir() if not name.startswith("_")]
