"""Reference distance to a segment of the imaginary axis, built from the
axis coordinates and the point distance alone."""

import math

import numpy as np

from hyperc.geometry import axis_coordinates, dist_arrays


def distance_to_axis_segment(w: np.ndarray, length: float):
    """Distance from the points w (complex UHP coordinates) to the axis
    segment over feet [0, length]: the offset beside it, the endpoint
    distance beyond.  Returns (distance, foot, signed offset)."""
    u, yoff = axis_coordinates(w)
    d_lo = dist_arrays(w, np.asarray(1j))
    d_hi = dist_arrays(w, np.asarray(1j * math.exp(length)))
    d = np.where(u < 0.0, d_lo, np.where(u > length, d_hi, np.abs(yoff)))
    return d, u, yoff
