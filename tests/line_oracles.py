"""Reference forms of the sampled lines that the tests compare against:
each line as the UHP geodesic through its ideal ends, the distance to
such a geodesic, and the UHP semicircle side test."""

import math

import numpy as np

from hyperc.geometry import (
    Geodesic,
    HPoint,
    axis_coordinates,
    canonical_matrix,
    ideal_from_disk_angle,
)
from hyperc.sampling import LineSample


def geodesic(p: float, phi: float) -> Geodesic:
    """The line at foot distance p and foot direction phi from (0, 1): its
    ideal ends lie at the disk angles phi -+ arccos(tanh p)."""
    delta = math.acos(math.tanh(p))
    return Geodesic(ideal_from_disk_angle(phi - delta), ideal_from_disk_angle(phi + delta))


def dist_to_geodesic(p: HPoint, g: Geodesic):
    """Distance from p to g and the foot parameter in g's canonical
    frame: p is moved by the inverse of ``canonical_matrix(g)``, which
    takes g onto the imaginary axis, and read in axis coordinates."""
    w = canonical_matrix(g).inverse().apply(p).as_complex()
    u, yoff = axis_coordinates(np.asarray([w]))
    return abs(float(yoff[0])), float(u[0])


def semicircle_sides(sample: LineSample, z: complex) -> np.ndarray:
    """UHP oracle for ``LineSample.sides`` at the point z: the semicircle
    side test (x - c)^2 + y^2 - r^2 on each line's ideal ends, or x - a
    for a vertical line.  Opposite signs mean the line separates two
    points."""
    delta = np.arccos(np.tanh(sample.foot_dist))
    t = np.tan(0.5 * np.mod(sample.foot_dir + np.stack([-delta, delta]), 2.0 * math.pi))
    with np.errstate(divide="ignore"):
        a, b = np.sort(np.where(t == 0.0, np.inf, -1.0 / t), axis=0)
    c, rad = 0.5 * (a + b), 0.5 * (b - a)
    with np.errstate(invalid="ignore"):
        circ = (z.real - c) ** 2 + z.imag**2 - rad * rad
    return np.where(np.isinf(b), z.real - a, circ)
