"""Reference forms of the axis coordinates that the tests compare
against: the point at given axis coordinates, the isometry that lays a
segment on the axis, and the distance to a segment of the imaginary
axis, built from the axis coordinates and the point distance alone;
and the polar form around (0, 1) in which a ``BooleanSample`` holds
given points."""

import math

import numpy as np

from hyperc.geometry import axis_coordinates, dist_arrays, to_disk

from mobius import Isometry


def axis_point(u, y):
    """The points (complex UHP coordinates) at foot u on the imaginary
    axis and signed perpendicular offset y, positive on the x < 0 side:
    the inverse of ``axis_coordinates``, with cosh d((0, 1), z) =
    cosh u cosh y."""
    theta = 2.0 * np.arctan(np.exp(y))
    return np.exp(u) * np.exp(1j * theta)


def to_axis(p: complex, q: complex) -> Isometry:
    """An isometry that takes p to i and q to i e^{d(p, q)}: a shift and
    scaling that takes p to i, then the rotation about i that turns the
    image of q onto the axis above i."""
    shift = Isometry(1.0, -p.real, 0.0, p.imag)
    z = shift.apply_array(np.asarray(q))
    psi = float(np.angle((z - 1j) / (z + 1j)))
    c, s = math.cos(psi / 2.0), math.sin(psi / 2.0)
    return Isometry(c, -s, s, c) @ shift


def distance_to_axis_segment(w: np.ndarray, length: float):
    """Distance from the points w (complex UHP coordinates) to the axis
    segment over feet [0, length]: the offset beside it, the endpoint
    distance beyond.  Returns (distance, foot, signed offset)."""
    u, yoff = axis_coordinates(w)
    d_lo = dist_arrays(w, np.asarray(1j))
    d_hi = dist_arrays(w, np.asarray(1j * math.exp(length)))
    d = np.where(u < 0.0, d_lo, np.where(u > length, d_hi, np.abs(yoff)))
    return d, u, yoff


def polar_of(z):
    """Polar coordinates (t, psi) around (0, 1) of the points z (complex
    UHP coordinates), through the Cayley disk coordinate w:
    t = 2 artanh |w|, psi = arg w."""
    w = to_disk(np.atleast_1d(np.asarray(z, dtype=complex)))
    return 2.0 * np.arctanh(np.abs(w)), np.angle(w)
