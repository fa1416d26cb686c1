"""Exact geometry of the hyperbolic plane in upper half-plane coordinates.

Points live in the open upper half-plane (metric |ds|/y).  The Monte
Carlo experiments keep their points in polar form (t, psi) around
(0, 1) and read them as hyperboloid vectors (``polar_hyperboloid``) or
through one frame formula, ``frame_fermi``: Fermi coordinates along a
geodesic from a point's products with the geodesic's unit tangent and
normal, which ``polar_frame`` gives for polar points and
``segment_point_distance`` for hyperboloid vectors.  Lines are read
through their unit normals, written once in ``line_normal``.  Each
change of model is written once for complex coordinates, scalar or
array: the distance ``dist_arrays`` and the Cayley map ``to_disk`` to
the Poincare disk; ``dist`` reads the first for ``HPoint``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HPoint",
    "ORIGIN",
    "dist",
    "to_disk",
    "ball_area",
    "tube_area",
]


@dataclass(frozen=True)
class HPoint:
    """A point of H^2 in upper half-plane coordinates, y > 0."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"upper half-plane point needs y > 0, got y={self.y}")

    def as_complex(self) -> complex:
        return complex(self.x, self.y)


ORIGIN = HPoint(0.0, 1.0)


def dist(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance between two points."""
    return float(dist_arrays(p.as_complex(), q.as_complex()))


def dist_arrays(z1, z2):
    """Hyperbolic distance between complex UHP coordinates, elementwise,
    from delta = cosh d - 1 as log1p(delta + sqrt(delta (2 + delta))),
    which keeps full relative precision for near-coincident points.  It
    squares by products, as CPython's ** 2 is not always correctly
    rounded, so that ``dist`` gets the bits of the array form."""
    dz = z1 - z2
    delta = (dz.real * dz.real + dz.imag * dz.imag) / (2.0 * z1.imag * z2.imag)
    return np.log1p(delta + np.sqrt(delta * (2.0 + delta)))


def axis_coordinates(z: np.ndarray):
    """Foot parameter and signed offset relative to the imaginary axis.

    For z = rho e^{i theta} the foot of the perpendicular is (0, rho)
    and the signed perpendicular distance is log tan(theta/2), positive
    on the x < 0 side (the left of upward travel).
    """
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    rho = np.abs(z)
    # tan(theta/2) = y/(rho+x) = (rho-x)/y; pick the cancellation-free form
    yoff = np.where(x >= 0.0, np.log(y) - np.log(rho + x), np.log(rho - x) - np.log(y))
    return np.log(rho), yoff


def to_disk(z):
    """The Cayley map w = (z - i)/(z + i) of complex UHP coordinates,
    scalar or array, to the Poincare disk; sends (0, 1) to the centre."""
    return (z - 1j) / (z + 1j)


def ball_area(r: float) -> float:
    return 2.0 * math.pi * (math.cosh(r) - 1.0)


def tube_area(R: float, length: float) -> float:
    """Area of the R-neighbourhood of a geodesic segment of the given
    length: a rectangle of area 2 length sinh R and two half balls."""
    return 2.0 * length * math.sinh(R) + ball_area(R)


def polar_around_origin(t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Points at hyperbolic distance t and direction phi from (0, 1),
    as complex UHP coordinates, each within 4e-16 e^t (hyperbolic
    distance) of the exact point at the given t and phi, for t <= 30:
    the Cayley map rounds tanh(t / 2) near 1, and a relative rounding
    of its input or its quotient moves the point by about e^t times as
    much.  The bound is 8.8e-12 at t = 10, 1.9e-7 at t = 20 and 4.3e-3
    at t = 30."""
    w = np.tanh(np.asarray(t) / 2.0) * np.exp(1j * np.asarray(phi))
    z = 1j * (1.0 + w) / (1.0 - w)
    return z.real + 1j * np.abs(z.imag)


# ---------------------------------------------------------------------------
# Hyperboloid-model helpers.  Large upper half-plane coordinates make the
# semicircle representation of near-vertical geodesics ill conditioned; the
# Minkowski form stays well scaled, so the tube and chord computations below
# run on it.  Vectors are [X1, X2, X0] with <u, v> = u1 v1 + u2 v2 - u0 v0.


def to_hyperboloid(z: np.ndarray) -> np.ndarray:
    """Map complex UHP coordinates to hyperboloid vectors, shape (..., 3),
    each coordinate within 4e-16 cosh t of the exact vector of the given
    z, t its distance from (0, 1): each is a few roundings of terms no
    larger than cosh t = (|z|^2 + 1) / (2 y), so even where |z|^2 - 1
    cancels the error stays of that size.  The bound is 4.4e-12 at
    t = 10 and 1.4e-5 at t = 25."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    n = x * x + y * y
    return np.stack([x / y, (n - 1.0) / (2.0 * y), (n + 1.0) / (2.0 * y)], axis=-1)


def polar_hyperboloid(t, psi) -> np.ndarray:
    """Hyperboloid vectors (-sinh t sin psi, sinh t cos psi, cosh t) of the
    points at distance t and direction psi from (0, 1), each coordinate
    within 4e-16 cosh t of its exact value at the given t and psi."""
    sinh_t = np.sinh(t)
    return np.stack([-sinh_t * np.sin(psi), sinh_t * np.cos(psi), np.cosh(t)], axis=-1)


def minkowski(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


def line_normal(foot_dist, foot_dir) -> np.ndarray:
    """Unit Minkowski normal, shape (..., 3), of the line at hyperbolic
    distance foot_dist from (0, 1) whose nearest point lies in the disk
    direction foot_dir: n = (-cosh p sin phi, cosh p cos phi, sinh p).
    (0, 1) lies on its negative side."""
    p, phi = np.asarray(foot_dist), np.asarray(foot_dir)
    return np.stack([-np.cosh(p) * np.sin(phi), np.cosh(p) * np.cos(phi), np.sinh(p)], axis=-1)


def geodesic_normal(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unit spacelike Minkowski normal of the geodesic through p and q."""
    e = np.cross(p, q)
    n = np.stack([e[..., 0], e[..., 1], -e[..., 2]], axis=-1)
    norm = np.sqrt(minkowski(n, n))
    return n / norm[..., None]


def frame_fermi(along, normal):
    """Fermi coordinates (foot u, signed offset v) along a geodesic of the
    points w = cosh v (cosh u p + sinh u e) + sinh v n, p the foot origin
    and e, n the unit tangent and normal there, from along = <e, w> and
    normal = <n, w>: u = arcsinh(along / sqrt(1 + normal^2)) and
    v = arcsinh(normal), each within a few units in the last place."""
    return np.arcsinh(along / np.sqrt(1.0 + normal * normal)), np.arcsinh(normal)


def polar_frame(t, dpsi):
    """(<e, w>, <n, w>) = (sinh t cos dpsi, sinh t sin dpsi) for the points
    w at distance t from (0, 1) and angle dpsi from a geodesic through it,
    in its frame at (0, 1), n to the left of travel; through
    ``frame_fermi``, foot and offset within 4e-16 (1 + t) of exact."""
    sinh_t = np.sinh(t)
    return sinh_t * np.cos(dpsi), sinh_t * np.sin(dpsi)


def segment_frame(p: np.ndarray, q: np.ndarray):
    """The frame (e, n) of the geodesic segments [p, q] at p, each (S, 3):
    e = (q - cosh L p) / sinh L the unit tangent toward q, L = d(p, q),
    and n the unit normal ``geodesic_normal(p, q)``; a point's products
    with them are what ``frame_fermi`` reads."""
    cosh_l = np.maximum(-minkowski(p, q), 1.0)[:, None]
    sinh_l = np.maximum(np.sqrt((cosh_l - 1.0) * (cosh_l + 1.0)), 1e-300)
    return (q - cosh_l * p) / sinh_l, geodesic_normal(p, q)


def segment_point_distance(p: np.ndarray, q: np.ndarray, w: np.ndarray):
    """Fermi coordinates of points w relative to geodesic segments [p, q].

    p, q: (S, 3) hyperboloid endpoints; w: (N, 3) points.  Returns a
    pair (foot, perp) of (S, N) arrays: the signed foot parameter
    measured from p toward q, and the unsigned perpendicular distance
    to the full geodesic.  These are what the containment kernel
    ``percolation._reaches`` reads; the distance to the segment itself
    is not needed there and is not computed.

    Both are read by ``frame_fermi`` in the segment's frame
    (``segment_frame``), from two (S, 3) x (3, N) products and no
    (S, N, 3) temporary.
    """
    p = np.atleast_2d(p)
    q = np.atleast_2d(q)
    w = np.atleast_2d(w)
    flip = np.asarray([1.0, 1.0, -1.0])  # turns a plain dot into <.,.>
    e, n = segment_frame(p, q)
    w_flip = (w * flip).T
    foot, offset = frame_fermi(e @ w_flip, n @ w_flip)
    return foot, np.abs(offset)
