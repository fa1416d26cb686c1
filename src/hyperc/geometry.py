"""Exact geometry of the hyperbolic plane in upper half-plane coordinates.

Points live in the open upper half-plane (metric |ds|/y).  The Monte
Carlo experiments run in canonical position and read points through
the axis coordinates, the polar form around (0, 1) and the hyperboloid
helpers.  The Mobius layer, geodesics stored by their unordered pair of
ideal boundary points (the boundary is R together with the single point
at infinity) and isometries as real matrices, serves the tree's
reflections and limit geodesics.  The Poincare disk model is available
through the standard Cayley transform, which is used by the tree
construction and the renderer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "INF",
    "HPoint",
    "Geodesic",
    "Isometry",
    "ORIGIN",
    "dist",
    "canonical_matrix",
    "reflection_in",
    "to_disk",
    "ball_area",
    "ideal_from_disk_angle",
    "disk_angle_from_ideal",
]

#: The single ideal point at infinity of the upper half-plane boundary.
INF = math.inf

# cosh(d) arguments below 1 + _COSH_GUARD are expanded as sqrt(2(arg-1))
# to avoid arccosh cancellation for near-coincident points.
_COSH_GUARD = 1e-14


def _acosh_excess(delta: float) -> float:
    """arccosh(1 + delta) computed from the excess delta >= 0, so that
    near-coincident points keep full relative precision."""
    if delta < 0.0:
        delta = 0.0
    if delta < _COSH_GUARD:
        return math.sqrt(2.0 * delta)
    return math.log1p(delta + math.sqrt(delta * (2.0 + delta)))


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


def _ideal_ok(a) -> bool:
    return a == INF or (isinstance(a, (int, float)) and math.isfinite(a))


@dataclass(frozen=True)
class Geodesic:
    """An unoriented hyperbolic line given by its two ideal endpoints.

    Endpoints are reals or INF and are normalized so that {a, b}
    compares equal regardless of input order: finite pairs are sorted,
    and INF always sits in the second slot.
    """

    a: float
    b: float

    def __post_init__(self):
        a, b = self.a, self.b
        if not (_ideal_ok(a) and _ideal_ok(b)):
            raise ValueError(f"ideal endpoints must be finite reals or INF: {a}, {b}")
        if a == b:
            raise ValueError("a geodesic needs two distinct ideal endpoints")
        if a == INF or (b != INF and b < a):
            a, b = b, a
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", float(b))

    @property
    def vertical(self) -> bool:
        return self.b == INF

    def side(self, p: HPoint) -> float:
        """Signed side indicator; opposite signs mean the geodesic separates."""
        if self.vertical:
            return p.x - self.a
        c = 0.5 * (self.a + self.b)
        r = 0.5 * (self.b - self.a)
        return (p.x - c) ** 2 + p.y**2 - r * r


@dataclass(frozen=True)
class Isometry:
    """An isometry of H^2 as a real Mobius matrix [[a, b], [c, d]].

    Positive determinant acts as z -> (az+b)/(cz+d); negative
    determinant acts on the conjugate, z -> (a zbar + b)/(c zbar + d),
    covering reflections.  Composition is matrix multiplication either
    way because the coefficients are real.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError("Mobius coefficients must have nonzero determinant")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(1.0, 0.0, 0.0, 1.0)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Isometry":
        return Isometry(self.d, -self.b, -self.c, self.a)

    def apply(self, p: HPoint) -> HPoint:
        z = p.as_complex()
        if self.det < 0:
            z = z.conjugate()
        w = (self.a * z + self.b) / (self.c * z + self.d)
        return HPoint(w.real, abs(w.imag))

    def apply_array(self, z: np.ndarray) -> np.ndarray:
        """Vectorized action on complex upper half-plane coordinates."""
        if self.det < 0:
            z = np.conjugate(z)
        w = (self.a * z + self.b) / (self.c * z + self.d)
        return w.real + 1j * np.abs(w.imag)


def canonical_matrix(g: Geodesic) -> Isometry:
    """The isometry that takes the imaginary axis onto g, with 0 -> a,
    INF -> b and i -> the summit of the semicircle (or (a, 1) for
    vertical lines)."""
    if g.vertical:
        return Isometry(1.0, g.a, 0.0, 1.0)
    return Isometry(g.b, g.a, 1.0, 1.0)


def dist(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance, cosh d = 1 + ((dx)^2 + (dy)^2) / (2 y_p y_q)."""
    delta = ((p.x - q.x) ** 2 + (p.y - q.y) ** 2) / (2.0 * p.y * q.y)
    return _acosh_excess(delta)


def dist_arrays(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Vectorized distance between complex UHP coordinate arrays."""
    delta = (np.abs(z1 - z2) ** 2) / (2.0 * z1.imag * z2.imag)
    delta = np.maximum(delta, 0.0)
    small = delta < _COSH_GUARD
    out = np.arccosh(np.where(small, 2.0, 1.0 + delta))
    return np.where(small, np.sqrt(2.0 * delta), out)


def axis_coordinates(z: np.ndarray):
    """Foot parameter and signed offset relative to the imaginary axis.

    For z = rho e^{i theta} the foot of the perpendicular is (0, rho)
    and the signed perpendicular distance is log tan(theta/2), positive
    on the x < 0 side (the left of upward travel).
    """
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    rho = np.abs(z)
    u = np.log(rho)
    # tan(theta/2) = y/(rho+x) = (rho-x)/y; pick the cancellation-free form
    yoff = np.where(x >= 0.0, np.log(y) - np.log(rho + x), np.log(rho - x) - np.log(y))
    return u, yoff


def reflection_in(g: Geodesic) -> Isometry:
    """The reflection across g as a negative-determinant Isometry."""
    if g.vertical:
        return Isometry(-1.0, 2.0 * g.a, 0.0, 1.0)
    c = 0.5 * (g.a + g.b)
    r = 0.5 * (g.b - g.a)
    # circle inversion z -> c + r^2/(zbar - c)
    return Isometry(c, r * r - c * c, 1.0, -c)


def to_disk(p: HPoint):
    """Cayley transform w = (z - i)/(z + i); sends (0, 1) to the disk center."""
    z = p.as_complex()
    w = (z - 1j) / (z + 1j)
    return (w.real, w.imag)


def ideal_from_disk_angle(theta: float) -> float:
    """Boundary circle point e^{i theta} mapped to the UHP ideal boundary."""
    t = math.tan(0.5 * (theta % (2.0 * math.pi)))
    if t == 0.0:
        return INF
    return -1.0 / t


def disk_angle_from_ideal(x: float) -> float:
    """Inverse boundary map; returns an angle in [0, 2 pi)."""
    if x == INF:
        return 0.0
    return (2.0 * math.atan2(-1.0, x)) % (2.0 * math.pi)


def ball_area(r: float) -> float:
    return 2.0 * math.pi * (math.cosh(r) - 1.0)


def polar_around_origin(t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Points at hyperbolic distance t and direction phi from (0, 1),
    as complex UHP coordinates."""
    w = np.tanh(np.asarray(t) / 2.0) * np.exp(1j * np.asarray(phi))
    z = 1j * (1.0 + w) / (1.0 - w)
    return z.real + 1j * np.abs(z.imag)


def ball_net(radius: float, mesh: float, rim: bool):
    """Polar coordinates (t, psi) around (0, 1) of a net of B(o, radius)
    with spacing at most mesh: the centre, the rings at k mesh < radius
    and, with rim, the boundary circle, each ring of at least four
    equally spaced points."""
    radii = [k * mesh for k in range(1, int(radius / mesh) + 2) if k * mesh < radius]
    if rim:
        radii.append(radius)
    sizes = [max(4, int(math.ceil(2.0 * math.pi * math.sinh(rad) / mesh))) for rad in radii]
    t = np.concatenate([[0.0]] + [np.full(m, rad) for m, rad in zip(sizes, radii)])
    psi = np.concatenate([[0.0]] + [2.0 * math.pi * np.arange(m) / m for m in sizes])
    return t, psi


# ---------------------------------------------------------------------------
# Hyperboloid-model helpers.  Large upper half-plane coordinates make the
# semicircle representation of near-vertical geodesics ill conditioned; the
# Minkowski form stays well scaled, so the tube and chord computations below
# run on it.  Vectors are [X1, X2, X0] with <u, v> = u1 v1 + u2 v2 - u0 v0.


def to_hyperboloid(z: np.ndarray) -> np.ndarray:
    """Map complex UHP coordinates to hyperboloid vectors, shape (..., 3)."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    n = x * x + y * y
    return np.stack([x / y, (n - 1.0) / (2.0 * y), (n + 1.0) / (2.0 * y)], axis=-1)


def minkowski(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


def geodesic_normal(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unit spacelike Minkowski normal of the geodesic through p and q."""
    e = np.cross(p, q)
    n = np.stack([e[..., 0], e[..., 1], -e[..., 2]], axis=-1)
    norm = np.sqrt(minkowski(n, n))
    return n / norm[..., None]


def segment_point_distance(p: np.ndarray, q: np.ndarray, w: np.ndarray):
    """Fermi coordinates of points w relative to geodesic segments [p, q].

    p, q: (S, 3) hyperboloid endpoints; w: (N, 3) points.  Returns a
    pair (foot, perp) of (S, N) arrays: the signed foot parameter
    measured from p toward q, and the unsigned perpendicular distance
    to the full geodesic.  These are what the containment kernel
    ``percolation._reaches`` reads; the distance to the segment itself
    is not needed there and is not computed.
    """
    p = np.atleast_2d(p)
    q = np.atleast_2d(q)
    w = np.atleast_2d(w)
    flip = np.asarray([1.0, 1.0, -1.0])  # turns a plain dot into <.,.>
    n = geodesic_normal(p, q)  # (S, 3)
    c = np.einsum("sk,nk->sn", n * flip, w)  # sinh of the signed offset
    perp = np.arcsinh(np.abs(c))
    w_plane = w[None, :, :] - c[:, :, None] * n[:, None, :]
    norm2 = -minkowski(w_plane, w_plane)
    f = w_plane / np.sqrt(np.maximum(norm2, 1e-300))[:, :, None]
    length = np.arccosh(np.maximum(-minkowski(p, q), 1.0))  # (S,)
    fp = -np.einsum("snk,sk->sn", f, p * flip)  # cosh d(f, p)
    fq = -np.einsum("snk,sk->sn", f, q * flip)
    sinh_l = np.maximum(np.sinh(length), 1e-300)[:, None]
    foot = np.arcsinh((np.cosh(length)[:, None] * fp - fq) / sinh_l)
    return foot, perp
