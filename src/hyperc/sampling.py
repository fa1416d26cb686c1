"""Exact samplers for the Poisson models and the invariant line measure.

Every window is a ball around (0, 1): point clouds are drawn on it with
the isometry-invariant area measure, and lines from the invariant
Grassmannian measure restricted to the lines meeting it.  The
R-neighbourhood of a segment of the imaginary axis is drawn as well,
and for lines only the feet where they cross an axis segment.  All
randomness flows through counter-style streams so a trial's draws are
a pure function of (master seed, stream index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .geometry import (
    axis_coordinates,
    ball_area,
    minkowski,
    polar_around_origin,
)

__all__ = [
    "ModelParams",
    "BooleanSample",
    "LineSample",
    "RngStream",
    "WindowError",
    "sample_points",
    "sample_lines",
    "sample_tube",
    "sample_crossings",
    "phi_segment",
    "phi_segment_quadrature",
    "phi_separating",
    "phi_separating_quadrature",
    "phi_ball",
    "phi_ball_quadrature",
]


class WindowError(ValueError):
    """A containment query reached outside the sampled window."""


@dataclass(frozen=True)
class ModelParams:
    """Intensity and ball radius of a Poisson model.

    ``radius`` is the ball radius R of the Boolean model and is None
    for the line process, where ``intensity`` multiplies the invariant
    line measure instead of the area measure.
    """

    intensity: float
    radius: float | None = None

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError("intensity must be nonnegative")
        if self.radius is not None and not self.radius > 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (master_seed, stream_index) -> generator.

    Distinct stream indices give statistically independent streams and
    identical pairs reproduce identical draws bit for bit.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self, *subkeys: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index, *subkeys)
        )
        return np.random.Generator(np.random.PCG64(seq))


class _Window:
    """A realization drawn on the window B((0, 1), window_radius)."""

    def require_window(self, reach: float, what: str = "query") -> None:
        """Fail when a query needs geometry beyond the sampled window."""
        if reach > self.window_radius + 1e-9:
            raise WindowError(
                f"{what} reaches distance {reach:.6g} from (0, 1) "
                f"but the window was sampled only out to {self.window_radius:.6g}"
            )


@dataclass(frozen=True)
class BooleanSample(_Window):
    """A Poisson point realization on the window ball B((0, 1), window_radius)."""

    params: ModelParams
    window_radius: float
    points: np.ndarray = field(repr=False)  # complex UHP coordinates

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class LineSample(_Window):
    """Poisson lines meeting B((0, 1), window_radius), in polar form:
    ``foot_dist`` is the hyperbolic distance from (0, 1) to the line and
    ``foot_dir`` the disk-model direction of its nearest point.
    """

    intensity: float
    window_radius: float
    foot_dist: np.ndarray = field(repr=False)
    foot_dir: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.foot_dist)

    def sides(self, w: np.ndarray) -> np.ndarray:
        """sinh of the signed distance from each hyperboloid vector in w,
        of shape (..., 3), to each line; the result has shape
        (..., len(self)).

        The line at foot (p, phi) has the unit normal
        n = (-cosh p sin phi, cosh p cos phi, sinh p), and the side is
        <w, n> in the Minkowski form; (0, 1) lies on the negative side of
        every line.
        """
        p, phi = self.foot_dist, self.foot_dir
        n = np.stack([-np.cosh(p) * np.sin(phi), np.cosh(p) * np.cos(phi), np.sinh(p)], axis=-1)
        return minkowski(np.asarray(w)[..., None, :], n)


def ball_polar(radius: float, n, gen: np.random.Generator):
    """Polar coordinates (t, phi) around (0, 1) of n i.i.d. invariant points
    of B((0, 1), radius): radial CDF (cosh t - 1)/(cosh radius - 1), and
    uniform angles, drawn after all the radii."""
    t = np.arccosh(1.0 + gen.uniform(0.0, 1.0, n) * (math.cosh(radius) - 1.0))
    return t, gen.uniform(0.0, 2.0 * math.pi, n)


def sample_points(params: ModelParams, radius: float, gen: np.random.Generator) -> BooleanSample:
    """Poisson(intensity * area) points, i.i.d. invariant on B((0, 1), radius)."""
    if not radius > 0:
        raise ValueError("window radius must be positive")
    n = gen.poisson(params.intensity * ball_area(radius))
    return BooleanSample(params, radius, polar_around_origin(*ball_polar(radius, n, gen)))


def sample_lines(intensity: float, rho: float, gen: np.random.Generator) -> LineSample:
    """Poisson draw from the invariant line measure restricted to lines
    meeting B((0, 1), rho).

    Sampling inverts the measure in perpendicular-foot coordinates: the
    foot direction is uniform and the foot distance p has density
    cosh(p)/sinh(rho) on [0, rho].  The total mass of the restricted
    measure is phi_ball(rho).
    """
    if not rho > 0:
        raise ValueError("reference radius must be positive")
    if intensity < 0:
        raise ValueError("intensity must be nonnegative")
    n = gen.poisson(intensity * phi_ball(rho))
    p = np.arcsinh(gen.uniform(0.0, 1.0, n) * math.sinh(rho))
    phi = gen.uniform(0.0, 2.0 * math.pi, n)
    return LineSample(intensity, rho, p, phi)


def sample_tube(params: ModelParams, length: float, gens):
    """Independent Poisson realizations, one per generator, on the
    R-neighbourhood of the axis segment over feet [0, length].

    Points are returned in the axis coordinates (u, y) of
    ``axis_coordinates``, with the index of the trial each belongs to.
    The neighbourhood is the rectangle u in [0, length], |y| < R, whose
    area element is cosh y du dy (u uniform, y = arsinh(sinh R U) with
    U uniform on (-1, 1)), and the two half balls of radius R at the
    ends.  Together the half balls are one ball: each trial draws the
    ball around gamma(0) with ``sample_points``, keeps its half behind
    gamma(0) and moves the other half along the axis to gamma(length).
    """
    R = params.radius
    if length < 0:
        raise ValueError("segment length must be nonnegative")
    mean = params.intensity * length * 2.0 * math.sinh(R)
    n_rect, rect, n_cap, caps = [], [], [], []
    for gen in gens:
        n = gen.poisson(mean)
        rect.append(gen.random((2, n)))
        cap = sample_points(params, R, gen).points
        n_rect.append(n)
        n_cap.append(len(cap))
        caps.append(cap)
    trials = np.arange(len(n_rect))
    a, b = np.concatenate(rect, axis=1)
    cu, cy = axis_coordinates(np.concatenate(caps))
    trial = np.concatenate([np.repeat(trials, n_rect), np.repeat(trials, n_cap)])
    u = np.concatenate([length * a, np.where(cu < 0.0, cu, cu + length)])
    y = np.concatenate([np.arcsinh(math.sinh(R) * (2.0 * b - 1.0)), cy])
    return trial, u, y


def sample_crossings(intensity: float, length: float, gens):
    """Where the lines of independent Poisson line processes, one per
    generator, cross the axis segment over feet [0, length].

    The lines meeting the segment have measure phi_segment(length)
    (Crofton), and by invariance along the axis their crossing feet are
    uniform.  Returns the crossing feet with the index of the trial
    each belongs to.
    """
    mean = intensity * phi_segment(length)
    counts, feet = [], []
    for gen in gens:
        counts.append(gen.poisson(mean))
        feet.append(gen.uniform(0.0, length, counts[-1]))
    trial = np.repeat(np.arange(len(counts)), counts)
    return trial, np.concatenate(feet)


def phi_segment(r: float) -> float:
    """Invariant measure of the lines meeting a geodesic segment of
    length r; equals r in the paper's normalization."""
    if r < 0:
        raise ValueError("segment length must be nonnegative")
    return float(r)


def phi_segment_quadrature(r: float) -> float:
    """Numeric oracle for phi_segment: integrate dx dy/(x-y)^2 over the
    endpoint pairs {x > 0 > y : 1 <= -x y <= e^{2r}}."""
    if r == 0:
        return 0.0
    e2r = math.exp(2.0 * r)
    val, _ = integrate.dblquad(
        lambda v, x: (x + v) ** -2,
        0.0,
        np.inf,
        lambda x: 1.0 / x,
        lambda x: e2r / x,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    return float(val)


def phi_separating(theta: float) -> float:
    """Measure of endpoint pairs separated by the two diameters through
    the disk center at angle theta apart: -2 log(sin(theta)/2)."""
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")
    return -2.0 * math.log(math.sin(theta) / 2.0)


def phi_separating_quadrature(theta: float) -> float:
    """Numeric oracle: the explicit double integral of the boundary
    density |e^{i a} - e^{i b}|^{-2} over the two arc rectangles."""
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")

    def dens(b, a):
        return 1.0 / (4.0 * math.sin((a - b) / 2.0) ** 2)

    v1, _ = integrate.dblquad(
        dens, 0.0, theta, lambda a: math.pi, lambda a: math.pi + theta,
        epsabs=1e-12, epsrel=1e-12,
    )
    v2, _ = integrate.dblquad(
        dens, theta, math.pi, lambda a: math.pi + theta, lambda a: 2.0 * math.pi,
        epsabs=1e-12, epsrel=1e-12,
    )
    return float(v1 + v2)


def phi_ball(rho: float) -> float:
    """Measure of the lines meeting B(o, rho): pi sinh(rho).

    ``phi_ball_quadrature`` integrates the same measure over
    boundary-angle pairs and is its oracle in the tests.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    return math.pi * math.sinh(rho)


def phi_ball_quadrature(rho: float) -> float:
    """Integrate the boundary-pair density over the pairs whose line
    passes within distance rho of the disk center.

    A chord with boundary angular gap g has distance artanh(cos(g/2)),
    so the meeting set is gap in (g_min, 2 pi - g_min) with
    g_min = 2 arccos(tanh rho); the half factor accounts for unordered
    pairs.
    """
    gmin = 2.0 * math.acos(math.tanh(rho))
    val, _ = integrate.dblquad(
        lambda g, a: 1.0 / (8.0 * math.sin(g / 2.0) ** 2),
        0.0,
        2.0 * math.pi,
        lambda a: gmin,
        lambda a: 2.0 * math.pi - gmin,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    return float(val)
