"""Exact samplers for the Poisson models and the invariant line measure.

Point clouds are drawn on hyperbolic balls, or on the R-neighbourhood
of a segment of the imaginary axis, with the isometry-invariant
area measure; lines are drawn from the invariant Grassmannian measure
restricted to the set of lines meeting a reference ball around the
origin (0, 1), or only as the feet where they cross an axis segment.
All randomness flows through counter-style streams so a trial's draws
are a pure function of (master seed, stream index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate

from .geometry import (
    INF,
    Geodesic,
    HPoint,
    ORIGIN,
    axis_coordinates,
    ball_area,
    dist,
    ideal_from_disk_angle,
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
    """Reproducible substream: (master_seed, stream_index) -> generator.

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

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_index * 1_000_003 + index + 1)


@dataclass(frozen=True)
class BooleanSample:
    """A Poisson point realization on the window ball B(center, radius)."""

    params: ModelParams
    window_center: HPoint
    window_radius: float
    points: np.ndarray = field(repr=False)  # complex UHP coordinates

    def __len__(self) -> int:
        return len(self.points)

    def hpoints(self) -> list[HPoint]:
        return [HPoint(z.real, z.imag) for z in self.points]

    def require_window(self, reach: float, what: str = "query") -> None:
        """Fail when a query needs geometry beyond the sampled window."""
        if reach > self.window_radius + 1e-9:
            raise WindowError(
                f"{what} needs radius {reach:.6g} around the window center "
                f"but only {self.window_radius:.6g} was sampled"
            )


@dataclass(frozen=True)
class LineSample:
    """Poisson lines meeting B(origin, ref_radius).

    Lines are stored both as UHP ideal endpoint pairs (a, b) and in
    polar form: ``foot_dist`` is the hyperbolic distance from (0, 1) to
    the line and ``foot_dir`` the disk-model direction of the nearest
    point.
    """

    intensity: float
    ref_radius: float
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    foot_dist: np.ndarray = field(repr=False)
    foot_dir: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.foot_dist)

    def geodesics(self) -> list[Geodesic]:
        return [Geodesic(ai, bi) for ai, bi in zip(self.a, self.b)]

    def require_window(self, reach: float, what: str = "query") -> None:
        if reach > self.ref_radius + 1e-9:
            raise WindowError(
                f"{what} reaches distance {reach:.6g} from the origin "
                f"but lines were sampled only out to {self.ref_radius:.6g}"
            )


def sample_points(
    params: ModelParams, center: HPoint, radius: float, rng: RngStream | np.random.Generator
) -> BooleanSample:
    """Poisson(intensity * area) points, i.i.d. invariant on the ball.

    The radial CDF is F(t) = (cosh t - 1)/(cosh radius - 1) and the
    angle around the center is uniform.
    """
    if not radius > 0:
        raise ValueError("window radius must be positive")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = gen.poisson(params.intensity * ball_area(radius))
    t = np.arccosh(1.0 + gen.uniform(0.0, 1.0, n) * (math.cosh(radius) - 1.0))
    phi = gen.uniform(0.0, 2.0 * math.pi, n)
    z = polar_around_origin(t, phi)
    # translate the canonical center (0, 1) to the requested center
    z = center.y * z + center.x
    return BooleanSample(params, center, radius, z)


def sample_lines(
    intensity: float, rho: float, rng: RngStream | np.random.Generator
) -> LineSample:
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
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = gen.poisson(intensity * phi_ball(rho))
    p = np.arcsinh(gen.uniform(0.0, 1.0, n) * math.sinh(rho))
    phi = gen.uniform(0.0, 2.0 * math.pi, n)
    a, b = _polar_to_ideal(p, phi)
    return LineSample(intensity, rho, a, b, p, phi)


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
        cap = sample_points(params, ORIGIN, R, gen).points
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


def _polar_to_ideal(p: np.ndarray, phi: np.ndarray):
    """Ideal endpoints of the line at foot distance p, foot direction phi."""
    delta = np.arccos(np.tanh(p))
    a = _ideal_from_angles(phi - delta)
    b = _ideal_from_angles(phi + delta)
    return a, b


def _ideal_from_angles(theta: np.ndarray) -> np.ndarray:
    half = 0.5 * np.mod(theta, 2.0 * np.pi)
    t = np.tan(half)
    with np.errstate(divide="ignore"):
        out = -1.0 / t
    return np.where(t == 0.0, INF, out)


def sample_lines_rejection(
    intensity: float, rho: float, gen: np.random.Generator, count: int | None = None
):
    """Reference sampler: rejection on boundary-angle pairs.

    Proposes (alpha, beta) uniformly on the circle squared and accepts
    with probability proportional to |e^{i alpha} - e^{i beta}|^{-2},
    restricted to pairs whose line meets B(o, rho).  The acceptance
    rate collapses like e^{-2 rho}, so this is only usable for small
    windows; it exists to cross-validate ``sample_lines``.
    """
    dmin = 2.0 * math.acos(math.tanh(rho))
    n = gen.poisson(intensity * phi_ball(rho)) if count is None else count
    bound = 1.0 / (4.0 * math.sin(dmin / 2.0) ** 2)
    alphas = []
    betas = []
    got = 0
    while got < n:
        a = gen.uniform(0.0, 2.0 * math.pi, 4096)
        b = gen.uniform(0.0, 2.0 * math.pi, 4096)
        gap = np.abs(a - b)
        gap = np.minimum(gap, 2.0 * math.pi - gap)
        dens = 1.0 / (4.0 * np.sin((a - b) / 2.0) ** 2)
        keep = (gap > dmin) & (gen.uniform(0.0, 1.0, 4096) < dens / bound)
        alphas.append(a[keep])
        betas.append(b[keep])
        got += int(keep.sum())
    a = np.concatenate(alphas)[:n]
    b = np.concatenate(betas)[:n]
    # polar form for comparisons: foot distance from the gap, direction
    # from the bisector of the short arc
    gap = np.abs(a - b)
    sep = np.minimum(gap, 2.0 * math.pi - gap)
    p = np.arctanh(np.cos(sep / 2.0))
    mid = 0.5 * (a + b)
    phi = np.mod(np.where(gap > math.pi, mid + math.pi, mid), 2.0 * math.pi)
    ga, gb = _polar_to_ideal(p, phi)
    return LineSample(intensity, rho, ga, gb, p, phi)


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


@lru_cache(maxsize=None)
def phi_ball(rho: float) -> float:
    """Measure of the lines meeting B(o, rho).

    Computed once per rho by quadrature over boundary-angle pairs; the
    closed form pi sinh(rho) is only returned after the quadrature
    confirms it to 1e-6.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    closed = math.pi * math.sinh(rho)
    quad = phi_ball_quadrature(rho)
    if abs(quad - closed) > 1e-6 * max(1.0, closed):
        raise AssertionError(
            f"phi_ball quadrature {quad!r} disagrees with pi sinh rho {closed!r}"
        )
    return closed


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
