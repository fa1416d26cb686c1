"""Exact samplers for the Poisson models and the invariant line measure.

Every window is a ball around (0, 1): point clouds are drawn on it with
the isometry-invariant area measure and kept in polar coordinates
(t, psi) around (0, 1), and lines are drawn from the invariant
Grassmannian measure restricted to the lines meeting it.  A point
cloud's upper half-plane coordinates are made on first read.  One draw
at k times the intensity serves k independent realizations: given their
number its points or lines are i.i.d., so a multinomial draw of the
realizations' counts cuts it into k Poisson processes (rays,
detect-line and the tube sandwich draw their samples so, a block at a
time).  The R-neighbourhood of a segment of the imaginary axis is drawn
as well, its end caps as one polar ball per trial, read in the polar
frame once for a whole chunk of trials; for lines only the feet where
they cross an axis segment are drawn.  All randomness flows through
``RngStream``: a run of blocks draws from the stream's own generator,
``generator()``, PCG64 seeded by numpy's ``SeedSequence(m, spawn_key=(s,))``
for master seed m and stream s, and trial t draws from PCG64 seeded by
block t + 1 of numpy's Philox4x64 under a key taken from that same
sequence, so a trial's draws are a pure function of (m, s, t).  Every
sampler refuses, with ``ValueError``, a trial whose expected number of
points or lines exceeds ``MAX_TRIAL_POINTS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (
    ball_area,
    frame_fermi,
    line_normal,
    minkowski,
    polar_around_origin,
    polar_frame,
    tube_area,
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
        if not self.intensity >= 0:
            raise ValueError("intensity must be nonnegative")
        if self.intensity == math.inf:
            raise ValueError("intensity must be finite")
        if self.radius is not None and not self.radius > 0:
            raise ValueError("ball radius must be positive")
        if self.radius == math.inf:
            raise ValueError("ball radius must be finite")

    @property
    def ball_radius(self) -> float:
        """``radius``, which every Boolean model needs."""
        if self.radius is None:
            raise ValueError("the Boolean models need a ball radius R")
        return self.radius


# A stream derives the seeds of this many consecutive trial keys at once.
_KEY_GROUP = 256


class _State(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 a trial's four seeding words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly generate_state(4, np.uint64)
        return self.words


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (master_seed, stream_index) -> generator.

    ``generator()`` returns PCG64 seeded by numpy's
    ``SeedSequence(master_seed, spawn_key=(stream_index,))``.
    ``generator(t)``, for a trial key t with 0 <= t < 2**64, returns
    PCG64 seeded by the 256-bit output block of numpy's Philox4x64 at
    counter t + 1, keyed by words 4 and 5 of that SeedSequence's
    ``generate_state(6, np.uint64)``, whose first four words seed
    ``generator()``.  Philox is a keyed bijection of its counter
    (Salmon et al., SC 2011), so distinct trials get distinct blocks,
    and identical keys reproduce identical draws bit for bit.  A stream
    draws the blocks of t's whole group of _KEY_GROUP consecutive keys
    with one ``random_raw`` call and keeps the last group's, so a run of
    trials pays for Philox once per group.
    """

    master_seed: int
    stream_index: int = 0

    # (group, its seeding blocks): one tuple, replaced whole, so threads
    # that share the stream never pair a group with another's blocks; two
    # that miss at once both draw, and either result is right
    _keys = (-1, None)

    @cached_property
    def _seq(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))

    def generator(self, t: int | None = None) -> np.random.Generator:
        if t is None:
            return np.random.Generator(np.random.PCG64(self._seq))
        if not (isinstance(t, (int, np.integer)) and 0 <= t < 1 << 64):
            raise ValueError(f"trial key must be an integer in [0, 2**64), not {t!r}")
        group, i = divmod(int(t), _KEY_GROUP)
        keys = self._keys
        if keys[0] != group:
            philox = np.random.Philox(counter=group * _KEY_GROUP,
                                      key=self._seq.generate_state(6, np.uint64)[4:])
            keys = (group, philox.random_raw(4 * _KEY_GROUP).reshape(_KEY_GROUP, 4))
            object.__setattr__(self, "_keys", keys)
        return np.random.Generator(np.random.PCG64(_State(keys[1][i])))


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
    """A Poisson point realization on the window ball B((0, 1), window_radius),
    in polar form: point k lies at distance ``t[k]`` from (0, 1) in the
    disk-model direction ``psi[k]``.  ``points``, their complex upper
    half-plane coordinates, is computed on first read and kept.
    """

    params: ModelParams
    window_radius: float
    t: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.t)

    @cached_property
    def points(self) -> np.ndarray:
        return polar_around_origin(self.t, self.psi)


@dataclass(frozen=True)
class LineSample(_Window):
    """Poisson lines meeting B((0, 1), window_radius), in polar form:
    ``foot_dist`` is the hyperbolic distance from (0, 1) to the line and
    ``foot_dir`` the disk-model direction of its nearest point; for rays,
    only those that cross a ray of the grid (``percolation._grid_lines``).
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

        The side is <w, n> in the Minkowski form, with n the line's
        ``line_normal``; (0, 1) lies on the negative side of every line.
        """
        n = line_normal(self.foot_dist, self.foot_dir)
        return minkowski(np.asarray(w)[..., None, :], n)


# The most points or lines one trial may expect to draw.  A point of
# estimate_f's tube peaks at about 100 bytes of working arrays on its way
# through the kernel, so this is about a gigabyte for one trial; a larger
# mean fails as a usage error before numpy is asked for the memory.
# estimate_f also draws a block's trials in chunks that together expect
# at most this many.
MAX_TRIAL_POINTS = 10**7


def _expected_per_trial(count: float, what: str) -> float:
    """count, one trial's expected number of what, once it is checked
    against MAX_TRIAL_POINTS."""
    if count > MAX_TRIAL_POINTS:
        raise ValueError(f"one trial expects {count:.4g} {what}, "
                         f"beyond MAX_TRIAL_POINTS = {MAX_TRIAL_POINTS:.4g}")
    return count


def ball_polar(radius: float, n, gen: np.random.Generator):
    """Polar coordinates (t, phi) around (0, 1) of n i.i.d. invariant points
    of B((0, 1), radius): radial CDF (cosh t - 1)/(cosh radius - 1), and
    uniform angles, drawn after all the radii.

    Each t lies within 2.2e-16 (2 coth t + t) of the exact radius
    arccosh(1 + U (cosh radius - 1)) of its drawn U: the roundings of
    cosh radius, the product and the sum move the argument by at most
    about 4.4e-16 cosh t, arccosh divides that by sinh t, and it adds its
    own unit in the last place of t.  That is 4.4e-12 at t = 1e-4 and
    5.9e-15 at t = 25.  Where the argument rounds to 1, t reads 0 for an
    exact radius below 1.5e-8, within the bound."""
    t = np.arccosh(1.0 + gen.random(n) * (math.cosh(radius) - 1.0))
    return t, gen.random(n) * (2.0 * math.pi)


def sample_points(params: ModelParams, radius: float, gen: np.random.Generator) -> BooleanSample:
    """Poisson(intensity * area) points, i.i.d. invariant on B((0, 1), radius),
    as drawn by ``ball_polar``: in polar form, with no change of model."""
    if not radius > 0:
        raise ValueError("window radius must be positive")
    n = gen.poisson(_expected_per_trial(params.intensity * ball_area(radius), "points"))
    return BooleanSample(params, radius, *ball_polar(radius, n, gen))


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
    n = gen.poisson(_expected_per_trial(intensity * phi_ball(rho), "lines"))
    p = np.arcsinh(gen.random(n) * math.sinh(rho))
    phi = gen.random(n) * (2.0 * math.pi)
    return LineSample(intensity, rho, p, phi)


def sample_tube(params: ModelParams, length: float, gens):
    """Independent Poisson realizations, one per generator, on the
    R-neighbourhood of the axis segment over feet [0, length].

    Points are returned in their Fermi coordinates (u, y) along the axis,
    with the index of the trial each belongs to.  The neighbourhood is
    the rectangle u in [0, length], |y| < R, whose area element is
    cosh y du dy (u uniform, y = arsinh(sinh R U) with U uniform on
    (-1, 1)), and the two half balls of radius R at the ends.  Together
    the half balls are one ball: each trial draws the ball around
    gamma(0) with ``sample_points``, in polar form, after its rectangle.
    The caps of all the trials then go through ``frame_fermi`` at once;
    each keeps its half behind gamma(0) and moves the other half along
    the axis to gamma(length).
    """
    R = params.radius
    if length < 0:
        raise ValueError("segment length must be nonnegative")
    _expected_per_trial(params.intensity * tube_area(R, length), "points")
    mean = params.intensity * length * 2.0 * math.sinh(R)
    n_rect, rect, n_cap, cap_t, cap_psi = [], [], [], [], []
    for gen in gens:
        n = gen.poisson(mean)
        rect.append(gen.random((2, n)))
        cap = sample_points(params, R, gen)
        n_rect.append(n)
        n_cap.append(len(cap))
        cap_t.append(cap.t)
        cap_psi.append(cap.psi)
    trials = np.arange(len(n_rect))
    a, b = np.concatenate(rect, axis=1)
    cu, cy = frame_fermi(*polar_frame(np.concatenate(cap_t), np.concatenate(cap_psi)))
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
    mean = _expected_per_trial(intensity * phi_segment(length), "line crossings")
    counts, feet = [], []
    for gen in gens:
        counts.append(gen.poisson(mean))
        feet.append(gen.random(counts[-1]) * length)
    trial = np.repeat(np.arange(len(counts)), counts)
    return trial, np.concatenate(feet)


def phi_segment(r: float) -> float:
    """Invariant measure of the lines meeting a geodesic segment of
    length r; equals r in the paper's normalization."""
    if not math.isfinite(r):
        raise ValueError("segment length must be finite")
    if r < 0:
        raise ValueError("segment length must be nonnegative")
    return float(r)


def phi_segment_quadrature(r: float) -> float:
    """Numeric oracle for phi_segment: integrate dx dy/(x-y)^2 over the
    endpoint pairs {x > 0 > y : 1 <= -x y <= e^{2r}}."""
    if phi_segment(r) == 0:
        return 0.0
    e2r = math.exp(2.0 * r)
    from scipy import integrate  # imported here, off the CLI import path
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

    from scipy import integrate  # imported here, off the CLI import path
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
    if not 0.0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
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
    from scipy import integrate  # imported here, off the CLI import path
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
