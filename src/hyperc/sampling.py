"""Exact samplers for the Poisson models and the invariant line measure.

Every window is a ball around (0, 1): point clouds are drawn on it with
the isometry-invariant area measure and kept in polar coordinates
(t, psi) around (0, 1), and lines are drawn from the invariant
Grassmannian measure restricted to the lines meeting it.  A point
cloud's upper half-plane coordinates are made on first read.  The
R-neighbourhood of a segment of the imaginary axis is drawn as well,
its end caps as one polar ball per trial, read in the polar frame
once for a whole chunk of trials; for lines only the feet where they
cross an axis segment are drawn.  All randomness flows through
``RngStream``: trial t of stream s under master seed m draws from PCG64
seeded by numpy's ``SeedSequence(m, spawn_key=(s, t))``, so a trial's
draws are a pure function of (m, s, t).  A stream mixes its pool once, hashes the seeds
of t's group of 256 consecutive keys in one numpy pass and keeps the
last group's; the seeds equal numpy's ``SeedSequence`` bit for bit.
Every sampler refuses, with ``ValueError``, a trial whose expected
number of points or lines exceeds ``MAX_TRIAL_POINTS``.
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), whose
# output numpy keeps stable under its stream-compatibility policy (NEP 19)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)

# A stream hashes the seeds of this many consecutive trial keys at once.
_KEY_GROUP = 256


def _words32(x: int) -> int:
    """How many 32-bit words numpy's SeedSequence splits x into."""
    return max(1, -(-int(x).bit_length() // 32))


def _hash_chain(h: int, mult: int, n: int):
    """The constants that n successive words of the hash meet, starting
    from h: each is xored with one and multiplied by the next, as
    columns (1, n) of uint32."""
    chain = [h * pow(mult, k, 1 << 32) & _M32 for k in range(n + 1)]
    return np.array([chain[:-1]], np.uint32), np.array([chain[1:]], np.uint32)


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ v >> 16


# the 8 output words are hashed from the pool's 4 words twice over
_OUT_XOR, _OUT_MUL = _hash_chain(_INIT_B, _MULT_B, 8)


class _State(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the seeding words a SeedSequence would have made."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly generate_state(4, np.uint64)
        return self.words


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (master_seed, stream_index) -> generator.

    ``generator(*subkeys)`` returns PCG64 seeded by numpy's
    ``SeedSequence(master_seed, spawn_key=(stream_index, *subkeys))``.
    Distinct keys give statistically independent generators and
    identical keys reproduce identical draws bit for bit.

    A trial's key is one subkey t with 0 <= t < 2**32.  Its sequence
    mixes the single word t last into the pool of the stream's own
    sequence, ``SeedSequence(master_seed, spawn_key=(stream_index,))``,
    so the stream computes that pool once (``_pool``).  It hashes the
    seeds of t's whole group of _KEY_GROUP consecutive keys in one numpy
    pass (``_seed_words``) and keeps the last group's, so a run of
    trials pays for the hash once per group.  Any other key goes through
    numpy's SeedSequence itself.
    """

    master_seed: int
    stream_index: int = 0

    # (group, its seeding words): one tuple, replaced whole, so threads
    # that share the stream never pair a group with another's words; two
    # that miss at once both hash, and either result is right
    _keys = (-1, None)

    @cached_property
    def _pool(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The constants that mix a key into the pool of
        SeedSequence(master_seed, spawn_key=(stream_index,)): _MIX_L
        times each pool word, and the hash constants each copy of the
        key meets, all as uint32 columns (1, 4).

        With a spawn key the seed's words are padded to at least 4, and
        mixing them into the 4-word pool takes 4 _MULT_A rounds for the
        first four words, 12 to mix the pool with itself and 4 for every
        word after.
        """
        pool = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,)).pool
        rounds = 16 + 4 * (max(_words32(self.master_seed), 4) + _words32(self.stream_index) - 4)
        h = _INIT_A * pow(_MULT_A, rounds, 1 << 32) & _M32
        return (_MIX_L * pool[None, :], *_hash_chain(h, _MULT_A, 4))

    def generator(self, *subkeys: int) -> np.random.Generator:
        if len(subkeys) == 1 and isinstance(subkeys[0], int) and 0 <= subkeys[0] <= _M32:
            group, t = divmod(subkeys[0], _KEY_GROUP)
            keys = self._keys
            if keys[0] != group:
                keys = (group, self._seed_words(group))
                object.__setattr__(self, "_keys", keys)
            return np.random.Generator(np.random.PCG64(_State(keys[1][t])))
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index, *subkeys)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def _seed_words(self, group: int) -> np.ndarray:
        """Row i is SeedSequence(master_seed, spawn_key=(stream_index, t))
        .generate_state(4, np.uint64) for t = group * _KEY_GROUP + i.

        Every hash constant is the same for every key, so one pass of
        uint32 arithmetic over the group's keys mixes each key into the
        pool and hashes out its 8 words.
        """
        mixed_pool, xor, mul = self._pool
        t = np.arange(_KEY_GROUP, dtype=np.uint32) + np.uint32(group * _KEY_GROUP)
        r = mixed_pool - _MIX_R * _hashmix(t[:, None], xor, mul)
        out = _hashmix(np.tile(r ^ r >> 16, 2), _OUT_XOR, _OUT_MUL).astype(np.uint64)
        return out[:, 0::2] | out[:, 1::2] << 32


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
