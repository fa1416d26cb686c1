"""Monte Carlo experiments for segment containment and ray survival.

Each experiment runs trials in canonical position (the segment on the
imaginary axis, or rays fanning out of (0, 1)); the invariance of the
models makes this lossless.  ``estimate_f`` draws only what can touch
its longest segment: the Poisson points of the segment's
R-neighbourhood, in the Fermi coordinates (foot, offset) of the axis,
or for lines only the feet where they cross it.  Each trial draws from
its own generator, keyed by the trial index; the trials run in blocks,
each reduced at once to one containment threshold per trial.  The
per-segment predicates are exposed as well, and the tests cross-check
the block thresholds against them on the same realization.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import ndimage, stats

from .geometry import (
    Geodesic,
    GeodesicFrame,
    HPoint,
    ORIGIN,
    axis_coordinates,
    ball_area,
    dist,
    dist_arrays,
    dist_to_geodesic,
    minkowski,
    polar_around_origin,
    segment_point_distance,
    to_hyperboloid,
)
from .sampling import (
    BooleanSample,
    LineSample,
    ModelParams,
    RngStream,
    WindowError,
    sample_crossings,
    sample_lines,
    sample_points,
    sample_tube,
)

__all__ = [
    "Segment",
    "ExperimentResult",
    "RaySurvival",
    "LineDetection",
    "SDistResult",
    "SandwichResult",
    "segment_in_vacant",
    "segment_in_occupied",
    "segment_avoids_lines",
    "estimate_f",
    "surviving_directions",
    "detect_line_through_ball",
    "estimate_S_cdf",
    "sandwich_AQ",
    "two_proportion_pvalue",
]

logger = logging.getLogger(__name__)

MODELS = ("vacant", "occupied", "lines")

# padding of the ball windows that rays, detect-line and the tube sandwich
# sample, beyond the exact reach of their queries; guards the end caps
WINDOW_SLACK = 0.5
LINE_WINDOW_MARGIN = 2.0


@dataclass(frozen=True)
class Segment:
    """A geodesic segment: frame, start parameter, and length r >= 0."""

    frame: GeodesicFrame
    start: float
    length: float

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("segment length must be nonnegative")

    def endpoints(self) -> tuple[HPoint, HPoint]:
        return self.frame.point(self.start), self.frame.point(self.start + self.length)


@dataclass(frozen=True)
class ExperimentResult:
    """Containment curve estimates and the fitted decay exponent."""

    r_values: np.ndarray
    estimates: np.ndarray
    half_widths: np.ndarray
    trials: int
    alpha_hat: float
    alpha_stderr: float
    successes: np.ndarray | None = field(repr=False, default=None)


@dataclass(frozen=True)
class RaySurvival:
    """Directions (on a uniform grid) whose ray of length r survived."""

    r: float
    n_directions: int
    surviving: list[int]


@dataclass(frozen=True)
class LineDetection:
    """Outcome of the antipodal-pair line search."""

    found: bool
    witness: tuple[int, int] | None
    n_surviving: int


@dataclass(frozen=True)
class SDistResult:
    """Empirical law of the first coverage-gap parameter S."""

    values: np.ndarray  # sorted finite S values in (0, 2R]
    trials: int
    neg_inf_mass: float

    def empirical_cdf(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.searchsorted(self.values, t, side="left") / self.trials


@dataclass(frozen=True)
class SandwichResult:
    """Estimated triple (P(A), f, P(Q)) for the tube events."""

    p_A: float
    f_hat: float
    p_Q: float
    trials: int

    def half_width(self, p: float) -> float:
        return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / self.trials)


# ---------------------------------------------------------------------------
# general per-segment predicates


def _distance_to_axis_segment(w: np.ndarray, length: float):
    """Distance from points w (complex UHP) to the axis segment whose
    feet run over [0, length], plus the (foot, offset) coordinates."""
    u, yoff = axis_coordinates(w)
    d_lo = dist_arrays(w, np.asarray(1j))
    d_hi = dist_arrays(w, np.asarray(1j * math.exp(length)))
    d = np.where(u < 0.0, d_lo, np.where(u > length, d_hi, np.abs(yoff)))
    return d, u, yoff


def _coverage_reaches(trial: np.ndarray, left: np.ndarray, right: np.ndarray, n: int):
    """For each of n trials, sup{c : [0, c] covered by the union of the
    trial's closed intervals [left, right]}, or -1 when not even the
    point 0 is covered; interval k belongs to trial[k].

    Intervals wholly left of 0 cannot help cover [0, c], and a gap among
    them must not end the cover, so they are dropped first.
    """
    keep = right >= 0.0
    trial, left, right = trial[keep], left[keep], right[keep]
    reach = np.full(n, -1.0)
    if len(trial) == 0:
        return reach
    order = np.lexsort((left, trial))
    trial, left, right = trial[order], left[order], right[order]
    # lift each trial above every earlier one, so that one running max
    # serves the whole block and every trial ends in a gap
    off = trial * (right.max() - left.min() + 1.0)
    run = np.maximum.accumulate(right + off)
    stops = np.flatnonzero(np.append(left[1:] + off[1:] > run[:-1], True))
    starts = np.flatnonzero(np.append(True, trial[1:] != trial[:-1]))
    ends = stops[np.searchsorted(stops, starts)]
    covered = left[starts] <= 0.0
    reach[trial[starts[covered]]] = (run[ends] - off[ends])[covered]
    return reach


def _coverage_reach(left: np.ndarray, right: np.ndarray) -> float:
    """``_coverage_reaches`` of a single trial, at a quarter of its
    per-call cost for the loops over directions and segments."""
    keep = right >= 0.0
    left, right = left[keep], right[keep]
    if len(left) == 0:
        return -1.0
    order = np.argsort(left)
    left = left[order]
    right = np.maximum.accumulate(right[order])
    if left[0] > 0.0:
        return -1.0
    gaps = np.flatnonzero(left[1:] > right[:-1])
    return float(right[gaps[0]] if len(gaps) else right[-1])


def _boolean_window_check(seg: Segment, sample: BooleanSample, op: str) -> None:
    p, q = seg.endpoints()
    reach = max(dist(sample.window_center, p), dist(sample.window_center, q))
    sample.require_window(reach + sample.params.radius, op)


def segment_in_vacant(seg: Segment, sample: BooleanSample) -> bool:
    """True iff no sample point lies strictly within R of the segment,
    so a ball tangent to the segment still counts as vacant."""
    _boolean_window_check(seg, sample, "vacant containment")
    if len(sample) == 0:
        return True
    w = seg.frame.pullback_array(sample.points) * math.exp(-seg.start)
    d, _, _ = _distance_to_axis_segment(w, seg.length)
    return bool(d.min() >= sample.params.radius)


def segment_in_occupied(seg: Segment, sample: BooleanSample) -> bool:
    """True iff the union of the closed balls covers the whole segment.

    Each point within offset |y| < R of the geodesic covers the foot
    interval of half-length arccosh(cosh R / cosh y) around its foot.
    """
    _boolean_window_check(seg, sample, "occupied containment")
    R = sample.params.radius
    if len(sample) == 0:
        return False
    w = seg.frame.pullback_array(sample.points) * math.exp(-seg.start)
    u, yoff = axis_coordinates(w)
    near = np.abs(yoff) < R
    if not near.any():
        return False
    half = np.arccosh(np.cosh(R) / np.cosh(yoff[near]))
    return _coverage_reach(u[near] - half, u[near] + half) >= seg.length


def _line_side_values(sample: LineSample, z: complex) -> np.ndarray:
    vertical = np.isinf(sample.b)
    c = 0.5 * (sample.a + sample.b)
    r = 0.5 * (sample.b - sample.a)
    with np.errstate(invalid="ignore"):
        circ = (z.real - c) ** 2 + z.imag**2 - r * r
    return np.where(vertical, z.real - sample.a, circ)


def segment_avoids_lines(seg: Segment, sample: LineSample) -> bool:
    """True iff no sampled line strictly separates the segment endpoints."""
    p, q = seg.endpoints()
    reach = max(dist(ORIGIN, p), dist(ORIGIN, q))
    sample.require_window(reach, "line avoidance")
    if len(sample) == 0:
        return True
    sp = _line_side_values(sample, p.as_complex())
    sq = _line_side_values(sample, q.as_complex())
    return bool(np.all(sp * sq >= 0.0))


# ---------------------------------------------------------------------------
# f(r) estimation
#
# Every trial reduces to a containment threshold: the sup of r for
# which the axis segment over feet [0, r] is still inside the set.
# Containment of the whole nested r grid then reads off one comparison
# per r.  Each trial draws from its own generator, keyed by the trial
# index; the trials are reduced in blocks of TRIAL_BLOCK.

TRIAL_BLOCK = 256


def _block_thresholds(model, lam, R, r_max, gens) -> np.ndarray:
    """Containment thresholds of the trials drawn from gens, one
    generator each: negative when even r = 0 fails, inf when nothing
    within reach of [0, r_max] ends containment."""
    thr = np.full(len(gens), math.inf)
    if model == "lines":
        # a line separates the endpoints of [0, r] iff it crosses at a foot < r
        trial, feet = sample_crossings(lam, r_max, gens)
        np.minimum.at(thr, trial, feet)
        return thr
    trial, u, y = sample_tube(ModelParams(lam, R), r_max, gens)
    # the closed ball at (u, y) meets the axis over feet [u - half, u + half]
    half = np.arccosh(math.cosh(R) / np.cosh(y))
    if model == "occupied":
        return _coverage_reaches(trial, u - half, u + half, len(gens))
    # every point lies within R of [0, r_max], and its open ball first
    # meets [0, r] at r = u - half
    np.minimum.at(thr, trial, u - half)
    return thr


def _count_block(model, lam, R, r_tuple, master_seed, stream_index, trials, block):
    """Successes at each r among the trials of one block."""
    rs = np.asarray(r_tuple)
    stream = RngStream(master_seed, stream_index)
    lo = block * TRIAL_BLOCK
    gens = [stream.generator(t) for t in range(lo, min(trials, lo + TRIAL_BLOCK))]
    thr = np.sort(_block_thresholds(model, lam, R, float(rs.max()), gens))
    return len(gens) - np.searchsorted(thr, rs, side="left")


def _fit_alpha(r_values, successes, trials):
    """Weighted least squares of -log fhat against r with an intercept.

    Weights come from the delta-method variance (1 - f)/(f n); r values
    with fewer than 10 successes are dropped because the log variance
    explodes there.
    """
    r = np.asarray(r_values, dtype=float)
    s = np.asarray(successes, dtype=float)
    if np.all(s == trials):
        return 0.0, 0.0
    keep = s >= 10
    if keep.sum() < 2:
        return math.nan, math.nan
    r, s = r[keep], s[keep]
    f = s / trials
    var = np.maximum(trials - s, 0.5) / (s * trials)
    w = 1.0 / var
    x = np.stack([np.ones_like(r), r], axis=1)
    xtw = x.T * w
    cov = np.linalg.inv(xtw @ x)
    beta = cov @ (xtw @ (-np.log(f)))
    return float(beta[1]), float(math.sqrt(max(cov[1, 1], 0.0)))


def estimate_f(
    model: str,
    params: ModelParams,
    r_values,
    trials: int,
    rng: RngStream,
    workers: int = 1,
) -> ExperimentResult:
    """Monte Carlo estimate of f(r) over a shared-sample r grid.

    Each trial tests the nested family of axis segments over feet
    [0, r] against one realization, so the estimates are pointwise
    monotone in r.  A realization holds only what can reach the longest
    segment: for the Boolean models the Poisson points of its
    R-neighbourhood (``sample_tube``), and for lines only the feet where
    lines cross it (``sample_crossings``; their measure is the segment
    length, by Crofton's formula).  Each trial draws from the generator
    keyed by (master seed, stream, trial index); trials run in blocks
    of TRIAL_BLOCK, the pool hands out whole blocks and the counts are
    summed, so the result depends neither on the worker count nor on
    the block size.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    if trials < 100:
        raise ValueError("need at least 100 trials")
    rs = np.sort(np.asarray(r_values, dtype=float))
    if rs[0] < 0:
        raise ValueError("r values must be nonnegative")
    lam, R = params.intensity, params.radius
    if model != "lines" and R is None:
        raise ValueError("point models need a ball radius")
    blocks = range(math.ceil(trials / TRIAL_BLOCK))
    job = partial(_count_block, model, lam, R, tuple(rs), rng.master_seed, rng.stream_index, trials)
    if workers <= 1 or len(blocks) == 1:
        counts = sum(map(job, blocks))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            counts = sum(pool.map(job, blocks))
    est = counts / trials
    hw = 1.96 * np.sqrt(est * (1.0 - est) / trials)
    if np.any(counts == 0):
        logger.warning(
            "no successes at r=%g and beyond; exponent fit uses the prefix",
            rs[int(np.argmax(counts == 0))],
        )
    alpha_hat, alpha_stderr = _fit_alpha(rs, counts, trials)
    return ExperimentResult(rs, est, hw, trials, alpha_hat, alpha_stderr, counts)


# ---------------------------------------------------------------------------
# ray survival and line detection


@dataclass(frozen=True)
class _PolarCloud:
    """A Boolean-model realization in polar form around (0, 1)."""

    t: np.ndarray
    psi: np.ndarray
    window_radius: float

    def uhp(self) -> np.ndarray:
        return polar_around_origin(self.t, self.psi)


def _sample_polar_cloud(gen, lam: float, window_radius: float) -> _PolarCloud:
    n = gen.poisson(lam * ball_area(window_radius))
    t = np.arccosh(1.0 + gen.uniform(0.0, 1.0, n) * (math.cosh(window_radius) - 1.0))
    psi = gen.uniform(0.0, 2.0 * math.pi, n)
    return _PolarCloud(t, psi, window_radius)


def _boolean_ray_survivors(cloud, params, r, thetas, occupied, block=16):
    R = params.radius
    if cloud.window_radius + 1e-9 < r + R:
        raise WindowError(
            f"ray survival at r={r} needs window radius {r + R:.6g}, "
            f"sampled {cloud.window_radius:.6g}"
        )
    n_dir = len(thetas)
    out = np.zeros(n_dir, dtype=bool)
    if cloud.t.size == 0:
        out[:] = not occupied
        return out
    t, psi = cloud.t, cloud.psi
    sinh_t, cosh_t, tanh_t = np.sinh(t), np.cosh(t), np.tanh(t)
    for lo in range(0, n_dir, block):
        th = thetas[lo : lo + block][:, None]
        dpsi = psi[None, :] - th
        cosd = np.cos(dpsi)
        perp = np.arcsinh(sinh_t[None, :] * np.abs(np.sin(dpsi)))
        u = np.arctanh(np.clip(tanh_t[None, :] * cosd, -1.0 + 1e-15, 1.0 - 1e-15))
        if occupied:
            for k in range(th.shape[0]):
                near = perp[k] < R
                if not near.any():
                    continue
                half = np.arccosh(np.cosh(R) / np.cosh(perp[k][near]))
                out[lo + k] = _coverage_reach(u[k][near] - half, u[k][near] + half) >= r
        else:
            d_end = np.arccosh(
                np.maximum(
                    cosh_t[None, :] * math.cosh(r) - sinh_t[None, :] * math.sinh(r) * cosd,
                    1.0,
                )
            )
            d = np.where(u < 0.0, t[None, :], np.where(u > r, d_end, perp))
            out[lo : lo + th.shape[0]] = d.min(axis=1) >= R
    return out


def _line_ray_survivors(sample: LineSample, r: float, n_dir: int) -> np.ndarray:
    """Directions whose radial segment of length r misses every line.

    The line at foot (p, phi) blocks the arc of directions theta with
    cos(theta - phi) > tanh p / tanh r; arcs are painted onto the
    direction grid with a wrap-around difference array.
    """
    sample.require_window(r, "ray survival")
    h = 2.0 * math.pi / n_dir
    diff = np.zeros(n_dir + 1, dtype=np.int64)
    mask = sample.foot_dist < r
    if mask.any():
        ratio = np.tanh(sample.foot_dist[mask]) / math.tanh(r)
        beta = np.arccos(np.clip(ratio, -1.0, 1.0))
        lo = sample.foot_dir[mask] - beta
        hi = sample.foot_dir[mask] + beta
        start = np.ceil(lo / h).astype(np.int64)
        end = np.floor(hi / h).astype(np.int64)
        keep = end >= start
        start, end = start[keep], end[keep]
        span = end - start
        start = np.mod(start, n_dir)
        end = start + span
        wrap = end >= n_dir
        np.add.at(diff, start, 1)
        np.add.at(diff, np.where(wrap, n_dir, end + 1), -1)
        if wrap.any():
            np.add.at(diff, np.zeros(int(wrap.sum()), dtype=np.int64), 1)
            np.add.at(diff, np.mod(end[wrap], n_dir) + 1, -1)
    return np.cumsum(diff[:-1]) == 0


def surviving_directions(
    model: str,
    params: ModelParams,
    r: float,
    n_directions: int,
    rng: RngStream,
) -> RaySurvival:
    """Ray survival on a uniform direction grid, one shared sample."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    if n_directions < 8:
        raise ValueError("need at least 8 directions")
    gen = rng.generator()
    thetas = 2.0 * math.pi * np.arange(n_directions) / n_directions
    if model == "lines":
        sample = sample_lines(params.intensity, r + 0.1, gen)
        alive = _line_ray_survivors(sample, r, n_directions)
    else:
        cloud = _sample_polar_cloud(gen, params.intensity, r + params.radius + WINDOW_SLACK)
        alive = _boolean_ray_survivors(cloud, params, r, thetas, model == "occupied")
    return RaySurvival(r, n_directions, [int(i) for i in np.nonzero(alive)[0]])


def _chord_contained_boolean(cloud, params, e_i: complex, e_j: complex, occupied):
    pq = to_hyperboloid(np.asarray([e_i, e_j]))
    if cloud.t.size == 0:
        return not occupied
    w = to_hyperboloid(cloud.uhp())
    d, foot, perp = segment_point_distance(pq[0:1], pq[1:2], w)
    R = params.radius
    if not occupied:
        return bool(d.min() >= R)
    length = float(np.arccosh(max(-minkowski(pq[0], pq[1]), 1.0)))
    near = perp[0] < R
    if not near.any():
        return False
    half = np.arccosh(np.cosh(R) / np.cosh(perp[0][near]))
    return _coverage_reach(foot[0][near] - half, foot[0][near] + half) >= length


def detect_line_through_ball(
    model: str,
    params: ModelParams,
    s: float,
    r: float,
    rng: RngStream,
    n_directions: int = 360,
    pair_tol: float | None = None,
) -> LineDetection:
    """Search for a full chord through B(o, s) certified by two
    surviving rays in nearly antipodal directions.

    Among the surviving directions of one shared sample, nearly
    antipodal pairs are enumerated closest-to-antipodal first; the
    chord between their far endpoints is returned as the witness when
    it passes within s of the origin and is itself contained.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    gen = rng.generator()
    thetas = 2.0 * math.pi * np.arange(n_directions) / n_directions
    tol = pair_tol if pair_tol is not None else 2.5 * (2.0 * math.pi / n_directions)
    if model == "lines":
        sample = sample_lines(params.intensity, r + 0.1, gen)
        alive = _line_ray_survivors(sample, r, n_directions)
        cloud = None
    else:
        sample = None
        cloud = _sample_polar_cloud(gen, params.intensity, r + params.radius + WINDOW_SLACK)
        alive = _boolean_ray_survivors(cloud, params, r, thetas, model == "occupied")
    idx = np.nonzero(alive)[0]
    if len(idx) < 2:
        return LineDetection(False, None, len(idx))
    th = thetas[idx]
    delta = np.mod(th[None, :] - th[:, None], 2.0 * math.pi)
    miss = np.abs(delta - math.pi)
    cand_i, cand_j = np.nonzero(miss <= tol)
    order = np.argsort(miss[cand_i, cand_j], kind="stable")
    seen = set()
    for k in order:
        i, j = int(idx[cand_i[k]]), int(idx[cand_j[k]])
        pair = (min(i, j), max(i, j))
        if pair in seen:
            continue
        seen.add(pair)
        e_i = complex(polar_around_origin(np.asarray([r]), np.asarray([thetas[i]]))[0])
        e_j = complex(polar_around_origin(np.asarray([r]), np.asarray([thetas[j]]))[0])
        chord = Geodesic.through(HPoint(e_i.real, e_i.imag), HPoint(e_j.real, e_j.imag))
        d0, _ = dist_to_geodesic(ORIGIN, chord)
        if d0 >= s:
            continue
        if model == "lines":
            side_i = np.tanh(r) * np.cos(thetas[i] - sample.foot_dir) - np.tanh(sample.foot_dist)
            side_j = np.tanh(r) * np.cos(thetas[j] - sample.foot_dir) - np.tanh(sample.foot_dist)
            if np.any(side_i * side_j < 0.0):
                continue
        elif not _chord_contained_boolean(cloud, params, e_i, e_j, model == "occupied"):
            continue
        return LineDetection(True, pair, len(idx))
    return LineDetection(False, None, len(idx))


# ---------------------------------------------------------------------------
# the hitting-time law of S


def estimate_S_cdf(params: ModelParams, trials: int, rng: RngStream) -> SDistResult:
    """Empirical law of S, the smallest exit foot u+ among the balls
    covering gamma(0).

    Points with u- < 0 < u+ are exactly those within R of gamma(0), so
    each trial draws directly in that ball; empty draws contribute the
    atom at minus infinity.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    lam, R = params.intensity, params.radius
    gen = rng.generator()
    counts = gen.poisson(lam * ball_area(R), trials)
    total = int(counts.sum())
    t = np.arccosh(1.0 + gen.uniform(0.0, 1.0, total) * (math.cosh(R) - 1.0))
    psi = gen.uniform(0.0, 2.0 * math.pi, total)
    u = np.arctanh(np.tanh(t) * np.cos(psi))
    perp = np.arcsinh(np.sinh(t) * np.abs(np.sin(psi)))
    u_plus = u + np.arccosh(np.cosh(R) / np.cosh(perp))
    nonempty = counts > 0
    if nonempty.any():
        starts = np.concatenate([[0], np.cumsum(counts)])[:-1][nonempty]
        s_vals = np.minimum.reduceat(u_plus, starts)
    else:
        s_vals = np.empty(0)
    return SDistResult(np.sort(s_vals), trials, 1.0 - float(nonempty.mean()))


# ---------------------------------------------------------------------------
# the tube sandwich P(Q) <= f <= P(A)


def _ball_net(center_foot: float, s: float, mesh: float) -> np.ndarray:
    """Polar net of B(gamma(center_foot), s) with spacing <= mesh."""
    chunks = [np.asarray([1j])]
    k = 1
    while k * mesh < s:
        rad = k * mesh
        m = max(4, int(math.ceil(2.0 * math.pi * math.sinh(rad) / mesh)))
        ang = 2.0 * math.pi * np.arange(m) / m
        chunks.append(polar_around_origin(np.full(m, rad), ang))
        k += 1
    return math.exp(center_foot) * np.concatenate(chunks)


def _net_contained_vacant(seg_p, seg_q, w_pts, R) -> bool:
    d, _, _ = segment_point_distance(seg_p, seg_q, w_pts)
    return bool(d.min() >= R)


def _net_contained_occupied(seg_p, seg_q, w_pts, R) -> bool:
    d, foot, perp = segment_point_distance(seg_p, seg_q, w_pts)
    lengths = np.arccosh(np.maximum(-minkowski(seg_p, seg_q), 1.0))
    coshR = math.cosh(R)
    for k in range(seg_p.shape[0]):
        near = perp[k] < R
        if not near.any():
            return False
        half = np.arccosh(coshR / np.cosh(perp[k][near]))
        if _coverage_reach(foot[k][near] - half, foot[k][near] + half) < lengths[k]:
            return False
    return True


def _lines_net_clear(sample: LineSample, net_x: np.ndarray, net_y: np.ndarray) -> bool:
    """No sampled line separates any net pair, hence none crosses the tube."""
    sx = np.stack([_line_side_values(sample, complex(z)) for z in net_x])
    sy = np.stack([_line_side_values(sample, complex(z)) for z in net_y])
    x_lo, x_hi = sx.min(axis=0), sx.max(axis=0)
    y_lo, y_hi = sy.min(axis=0), sy.max(axis=0)
    crossed = ((x_lo < 0) & (y_hi > 0)) | ((x_hi > 0) & (y_lo < 0))
    return not bool(crossed.any())


def _blocked_cells(cells_flat, cells_y, pts, R) -> np.ndarray:
    """Cells strictly within R of some process point, compared through
    the cosh identity to avoid arccosh per cell."""
    blocked = np.zeros(len(cells_flat), dtype=bool)
    gap = math.cosh(R) - 1.0
    for z in pts:
        blocked |= np.abs(cells_flat - z) ** 2 < 2.0 * cells_y * z.imag * gap
    return blocked


def _flood_connected(open_grid, start_cells, end_cells, structure) -> bool:
    labels, n = ndimage.label(open_grid, structure=structure)
    if n == 0:
        return False
    a = np.unique(labels[start_cells & open_grid])
    b = np.unique(labels[end_cells & open_grid])
    a, b = a[a > 0], b[b > 0]
    return bool(np.intersect1d(a, b, assume_unique=True).size)


def sandwich_AQ(
    x: HPoint,
    y: HPoint,
    s: float,
    model: str,
    params: ModelParams,
    trials: int,
    rng: RngStream,
    mesh: float | None = None,
) -> SandwichResult:
    """Estimate the triple (P(A), f, P(Q)) for the s-tube between x and y.

    Q tests containment of a net of segments spanning the tube, A runs
    a flood fill over a foot-by-offset grid of the tube, and f tests
    the central segment.  All three share each trial's sample and the
    discretizations are one-sided, so Q <= f <= A holds per realization.
    Only d(x, y) enters; trials run in canonical position with the tube
    centered on (0, 1).
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    d = dist(x, y)
    if d < 4.0:
        raise ValueError("the tube estimates need d(x, y) >= 4")
    if not 0.0 < s <= 0.05:
        raise ValueError("tube radius s must lie in (0, 0.05]")
    grid_mesh = s / 8.0 if mesh is None else mesh
    if not grid_mesh < s / 4.0:
        raise ValueError("grid resolution must satisfy mesh < s/4")
    net_mesh = 0.999 * s / 4.0
    lam, R = params.intensity, params.radius

    half_d = d / 2.0
    net_x = _ball_net(-half_d, s, net_mesh)
    net_y = _ball_net(half_d, s, net_mesh)
    if model != "lines":
        seg_p = to_hyperboloid(np.repeat(net_x, len(net_y)))
        seg_q = to_hyperboloid(np.tile(net_y, len(net_x)))

    n_t = int(math.ceil((d + 2.0 * s) / grid_mesh)) + 1
    n_v = 2 * int(math.ceil(s / grid_mesh)) + 1
    tt, vv = np.meshgrid(
        np.linspace(-half_d - s, half_d + s, n_t),
        np.linspace(-s, s, n_v),
        indexing="ij",
    )
    theta = 2.0 * np.arctan(np.exp(vv))
    cells = np.exp(tt) * (np.cos(theta) + 1j * np.sin(theta))
    d_x = np.arccosh(np.maximum(np.cosh(tt + half_d) * np.cosh(vv), 1.0))
    d_y = np.arccosh(np.maximum(np.cosh(tt - half_d) * np.cosh(vv), 1.0))
    in_region = np.where(tt < -half_d, d_x <= s, np.where(tt > half_d, d_y <= s, True))
    start_cells = in_region & (d_x < s)
    end_cells = in_region & (d_y < s)
    cells_flat = cells.ravel()
    cells_y = cells_flat.imag
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    region_connected = _flood_connected(in_region, start_cells, end_cells, structure)

    gen = rng.generator()
    shift = math.exp(half_d)
    rho = half_d + s + LINE_WINDOW_MARGIN
    window_radius = half_d + s + (R or 0.0) + WINDOW_SLACK
    zx, zy = complex(0.0, math.exp(-half_d)), complex(0.0, math.exp(half_d))
    n_A = n_f = n_Q = 0

    for _ in range(trials):
        if model == "lines":
            lsample = sample_lines(lam, rho, gen)
            sx = _line_side_values(lsample, zx)
            sy = _line_side_values(lsample, zy)
            f_ok = bool(np.all(sx * sy >= 0.0))
            q_ok = f_ok and _lines_net_clear(lsample, net_x, net_y)
            # tube cells miss the measure-zero lines almost surely
            a_ok = True if f_ok else region_connected
        else:
            psample = sample_points(ModelParams(lam, R), ORIGIN, window_radius, gen)
            pts = psample.points
            if len(pts) == 0:
                f_ok = q_ok = a_ok = model == "vacant"
            else:
                dmin, u, yoff = _distance_to_axis_segment(pts * shift, d)
                if model == "vacant":
                    f_ok = bool(dmin.min() >= R)
                else:
                    near = np.abs(yoff) < R
                    if near.any():
                        half = np.arccosh(np.cosh(R) / np.cosh(yoff[near]))
                        f_ok = _coverage_reach(u[near] - half, u[near] + half) >= d
                    else:
                        f_ok = False
                if f_ok:
                    w_pts = to_hyperboloid(pts)
                    q_ok = (
                        _net_contained_vacant(seg_p, seg_q, w_pts, R)
                        if model == "vacant"
                        else _net_contained_occupied(seg_p, seg_q, w_pts, R)
                    )
                    a_ok = True
                else:
                    q_ok = False
                    blocked = _blocked_cells(cells_flat, cells_y, pts, R)
                    open_grid = blocked if model == "occupied" else ~blocked
                    a_ok = _flood_connected(
                        open_grid.reshape(cells.shape) & in_region,
                        start_cells,
                        end_cells,
                        structure,
                    )
        n_A += a_ok
        n_f += f_ok
        n_Q += q_ok
    return SandwichResult(n_A / trials, n_f / trials, n_Q / trials, trials)


# ---------------------------------------------------------------------------


def two_proportion_pvalue(k1: int, n1: int, k2: int, n2: int) -> float:
    """One-sided two-proportion z test: P(observing rate1 - rate2 this
    large under equal rates)."""
    p1, p2 = k1 / n1, k2 / n2
    pool = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pool * (1.0 - pool) * (1.0 / n1 + 1.0 / n2))
    if se == 0.0:
        return 0.5
    return float(stats.norm.sf((p1 - p2) / se))
