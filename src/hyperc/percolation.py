"""Monte Carlo experiments for segment containment and ray survival.

Each experiment runs trials in canonical position (the segment on the
imaginary axis, or rays fanning out of (0, 1)); the invariance of the
models makes this lossless.  Every Boolean-model path reduces its
question to one kernel, ``_reaches``: given the Fermi coordinates
(foot, offset) of the balls around a batch of segments, it returns each
segment's containment threshold in the vacant or the occupied set.
Every lines path that asks which side of a line a point is on
(``segment_in``, the chord check, the tube sandwich) asks
``LineSample.sides``; ``estimate_f`` and the ray survivors read the
crossing feet and the blocked arcs of directions instead, which need no
side test.  ``estimate_f`` draws only what can touch its longest
segment: the Poisson points of the segment's R-neighbourhood, or for
lines only the feet where they cross it.  Each trial draws from its own
generator, keyed by the trial index; the trials run in blocks, each
reduced at once, inline or on a process pool that ``estimate_f`` keeps
for later calls.  Rays, chords and the tube sandwich draw exactly the
ball that can reach them, and measure each ray, net segment or grid
cell only against the points that can come within R of it; the
sandwich decides its flood-fill grid in its tube's axis coordinates.
Before its Q net and flood fill, the Boolean sandwich tries margins on
its central segment through ``_reaches``.  Every net segment lies within
s of the central segment, so Q holds if that segment is in the set for
balls of radius R + s (vacant) or R - s (occupied).  Every path of grid
cells between the end balls crosses each column between them, whose
cells lie within s of its axis point, so A fails if one such point lies
strictly within R - s of a point (vacant) or at least R + s from every
point (occupied).

The polar steps around (0, 1) are each written once: ``_grid_runs``
maps every arc of directions (a point's rays, a line's blocked rays,
a direction's antipodal partners) onto the direction grid,
``_polar_fermi`` reads polar coordinates as Fermi coordinates along a
ray (the ray survivors, the law of S), and ``sampling.ball_polar`` and
``geometry.ball_net`` draw and net a ball.

One predicate, ``segment_in``, decides a single segment [p, q] against
a sample: the Boolean models through ``_net_contained`` on hyperboloid
vectors, the lines through the side test of the chord check.
``estimate_f`` and the ray survivors reach their thresholds through
axis coordinates or polar formulas instead, so the tests check them
against ``segment_in`` on the same realization.
"""

from __future__ import annotations

import logging
import math
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import ndimage

from .geometry import (
    HPoint,
    ORIGIN,
    axis_coordinates,
    ball_area,
    ball_net,
    dist,
    dist_arrays,
    minkowski,
    polar_around_origin,
    segment_point_distance,
    to_disk,
    to_hyperboloid,
)
from .sampling import (
    BooleanSample,
    LineSample,
    ModelParams,
    RngStream,
    ball_polar,
    sample_crossings,
    sample_lines,
    sample_points,
    sample_tube,
)

__all__ = [
    "ExperimentResult",
    "RaySurvival",
    "LineDetection",
    "SDistResult",
    "SandwichResult",
    "segment_in",
    "estimate_f",
    "surviving_directions",
    "detect_line_through_ball",
    "estimate_S_cdf",
    "sandwich_AQ",
]

logger = logging.getLogger(__name__)

MODELS = ("vacant", "occupied", "lines")


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


# ---------------------------------------------------------------------------
# the containment kernels and the per-segment predicate


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


def _half_width(R: float, offset: np.ndarray) -> np.ndarray:
    """Half the length of the chord that a ball of radius R cuts from a
    geodesic at distance offset from its centre: arccosh(cosh R / cosh y)."""
    return np.arccosh(math.cosh(R) / np.cosh(offset))


def _reaches(model: str, seg: np.ndarray, foot: np.ndarray, offset: np.ndarray, R: float, n: int):
    """Containment thresholds of n segments in a Boolean model.

    Ball k has foot parameter foot[k] and offset offset[k] in the Fermi
    coordinates of segment seg[k], which runs over feet [0, length].
    Returns, per segment, sup{c : the feet [0, c] lie in the vacant or
    occupied set}: negative when even c = 0 fails, inf when nothing ends
    vacancy.  This is the one containment test of the Boolean models;
    every Monte Carlo path reduces its question to it.
    """
    near = np.abs(offset) < R
    seg, foot = seg[near], foot[near]
    # the closed ball meets the geodesic over [foot - half, foot + half],
    # the open ball over the open interval
    half = _half_width(R, offset[near])
    if model == "occupied":
        return _coverage_reaches(seg, foot - half, foot + half, n)
    # an open ball first meets [0, c] at c = foot - half, unless it lies
    # wholly behind 0
    hit = foot + half > 0.0
    thr = np.full(n, math.inf)
    np.minimum.at(thr, seg[hit], (foot - half)[hit])
    return thr


def _net_contained(seg_p, seg_q, w, R: float, model: str) -> bool:
    """True iff every segment [seg_p[k], seg_q[k]] lies in the set of the
    balls of radius R around the points w (all hyperboloid vectors)."""
    foot, perp = segment_point_distance(seg_p, seg_q, w)
    lengths = np.arccosh(np.maximum(-minkowski(seg_p, seg_q), 1.0))
    seg = np.repeat(np.arange(len(seg_p)), len(w))
    return bool(np.all(_reaches(model, seg, foot.ravel(), perp.ravel(), R, len(seg_p)) >= lengths))


def _lines_avoid(sample: LineSample, pq: np.ndarray) -> bool:
    """True iff no line strictly separates the hyperboloid points pq[0]
    and pq[1]."""
    side = sample.sides(pq)
    return not np.any(side[0] * side[1] < 0.0)


def segment_in(model: str, p: HPoint, q: HPoint, sample: BooleanSample | LineSample) -> bool:
    """True iff the segment [p, q] lies in the model's set.

    Vacant: no sample point lies strictly within R of it, so a ball
    tangent to it still counts as vacant.  Occupied: the closed balls
    cover it.  Lines: no line strictly separates p from q.  A
    zero-length segment is decided as the point p.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    reach = max(dist(ORIGIN, p), dist(ORIGIN, q))
    pq = to_hyperboloid([p.as_complex(), q.as_complex()])
    if model == "lines":
        sample.require_window(reach, "line avoidance")
        return _lines_avoid(sample, pq)
    R = sample.params.radius
    sample.require_window(reach + R, f"{model} containment")
    if p == q:
        d = dist_arrays(sample.points, np.asarray(p.as_complex()))
        return bool(np.all(d >= R)) if model == "vacant" else bool(np.any(d <= R))
    return _net_contained(pq[:1], pq[1:], to_hyperboloid(sample.points), R, model)


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
    return _reaches(model, trial, u, y, R, len(gens))


def _count_block(model, lam, R, r_tuple, master_seed, stream_index, span):
    """Successes at each r among the trials lo <= t < hi of span."""
    rs = np.asarray(r_tuple)
    stream = RngStream(master_seed, stream_index)
    gens = [stream.generator(t) for t in range(*span)]
    thr = np.sort(_block_thresholds(model, lam, R, float(rs.max()), gens))
    return len(gens) - np.searchsorted(thr, rs, side="left")


# The process pool that estimate_f calls share, as (size, executor), and
# the lock that lets one call at a time start, replace or use it.  The
# workers start by the platform's default method, fork on Linux: a
# spawned one re-imports numpy and scipy (0.9 s on a 2-core host), and
# no pool thread is alive when a pool forks, because the old pool is
# shut down first.  A long-lived worker keeps the module state it was
# forked with, so its jobs take everything they read as arguments.
_pool: tuple[int, ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _close_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def _shared_pool(size: int) -> ProcessPoolExecutor:
    """The shared pool, started on first use or replaced by one of
    another size."""
    global _pool
    if _pool is not None and _pool[0] != size:
        _close_pool()
    if _pool is None:
        _pool = (size, ProcessPoolExecutor(max_workers=size))
    return _pool[1]


def _pool_sum(job, spans, size: int):
    """Sum of job over spans on the shared pool.  A pool that broke (one
    of its workers died) is replaced and the spans run once more; the
    jobs are pure, so the rerun counts the same."""
    with _pool_lock:
        try:
            return sum(_shared_pool(size).map(job, spans))
        except BrokenProcessPool:
            _close_pool()
            return sum(_shared_pool(size).map(job, spans))


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
    of TRIAL_BLOCK and the counts are summed, so the result depends
    neither on the worker count nor on the block size.  With workers > 1
    and more than one block, the blocks run on one process pool of
    min(workers, blocks) processes that the process keeps for later
    calls: the first such call starts it, a call that needs another
    size replaces it, a pool whose worker died is replaced, and the
    interpreter shuts it down at exit.  Otherwise the blocks run inline.
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
    spans = [(lo, min(trials, lo + TRIAL_BLOCK)) for lo in range(0, trials, TRIAL_BLOCK)]
    job = partial(_count_block, model, lam, R, tuple(rs), rng.master_seed, rng.stream_index)
    if workers <= 1 or len(spans) == 1:
        counts = sum(map(job, spans))
    else:
        counts = _pool_sum(job, spans, min(workers, len(spans)))
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


def _grid_runs(lo: np.ndarray, hi: np.ndarray, n: int):
    """(owner, k mod n) for every integer k with lo[owner] <= k <= hi[owner]:
    the runs expanded on the circular grid of n directions, none for hi < lo."""
    run_len = np.maximum(hi - lo + 1, 0)
    owner = np.repeat(np.arange(len(lo)), run_len)
    k = np.arange(len(owner)) + np.repeat(lo + run_len - np.cumsum(run_len), run_len)
    return owner, np.mod(k, n)


def _polar_fermi(t: np.ndarray, dpsi: np.ndarray, reach: float = math.inf):
    """Of the points at distance t from (0, 1), angle dpsi from a geodesic
    through it, the mask of those at offset below reach, and their foot
    arctanh(tanh t cos dpsi) (tanh clipped short of +-1) and offset
    arcsinh(sinh t |sin dpsi|)."""
    perp = np.arcsinh(np.sinh(t) * np.abs(np.sin(dpsi)))
    near = perp < reach
    tanh_foot = np.clip(np.tanh(t[near]) * np.cos(dpsi[near]), -1.0 + 1e-15, 1.0 - 1e-15)
    return near, np.arctanh(tanh_foot), perp[near]


def _boolean_ray_survivors(sample: BooleanSample, r: float, n_dir: int, model: str) -> np.ndarray:
    """Directions whose ray of length r from (0, 1) lies in the set; the
    direction index is the kernel's segment index.

    A point at polar (t, psi) with t > R keeps more than R from (0, 1),
    so it can come within R only of the rays that run toward it, in the
    directions theta with |theta - psi| < beta, sin beta = sinh R / sinh t.
    Such a point is measured on the grid directions of that arc and the
    next one beyond each end, a point with t <= R on every direction; a
    margin of 1e-9 on t keeps ties at distance R decided as by measuring
    every pair.
    """
    R = sample.params.radius
    sample.require_window(r + R, "ray survival")
    h = 2.0 * math.pi / n_dir
    thetas = 2.0 * math.pi * np.arange(n_dir) / n_dir
    # polar coordinates around (0, 1) from the Cayley disk coordinate
    w = to_disk(sample.points)
    t, psi = 2.0 * np.arctanh(np.abs(w)), np.angle(w)
    beta = np.arcsin(math.sinh(R) / np.maximum(np.sinh(t), math.sinh(R)))
    # each point's run [lo, hi] of direction indices
    lo = np.floor((psi - beta) / h).astype(np.int64)
    hi = np.ceil((psi + beta) / h).astype(np.int64)
    lo[t <= R + 1e-9], hi[t <= R + 1e-9] = 0, n_dir - 1
    j, k = _grid_runs(lo, hi, n_dir)
    near, foot, perp = _polar_fermi(t[j], psi[j] - thetas[k], R)
    return _reaches(model, k[near], foot, perp, R, n_dir) >= r


def _line_ray_survivors(sample: LineSample, r: float, n_dir: int) -> np.ndarray:
    """Directions whose radial segment of length r misses every line.

    The line at foot (p, phi) blocks the arc of directions theta with
    cos(theta - phi) > tanh p / tanh r, that is the grid directions k
    with |k h - phi| <= beta, cos beta = tanh p / tanh r.
    """
    sample.require_window(r, "ray survival")
    h = 2.0 * math.pi / n_dir
    mask = sample.foot_dist < r
    beta = np.arccos(np.clip(np.tanh(sample.foot_dist[mask]) / math.tanh(r), -1.0, 1.0))
    lo = np.ceil((sample.foot_dir[mask] - beta) / h).astype(np.int64)
    hi = np.floor((sample.foot_dir[mask] + beta) / h).astype(np.int64)
    alive = np.ones(n_dir, dtype=bool)
    alive[_grid_runs(lo, hi, n_dir)[1]] = False
    return alive


def _ray_survivors(model: str, params: ModelParams, r: float, n_dir: int, gen):
    """Draw what can reach the rays of length r from (0, 1), the lines
    meeting B(o, r) or the points within R of it, and return it with the
    mask of the n_dir grid directions whose ray survives."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    # with fewer, detect-line's seven antipodal partners of a direction repeat
    if n_dir < 8:
        raise ValueError("need at least 8 directions")
    if model == "lines":
        sample = sample_lines(params.intensity, r, gen)
        return sample, _line_ray_survivors(sample, r, n_dir)
    sample = sample_points(params, r + params.radius, gen)
    return sample, _boolean_ray_survivors(sample, r, n_dir, model)


def surviving_directions(
    model: str,
    params: ModelParams,
    r: float,
    n_directions: int,
    rng: RngStream,
) -> RaySurvival:
    """Ray survival on a uniform direction grid, one shared sample."""
    _, alive = _ray_survivors(model, params, r, n_directions, rng.generator())
    return RaySurvival([int(i) for i in np.nonzero(alive)[0]])


def _antipodal_pairs(alive: np.ndarray, r: float, s: float):
    """Pairs i < j of alive grid directions within 2.5 steps of antipodal
    whose chord at distance r passes within s of (0, 1), as two arrays,
    closest to antipodal first, ties in order of (i, j).  Only the
    partners i + n//2 - 3 ... i + n//2 + 3 (mod n) of i can be that close.
    """
    n = len(alive)
    thetas = 2.0 * math.pi * np.arange(n) / n
    idx = np.flatnonzero(alive)
    owner, j = _grid_runs(idx + n // 2 - 3, idx + n // 2 + 3, n)
    i = idx[owner]
    delta = np.mod(thetas[j] - thetas[i], 2.0 * math.pi)
    miss = np.abs(delta - math.pi)
    keep = alive[j] & (j > i) & (miss <= 2.5 * (2.0 * math.pi / n))
    keep &= _chord_distance(r, delta) < s
    order = np.lexsort((j[keep], i[keep], miss[keep]))
    return i[keep][order], j[keep][order]


def detect_line_through_ball(
    model: str,
    params: ModelParams,
    s: float,
    r: float,
    rng: RngStream,
    n_directions: int = 360,
) -> LineDetection:
    """Search for a full chord through B(o, s) certified by two
    surviving rays in nearly antipodal directions: the pairs of one
    shared sample's surviving directions that ``_antipodal_pairs``
    enumerates are tried in its order, and the first whose chord between
    the far endpoints is contained is the witness."""
    # the chords between the rays' ends lie in B(o, r) as well
    sample, alive = _ray_survivors(model, params, r, n_directions, rng.generator())
    n_surviving = int(np.count_nonzero(alive))
    if n_surviving < 2:
        return LineDetection(False, None, n_surviving)
    if model != "lines":
        w = to_hyperboloid(sample.points)
    for i, j in zip(*_antipodal_pairs(alive, r, s)):
        ends = 2.0 * math.pi * np.asarray([i, j]) / n_directions
        pq = to_hyperboloid(polar_around_origin(np.full(2, r), ends))
        if model == "lines":
            contained = _lines_avoid(sample, pq)
        else:
            contained = _net_contained(pq[:1], pq[1:], w, params.radius, model)
        if contained:
            return LineDetection(True, (int(i), int(j)), n_surviving)
    return LineDetection(False, None, n_surviving)


def _chord_distance(r: float, delta: np.ndarray) -> np.ndarray:
    """Distance from (0, 1) to the chord between the points at distance r
    in directions delta apart.  In the Klein model centred at (0, 1) the
    chord is straight, at Euclidean distance tanh r |cos(delta / 2)|."""
    return np.arctanh(math.tanh(r) * np.abs(np.cos(delta / 2.0)))


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
    # Fermi coordinates along gamma, the geodesic through (0, 1) in direction 0
    _, u, perp = _polar_fermi(*ball_polar(R, int(counts.sum()), gen))
    u_plus = u + _half_width(R, perp)
    nonempty = counts > 0
    starts = (np.cumsum(counts) - counts)[nonempty]
    s_vals = np.minimum.reduceat(u_plus, starts) if len(starts) else np.empty(0)
    return SDistResult(np.sort(s_vals), trials, 1.0 - float(nonempty.mean()))


# ---------------------------------------------------------------------------
# the tube sandwich P(Q) <= f <= P(A)


def _lines_tube_events(sample: LineSample, net_x: np.ndarray, net_y: np.ndarray):
    """(A, f, Q) of one line realization for the tube whose end nets
    net_x and net_y (hyperboloid vectors) start with the end centres.

    The tube is convex, so two of its points are joined off the lines
    iff no line separates them, that is iff their rows of signs of
    ``sides`` are equal.  f joins the end centres, A some point of each
    net, and Q every point of both nets.
    """
    pos_x, pos_y = sample.sides(net_x) > 0.0, sample.sides(net_y) > 0.0
    f_ok = bool(np.array_equal(pos_x[0], pos_y[0]))
    both = np.concatenate([pos_x, pos_y])
    q_ok = bool(np.all(both.all(axis=0) | ~both.any(axis=0)))
    a_ok = f_ok or bool({row.tobytes() for row in pos_x} & {row.tobytes() for row in pos_y})
    return a_ok, f_ok, q_ok


def _within_segment(u: np.ndarray, y: np.ndarray, half_length: float, reach: float) -> np.ndarray:
    """Mask of the points at axis coordinates (u, y) strictly within reach
    of the axis segment over feet [-half_length, half_length], by
    cosh dist = cosh(max(|u| - half_length, 0)) cosh y."""
    beyond = np.maximum(np.abs(u) - half_length, 0.0)
    return np.cosh(beyond) * np.cosh(y) < math.cosh(reach)


def _blocked_cells(feet, offs, u, y, R) -> np.ndarray:
    """Mask over the grid feet x offs of axis coordinates (t, v) of the
    cells strictly within R of some point at axis coordinates (u, y), by
    cosh dist = cosh y cosh v cosh(u - t) - sinh y sinh v, with no
    arccosh per cell; the points run along the first axis, which ``any``
    reduces far faster than a short last one."""
    ch = np.cosh(y)[:, None, None] * np.cosh(offs) * np.cosh(u[:, None] - feet)[:, :, None]
    return (ch - (np.sinh(y)[:, None] * np.sinh(offs))[:, None, :] < math.cosh(R)).any(axis=0)


def _q_by_margin(model: str, u: np.ndarray, y: np.ndarray, half_d: float, R: float, s: float) -> bool:
    """True when the central segment, over feet [-half_d, half_d], lies in
    the set for balls of radius R + s (vacant) or R - s (occupied) around
    the points at axis coordinates (u, y): then Q holds (``sandwich_AQ``
    gives the argument), and False leaves it undecided.  The net's points
    keep short of radius s, so the margin exceeds rounding."""
    grow = s if model == "vacant" else -s
    seg = np.zeros(len(u), dtype=np.intp)
    return bool(_reaches(model, seg, u + half_d, y, R + grow, 1)[0] >= 2.0 * half_d)


def _cut_columns(model: str, u: np.ndarray, y: np.ndarray, feet: np.ndarray, R: float, s: float) -> np.ndarray:
    """Mask of the grid columns over the feet whose axis point lies
    strictly within R - s of a point (vacant) or at least R + s from
    every point (occupied), each column passed to ``_reaches`` as a
    zero-length segment: such a column is closed in every cell
    (``sandwich_AQ`` gives the argument), and the others are undecided."""
    grow = s if model == "vacant" else -s
    col = np.repeat(np.arange(len(feet)), len(u))
    foot = (u[None, :] - feet[:, None]).ravel()
    return _reaches(model, col, foot, np.tile(y, len(feet)), R - grow, len(feet)) < 0.0


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
) -> SandwichResult:
    """Estimate the triple (P(A), f, P(Q)) for the s-tube between x and y.

    Q tests containment of a net of segments spanning the tube, A runs
    a flood fill over a grid of the tube in axis coordinates (lines: some
    point of each end net on the same side of every line), and f tests
    the central segment.  All three share each trial's sample and the
    discretizations are one-sided, so Q <= f <= A holds per realization.
    Only d(x, y) enters; trials run in canonical position with the tube
    centered on (0, 1).  The net and the grid lie within s of the
    central segment and see only the points strictly within R + s of it.

    Margins on the central segment settle most Boolean trials first.
    Q: each net segment joins points within s of x and y, and the
    distance to the central segment is convex along it, so it lies
    within s of that segment; Q then holds if the central segment lies
    in the set for balls of radius R + s (vacant) or R - s (occupied),
    and the net is not measured (``_q_by_margin``).  A: start cells have
    feet below -d/2 + s and end cells above d/2 - s, so every 4-connected
    path between them crosses each grid column with foot in
    [-d/2 + s, d/2 - s], and such a column's cells lie within s of its
    axis point; A then fails if one of those axis points lies strictly
    within R - s of a point (vacant) or at least R + s from every point
    (occupied), and no flood fill runs (``_cut_columns``).  Both
    conditions are sufficient only; a trial they leave undecided runs
    the net or the flood fill, so the results are those of the full
    checks.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    d = dist(x, y)
    if d < 4.0:
        raise ValueError("the tube estimates need d(x, y) >= 4")
    if not 0.0 < s <= 0.05:
        raise ValueError("tube radius s must lie in (0, 0.05]")
    grid_mesh = s / 8.0
    net_mesh = 0.999 * s / 4.0
    lam, R = params.intensity, params.radius

    half_d = d / 2.0
    # the net of B(o, s), moved along the axis to the ends gamma(-+d/2)
    net = polar_around_origin(*ball_net(s, net_mesh, rim=False))
    net_x, net_y = math.exp(-half_d) * net, math.exp(half_d) * net
    gen = rng.generator()
    # the tube lies in B(o, d/2 + s): only the lines meeting that ball and
    # the points within R of it can reach it
    rho = half_d + s
    if model == "lines":
        hx, hy = to_hyperboloid(net_x), to_hyperboloid(net_y)
        events = [_lines_tube_events(sample_lines(lam, rho, gen), hx, hy) for _ in range(trials)]
    else:
        events = []
        seg_p = to_hyperboloid(np.repeat(net_x, len(net_y)))
        seg_q = to_hyperboloid(np.tile(net_y, len(net_x)))
        n_t = int(math.ceil((d + 2.0 * s) / grid_mesh)) + 1
        n_v = 2 * int(math.ceil(s / grid_mesh)) + 1
        feet, offs = np.linspace(-half_d - s, half_d + s, n_t), np.linspace(-s, s, n_v)
        tt, vv = np.meshgrid(feet, offs, indexing="ij")
        d_x = np.arccosh(np.maximum(np.cosh(tt + half_d) * np.cosh(vv), 1.0))
        d_y = np.arccosh(np.maximum(np.cosh(tt - half_d) * np.cosh(vv), 1.0))
        in_region = np.where(tt < -half_d, d_x <= s, np.where(tt > half_d, d_y <= s, True))
        start_cells = in_region & (d_x < s)
        end_cells = in_region & (d_y < s)
        structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        # every path from the start to the end cells crosses these columns
        mid_feet = feet[np.abs(feet) <= half_d - s]
        for _ in range(trials):
            pts = sample_points(params, rho + R, gen).points
            # Fermi coordinates of the central segment, which runs over feet [0, d]
            u, y = axis_coordinates(pts * math.exp(half_d))
            f_ok = bool(_reaches(model, np.zeros(len(u), dtype=np.intp), u, y, R, 1)[0] >= d)
            # the net and the grid lie within s of the central segment;
            # u is measured from the tube's centre, as the grid's feet are
            near = _within_segment(u - half_d, y, half_d, R + s)
            pts, u, y = pts[near], u[near] - half_d, y[near]
            q_ok = f_ok and (
                _q_by_margin(model, u, y, half_d, R, s)
                or _net_contained(seg_p, seg_q, to_hyperboloid(pts), R, model)
            )
            a_ok = f_ok
            if not f_ok and not _cut_columns(model, u, y, mid_feet, R, s).any():
                blocked = _blocked_cells(feet, offs, u, y, R)
                open_grid = (blocked if model == "occupied" else ~blocked) & in_region
                a_ok = _flood_connected(open_grid, start_cells, end_cells, structure)
            events.append((a_ok, f_ok, q_ok))
    n_A, n_f, n_Q = (sum(col) for col in zip(*events))
    return SandwichResult(n_A / trials, n_f / trials, n_Q / trials, trials)
