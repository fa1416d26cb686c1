"""Monte Carlo experiments for segment containment and ray survival.

Each experiment runs trials in canonical position (the segment on the
imaginary axis, or rays fanning out of (0, 1)); the invariance of the
models makes this lossless.  Every Boolean-model path reduces its
question to one kernel, ``_reaches``: given the Fermi coordinates
(foot, offset) of the balls around a batch of segments, it returns each
segment's containment threshold in the vacant or the occupied set.
Every lines path that asks which side of a line a point is on
(``segment_in``, the tube sandwich) asks ``LineSample.sides``;
``estimate_f`` and the ray survivors read the crossing feet and the
blocked arcs of directions instead, which need no side test, and a chord
between two surviving rays misses every line, so detect-line takes it
unchecked.  ``estimate_f`` draws only what can touch its longest
segment: the Poisson points of the segment's R-neighbourhood, or for
lines only the feet where they cross it.  Each trial draws from its own
generator, keyed by the trial index; the trials run in blocks, each
reduced at once, inline or on a process pool that ``estimate_f`` keeps
for later calls, and a block whose points would exceed the sampling
cap is drawn in chunks of trials below it.  Rays, chords and the tube
sandwich draw exactly the ball that can reach them, and measure each
ray, chord, net segment or grid cell only against the points that can
come within R of it; the sandwich decides its flood-fill grid in its
tube's axis coordinates.  Rays, detect-line and the sandwich draw their
samples in sequence from one generator and decide them per group
(``_ball_groups``): consecutive samples of at most GROUP_POINTS points
or lines together.  A group of rays goes through one ``_grid_runs``,
``frame_fermi`` and ``_reaches`` pass, sample i's direction k as
segment i n + k.  Detect-line builds its candidate pairs once per call
and decides a group's Boolean chords in rounds, the next candidate of
every undecided sample a round, all in one ``_reaches`` call.  The
lines sandwich takes the sides of a group of trials' lines at once.
The Boolean sandwich decides f, and margins on the central segment that
settle Q or A for most trials (``sandwich_AQ`` gives the argument), f
and the Q margin each in one ``_reaches`` call per group and the A
margin in one (points, columns) cosh test; a Q the margin leaves goes
to a cross-section certificate, which tests the segments across the
tube at the grid's feet that hold every net segment's points, all of a
group's in one ``_reaches`` call.  Only the trials these leave run the
Q net, which stops at its first failing chunk of segments, or the flood
fill, one at a time, and only a call that reaches the Q net builds it.

Every path reads the polar coordinates (t, psi) around (0, 1) that a
``BooleanSample`` was drawn in as they are, with no trip through the
upper half-plane: as Fermi coordinates along a geodesic through (0, 1)
by ``geometry.polar_frame`` and ``frame_fermi`` (the ray survivors, the
law of S, the sandwich's groups, ``estimate_f``'s end caps), or as
hyperboloid vectors by ``geometry.polar_hyperboloid`` (chords, the Q
net, ``segment_in``).  ``_grid_runs`` maps every arc of directions onto
the direction grid.  One predicate, ``segment_in``, decides a single
segment [p, q] against a sample, the Boolean models through
``_net_contained`` and the lines through ``_lines_avoid``; the tests
check every other path against it on the same realization.
"""

from __future__ import annotations

import atexit
import math
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import sampling
from .geometry import (
    HPoint,
    ORIGIN,
    ball_area,
    ball_net,
    dist,
    frame_fermi,
    line_normal,
    minkowski,
    polar_around_origin,
    polar_frame,
    polar_hyperboloid,
    segment_point_distance,
    to_hyperboloid,
    tube_area,
)
from .sampling import (
    BooleanSample,
    LineSample,
    ModelParams,
    RngStream,
    ball_polar,
    phi_segment,
    sample_crossings,
    sample_lines,
    sample_points,
    sample_tube,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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

MODELS = ("vacant", "occupied", "lines")


@dataclass(frozen=True)
class ExperimentResult:
    """Containment curve estimates and the decay exponent."""

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
    them must not end the cover, so they are dropped first.  The rest are
    sorted by left end, then stably by trial in the smallest unsigned type
    that holds n, which numpy radix-sorts up to 16 bits, several times
    faster than ``np.lexsort``; no stop falls between tied left ends.
    """
    keep = right >= 0.0
    trial, left, right = trial[keep], left[keep], right[keep]
    reach = np.full(n, -1.0)
    if len(trial) == 0:
        return reach
    order = np.argsort(left)
    order = order[np.argsort(trial[order].astype(np.min_scalar_type(n - 1)), kind="stable")]
    trial, left, right = trial[order], left[order], right[order]
    # lift each trial above every earlier one, so that one running max
    # serves the whole block and every trial ends in a gap
    off = trial * (right.max() - left.min() + 1.0)
    run = np.maximum.accumulate(right + off)
    stops = np.flatnonzero(np.append(left[1:] + off[1:] > run[:-1], True))
    starts = np.flatnonzero(np.append(True, trial[1:] != trial[:-1]))
    covered = left[starts] <= 0.0
    starts = starts[covered]
    ends = stops[np.searchsorted(stops, starts)]
    # the reach is the largest right end of the covered run, read from the
    # unlifted ends so that it does not round with the block's other trials
    runs = np.stack([starts, ends + 1], axis=1).ravel()
    reach[trial[starts]] = np.maximum.reduceat(np.append(right, -math.inf), runs)[::2]
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


# Strided chunks of segments that ``_net_contained`` measures in turn.
NET_CHUNKS = 8


def _net_contained(seg_p, seg_q, w, R: float, model: str) -> bool:
    """True iff every segment [seg_p[k], seg_q[k]] lies in the set of the
    balls of radius R around the points w (all hyperboloid vectors).

    The segments are measured in NET_CHUNKS strided chunks, k, k + 8,
    ..., and the first chunk with a failing segment ends the call; the
    chunks spread over the whole net, so a sandwich trial whose Q fails
    mostly stops after the first."""
    for k in range(min(NET_CHUNKS, len(seg_p))):
        p, q = seg_p[k::NET_CHUNKS], seg_q[k::NET_CHUNKS]
        foot, perp = segment_point_distance(p, q, w)
        lengths = np.arccosh(np.maximum(-minkowski(p, q), 1.0))
        seg = np.repeat(np.arange(len(p)), len(w))
        if not np.all(_reaches(model, seg, foot.ravel(), perp.ravel(), R, len(p)) >= lengths):
            return False
    return True


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
    zero-length segment is decided as the point p, by the cosh of its
    distance to each sample point, -<w, p>, against cosh R.
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
    w = polar_hyperboloid(sample.t, sample.psi)
    if p == q:
        cosh_d, cosh_R = -minkowski(w, pq[0]), math.cosh(R)
        return bool(np.all(cosh_d >= cosh_R) if model == "vacant" else np.any(cosh_d <= cosh_R))
    return _net_contained(pq[:1], pq[1:], w, R, model)


# ---------------------------------------------------------------------------
# f(r) estimation
#
# Every trial reduces to a containment threshold: the sup of r for
# which the axis segment over feet [0, r] is still inside the set.
# Containment of the whole nested r grid then reads off one comparison
# per r, and the decay exponent off the thresholds themselves.  Each
# trial draws from its own generator, keyed by the trial index; the
# trials are drawn in blocks of TRIAL_BLOCK.

TRIAL_BLOCK = 256


def _block_thresholds(model, lam, R, r_max, gens) -> np.ndarray:
    """Containment thresholds of the trials drawn from gens, one
    generator each: negative when even r = 0 fails, inf when nothing
    within reach of [0, r_max] ends containment.

    The trials are drawn and reduced in chunks whose expected points or
    line crossings together stay within sampling.MAX_TRIAL_POINTS, at
    least one trial a chunk.  Each trial draws from its own generator,
    so the thresholds are the same at any chunk size."""
    per_trial = lam * (phi_segment(r_max) if model == "lines" else tube_area(R, r_max))
    step = max(1, int(sampling.MAX_TRIAL_POINTS // max(per_trial, 1.0)))
    return np.concatenate([_chunk_thresholds(model, lam, R, r_max, gens[i:i + step])
                           for i in range(0, len(gens), step)])


def _chunk_thresholds(model, lam, R, r_max, gens) -> np.ndarray:
    thr = np.full(len(gens), math.inf)
    if model == "lines":
        # a line separates the endpoints of [0, r] iff it crosses at a foot < r
        trial, feet = sample_crossings(lam, r_max, gens)
        np.minimum.at(thr, trial, feet)
        return thr
    trial, u, y = sample_tube(ModelParams(lam, R), r_max, gens)
    return _reaches(model, trial, u, y, R, len(gens))


def _span_thresholds(model, lam, R, r_max, master_seed, stream_index, span):
    """Containment thresholds of the trials lo <= t < hi of span."""
    stream = RngStream(master_seed, stream_index)
    return _block_thresholds(model, lam, R, r_max, [stream.generator(t) for t in range(*span)])


# The process pool that estimate_f calls share, as (size, executor), and
# the lock that lets one call at a time start, replace or use it.  The
# workers start by the platform's default method, fork on Linux: a
# spawned pool of two re-imports numpy and hyperc before its first job
# (0.33-0.35 s to its first result on a 2-core host, against 0.015 s
# forked), and no pool thread is alive when a pool forks, because the
# old pool is shut down first.  A long-lived worker keeps the module
# state it was forked with, so its jobs take everything they read as
# arguments.  The pool machinery is imported on first use: it loads
# multiprocessing, logging, socket and subprocess, which a run without
# workers never needs.  Imported after this module, it is torn down
# before it at exit, so the pool is closed by an exit handler, while
# both modules are intact.
_pool: tuple[int, ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _close_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


atexit.register(_close_pool)


def _shared_pool(size: int) -> ProcessPoolExecutor:
    """The shared pool, started on first use or replaced by one of
    another size."""
    from concurrent.futures import ProcessPoolExecutor

    global _pool
    if _pool is not None and _pool[0] != size:
        _close_pool()
    if _pool is None:
        _pool = (size, ProcessPoolExecutor(max_workers=size))
    return _pool[1]


def _pool_map(job, spans, size: int) -> list:
    """job over spans on the shared pool, in span order.  A pool that
    broke (one of its workers died) is replaced and the spans run once
    more; the jobs are pure, so the rerun returns the same."""
    from concurrent.futures.process import BrokenProcessPool

    with _pool_lock:
        try:
            return list(_shared_pool(size).map(job, spans))
        except BrokenProcessPool:
            _close_pool()
            return list(_shared_pool(size).map(job, spans))


def _exposure_alpha(thr: np.ndarray, a: float, b: float):
    """(alpha_hat, alpha_stderr) from the thresholds thr on the window
    [a, b], as ``estimate_f`` states."""
    at_risk = thr[thr >= a]
    exposure = math.fsum(np.minimum(at_risk, b) - a)
    if exposure == 0.0:
        return math.nan, math.nan
    events = int(np.count_nonzero(at_risk < b))
    if events == 0:
        return 0.0, 0.0
    alpha = events / exposure
    return alpha, alpha / math.sqrt(events)


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
    of TRIAL_BLOCK, each returning its trials' containment thresholds T,
    and f(r) = P(T >= r) is counted from all of them at once, so the
    result depends neither on the worker count nor on the block size.

    The exponent is a constant hazard on the grid's window [a, b]
    (Andersen, Borgan, Gill and Keiding 1993, ch. IV): alpha_hat is the
    events a <= T < b over the exposure, the sum of min(T, b) - a over
    the trials with T >= a, and alpha_stderr = alpha_hat / sqrt(events);
    (0, 0) with no event, (nan, nan) with no exposure.  With workers > 1
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
    if rs.size == 0:
        raise ValueError("need at least one r value")
    if rs[0] < 0:
        raise ValueError("r values must be nonnegative")
    lam, R = params.intensity, params.radius
    if model != "lines" and R is None:
        raise ValueError("point models need a ball radius")
    spans = [(lo, min(trials, lo + TRIAL_BLOCK)) for lo in range(0, trials, TRIAL_BLOCK)]
    job = partial(_span_thresholds, model, lam, R, float(rs[-1]), rng.master_seed, rng.stream_index)
    if workers <= 1 or len(spans) == 1:
        blocks = list(map(job, spans))
    else:
        blocks = _pool_map(job, spans, min(workers, len(spans)))
    thr = np.sort(np.concatenate(blocks))
    counts = trials - np.searchsorted(thr, rs, side="left")
    est = counts / trials
    hw = 1.96 * np.sqrt(est * (1.0 - est) / trials)
    alpha_hat, alpha_stderr = _exposure_alpha(thr, rs[0], rs[-1])
    return ExperimentResult(rs, est, hw, trials, alpha_hat, alpha_stderr, counts)


# ---------------------------------------------------------------------------
# ray survival and line detection


def _runs(lo: np.ndarray, hi: np.ndarray):
    """(owner, k) for every integer k with lo[owner] <= k <= hi[owner],
    owner by owner; none for hi < lo."""
    run_len = np.maximum(hi - lo + 1, 0)
    owner = np.repeat(np.arange(len(lo)), run_len)
    return owner, np.arange(len(owner)) + np.repeat(lo + run_len - np.cumsum(run_len), run_len)


def _grid_runs(lo: np.ndarray, hi: np.ndarray, n: int):
    """The runs of ``_runs`` expanded on the circular grid of n directions,
    as (owner, k mod n)."""
    owner, k = _runs(lo, hi)
    return owner, np.mod(k, n)


# Samples that rays, detect-line and the sandwich decide in one pass:
# consecutive ones join a group while their points or lines together
# stay within this many, and one at or above it makes a group of its
# own.  At budgets of
# 1, 1024, 2048, 4096, 8192 and 16384 the tube workload's rays,
# detect-line and lines sandwich operations took 60-66, 47-48, 46-48,
# 46-49, 46-52 and 52-56 ms together (two runs of 40 alternating rounds,
# in process, on a 2-core host).  Large groups lose on large kernel
# passes: four occupied samples of about 1260 points at 360 directions
# took 4.5-4.6 ms as one group against 3.3-3.5 ms one by one (at 64
# directions 1.0 against 1.3 ms), so such samples are left alone.
GROUP_POINTS = 1024


def _ball_groups(model: str, params: ModelParams, rho: float, samples: int, rng: RngStream):
    """Draw samples realizations of what can reach B(o, rho), the lines
    meeting it or the points within R of it, in sequence from
    ``rng.generator()``, and yield the runs of consecutive ones whose
    points or lines together stay within GROUP_POINTS, as lists; a
    sample at or above it makes a run alone."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    gen = rng.generator()
    group, size = [], 0
    for _ in range(samples):
        sample = (sample_lines(params.intensity, rho, gen) if model == "lines"
                  else sample_points(params, rho + params.radius, gen))
        if group and size + len(sample) > GROUP_POINTS:
            yield group
            group, size = [], 0
        group.append(sample)
        size += len(sample)
    if group:
        yield group


def _joined(samples, *fields):
    """Each element's sample index, then the samples' arrays of each field
    joined end to end."""
    owner = np.repeat(np.arange(len(samples)), [len(sample) for sample in samples])
    return owner, *(np.concatenate([getattr(sample, f) for sample in samples]) for f in fields)


def _boolean_ray_survivors(samples: list[BooleanSample], r: float, n_dir: int, model: str):
    """Mask (len(samples), n_dir) of the directions whose ray of length r
    from (0, 1) lies in the set, per sample; sample i's direction k is the
    kernel's segment i n_dir + k.

    A point at polar (t, psi) with t > R keeps more than R from (0, 1),
    so it can come within R only of the rays that run toward it, in the
    directions theta with |theta - psi| < beta, sin beta = sinh R / sinh t.
    Such a point is measured on the grid directions of that arc and the
    next one beyond each end, a point with t <= R + 1e-9 on every one,
    where sinh t |sin(psi - theta)| < sinh(R + 1e-9); these margins keep
    ties at distance R decided as by measuring every pair.
    """
    R = samples[0].params.radius
    for sample in samples:
        sample.require_window(r + R, "ray survival")
    h = 2.0 * math.pi / n_dir
    thetas = 2.0 * math.pi * np.arange(n_dir) / n_dir
    which, t, psi = _joined(samples, "t", "psi")
    beta = np.arcsin(math.sinh(R) / np.maximum(np.sinh(t), math.sinh(R)))
    # each point's run [lo, hi] of direction indices
    lo = np.floor((psi - beta) / h).astype(np.int64)
    hi = np.ceil((psi + beta) / h).astype(np.int64)
    lo[t <= R + 1e-9], hi[t <= R + 1e-9] = 0, n_dir - 1
    j, k = _grid_runs(lo, hi, n_dir)
    along, normal = polar_frame(t[j], psi[j] - thetas[k])
    near = np.abs(normal) < math.sinh(R + 1e-9)
    foot, offset = frame_fermi(along[near], normal[near])
    seg = (which[j] * n_dir + k)[near]
    return (_reaches(model, seg, foot, offset, R, len(samples) * n_dir) >= r).reshape(-1, n_dir)


def _line_ray_survivors(samples: list[LineSample], r: float, n_dir: int) -> np.ndarray:
    """Mask (len(samples), n_dir) of the directions whose radial segment
    of length r misses every line of the sample.

    The line at foot (p, phi) blocks the arc of directions theta with
    cos(theta - phi) > tanh p / tanh r, that is the grid directions k
    with |k h - phi| <= beta, cos beta = tanh p / tanh r.
    """
    for sample in samples:
        sample.require_window(r, "ray survival")
    h = 2.0 * math.pi / n_dir
    which, foot_dist, foot_dir = _joined(samples, "foot_dist", "foot_dir")
    mask = foot_dist < r
    beta = np.arccos(np.clip(np.tanh(foot_dist[mask]) / math.tanh(r), -1.0, 1.0))
    lo = np.ceil((foot_dir[mask] - beta) / h).astype(np.int64)
    hi = np.floor((foot_dir[mask] + beta) / h).astype(np.int64)
    owner, k = _grid_runs(lo, hi, n_dir)
    alive = np.ones(len(samples) * n_dir, dtype=bool)
    alive[which[mask][owner] * n_dir + k] = False
    return alive.reshape(-1, n_dir)


def _ray_groups(model: str, params: ModelParams, r: float, n_dir: int, samples: int,
                rng: RngStream):
    """The groups of ``_ball_groups`` of samples realizations of what can
    reach the rays of length r from (0, 1), as an iterator, each with the
    mask (samples, n_dir) of the grid directions whose ray survives.  The
    ray length and the grid are checked at the call, before any draw."""
    if not 0.0 < r < math.inf:
        raise ValueError("ray length r must be positive and finite")
    # with fewer, detect-line's seven antipodal partners of a direction repeat
    if n_dir < 8:
        raise ValueError("need at least 8 directions")
    groups = _ball_groups(model, params, r, samples, rng)
    if model == "lines":
        return ((group, _line_ray_survivors(group, r, n_dir)) for group in groups)
    return ((group, _boolean_ray_survivors(group, r, n_dir, model)) for group in groups)


def surviving_directions(
    model: str,
    params: ModelParams,
    r: float,
    n_directions: int,
    samples: int,
    rng: RngStream,
) -> list[RaySurvival]:
    """Ray survival on a uniform direction grid: samples realizations,
    drawn in sequence from ``rng.generator()`` and decided per group of
    consecutive ones (``_ball_groups``)."""
    groups = _ray_groups(model, params, r, n_directions, samples, rng)
    return [RaySurvival(np.flatnonzero(mask).tolist()) for _, alive in groups for mask in alive]


def _antipodal_pairs(n: int, r: float, s: float):
    """The pairs i < j of the grid of n directions within 2.5 steps of
    antipodal whose chord at distance r passes within s of (0, 1), as two
    arrays, closest to antipodal first, ties in order of (i, j).  Only
    the partners i + n//2 - 3 ... i + n//2 + 3 (mod n) of i can be that
    close.  A sample's candidates are these pairs whose two directions
    both survive, in this order (``_candidates``), so detect-line builds
    them once per call: 0.2-0.3 ms at n = 360, against 0.1-0.2 ms per
    sample for a search among the sample's own surviving directions,
    which each of the 68 samples of a tube workload pass would run
    (2-core host)."""
    thetas = 2.0 * math.pi * np.arange(n) / n
    i, j = _grid_runs(np.arange(n) + n // 2 - 3, np.arange(n) + n // 2 + 3, n)
    delta = np.mod(thetas[j] - thetas[i], 2.0 * math.pi)
    miss = np.abs(delta - math.pi)
    keep = (j > i) & (miss <= 2.5 * (2.0 * math.pi / n))
    keep &= _chord_distance(r, delta) < s
    order = np.lexsort((j[keep], i[keep], miss[keep]))
    return i[keep][order], j[keep][order]


def _candidates(alive: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray):
    """(sample, pair) of every pair of ``_antipodal_pairs`` whose two
    directions both survive in a sample (a row of alive): sample by
    sample, each sample's pairs in the order they are tried."""
    return np.nonzero(alive[:, pair_i] & alive[:, pair_j])


def _chords_contained(model: str, R: float, r: float, ends: np.ndarray, chord: np.ndarray,
                      t: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Per chord between the points at distance r from (0, 1) in the
    directions ends[c] (shape (chords, 2)), whether it lies in the set of
    the balls of radius R around the points at polar (t[k], psi[k]) with
    chord[k] = c, all in one ``_reaches`` call.  Each chord is read in its
    frame at its foot, h = ``_chord_distance`` out on the bisector m of
    the shorter arc between its ends, delta apart: normal
    ``line_normal(h, m)``, tangent (-cos m, -sin m, 0), and ends
    asinh(sinh r |sin(delta / 2)|) either side.  No cosh of the length,
    which rounds to 1 on short chords, enters, so it holds at any r > 0."""
    delta = ends[:, 1] - ends[:, 0]
    mid = ends[:, 0] + delta / 2.0 + np.where(np.cos(delta / 2.0) < 0.0, math.pi, 0.0)
    half = np.arcsinh(math.sinh(r) * np.abs(np.sin(delta / 2.0)))
    e = np.stack([-np.cos(mid), -np.sin(mid), np.zeros(len(mid))], axis=-1)
    n = line_normal(_chord_distance(r, delta), mid)
    w = polar_hyperboloid(t, psi)
    foot, offset = frame_fermi(minkowski(e[chord], w), minkowski(n[chord], w))
    return _reaches(model, chord, foot + half[chord], offset, R, len(ends)) >= 2.0 * half


def _first_chords(model: str, samples: list[BooleanSample], sample: np.ndarray, ends: np.ndarray,
                  n_dir: int, r: float, s: float) -> np.ndarray:
    """Index of each sample's first contained candidate chord, or -1.
    Candidate c is the chord of sample[c] between the grid directions
    ends[c] (shape (candidates, 2)), sample by sample in the order they
    are tried; each passes within h < s of (0, 1).

    The chords are decided in rounds, each of which takes the next
    candidate of every sample not yet decided, all of them in one
    ``_chords_contained`` call.  The distance to the ray [o, p] toward
    one end p is convex along the half-chord from p to the chord's point
    nearest (0, 1), 0 at p and at most h there, so the chord lies within
    h of its two rays.  A point at distance R + s or more from both rays
    then keeps more than R from the chord, and each chord is measured
    only against its own sample's points within R + s of the geodesic of
    one ray, sinh t |sin(psi - theta)| < sinh(R + s + 1e-9) (a margin
    for rounding).
    """
    R = samples[0].params.radius
    which, t, psi = _joined(samples, "t", "psi")
    # each sample's points, and the bounds of its candidates
    points = np.searchsorted(which, np.arange(len(samples) + 1))
    starts = np.searchsorted(sample, np.arange(len(samples) + 1))
    first = np.full(len(samples), -1)
    todo = np.flatnonzero(starts[1:] > starts[:-1])
    cand = starts[todo]
    while len(todo):
        rays = 2.0 * math.pi * ends[cand] / n_dir
        chord, k = _runs(points[todo], points[todo + 1] - 1)
        _, normal = polar_frame(t[k, None], psi[k, None] - rays[chord])
        near = (np.abs(normal) < math.sinh(R + s + 1e-9)).any(axis=1)
        k = k[near]
        ok = _chords_contained(model, R, r, rays, chord[near], t[k], psi[k])
        first[todo[ok]] = cand[ok]
        todo, cand = todo[~ok], cand[~ok] + 1
        left = cand < starts[todo + 1]
        todo, cand = todo[left], cand[left]
    return first


def detect_line_through_ball(
    model: str,
    params: ModelParams,
    s: float,
    r: float,
    samples: int,
    rng: RngStream,
    n_directions: int = 360,
) -> list[LineDetection]:
    """Search, in samples realizations (drawn and decided as by
    ``surviving_directions``), for a full chord through B(o, s) certified
    by two surviving rays in nearly antipodal directions: each sample's
    candidates are the pairs of ``_antipodal_pairs``, built once per
    call, whose two directions survive (``_candidates``, one gather per
    group), tried in that order, and the first whose chord between the
    far endpoints is contained is the witness (``_first_chords``, in
    rounds over the group).  For lines that is the first pair: a line
    that strictly separates the ends p and q puts one of them on the
    side away from (0, 1), so it crosses that end's ray, and no line
    crosses a surviving ray.

    Over 20 passes of the tube workload's detect-line runs (68 samples a
    pass; one seed, 2-core host) the ray survivors took about half of
    the time, the chord rounds a sixth, the draws 8%, and the pairs with
    their gathers 7%."""
    if not 0.0 < s < math.inf:
        raise ValueError("the chord certificate's ball radius s must be positive and finite")
    # the chords between the rays' ends lie in B(o, r) as well
    groups = _ray_groups(model, params, r, n_directions, samples, rng)
    pair_i, pair_j = _antipodal_pairs(n_directions, r, s)
    found = []
    for group, alive in groups:
        sample, pair = _candidates(alive, pair_i, pair_j)
        ends = np.stack([pair_i[pair], pair_j[pair]], axis=1)
        if model == "lines":
            first = np.full(len(group), -1)
            head = np.flatnonzero(np.diff(sample, prepend=-1))
            first[sample[head]] = head
        else:
            first = _first_chords(model, group, sample, ends, n_directions, r, s)
        for c, mask in zip(first.tolist(), alive):
            witness = None if c < 0 else tuple(ends[c].tolist())
            found.append(LineDetection(witness is not None, witness, int(np.count_nonzero(mask))))
    return found


def _chord_distance(r: float, delta: np.ndarray) -> np.ndarray:
    """Distance h from (0, 1) to the chord between the points at distance
    r in directions delta apart.  In the Klein model centred at (0, 1)
    the chord is straight, at Euclidean distance tanh r |cos(delta / 2)|.
    Within 2e-16 (h + sinh 2h) of the exact h at the given r and delta:
    the product carries a few units of relative rounding, which arctanh
    multiplies by sinh h cosh h.  Where the product rounds to 1 (from
    r = 19.06 on, for delta near 0) h is inf."""
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
    mean = sampling._expected_per_trial(lam * ball_area(R), "points")
    gen = rng.generator()
    counts = gen.poisson(mean, trials)
    # Fermi coordinates along gamma, the geodesic through (0, 1) in direction 0
    u, offset = frame_fermi(*polar_frame(*ball_polar(R, int(counts.sum()), gen)))
    u_plus = u + _half_width(R, offset)
    nonempty = counts > 0
    starts = (np.cumsum(counts) - counts)[nonempty]
    s_vals = np.minimum.reduceat(u_plus, starts) if len(starts) else np.empty(0)
    return SDistResult(np.sort(s_vals), trials, 1.0 - float(nonempty.mean()))


# ---------------------------------------------------------------------------
# the tube sandwich P(Q) <= f <= P(A)

def _lines_tube_events(samples: list[LineSample], net_x: np.ndarray, net_y: np.ndarray):
    """(A, f, Q), one bool array each, of the line realizations samples
    for the tube whose end nets net_x and net_y (hyperboloid vectors)
    start with the end centres.

    The tube is convex, so two of its points are joined off the lines
    iff no line separates them, that is iff their rows of signs of
    ``sides`` are equal.  f joins the end centres and Q every point of
    both nets, so each is counted per trial over its lines by
    ``bincount``; A, some point of each net, compares the row sets of
    the trials where f fails.  Every line's sides are taken once.
    """
    trial, foot_dist, foot_dir = _joined(samples, "foot_dist", "foot_dir")
    lines = LineSample(samples[0].intensity, samples[0].window_radius, foot_dist, foot_dir)
    pos_x, pos_y = lines.sides(net_x) > 0.0, lines.sides(net_y) > 0.0
    both = np.concatenate([pos_x, pos_y])
    f_ok = np.bincount(trial[pos_x[0] != pos_y[0]], minlength=len(samples)) == 0
    q_ok = np.bincount(trial[both.any(axis=0) & ~both.all(axis=0)], minlength=len(samples)) == 0
    a_ok = f_ok.copy()
    bounds = np.searchsorted(trial, np.arange(len(samples) + 1))
    for t in np.flatnonzero(~f_ok):
        rows_x, rows_y = pos_x[:, bounds[t]:bounds[t + 1]], pos_y[:, bounds[t]:bounds[t + 1]]
        a_ok[t] = bool({row.tobytes() for row in rows_x} & {row.tobytes() for row in rows_y})
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


def _trials_of(mask: np.ndarray, trial: np.ndarray, u: np.ndarray, y: np.ndarray):
    """The points (u, y) of the trials where mask holds, as (trial, u, y,
    n) with those n trials numbered 0, 1, ... in order."""
    keep = mask[trial]
    return (np.cumsum(mask) - 1)[trial[keep]], u[keep], y[keep], int(np.count_nonzero(mask))


def _q_by_margin(model: str, trial, u, y, n: int, half_d: float, R: float, s: float) -> np.ndarray:
    """Per trial of n, True when the central segment, over feet [-half_d,
    half_d], lies in the set for balls of radius R + s (vacant) or R - s
    (occupied) around the trial's points, point k of trial[k] at axis
    coordinates (u[k], y[k]): then Q holds (``sandwich_AQ`` gives the
    argument), and False leaves it undecided.  The net's points keep
    short of radius s, so the margin exceeds rounding."""
    grow = s if model == "vacant" else -s
    return _reaches(model, trial, u + half_d, y, R + grow, n) >= 2.0 * half_d


def _net_width(u: np.ndarray, half_d: float, s: float) -> np.ndarray:
    """Bound on the offset from the axis of every point at axis foot u of
    a segment whose ends lie within s of the end centres gamma(-+half_d).

    Along a geodesic tanh v = a cosh u + b sinh u, and the ends have
    |v| <= s at feet beyond -+(half_d - s), which bounds tanh |v| by
    tanh s cosh u / cosh(half_d - s) for |u| <= half_d - s.  Further out
    the segment keeps within s of the central segment (the distance to
    it is convex along the segment), so |v| <= s up to the end feet and
    cosh v <= cosh s / cosh(|u| - half_d) beyond them."""
    inner = half_d - s
    a = np.abs(u)
    mid = np.arctanh(math.tanh(s) * np.cosh(np.minimum(a, inner)) / math.cosh(inner))
    cap = np.arccosh(np.maximum(math.cosh(s) / np.cosh(np.maximum(a - half_d, 0.0)), 1.0))
    return np.where(a <= inner, mid, np.where(a <= half_d, s, cap))


def _q_by_columns(model: str, trial, u, y, n: int, feet, half_d: float, R: float,
                  s: float) -> np.ndarray:
    """Per trial of n, True when every column {(feet[m], v) : |v| <= w_m}
    lies in the set for balls of radius R + eps (vacant) or R - eps
    (occupied) around the trial's points, point k of trial[k] at axis
    coordinates (u[k], y[k]): then Q holds, and False leaves it
    undecided.  The feet are the grid's, at most s / 8 apart, and w_m is
    ``_net_width`` at the worst foot within s / 16 of feet[m].

    Each point (u, v) of a net segment has a foot feet[m] within s / 16
    and |v| <= w_m, so it lies within eps of the column point (feet[m], v),
    cosh eps = 1 + cosh^2 s (cosh(s / 16) - 1), and a ball of radius R + eps
    that misses the column (or one of R - eps that covers it) keeps it in
    the set.  eps is about s / 16, far above rounding.  A point's Fermi
    coordinates along a column come from frame_fermi(sinh y, cosh y
    sinh(u - feet[m])), measured only on the columns whose geodesic it
    comes within R -+ eps of, and all trials' columns from one
    ``_reaches`` call, segment trial * columns + m."""
    half_step = s / 16.0
    eps = math.acosh(1.0 + math.cosh(s) ** 2 * (math.cosh(half_step) - 1.0))
    radius = R + (eps if model == "vacant" else -eps)
    cols = len(feet)
    a = np.abs(feet)
    widths = _net_width(np.minimum(np.maximum(a - half_step, half_d), a + half_step), half_d, s)
    # a point comes within radius of the column's geodesic iff
    # cosh y |sinh(u - foot)| < sinh(radius); one spare column each side
    cosh_y = np.cosh(y)
    span = np.arcsinh(math.sinh(radius) / cosh_y)
    step = feet[1] - feet[0]
    lo = np.maximum(np.floor((u - span - feet[0]) / step).astype(np.int64) - 1, 0)
    hi = np.minimum(np.ceil((u + span - feet[0]) / step).astype(np.int64) + 1, cols - 1)
    k, m = _runs(lo, hi)
    along, offset = frame_fermi(np.sinh(y)[k], cosh_y[k] * np.sinh(u[k] - feet[m]))
    ends = _reaches(model, trial[k] * cols + m, along + widths[m], offset, radius, n * cols)
    return (ends.reshape(n, cols) >= 2.0 * widths).all(axis=1)


def _cut_columns(model: str, trial, u, y, n: int, feet, R: float, s: float) -> np.ndarray:
    """Per trial of n, True when some grid column's axis point lies strictly
    within R - s of a point (vacant) or at least R + s from every point
    (occupied): that column is closed in every cell (``sandwich_AQ``
    gives the argument); False leaves A undecided.  Point k of trial[k]
    at axis coordinates (u[k], y[k]) lies within R -+ s of the column
    over feet[c] iff cosh(u[k] - feet[c]) cosh y[k] < cosh(R -+ s), one
    (points, columns) product, reduced per trial by one call.  The cut
    only certifies, with slack s, so a tie at rounding cannot change A."""
    cosh_dist = np.cosh(u[:, None] - feet)
    cosh_dist *= np.cosh(y)[:, None]
    if model == "vacant":
        near = cosh_dist < math.cosh(max(R - s, 0.0))
        return np.bincount(trial[near.any(axis=1)], minlength=n) > 0
    covered = np.zeros((n, len(feet)), dtype=bool)
    np.logical_or.at(covered, trial, cosh_dist < math.cosh(R + s))
    return ~covered.all(axis=1)


def _run_ids(cells: np.ndarray) -> np.ndarray:
    """Number the maximal runs of True cells along each row of cells
    1, 2, ... in row-major order.  Every cell gets the number of the last
    run that starts at or before it, so the cells of one run share it."""
    starts = cells.copy()
    starts[:, 1:] &= ~cells[:, :-1]
    return np.cumsum(starts).reshape(cells.shape)


def _flood_connected(open_grid, start_cells, end_cells) -> bool:
    """Whether a 4-connected path of open cells joins an open start cell
    to an open end cell.

    A reachability sweep: each open cell carries the id of its maximal
    run of open cells along the feet (the grid's first axis) and across
    them (``_run_ids``).  A round marks every run along the feet that
    holds a reached cell, then every run across them, and reaches all
    their cells.  The rounds stop when an end cell is reached or a round
    reaches no new cell, the reached cells being then the components of
    the start cells.  Each round costs a few passes over the grid and
    crosses at least one turn of every path it extends, so the rounds
    number about the turns of the path with fewest turns.  On the grids
    of 657 x 17 cells that the tube workload floods, a call takes about
    0.28 ms (at most 3 rounds), against 0.23 ms for ``scipy.ndimage.label``
    on a 2-core host; on random grids of open density 0.3-0.8, whose
    paths turn often, about 2.4 ms (up to 110 rounds) against 0.34 ms.
    """
    open_cells = open_grid.ravel()
    reached = (start_cells & open_grid).ravel()
    end = (end_cells & open_grid).ravel()
    runs = (_run_ids(open_grid.T).T.ravel(), _run_ids(open_grid).ravel())
    count = 0
    while np.count_nonzero(reached) > count:
        count = np.count_nonzero(reached)
        for ids in runs:
            hit = np.zeros(open_cells.size + 1, dtype=bool)
            hit[ids[reached]] = True
            reached = hit[ids] & open_cells
        if (reached & end).any():
            return True
    return False


def _tube_grid(half_d: float, s: float):
    """The sandwich's flood-fill grid of mesh s / 8 over the s-tube around
    the axis feet [-half_d, half_d], in axis coordinates: (feet, offs,
    in_region, start_cells, end_cells), the masks indexed [foot, offset].
    The region is the tube, capped by the balls of radius s around the
    end centres; the start and end cells lie strictly within s of them.

    A cell's distance to an end centre, arccosh(cosh(t -+ d/2) cosh v),
    is taken only on the rows within 2s of that end's foot: every other
    row keeps at least 2s from it, so it lies in the tube and in neither
    end.  A comparison of cosh(t -+ d/2) cosh v with cosh s instead of
    the arccosh would flip cells at rounding ties (2-4 cells at d = 4,
    s = 0.02 and 0.05)."""
    mesh = s / 8.0
    n_t = int(math.ceil((2.0 * half_d + 2.0 * s) / mesh)) + 1
    n_v = 2 * int(math.ceil(s / mesh)) + 1
    feet, offs = np.linspace(-half_d - s, half_d + s, n_t), np.linspace(-s, s, n_v)
    in_region = np.ones((n_t, n_v), dtype=bool)
    ends = np.zeros((2, n_t, n_v), dtype=bool)
    for cells, end in zip(ends, (-half_d, half_d)):
        rows = np.abs(feet - end) < 2.0 * s
        d_end = np.arccosh(np.maximum(np.cosh(feet[rows] - end)[:, None] * np.cosh(offs), 1.0))
        # the cap: the cells beyond the end's foot lie within s of its centre
        beyond = (feet[rows] < end) if end < 0.0 else (feet[rows] > end)
        in_region[rows] = ~beyond[:, None] | (d_end <= s)
        cells[rows] = d_end < s
    return feet, offs, in_region, in_region & ends[0], in_region & ends[1]


def _end_nets(half_d: float, s: float):
    """Hyperboloid vectors of the nets of the balls of radius s around the
    tube's end centres gamma(-+half_d), centres first: the net of B(o, s)
    with spacing 0.999 s / 4, moved along the axis."""
    net = polar_around_origin(*ball_net(s, 0.999 * s / 4.0))
    return to_hyperboloid(math.exp(-half_d) * net), to_hyperboloid(math.exp(half_d) * net)


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

    Trials are drawn and decided per group of ``_ball_groups``, alike at
    any group size.  Boolean groups: f in one ``_reaches`` call, then two
    margins on the central segment, which settle most trials.  Q: each net
    segment joins points within s of x and y, and the distance to the
    central segment is convex along it, so it lies within s of that
    segment; Q then holds if the central segment lies in the set for balls
    of radius R + s (vacant) or R - s (occupied), and the net is not
    measured (``_q_by_margin``).  A Q that the margin leaves goes to the
    net's cross-sections: at each grid foot, the segment across the axis
    that holds every net segment's points at that foot, within the width
    ``_net_width``; if those segments lie in the set for balls of radius
    R + eps (vacant) or R - eps (occupied), with eps the farthest a net
    point lies from its nearest cross-section, Q holds
    (``_q_by_columns``).  A: start cells have feet below -d/2 + s and end
    cells above d/2 - s, so every 4-connected path between them crosses
    each grid column with foot in [-d/2 + s, d/2 - s], and such a column's
    cells lie within s of its axis point; A then fails if one of those
    axis points lies strictly within R - s of a point (vacant) or at least
    R + s from every point (occupied), and no flood fill runs
    (``_cut_columns``).  These conditions are sufficient only; each trial
    they leave undecided runs the net or the flood fill on its own, so the
    results are those of the full checks.

    Over 20 passes of the tube workload's Boolean sandwiches (2000
    vacant and 200 occupied trials; one seed, under cProfile on a 2-core
    host) the margins left 97 trials to the flood fill
    (``_flood_connected`` with ``_blocked_cells``, 19% of the
    sandwiches' time) and 92 to the certificate (53 calls, 6%), which
    settled 27 of them.  Of the 65 trials left to the Q net (4356
    segments against about 20 points; 17%), 60 failed in the net's first
    chunk and 5 held; without the certificate and the chunks, all 92 ran
    the whole net, 47% of the time.  The grid took 8%, the column cut 6%
    and the end nets, built only by the 40 of 140 calls that reach the
    Q net, 3%.  Dropping the Q margin and leaving every Q to the
    certificate made the workload's occupied sandwich 1.6 times slower
    in the median, so the margin stays.

    Lines groups: every line's sides on both end nets are taken once, f
    and Q count per trial the lines that split the centres or a net
    (``_lines_tube_events``).
    """
    d = dist(x, y)
    if d < 4.0:
        raise ValueError("the tube estimates need d(x, y) >= 4")
    if not 0.0 < s <= 0.05:
        raise ValueError("tube radius s must lie in (0, 0.05]")
    half_d = d / 2.0
    # the tube lies in B(o, d/2 + s): only the lines meeting that ball and
    # the points within R of it can reach it
    groups = _ball_groups(model, params, half_d + s, trials, rng)
    events = []
    if model == "lines":
        hx, hy = _end_nets(half_d, s)
        for group in groups:
            events += zip(*(ok.tolist() for ok in _lines_tube_events(group, hx, hy)))
    else:
        R = params.radius
        q_net = None  # the segments of the Q net, built for the first trial that runs it
        feet, offs, in_region, start_cells, end_cells = _tube_grid(half_d, s)
        # every path from the start to the end cells crosses these columns
        mid_feet = feet[np.abs(feet) <= half_d - s]
        for group in groups:
            n = len(group)
            trial, t, psi = _joined(group, "t", "psi")
            # Fermi coordinates along the axis from the tube's centre, as the grid's
            u, y = frame_fermi(*polar_frame(t, psi))
            f_ok = _reaches(model, trial, u + half_d, y, R, n) >= d
            # the net and the grid lie within s of the central segment
            near = _within_segment(u, y, half_d, R + s)
            trial, t, psi, u, y = trial[near], t[near], psi[near], u[near], y[near]
            bounds = np.searchsorted(trial, np.arange(n + 1))
            q_ok, a_ok = f_ok.copy(), f_ok.copy()
            q_ok[f_ok] = _q_by_margin(model, *_trials_of(f_ok, trial, u, y), half_d, R, s)
            left = f_ok & ~q_ok
            if left.any():
                q_ok[left] = _q_by_columns(model, *_trials_of(left, trial, u, y), feet, half_d,
                                           R, s)
            cut = _cut_columns(model, *_trials_of(~f_ok, trial, u, y), mid_feet, R, s)
            for i in np.flatnonzero(f_ok & ~q_ok):
                if q_net is None:
                    hx, hy = _end_nets(half_d, s)
                    q_net = np.repeat(hx, len(hy), axis=0), np.tile(hy, (len(hx), 1))
                k = slice(bounds[i], bounds[i + 1])
                q_ok[i] = _net_contained(*q_net, polar_hyperboloid(t[k], psi[k]), R, model)
            for i in np.flatnonzero(~f_ok)[~cut]:
                k = slice(bounds[i], bounds[i + 1])
                blocked = _blocked_cells(feet, offs, u[k], y[k], R)
                open_grid = (blocked if model == "occupied" else ~blocked) & in_region
                a_ok[i] = _flood_connected(open_grid, start_cells, end_cells)
            events += zip(a_ok.tolist(), f_ok.tolist(), q_ok.tolist())
    n_A, n_f, n_Q = (sum(col) for col in zip(*events))
    return SandwichResult(n_A / trials, n_f / trials, n_Q / trials, trials)
