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
sandwich draw exactly the ball that can reach them (for lines rays only
the lines that cross a grid ray, ``_grid_lines``), a block of samples a
draw split into samples by their counts (``_sample_groups``), and
decide the consecutive samples of a block in groups (n, owner, sample):
one sample holding the points or lines of all n, owner each one's
sample index.  They measure each ray, chord or grid cell only against
the points that can reach it; the sandwich decides its flood-fill grid
in its tube's axis coordinates.  A group of rays goes through one
``_grid_runs``, ``frame_fermi`` and ``_reaches`` pass, sample i's
direction k as segment i n + k.
Detect-line keeps its candidate pairs per process and decides a group's
rays lazily, in rounds over growing prefixes of the pairs, only the
directions that a round's pairs name, only for the samples without a
witness yet; within a round it decides the Boolean chords in rounds of
their own, the next candidate of every undecided sample a round, all in
one ``_reaches`` call.  The sandwich brackets f between a certified Q
and a one-sided A (``sandwich_AQ`` gives the arguments).  Its Boolean
groups decide f and a margin on the central segment that settles Q for
most trials, each in one ``_reaches`` call, then the cross-section
certificate on the trials that the margin leaves, in another; a Q that
neither settles is false.  Where f fails, a column cut, one (points,
columns) cosh test, refuses most A, and only the trials it leaves run
the flood fill, one at a time.  The lines sandwich reads its three
events off each line's sides at the two end centres, a group at once.

Every path reads the polar coordinates (t, psi) around (0, 1) that a
``BooleanSample`` was drawn in as they are, with no trip through the
upper half-plane: as Fermi coordinates along a geodesic through (0, 1)
by ``geometry.polar_frame`` and ``frame_fermi`` (the ray survivors, the
law of S, the sandwich's groups, ``estimate_f``'s end caps), or as
hyperboloid vectors by ``geometry.polar_hyperboloid`` (chords,
``segment_in``).  ``_grid_runs`` maps every arc of directions onto
the direction grid.  One predicate, ``segment_in``, decides a single
segment [p, q] against a sample, the Boolean models through
``_reaches`` and the lines through ``_lines_avoid``; the tests
check every other path against it on the same realization.
"""

from __future__ import annotations

import atexit
import math
import threading
from dataclasses import dataclass, field
from functools import cache, partial
from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np

from . import sampling
from .geometry import (
    HPoint,
    ORIGIN,
    ball_area,
    dist,
    frame_fermi,
    line_normal,
    minkowski,
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
    phi_ball,
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
    foot, perp = segment_point_distance(pq[:1], pq[1:], w)
    length = np.arccosh(np.maximum(-minkowski(pq[:1], pq[1:]), 1.0))
    return bool(_reaches(model, np.zeros(len(w), dtype=np.int64), foot[0], perp[0], R, 1) >= length)


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
    if not isinstance(trials, Integral) or trials < 100:
        raise ValueError("trials must be an integer of at least 100")
    rs = np.sort(np.asarray(r_values, dtype=float))
    if rs.size == 0:
        raise ValueError("need at least one r value")
    if not 0.0 <= rs[0] <= rs[-1] < math.inf:
        raise ValueError("r values must be nonnegative and finite")
    lam, R = params.intensity, params.radius if model == "lines" else params.ball_radius
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


# Rays, detect-line and the sandwich decide a block's samples in groups
# (``_group_cuts``).  Medians of 15 interleaved calls, in process, 2-core
# host: at GROUP_POINTS 1024, 4096, 16384 and 65536, 1000 vacant sandwich
# trials took 16.2, 15.0, 14.2 and 13.2 ms, 100 occupied ones 13.4, 11.9,
# 11.2 and 11.3 ms.  The tube workload's fit one group at 1024, and the
# column cut's (points, columns) array takes 41 MB at 8192 points.
GROUP_POINTS = 1024
# A rays group's points or lines times its n directions (n / 8 for
# detect-line) stay within RAY_PAIRS.  At 2^17 to 2^21, 16 occupied
# samples at 64 directions took 4.21, 3.00, 2.70, 2.61 and 2.48 ms, and
# detect-line on 16 at 360 directions 8.88, 7.51, 6.97, 6.39 and 6.43 ms.
RAY_PAIRS = 1 << 19
# Points or lines that a block of samples, drawn at once, expects together.
LINE_BLOCK = 1 << 15


def _group_cuts(counts: np.ndarray, budget: int):
    """(n, owner, elements) of each run of consecutive samples, of counts[i]
    points or lines each, that stay within budget together, a sample at
    or above it alone: n samples, each element's sample in the run, and
    the slice of its elements."""
    bounds, size = [0], 0
    for i, count in enumerate(counts.tolist()):
        if i > bounds[-1] and size + count > budget:
            bounds.append(i)
            size = 0
        size += count
    ends = np.concatenate([[0], np.cumsum(counts)])
    for a, b in zip(bounds, bounds[1:] + [len(counts)]):
        yield b - a, np.repeat(np.arange(b - a), counts[a:b]), slice(ends[a], ends[b])


def _sample_groups(model: str, params: ModelParams, rho: float, samples: int,
                   gen: np.random.Generator, budget: int):
    """samples realizations of the points in B(o, rho), or of the lines
    meeting it, as the groups (n, owner, sample) of ``_group_cuts``.  A
    block of m, as many as expect at most LINE_BLOCK together, is one draw
    at m times the intensity, cut into consecutive runs by a multinomial
    draw of their counts.  Given their number the drawn elements are
    i.i.d., so the runs are independent Poisson processes (Poisson
    splitting).  A realization above MAX_TRIAL_POINTS is refused."""
    lam = params.intensity
    mean = lam * (phi_ball(rho) if model == "lines" else ball_area(rho))
    block = max(1, int(LINE_BLOCK // max(mean, 1.0)))
    for lo in range(0, samples, block):
        m = min(block, samples - lo)
        if model == "lines":
            drawn = sample_lines(m * lam, rho, gen)
            fields, make = (drawn.foot_dist, drawn.foot_dir), partial(LineSample, lam, rho)
        else:
            drawn = sample_points(ModelParams(m * lam, params.radius), rho, gen)
            fields, make = (drawn.t, drawn.psi), partial(BooleanSample, params, rho)
        counts = gen.multinomial(len(drawn), np.full(m, 1.0 / m))
        for n, owner, elements in _group_cuts(counts, budget):
            yield n, owner, make(*(field[elements] for field in fields))


# Longest lines rays, the longest that the tests gate.  A narrow line marks
# its ray directly: rounding (phi -+ beta) / h left 5, 55 and 1144 of 1.7e6
# lines blocking no ray at r = 30, 33 and 36.
LINES_MAX_R = 25.0


def _half_arc(p: np.ndarray, r: float) -> np.ndarray:
    """Half-width beta of the arc of directions whose ray of length r from
    (0, 1) crosses the line at foot distance p < r, cos beta = tanh p /
    tanh r, as sin^2(beta / 2) = sinh(r - p) / (2 sinh r cosh p): no
    cancellation near p = r and no overflow."""
    q = np.exp(-p)
    ratio = np.expm1(2.0 * (p - r)) / math.expm1(-2.0 * r)
    return 2.0 * np.arcsin(q * np.sqrt(ratio / (1.0 + q * q)))


def _grid_lines(lam: float, r: float, n_dir: int, samples: int, gen: np.random.Generator,
                budget: int):
    """samples realizations, on B(o, r), of the lines that cross a ray of
    length r on the grid of n_dir directions h apart: foot (p, phi) with
    phi within ``_half_arc`` beta(p) of a grid angle.  Their intensity
    (lam / 2) n_dir min(h, 2 beta) cosh p dp is drawn by thinning the
    envelope (lam / 2) n_dir min(h cosh p, pi), which dominates because
    2 beta cosh p <= pi; phi is uniform where 2 beta >= h, else k h +
    beta (2 V - 1) with k uniform.  Each quantity is drawn once per block
    of samples expecting at most LINE_BLOCK lines, and the groups of
    ``_group_cuts`` within budget come as (n, owner, sample, ray): ray is
    each narrow line's k, the one grid ray it crosses, and -1 for the
    others."""
    h = 2.0 * math.pi / n_dir
    knee = min(math.acosh(n_dir / 2.0), r)  # where h cosh p reaches pi
    head, flat = math.sinh(knee), n_dir / 2.0 * (r - knee)
    mean = sampling._expected_per_trial(lam * math.pi * (head + flat), "lines")
    block = max(1, int(LINE_BLOCK // max(mean, 1.0)))
    for lo in range(0, samples, block):
        counts = gen.poisson(mean, min(block, samples - lo))
        x = gen.random(counts.sum()) * (head + flat)
        p = np.where(x < head, np.arcsinh(x), knee + (x - head) / (n_dir / 2.0))
        beta, cosh_p = _half_arc(p, r), np.cosh(p)
        envelope = np.minimum(h * cosh_p, math.pi)
        keep = gen.random(len(p)) * envelope < np.minimum(h, 2.0 * beta) * cosh_p
        p, beta = p[keep], beta[keep]
        k, v = gen.integers(n_dir, size=len(p)), gen.random(len(p))
        wide = 2.0 * beta >= h
        phi = np.where(wide, 2.0 * math.pi * v, k * h + beta * (2.0 * v - 1.0))
        ray = np.where(wide, -1, k)
        owner = np.repeat(np.arange(len(counts)), counts)[keep]
        for n, group, lines in _group_cuts(np.bincount(owner, minlength=len(counts)), budget):
            yield n, group, LineSample(lam, r, p[lines], phi[lines]), ray[lines]


def _dead_at_origin(model: str, n: int, owner: np.ndarray, sample) -> np.ndarray:
    """Per sample of the group (n, owner, sample), whether (0, 1) itself
    lies outside the set, so that no ray from it survives: a point
    strictly within R - 1e-9 of it (vacant), or none within R + 1e-9
    (occupied).  The margins keep rounding ties with the ray kernel's own
    verdict out.  No line passes through (0, 1)."""
    if model == "lines":
        return np.zeros(n, dtype=bool)
    R = sample.params.radius
    if model == "vacant":
        return np.bincount(owner[sample.t < R - 1e-9], minlength=n) > 0
    return np.bincount(owner[sample.t <= R + 1e-9], minlength=n) == 0


def _boolean_ray_survivors(n: int, owner: np.ndarray, sample: BooleanSample, r: float,
                           n_dir: int, model: str):
    """The rays of length r from (0, 1) on the grid, per sample of the
    group (n, owner, sample), as a function survive(want): given a mask
    (n, n_dir) of the rays to decide, default all, it returns the mask of
    those among them that lie in the set; sample i's direction k is the
    kernel's segment i n_dir + k.  Each point's run of directions is built
    once, and each call measures only the runs of wanted rays, so
    detect-line can decide its rays a few directions at a time.

    A point at polar (t, psi) with t > R keeps more than R from (0, 1),
    so it can come within R only of the rays that run toward it, in the
    directions theta with |theta - psi| < beta, sin beta = sinh R / sinh t.
    Such a point is measured on the grid directions of that arc, a point
    with t <= R + 1e-9 on every one, where sinh t |sin(psi - theta)| <
    sinh(R + 1e-9); the arc is widened past every |psi - theta| <= pi / 2
    at which that rounded test holds, so ties at distance R are decided
    as by measuring every pair.
    """
    R = sample.params.radius
    sample.require_window(r + R, "ray survival")
    h = 2.0 * math.pi / n_dir
    thetas = 2.0 * math.pi * np.arange(n_dir) / n_dir
    t, psi = sample.t, sample.psi
    reach = math.sinh(R + 1e-9)
    beta = np.arcsin(np.minimum(reach * (1.0 + 1e-12) / np.maximum(np.sinh(t), reach), 1.0)) + 1e-12
    # each point's run [lo, hi] of direction indices
    lo = np.ceil((psi - beta) / h).astype(np.int64)
    hi = np.floor((psi + beta) / h).astype(np.int64)
    lo[t <= R + 1e-9], hi[t <= R + 1e-9] = 0, n_dir - 1
    j, k = _grid_runs(lo, hi, n_dir)
    seg = owner[j] * n_dir + k

    def survive(want=None):
        run = slice(None) if want is None else want.ravel()[seg]
        jr, kr = j[run], k[run]
        along, normal = polar_frame(t[jr], psi[jr] - thetas[kr])
        near = np.abs(normal) < reach
        foot, offset = frame_fermi(along[near], normal[near])
        ok = _reaches(model, seg[run][near], foot, offset, R, n * n_dir) >= r
        return ok.reshape(-1, n_dir) if want is None else ok.reshape(want.shape) & want

    return survive


def _line_ray_survivors(n: int, owner: np.ndarray, sample: LineSample, ray: np.ndarray,
                        r: float, n_dir: int):
    """The rays of length r from (0, 1) on the grid, per sample of the
    group (n, owner, sample), as the function survive(want) of
    ``_boolean_ray_survivors``: the radial segments that miss every line.

    The line at foot (p, phi) blocks the arc of directions theta with
    cos(theta - phi) > tanh p / tanh r, that is the grid directions k
    with |k h - phi| <= beta, ``_half_arc`` beta(p).  A line with ray >= 0
    lies within beta < h / 2 of grid angle ray h (``_grid_lines``), so it
    blocks that ray alone, marked with no rounding.
    """
    sample.require_window(r, "ray survival")
    h = 2.0 * math.pi / n_dir
    narrow = ray >= 0
    arc = (sample.foot_dist < r) & ~narrow
    beta = _half_arc(sample.foot_dist[arc], r)
    lo = np.ceil((sample.foot_dir[arc] - beta) / h).astype(np.int64)
    hi = np.floor((sample.foot_dir[arc] + beta) / h).astype(np.int64)
    line, k = _grid_runs(lo, hi, n_dir)
    blocked = np.concatenate([owner[arc][line] * n_dir + k, owner[narrow] * n_dir + ray[narrow]])

    def survive(want=None):
        alive = np.ones(n * n_dir, dtype=bool) if want is None else want.ravel().copy()
        alive[blocked] = False
        return alive.reshape(-1, n_dir)

    return survive


def _ray_groups(model: str, params: ModelParams, r: float, n_dir: int, samples: int,
                rng: RngStream, dirs: int):
    """The groups (n, owner, sample) of samples realizations of what can
    reach the rays of length r from (0, 1) on the grid, drawn from
    rng.generator() (``_sample_groups``, ``_grid_lines``), each with its
    ray kernel survive(want); a group's points or lines times dirs stay
    within RAY_PAIRS.  The count, the model, the ray length (for lines at
    most LINES_MAX_R) and the grid are checked before any draw."""
    if not isinstance(samples, Integral) or samples < 0:
        raise ValueError("samples must be an integer of at least 0")
    if not 0.0 < r < math.inf:
        raise ValueError("ray length r must be positive and finite")
    # with fewer, detect-line's seven antipodal partners of a direction repeat
    if not isinstance(n_dir, Integral) or n_dir < 8:
        raise ValueError("need at least 8 directions, a whole number")
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    if model == "lines" and r > LINES_MAX_R:
        raise ValueError(f"lines rays need ray length r (--r) at most {LINES_MAX_R:g}")
    gen = rng.generator()
    budget = max(1, RAY_PAIRS // dirs)
    if model == "lines":
        groups = _grid_lines(params.intensity, r, n_dir, samples, gen, budget)
        return ((group[:3], _line_ray_survivors(*group, r, n_dir)) for group in groups)
    groups = _sample_groups(model, params, r + params.ball_radius, samples, gen, budget)
    return ((group, _boolean_ray_survivors(*group, r, n_dir, model)) for group in groups)


def surviving_directions(
    model: str,
    params: ModelParams,
    r: float,
    n_directions: int,
    samples: int,
    rng: RngStream,
) -> list[RaySurvival]:
    """Ray survival on a uniform direction grid: samples realizations,
    drawn a block at a time from ``rng.generator()`` and decided per
    group of consecutive ones (``_ray_groups``)."""
    groups = _ray_groups(model, params, r, n_directions, samples, rng, n_directions)
    return [RaySurvival(np.flatnonzero(mask).tolist()) for _, survive in groups
            for mask in survive()]


@cache
def _antipodal_pairs(n: int, r: float, s: float):
    """The pairs i < j of the grid of n directions within 2.5 steps of
    antipodal whose chord at distance r passes within s of (0, 1), as two
    arrays, closest to antipodal first, ties in order of (i, j).  Only
    the partners i + n//2 - 3 ... i + n//2 + 3 (mod n) of i can be that
    close.  A sample's candidates are these pairs whose two directions
    both survive, in this order (``_candidates``), so the pairs are built
    once per process for each (n, r, s), as read-only arrays: 0.2-0.3 ms
    at n = 360, against 0.1-0.2 ms per sample for a search among the
    sample's own surviving directions (2-core host)."""
    thetas = 2.0 * math.pi * np.arange(n) / n
    i, j = _grid_runs(np.arange(n) + n // 2 - 3, np.arange(n) + n // 2 + 3, n)
    delta = np.mod(thetas[j] - thetas[i], 2.0 * math.pi)
    miss = np.abs(delta - math.pi)
    keep = (j > i) & (miss <= 2.5 * (2.0 * math.pi / n))
    keep &= _chord_distance(r, delta) < s
    order = np.lexsort((j[keep], i[keep], miss[keep]))
    pair_i, pair_j = i[keep][order], j[keep][order]
    pair_i.flags.writeable = pair_j.flags.writeable = False
    return pair_i, pair_j


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


def _first_chords(model: str, todo: np.ndarray, owner: np.ndarray, sample: BooleanSample,
                  row: np.ndarray, ends: np.ndarray, n_dir: int, r: float, s: float) -> np.ndarray:
    """Index of the first contained candidate chord of each sample of the
    group (owner, sample) where the mask todo holds, or -1.  Candidate c
    is the chord of the row[c]-th of those samples between the grid
    directions ends[c] (shape (candidates, 2)), sample by sample in the
    order they are tried; each passes within h < s of (0, 1).

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
    R = sample.params.radius
    which, t, psi, n = _trials_of(todo, owner, sample.t, sample.psi)
    # each sample's points, and the bounds of its candidates
    points = np.searchsorted(which, np.arange(n + 1))
    starts = np.searchsorted(row, np.arange(n + 1))
    first = np.full(n, -1)
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


# The prefixes of the candidate pairs whose directions detect-line's
# rounds decide in turn, the last round taking the rest (see
# ``detect_line_through_ball``).
PAIR_ROUNDS = (8, 64)


def detect_line_through_ball(
    model: str,
    params: ModelParams,
    s: float,
    r: float,
    samples: int,
    rng: RngStream,
    n_directions: int = 360,
) -> list[LineDetection]:
    """Search, in samples realizations (drawn and grouped as by
    ``surviving_directions``), for a full chord through B(o, s) certified
    by two surviving rays in nearly antipodal directions: each sample's
    candidates are the pairs of ``_antipodal_pairs``, built once per
    process, whose two directions survive, tried in that order, and the
    first whose chord between the far endpoints is contained is the
    witness.  For lines that is the first candidate: a line that strictly
    separates the ends p and q puts one of them on the side away from
    (0, 1), so it crosses that end's ray, and no line crosses a surviving
    ray; so no line that misses every grid ray, which ``_grid_lines``
    never draws, splits a candidate chord.

    A witness mostly needs a few rays, so the rays are decided lazily.
    Each group runs rounds over growing prefixes of the pair list, the
    first PAIR_ROUNDS pairs and then the rest.  A round decides, for the
    samples without a witness yet, the directions that its pairs name and
    no earlier round did (the group's ray kernel restricted to a mask),
    gathers the candidates among its pairs (``_candidates``) and tries
    them in order (``_first_chords``, itself in rounds over the samples);
    a sample leaves at its first contained chord.  The candidates are
    visited in the order of the whole list, so the witnesses are those of
    deciding every ray first.  A sample that ``_dead_at_origin`` marks
    has no surviving ray and runs no round.

    At the tube workload's parameters (r 5, s 0.1, 360 directions, 900
    pairs), the rounds of 8, 56 and 836 pairs found the witnesses of 74%,
    18% and 1% of 300 occupied samples (lambda 1, R 1; 11 were dead at
    (0, 1)) and of 21%, 38% and 10% of 300 vacant ones (lambda 0.1, R 1;
    82 dead).  Over 20 passes of the tube workload's detect-line runs
    (68 samples a pass; one seed, under cProfile on a 2-core host) the
    ray kernels took 38% of the time (building the groups' runs 16%, the
    rounds' masked passes 22%), the chords 32%, the block draws 12%, and
    the candidates, the dead test and the rounds' bookkeeping the rest."""
    if not 0.0 < s < math.inf:
        raise ValueError("the chord certificate's ball radius s must be positive and finite")
    # the chords between the rays' ends lie in B(o, r) as well
    groups = _ray_groups(model, params, r, n_directions, samples, rng, max(1, n_directions // 8))
    pair_i, pair_j = _antipodal_pairs(n_directions, r, s)
    bounds = [0, *(b for b in PAIR_ROUNDS if b < len(pair_i)), len(pair_i)]
    # each round's pairs, and the directions they name first
    rounds, seen = [], np.zeros(n_directions, dtype=bool)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        fresh = np.zeros(n_directions, dtype=bool)
        fresh[pair_i[lo:hi]] = fresh[pair_j[lo:hi]] = True
        rounds.append((pair_i[lo:hi], pair_j[lo:hi], lo, fresh & ~seen))
        seen |= fresh
    found = []
    for (n, owner, sample), survive in groups:
        witness = np.full(n, -1)
        todo = np.flatnonzero(~_dead_at_origin(model, n, owner, sample))
        alive = np.zeros((n, n_directions), dtype=bool)
        for round_i, round_j, lo, fresh in rounds:
            if not len(todo):
                break
            want = np.zeros_like(alive)
            want[todo] = fresh
            alive |= survive(want)
            row, pair = _candidates(alive[todo], round_i, round_j)
            if not len(row):
                continue
            ends = np.stack([round_i[pair], round_j[pair]], axis=1)
            if model == "lines":
                first = np.full(len(todo), -1)
                head = np.flatnonzero(np.diff(row, prepend=-1))
                first[row[head]] = head
            else:
                first = _first_chords(model, np.bincount(todo, minlength=n) > 0, owner, sample,
                                      row, ends, n_directions, r, s)
            hit = first >= 0
            witness[todo[hit]] = lo + pair[first[hit]]
            todo = todo[~hit]
        found += [LineDetection(False, None) if c < 0
                  else LineDetection(True, (int(pair_i[c]), int(pair_j[c])))
                  for c in witness.tolist()]
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
    if not isinstance(trials, Integral) or trials < 1:
        raise ValueError("trials must be an integer of at least 1")
    lam, R = params.intensity, params.ball_radius
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

def _lines_tube_events(n: int, owner: np.ndarray, sample: LineSample, half_d: float, s: float):
    """(A, f, Q), one bool array each, of the n line realizations of the
    group (n, owner, sample) for the tube between the end centres x and
    y = gamma(-+half_d), from each line's sides sx and sy at them
    (``LineSample.sides``, the sinh of the signed distance), taken once.  Two points of the convex tube
    are joined off the lines iff no line strictly separates them, as in
    ``segment_in``.  f fails on a line with x and y on different sides, a
    side of 0 counting as negative.  Q, which is Q*, fails on a line with
    sx sy <= 0 or min(|sx|, |sy|) < sinh s: it strictly splits the
    centres or one closed end ball.  A fails on a line with sx sy < 0 and
    min(|sx|, |sy|) > sinh s: it strictly separates the closed end balls,
    so that every path between them crosses it; A* and f imply A."""
    sh, ch = math.sinh(half_d), math.cosh(half_d)
    sx, sy = sample.sides(np.asarray([[0.0, -sh, ch], [0.0, sh, ch]]))
    near, limit = np.minimum(np.abs(sx), np.abs(sy)), math.sinh(s)
    splits = ((sx * sy < 0.0) & (near > limit), (sx > 0.0) != (sy > 0.0),
              ~((sx * sy > 0.0) & (near >= limit)))
    return tuple(np.bincount(owner[split], minlength=n) == 0 for split in splits)


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
    arccosh per cell; none for R <= 0.  The points run along the first
    axis, which ``any`` reduces far faster than a short last one."""
    limit = math.cosh(R) if R > 0.0 else -math.inf
    ch = np.cosh(y)[:, None, None] * np.cosh(offs) * np.cosh(u[:, None] - feet)[:, :, None]
    return (ch - (np.sinh(y)[:, None] * np.sinh(offs))[:, None, :] < limit).any(axis=0)


def _trials_of(mask: np.ndarray, trial: np.ndarray, u: np.ndarray, y: np.ndarray):
    """The points (u, y) of the trials where mask holds, as (trial, u, y,
    n) with those n trials numbered 0, 1, ... in order."""
    keep = mask[trial]
    return (np.cumsum(mask) - 1)[trial[keep]], u[keep], y[keep], int(np.count_nonzero(mask))


def _q_by_margin(model: str, trial, u, y, n: int, half_d: float, R: float, s: float) -> np.ndarray:
    """Per trial of n, True when the central segment, over feet [-half_d,
    half_d], lies in the set for balls of radius R + s (vacant) or R - s
    (occupied) around the trial's points, point k of trial[k] at axis
    coordinates (u[k], y[k]): then Q* holds (``sandwich_AQ`` gives the
    argument), and False leaves it undecided."""
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
    coordinates (u[k], y[k]): then Q* holds, and False leaves it
    undecided.  The feet are the grid's, at most s / 8 apart, and w_m is
    ``_net_width`` at the worst foot within s / 16 of feet[m].

    Each point (u, v) of a segment whose ends lie within s of the end
    centres has a foot feet[m] within s / 16 and |v| <= w_m, so it lies
    within eps of the column point (feet[m], v), cosh eps = 1 + cosh^2 s
    (cosh(s / 16) - 1), and a ball of radius R + eps that misses the
    column (or one of R - eps that covers it) keeps it in the set.  eps is
    about s / 16, far above rounding.  A point's Fermi coordinates along a
    column come from frame_fermi(sinh y, cosh y sinh(u - feet[m])),
    measured only on the columns whose geodesic it comes within R -+ eps
    of, and all trials' columns from one ``_reaches`` call, segment
    trial * columns + m."""
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


def _cut_columns(model: str, trial, u, y, n: int, feet, R: float, w: float) -> np.ndarray:
    """Per trial of n, True when some grid column's axis point lies strictly
    within R - w of a point (vacant) or at least R + w from every point
    (occupied), w the farthest that a point of the column's cells lies
    from it: then every cell of that column is closed (``sandwich_AQ``
    gives the argument), and False leaves A undecided.  Point k of
    trial[k] at axis coordinates (u[k], y[k]) lies within R -+ w of the
    column over feet[c] iff cosh(u[k] - feet[c]) cosh y[k] < cosh(R -+ w),
    one (points, columns) product, reduced per trial by one call."""
    cosh_dist = np.cosh(u[:, None] - feet)
    cosh_dist *= np.cosh(y)[:, None]
    if model == "vacant":
        near = cosh_dist < math.cosh(max(R - w, 0.0))
        return np.bincount(trial[near.any(axis=1)], minlength=n) > 0
    covered = np.zeros((n, len(feet)), dtype=bool)
    np.logical_or.at(covered, trial, cosh_dist < math.cosh(R + w))
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


@cache
def _tube_grid(half_d: float, s: float):
    """The sandwich's flood-fill grid of mesh s / 8 in axis coordinates,
    (feet, offs, in_region, start_cells, end_cells), the masks indexed
    [foot, offset], built once per process for each (half_d, s), as
    read-only arrays.  Cell (i, j) is the closed rectangle of half-sides
    a and b, half the steps, around (feet[i], offs[j]); the cells cover
    the s-tube around the axis feet [-half_d, half_d].  The start and end
    cells meet the closed balls B(gamma(-+half_d), s), and the region
    meets the tube.  cosh dist = cosh(t -+ half_d) cosh v grows with
    |t -+ half_d| and |v|, so a cell's nearest point to an end centre has
    cosh dist = cosh(max(|feet[i] -+ half_d| - a, 0)) cosh(max(|offs[j]|
    - b, 0)), tested against cosh s widened by a relative 1e-12, so that
    rounding only adds cells."""
    mesh = s / 8.0
    n_t = int(math.ceil((2.0 * half_d + 2.0 * s) / mesh)) + 1
    n_v = 2 * int(math.ceil(s / mesh)) + 1
    feet, offs = np.linspace(-half_d - s, half_d + s, n_t), np.linspace(-s, s, n_v)
    a, b = (feet[1] - feet[0]) / 2.0, (offs[1] - offs[0]) / 2.0
    across = np.cosh(np.maximum(np.abs(offs) - b, 0.0))
    start_cells, end_cells = (np.cosh(np.maximum(np.abs(feet - c) - a, 0.0))[:, None] * across
                              <= math.cosh(s) * (1.0 + 1e-12) for c in (-half_d, half_d))
    in_region = (np.abs(feet) - a <= half_d)[:, None] | start_cells | end_cells
    grid = feet, offs, in_region, start_cells, end_cells
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _cell_radius(feet: np.ndarray, offs: np.ndarray) -> float:
    """rho, the farthest that a point of any cell of the grid feet x offs
    (``_tube_grid``) lies from its centre, plus 1e-12 for rounding.

    In axis coordinates cosh dist((t0, v0), (t, v)) = cosh v cosh v0
    cosh(t - t0) - sinh v sinh v0.  Over the cell, |t - t0| <= a and
    |v - v0| <= b, it is largest at |t - t0| = a, and, convex in v, at
    v = v0 -+ b, where it is cosh b + (cosh a - 1) cosh v0 cosh(v0 -+ b);
    so sinh^2(rho / 2) = sinh^2(b / 2) + sinh^2(a / 2) cosh v cosh(v + b)
    at the grid's largest offset v, with no cancellation."""
    a, b, v = (feet[1] - feet[0]) / 2.0, (offs[1] - offs[0]) / 2.0, float(np.abs(offs).max())
    half = math.sinh(b / 2.0) ** 2 + math.sinh(a / 2.0) ** 2 * math.cosh(v) * math.cosh(v + b)
    return 2.0 * math.asinh(math.sqrt(half)) + 1e-12


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

    f tests the central segment [x, y].  Q* is the event that every
    segment from B(x, s) to B(y, s) lies in the set, and A* that a path in
    the set within the tube, the closed s-neighbourhood of [x, y], joins
    the two balls.  Q certifies Q* and A* implies A, so Q <= Q* <= f <=
    A* <= A in every realization.  Only d(x, y) enters; trials run in
    canonical position, the tube centred on (0, 1), and are drawn a block
    at a time and decided per group of at most GROUP_POINTS points or
    lines (``_sample_groups``), alike at any group size.
    Lines: closed forms on the end centres (``_lines_tube_events``).

    Boolean Q.  Each segment from B(x, s) to B(y, s) lies within s of
    [x, y], the distance to it being convex along the segment, so Q*
    holds if [x, y] lies in the set for balls of radius R + s (vacant) or
    R - s (occupied) (``_q_by_margin``).  Else, at each grid foot, the
    segment across the axis of half-width ``_net_width`` holds every such
    segment's points at that foot; if these lie in the set for balls of
    radius R + eps (vacant) or R - eps (occupied), eps the farthest any
    such point lies from its nearest one, Q* holds (``_q_by_columns``).
    A trial that neither settles has Q false.

    Boolean A.  The grid's closed cells (``_tube_grid``) cover the tube,
    each within rho of its centre (``_cell_radius``).  A cell is closed
    only when it lies wholly outside the set: its centre lies strictly
    within R - rho of a point (vacant) or at least R + rho from every
    point (occupied).  The region holds the cells that meet the tube, the
    start and end cells those that meet B(x, s) and B(y, s), and A is a
    4-connected path of open region cells from a start to an end cell.
    Every cell that meets the path of A* holds a point of the set and of
    the tube, so it is an open region cell, and the cells at the path's
    ends are start and end cells.  The cells that hold any one point
    (one, two side by side, or four around a corner) are 4-connected
    among themselves, so two that share only a corner are joined through
    the other two; the path is connected, so A holds.  A 4-connected path
    crosses every column of cells (one foot) from the last that holds a
    start cell to the first that holds an end cell, and each cell of such
    a column lies within s + rho of its axis point; so if that point lies
    strictly within R - s - rho of a point (vacant), or at least
    R + s + rho from every point (occupied), A fails with no flood fill
    (``_cut_columns``).  The other trials where f fails run the flood
    fill one at a time.  The path of A* and the segments of Q* lie within
    s of [x, y], so the checks see only the points strictly within R + s
    of it, all that can reach them.
    """
    if not isinstance(trials, Integral) or trials < 1:
        raise ValueError("trials must be an integer of at least 1")
    d = dist(x, y)
    if not 4.0 <= d < math.inf:
        raise ValueError("the tube estimates need a finite d(x, y) >= 4")
    if not 0.0 < s <= 0.05:
        raise ValueError("tube radius s must lie in (0, 0.05]")
    half_d = d / 2.0
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    # only the lines meeting B(o, d/2 + s), which holds the tube, or points within R of it reach it
    rho = half_d + s if model == "lines" else half_d + s + params.ball_radius
    groups = _sample_groups(model, params, rho, trials, rng.generator(), GROUP_POINTS)
    events = []
    if model == "lines":
        for group in groups:
            events += zip(*(ok.tolist() for ok in _lines_tube_events(*group, half_d, s)))
    else:
        R = params.radius
        feet, offs, in_region, start_cells, end_cells = _tube_grid(half_d, s)
        rho = _cell_radius(feet, offs)
        cell_R = R - rho if model == "vacant" else R + rho
        # the columns from the last start cell to the first end cell, which every path crosses
        first = np.flatnonzero(start_cells.any(axis=1))[-1]
        mid_feet = feet[first:np.flatnonzero(end_cells.any(axis=1))[0] + 1]
        for n, trial, sample in groups:
            # Fermi coordinates along the axis from the tube's centre, as the grid's
            u, y = frame_fermi(*polar_frame(sample.t, sample.psi))
            f_ok = _reaches(model, trial, u + half_d, y, R, n) >= d
            near = _within_segment(u, y, half_d, R + s)
            trial, u, y = trial[near], u[near], y[near]
            bounds = np.searchsorted(trial, np.arange(n + 1))
            q_ok, a_ok = f_ok.copy(), f_ok.copy()
            q_ok[f_ok] = _q_by_margin(model, *_trials_of(f_ok, trial, u, y), half_d, R, s)
            left = f_ok & ~q_ok
            if left.any():
                q_ok[left] = _q_by_columns(model, *_trials_of(left, trial, u, y), feet, half_d,
                                           R, s)
            cut = _cut_columns(model, *_trials_of(~f_ok, trial, u, y), mid_feet, R, s + rho)
            for i in np.flatnonzero(~f_ok)[~cut]:
                k = slice(bounds[i], bounds[i + 1])
                blocked = _blocked_cells(feet, offs, u[k], y[k], cell_R)
                open_grid = (blocked if model == "occupied" else ~blocked) & in_region
                a_ok[i] = _flood_connected(open_grid, start_cells, end_cells)
            events += zip(a_ok.tolist(), f_ok.tolist(), q_ok.tolist())
    n_A, n_f, n_Q = (sum(col) for col in zip(*events))
    return SandwichResult(n_A / trials, n_f / trials, n_Q / trials, trials)
