import contextlib
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from hyperc import percolation
from hyperc.analytic import f_grassmann, f_vacant
from hyperc.geometry import (
    ORIGIN,
    HPoint,
    axis_coordinates,
    ball_area,
    ball_net,
    dist_arrays,
    polar_around_origin,
    to_hyperboloid,
)
from hyperc.percolation import (
    TRIAL_BLOCK,
    _antipodal_pairs,
    _block_thresholds,
    _boolean_ray_survivors,
    _chord_distance,
    _coverage_reaches,
    _cut_columns,
    _line_ray_survivors,
    _lines_tube_events,
    _net_contained,
    _q_by_margin,
    _within_segment,
    detect_line_through_ball,
    estimate_f,
    sandwich_AQ,
    segment_in,
    surviving_directions,
)
from hyperc.sampling import (
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

from axis_oracles import axis_point, distance_to_axis_segment, to_axis

# false-alarm rate per estimate of the exact two-sided binomial gates
TAIL = 3.8e-8


def _binomial_tail(k: int, n: int, p: float) -> float:
    return min(1.0, 2.0 * float(min(binom.cdf(k, n, p), binom.sf(k - 1, n, p))))


def _coverage_reach(left, right) -> float:
    """Plain reference for one trial: extend the cover of 0 interval by
    interval, in order of left end, until a gap opens."""
    reach = -1.0
    for lo, hi in sorted(zip(left, right)):
        if hi < 0.0:
            continue
        if lo > max(reach, 0.0):
            break
        reach = max(reach, hi)
    return reach


class TestCoverageReach:
    @pytest.mark.parametrize(
        "left, right, reach",
        [
            ([], [], -1.0),
            ([0.0], [5.0], 5.0),
            ([0.1], [5.0], -1.0),
            ([-1.0], [0.0], 0.0),
            ([-1.0, 3.0], [2.0, 4.0], 2.0),
            ([-1.0, 2.0], [2.0, 4.0], 4.0),  # closed intervals that touch
            ([2.0, -1.0, 0.5], [4.0, 1.0, 2.5], 4.0),  # unsorted input
            # an interval wholly left of 0, then a gap, then a cover of 0
            ([-3.0, 0.0], [-2.0, 5.0], 5.0),
            ([-5.0, -3.0, -1.0], [-4.0, -2.0, 3.0], 3.0),
            ([-5.0, -1.0], [-4.0, -0.5], -1.0),
        ],
    )
    def test_cases(self, left, right, reach):
        left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
        assert _coverage_reach(left, right) == reach
        trial = np.zeros(len(left), dtype=np.int64)
        assert _coverage_reaches(trial, left, right, 1)[0] == reach

    def test_block_matches_single_trials(self):
        gen = np.random.default_rng(8)
        for _ in range(300):
            n = int(gen.integers(1, 6))
            k = int(gen.integers(0, 30))
            trial = gen.integers(0, n, k)
            mid, half = gen.uniform(-2.0, 4.0, k), gen.uniform(0.0, 1.5, k)
            got = _coverage_reaches(trial, mid - half, mid + half, n)
            for t in range(n):
                ref = _coverage_reach((mid - half)[trial == t], (mid + half)[trial == t])
                assert got[t] == pytest.approx(ref, abs=1e-12)


def _gens(seed: int, n: int) -> list:
    stream = RngStream(seed)
    return [stream.generator(t) for t in range(n)]


def _threshold_agrees(contained, thr: float, r_max: float) -> None:
    """contained(r) is the per-segment predicate; thr the block
    kernel's threshold for the same trial."""
    rs = list(np.linspace(0.0, r_max, 9))
    for eps in (1e-6, -1e-6):
        if 0.0 <= thr + eps <= r_max:
            rs.append(thr + eps)
    for r in rs:
        assert contained(r) == (r <= thr), (r, thr)


def _axis_end(r: float) -> HPoint:
    """The point at foot r on the imaginary axis."""
    return HPoint(0.0, math.exp(r))


def _trial_sample(params, u, y, r_max) -> BooleanSample:
    # the neighbourhood's points are all that the segments over
    # [0, r_max] can see; the window claims the ball B(o, r_max + R)
    # that holds the neighbourhood
    return BooleanSample(params, r_max + params.radius, axis_point(u, y))


def _crossing_lines(lam, feet, r_max, gen) -> LineSample:
    """Lines that cross the axis at the given feet, at random angles."""
    psi = gen.uniform(-1.4, 1.4, len(feet))
    p = np.arctanh(np.tanh(feet) * np.cos(psi))
    lines = LineSample(lam, r_max, p, np.mod(psi, 2.0 * math.pi))
    # some line passes through each i e^c
    sinh_d = lines.sides(to_hyperboloid(1j * np.exp(feet)))
    assert np.all(np.min(np.abs(sinh_d), axis=1, initial=1.0) < 1e-9)
    return lines


@pytest.mark.parametrize(
    "model, params",
    [
        ("vacant", ModelParams(0.4, 1.0)),
        ("occupied", ModelParams(1.5, 0.8)),
        ("lines", ModelParams(0.5)),
    ],
)
def test_block_thresholds_match_the_segment_predicates(model, params):
    """The block kernel and the per-segment predicates decide the same
    realization, drawn twice from identically keyed generators."""
    r_max, n = 4.0, 60
    thr = _block_thresholds(model, params.intensity, params.radius, r_max, _gens(11, n))
    assert thr.shape == (n,)
    if model == "lines":
        trial, feet = sample_crossings(params.intensity, r_max, _gens(11, n))
        tilt = np.random.default_rng(12)
        for t in range(n):
            lines = _crossing_lines(params.intensity, feet[trial == t], r_max, tilt)
            _threshold_agrees(
                lambda r: segment_in(model, ORIGIN, _axis_end(r), lines), thr[t], r_max
            )
        return
    trial, u, y = sample_tube(params, r_max, _gens(11, n))
    for t in range(n):
        sample = _trial_sample(params, u[trial == t], y[trial == t], r_max)
        _threshold_agrees(lambda r: segment_in(model, ORIGIN, _axis_end(r), sample), thr[t], r_max)
    # both outcomes occur, so the comparison has power
    assert np.any(thr >= r_max) or np.any(thr < 0.0)
    assert np.any((thr >= 0.0) & (thr < r_max))


def _gate(result, exact, upto=None) -> None:
    for r, k in list(zip(result.r_values, result.successes))[:upto]:
        tail = _binomial_tail(int(k), result.trials, exact(r))
        assert tail >= TAIL, (r, k / result.trials, exact(r))


def test_vacant_matches_f_vacant():
    params = ModelParams(0.2, 1.0)
    res = estimate_f("vacant", params, np.arange(0.0, 5.0), 20000, RngStream(21))
    _gate(res, lambda r: f_vacant(r, params))


def test_lines_match_exponential():
    res = estimate_f("lines", ModelParams(0.3), np.arange(0.0, 7.0), 20000, RngStream(22))
    _gate(res, lambda r: f_grassmann(r, 0.3))


def test_occupied_point_coverage():
    # f(0) is the probability that gamma(0) is covered, that is that
    # some point lies within R of it
    lam, R = 1.0, 1.0
    res = estimate_f("occupied", ModelParams(lam, R), [0.0, 1.0, 2.0], 20000, RngStream(23))
    _gate(res, lambda r: 1.0 - math.exp(-lam * ball_area(R)), upto=1)
    assert np.all(np.diff(res.successes) <= 0)


@pytest.mark.parametrize(
    "model, params",
    [
        ("vacant", ModelParams(0.3, 1.0)),
        ("occupied", ModelParams(1.0, 1.0)),
        ("lines", ModelParams(0.3)),
    ],
)
def test_results_do_not_depend_on_workers(model, params):
    trials = 2 * TRIAL_BLOCK + 37
    rs = np.arange(0.0, 7.0)
    one = estimate_f(model, params, rs, trials, RngStream(31, 2), workers=1)
    two = estimate_f(model, params, rs, trials, RngStream(31, 2), workers=2)
    assert np.array_equal(one.successes, two.successes)
    assert np.array_equal(one.estimates, two.estimates)
    assert (one.alpha_hat, one.alpha_stderr) == (two.alpha_hat, two.alpha_stderr)
    assert one.successes[0] > 0 and one.trials == trials


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    params, rs = ModelParams(1.0, 1.0), np.arange(0.0, 5.0)
    ref = estimate_f("occupied", params, rs, 300, RngStream(32))
    monkeypatch.setattr(percolation, "TRIAL_BLOCK", 7)
    small = estimate_f("occupied", params, rs, 300, RngStream(32))
    assert np.array_equal(ref.successes, small.successes)


POOL_CASES = [
    ("vacant", ModelParams(0.3, 1.0)),
    ("occupied", ModelParams(1.0, 1.0)),
    ("lines", ModelParams(0.3)),
]


def _worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def test_one_pool_serves_every_model_back_to_back():
    trials, rs = 2 * TRIAL_BLOCK + 37, np.arange(0.0, 7.0)
    pids = []
    for model, params in POOL_CASES:
        one = estimate_f(model, params, rs, trials, RngStream(33), workers=1)
        two = estimate_f(model, params, rs, trials, RngStream(33), workers=2)
        assert np.array_equal(one.successes, two.successes)
        pids.append(_worker_pids())
    assert len(pids[0]) == 2
    assert pids == [pids[0]] * len(POOL_CASES)


def test_a_live_pool_reads_no_block_size_of_its_own(monkeypatch):
    """The workers were forked with the block size of their day; the
    caller's current one must decide the trials, either way round."""
    params, rs = ModelParams(1.0, 1.0), np.arange(0.0, 5.0)

    def both():
        one = estimate_f("occupied", params, rs, 300, RngStream(32), workers=1)
        two = estimate_f("occupied", params, rs, 300, RngStream(32), workers=2)
        assert np.array_equal(one.successes, two.successes)

    both()  # the pool now exists, forked at the default block size
    monkeypatch.setattr(percolation, "TRIAL_BLOCK", 7)
    both()
    percolation._close_pool()
    both()  # a new pool, forked at block size 7
    monkeypatch.setattr(percolation, "TRIAL_BLOCK", TRIAL_BLOCK)
    both()


def test_a_pool_with_a_killed_worker_is_replaced():
    model, params = POOL_CASES[0]
    trials, rs = 2 * TRIAL_BLOCK + 37, np.arange(0.0, 7.0)
    one = estimate_f(model, params, rs, trials, RngStream(34), workers=1)
    estimate_f(model, params, rs, trials, RngStream(34), workers=2)
    victim = _worker_pids()[0]
    os.kill(victim, signal.SIGKILL)
    two = estimate_f(model, params, rs, trials, RngStream(34), workers=2)
    assert np.array_equal(one.successes, two.successes)
    assert victim not in _worker_pids()


def test_threads_that_need_different_pools_take_turns():
    """Calls from several threads that alternate between pool sizes
    (three workers is more than this suite assumes cores) each get the
    one-worker counts."""
    model, params = POOL_CASES[2]
    trials, rs = 3 * TRIAL_BLOCK, np.arange(0.0, 7.0)
    one = estimate_f(model, params, rs, trials, RngStream(35), workers=1).successes
    results = []

    def calls(first):
        for k in range(8):
            res = estimate_f(model, params, rs, trials, RngStream(35), workers=2 + (first + k) % 2)
            results.append(res.successes)

    threads = [threading.Thread(target=calls, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 32
    assert all(np.array_equal(one, res) for res in results)


def test_an_interpreter_with_a_pool_exits_and_leaves_no_worker():
    code = (
        "import multiprocessing\n"
        "from hyperc.percolation import estimate_f\n"
        "from hyperc.sampling import ModelParams, RngStream\n"
        "estimate_f('lines', ModelParams(0.3), [0.0, 1.0, 2.0], 600, RngStream(5), workers=2)\n"
        "print(*(p.pid for p in multiprocessing.active_children()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(percolation.__file__).parents[1])}
    # its own session, so that whatever it leaves behind is killed below
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
        pids = [int(pid) for pid in out.split()]
        left = [pid for pid in pids if _alive(pid)]
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 0, err
    assert len(pids) == 2 and left == []


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_f("sticks", ModelParams(1.0, 1.0), [1.0], 100, RngStream(0))
    with pytest.raises(ValueError):
        estimate_f("vacant", ModelParams(1.0, 1.0), [1.0], 99, RngStream(0))
    with pytest.raises(ValueError):
        estimate_f("vacant", ModelParams(1.0, 1.0), [-1.0, 1.0], 100, RngStream(0))
    with pytest.raises(ValueError):
        estimate_f("occupied", ModelParams(1.0), [1.0], 100, RngStream(0))


# ---------------------------------------------------------------------------
# rays, chords and the tube sandwich


@pytest.mark.parametrize(
    "model, params", [("vacant", ModelParams(0.1, 1.0)), ("occupied", ModelParams(1.0, 1.0))]
)
def test_ray_survival_matches_the_segment_predicates(model, params):
    r, n_dir = 3.0, 64
    thetas = 2.0 * math.pi * np.arange(n_dir) / n_dir
    ends = polar_around_origin(np.full(n_dir, r), thetas)
    seen = set()
    for seed in range(6):
        sample = sample_points(params, r + params.radius, np.random.default_rng(seed))
        alive = _boolean_ray_survivors(sample, r, n_dir, model)
        for k in range(n_dir):
            end = HPoint(ends[k].real, ends[k].imag)
            assert alive[k] == segment_in(model, ORIGIN, end, sample), (seed, k)
        seen.update(alive.tolist())
    assert seen == {True, False}


def _all_pairs_ray_survivors(sample: BooleanSample, r: float, n_dir: int, model: str):
    """Reference for _boolean_ray_survivors: every direction measured
    against every point."""
    R = sample.params.radius
    thetas = 2.0 * math.pi * np.arange(n_dir) / n_dir
    w = (sample.points - 1j) / (sample.points + 1j)
    t, psi = 2.0 * np.arctanh(np.abs(w)), np.angle(w)
    dpsi = psi[None, :] - thetas[:, None]
    perp = np.arcsinh(np.sinh(t)[None, :] * np.abs(np.sin(dpsi)))
    k, j = np.nonzero(perp < R)
    tanh_foot = np.clip(np.tanh(t)[j] * np.cos(dpsi[k, j]), -1.0 + 1e-15, 1.0 - 1e-15)
    return percolation._reaches(model, k, np.arctanh(tanh_foot), perp[k, j], R, n_dir) >= r


@pytest.mark.parametrize("n_dir", [360, 37])
@pytest.mark.parametrize(
    "model, params", [("vacant", ModelParams(0.3, 0.5)), ("occupied", ModelParams(1.0, 1.0))]
)
def test_ray_arcs_match_all_pairs(model, params, n_dir):
    r = 5.0
    for seed in range(8):
        sample = sample_points(params, r + params.radius, RngStream(seed).generator())
        got = _boolean_ray_survivors(sample, r, n_dir, model)
        assert np.array_equal(got, _all_pairs_ray_survivors(sample, r, n_dir, model)), seed


@pytest.mark.parametrize("n_dir", [360, 37, 8])
def test_ray_arcs_of_single_points(n_dir):
    """A lone point blocks exactly the vacant rays that pass within R of
    it.  The points sit inside B(o, R), on its rim, just beyond it and
    far out, at directions whose arcs wrap round theta = 0 and 2 pi;
    and, at random, where the ray m grid steps from a grid direction
    passes at distance R, so that the arc ends on a grid direction."""
    params, r = ModelParams(1.0, 1.0), 3.0
    h = 2.0 * math.pi / n_dir
    radii = [0.0, 0.4, 1.0 - 1e-12, 1.0, 1.0 + 1e-9, 1.0 + 1e-6, 1.05, 1.5, 2.5, 3.9]
    angles = [0.0, 1e-12, -1e-12, 0.5 * h, h, math.pi - 1e-12, math.pi, -math.pi + 1e-12, 2.0]
    places = [(t, psi) for t in radii for psi in angles]
    gen = np.random.default_rng(n_dir)
    for _ in range(40):
        m = int(gen.integers(1, 4 if n_dir > 8 else 2))
        t = math.asinh(math.sinh(1.0) / math.sin(m * h))
        places.append((t, h * (int(gen.integers(0, n_dir)) + m * gen.choice([-1, 1]))))
    blocked = set()
    for t, psi in places:
        z = polar_around_origin(np.asarray([t]), np.asarray([psi]))
        sample = BooleanSample(params, r + params.radius, z)
        got = _boolean_ray_survivors(sample, r, n_dir, "vacant")
        ref = _all_pairs_ray_survivors(sample, r, n_dir, "vacant")
        assert np.array_equal(got, ref), (t, psi)
        blocked.add(int(n_dir - got.sum()))
    # points near (0, 1) block every ray, far ones only a few
    assert n_dir in blocked and min(blocked) < n_dir // 4


@pytest.mark.parametrize("n_dir", [64, 37])
@pytest.mark.parametrize("foot_dist, steps", [(1.0, 0.3), (1.5, -0.6)])
def test_line_ray_arcs_match_the_segment_predicate(n_dir, foot_dist, steps):
    """A ray survives iff no line separates its ends, on one realization
    with one more line, whose foot lies the given grid steps from
    theta = 0, so that its blocked arc wraps through 0 or 2 pi."""
    r, h = 3.0, 2.0 * math.pi / n_dir
    drawn = sample_lines(0.1, r, RngStream(5).generator())
    foot_dir = np.mod(steps * h, 2.0 * math.pi)
    sample = LineSample(
        0.1, r, np.append(drawn.foot_dist, foot_dist), np.append(drawn.foot_dir, foot_dir)
    )
    alive = _line_ray_survivors(sample, r, n_dir)
    ends = polar_around_origin(np.full(n_dir, r), h * np.arange(n_dir))
    for k in range(n_dir):
        end = HPoint(ends[k].real, ends[k].imag)
        assert alive[k] == segment_in("lines", ORIGIN, end, sample), k
    # the extra line blocks the rays on either side of theta = 0
    assert not alive[[0, 1, -2, -1]].any() and alive.any()


def _axis_contained(w: np.ndarray, length: float, R: float, model: str) -> bool:
    """Oracle in axis coordinates: whether the axis segment over feet
    [0, length] lies in the set of the balls of radius R around the
    points w (complex UHP coordinates).  Vacant: every point keeps at
    least R from the segment.  Occupied: the chords [u - h, u + h],
    cosh h = cosh R / cosh y, that the closed balls cut from the axis
    cover [0, length]."""
    d, u, y = distance_to_axis_segment(w, length)
    if model == "vacant":
        return bool(np.all(d >= R))
    near = np.abs(y) <= R
    h = np.arccosh(math.cosh(R) / np.cosh(y[near]))
    return _coverage_reach(u[near] - h, u[near] + h) >= length


@pytest.mark.parametrize(
    "model, params", [("vacant", ModelParams(0.15, 0.6)), ("occupied", ModelParams(1.0, 1.0))]
)
def test_net_containment_matches_the_segment_predicates(model, params):
    """_net_contained, on hyperboloid vectors, decides each segment as the
    axis oracle does after the isometry that lays the segment on the
    imaginary axis has moved the segment and the points."""
    R = params.radius
    gen = np.random.default_rng(40)
    # segments between points of B(o, 2) lie in it, so the window
    # B(o, 2 + R) holds every ball that can reach them
    pts = sample_points(params, 2.0 + R, gen).points
    w = to_hyperboloid(pts)
    ends = polar_around_origin(
        gen.uniform(0.0, 2.0, (2, 40)), gen.uniform(0.0, 2.0 * math.pi, (2, 40))
    )
    p, q = to_hyperboloid(ends[0]), to_hyperboloid(ends[1])
    expect = []
    for k in range(40):
        m = to_axis(ends[0, k], ends[1, k])
        length = math.log(m.apply_array(ends[1, k]).imag)
        expect.append(_axis_contained(m.apply_array(pts), length, R, model))
        assert _net_contained(p[k : k + 1], q[k : k + 1], w, R, model) == expect[-1], k
    assert set(expect) == {True, False}
    assert _net_contained(p, q, w, R, model) == all(expect)
    good = np.flatnonzero(expect)
    assert _net_contained(p[good], q[good], w, R, model)


X_TUBE, Y_TUBE = HPoint(0.0, 1.0), HPoint(0.0, math.exp(4.0))


def test_within_segment_keeps_the_points_near_the_tube():
    """Points just inside and just outside distance R + s of the axis
    segment over feet [-2, 2], beside it and beyond either end."""
    half_d, reach = 2.0, 1.05
    pts, inside = [], []
    places = ((0.0, 1.0), (1.9, -1.0), (-half_d, 1.0), (half_d + 0.3, 1.0), (-half_d - 0.8, -1.0))
    for foot, y_sign in places:
        beyond = max(abs(foot) - half_d, 0.0)
        for gap, expect in ((-1e-9, True), (1e-9, False)):
            y = math.acosh(math.cosh(reach + gap) / math.cosh(beyond))
            pts.append(axis_point(foot, y_sign * y))
            inside.append(expect)
    pts = np.asarray(pts)
    u, y = axis_coordinates(pts)
    assert _within_segment(u, y, half_d, reach).tolist() == inside
    d, _, _ = distance_to_axis_segment(pts * math.exp(half_d), 2.0 * half_d)
    assert ((d < reach) == inside).all()


def _blocked_cells_per_point(feet, offs, u, y, R):
    """Reference for _blocked_cells: one pass over the grid per point."""
    blocked = np.zeros((len(feet), len(offs)), dtype=bool)
    cosh_y, sinh_y = np.cosh(y), np.sinh(y)
    for k in range(len(u)):
        ch = (cosh_y[k] * np.cosh(offs))[None, :] * np.cosh(u[k] - feet)[:, None]
        blocked |= ch - (sinh_y[k] * np.sinh(offs))[None, :] < math.cosh(R)
    return blocked


@pytest.mark.parametrize("n_pts", [0, 1, 7, 40])
def test_blocked_cells_match_the_per_point_loop(n_pts):
    """The one broadcast does the loop's arithmetic, so the masks agree bit
    for bit, also for cells at distance R from a point up to rounding; and
    away from such ties they are the cells that dist_arrays puts within R
    of a point, with both mapped to the upper half-plane."""
    R = 0.8
    gen = np.random.default_rng(n_pts)
    feet, offs = np.linspace(-2.0, 2.0, 161), np.linspace(-0.3, 0.3, 13)
    pts = axis_point(gen.uniform(-3.0, 3.0, n_pts), gen.uniform(-1.2, 1.2, n_pts))
    # points on the circles of radius R around grid cells on the axis, so
    # that those cells lie at distance R from them
    rim = polar_around_origin(np.full(50, R), np.arange(50))
    for t in feet[[10, 80, 150]][:n_pts]:
        pts = np.append(pts, math.exp(t) * rim)
    u, y = axis_coordinates(pts)
    got = percolation._blocked_cells(feet, offs, u, y, R)
    assert np.array_equal(got, _blocked_cells_per_point(feet, offs, u, y, R))
    assert got.any() == (n_pts > 0)
    cells = axis_point(*np.meshgrid(feet, offs, indexing="ij"))
    d = dist_arrays(cells[:, :, None], pts[None, None, :])
    clear = (np.abs(d - R) > 1e-9).all(axis=2)
    assert clear.sum() > 0.9 * clear.size
    assert np.array_equal(got[clear], (d < R).any(axis=2)[clear])


def _one_point(monkeypatch, z: complex) -> None:
    """Make every Boolean realization the single point z."""
    pts = np.atleast_1d(z)
    monkeypatch.setattr(
        percolation, "sample_points", lambda p, radius, gen: BooleanSample(p, radius, pts)
    )


def _spy_margins(monkeypatch) -> dict:
    """Wrap the sandwich's two margin checks; per check's name, [calls,
    calls that settled their trial]."""
    counts = {}
    for name in ("_q_by_margin", "_cut_columns"):
        tally = counts[name] = [0, 0]

        def spy(*args, check=getattr(percolation, name), tally=tally):
            out = check(*args)
            tally[0] += 1
            tally[1] += bool(np.any(out))
            return out

        monkeypatch.setattr(percolation, name, spy)
    return counts


def _undecided(monkeypatch) -> None:
    """Leave every trial to the Q net and the flood fill."""
    monkeypatch.setattr(percolation, "_q_by_margin", lambda *args: False)
    monkeypatch.setattr(percolation, "_cut_columns", lambda *args: np.zeros(1, dtype=bool))


def test_sandwich_measures_a_point_beside_the_tube(monkeypatch):
    """A point R + s/2 beside the end y of the tube keeps more than R
    from the central segment, so f holds, but comes within R of the end
    net, so Q fails; A holds."""
    params, s = ModelParams(0.1, 1.0), 0.05
    _one_point(monkeypatch, axis_point(2.0, params.radius + s / 2.0))
    res = sandwich_AQ(X_TUBE, Y_TUBE, s, "vacant", params, 1, RngStream(0))
    assert (res.p_A, res.f_hat, res.p_Q) == (1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "foot, gap, events, cut",
    [
        # within R - s of the middle column's axis point: every cell of
        # that column is blocked
        (0.0, 1.5, (0.0, 0.0, 0.0), 1),
        # beside the end centre y, more than R - s from every column with
        # foot in [-d/2 + s, d/2 - s]: the path passes the far side
        (2.0, 0.5, (1.0, 0.0, 0.0), 0),
    ],
)
def test_column_margin_cuts_beside_the_middle_only(monkeypatch, foot, gap, events, cut):
    """A vacant point at offset R - gap s beside the tube ends f.  Beside
    the middle the column margin settles A; beside an end it leaves A to
    the flood fill.  The flood fill agrees in both."""
    params, s = ModelParams(0.1, 1.0), 0.05
    _one_point(monkeypatch, axis_point(foot, params.radius - gap * s))
    counts = _spy_margins(monkeypatch)
    res = sandwich_AQ(X_TUBE, Y_TUBE, s, "vacant", params, 1, RngStream(0))
    assert (res.p_A, res.f_hat, res.p_Q) == events
    assert counts == {"_q_by_margin": [0, 0], "_cut_columns": [1, cut]}
    _undecided(monkeypatch)
    assert sandwich_AQ(X_TUBE, Y_TUBE, s, "vacant", params, 1, RngStream(0)) == res


@pytest.mark.parametrize(
    "model, params", [("vacant", ModelParams(0.1, 1.0)), ("occupied", ModelParams(1.0, 1.0))]
)
def test_margins_imply_the_full_checks(model, params):
    """Over 200 realizations of the tube workload's model: a Q that the
    margin accepts is one that the sandwich's net accepts, and a column
    that the margin cuts is closed in every cell of the sandwich's grid of
    offsets, all blocked (vacant) or none covered (occupied)."""
    half_d, s, R = 2.0, 0.05, params.radius
    net_x, net_y = _end_nets(half_d, s, 0.999 * s / 4.0)
    seg_p = to_hyperboloid(np.repeat(net_x, len(net_y)))
    seg_q = to_hyperboloid(np.tile(net_y, len(net_x)))
    feet, offs = np.linspace(-half_d - s, half_d + s, 657), np.linspace(-s, s, 17)
    mid = feet[np.abs(feet) <= half_d - s]
    q_accepted = cut_trials = 0
    for seed in range(200):
        pts = sample_points(params, half_d + s + R, RngStream(seed).generator()).points
        u, y = axis_coordinates(pts)
        near = _within_segment(u, y, half_d, R + s)
        pts, u, y = pts[near], u[near], y[near]
        if _q_by_margin(model, u, y, half_d, R, s):
            q_accepted += 1
            assert _net_contained(seg_p, seg_q, to_hyperboloid(pts), R, model), seed
        cut = _cut_columns(model, u, y, mid, R, s)
        blocked = percolation._blocked_cells(mid[cut], offs, u, y, R)
        assert (blocked if model == "vacant" else ~blocked).all(), seed
        cut_trials += int(cut.any())
    assert 0 < q_accepted < 200 and 0 < cut_trials < 200


@pytest.mark.parametrize("d", [4.0, 5.0, 6.0])
@pytest.mark.parametrize("s", [0.02, 0.05])
def test_margins_leave_the_sandwich_unchanged(monkeypatch, d, s):
    """With both margin checks made to decide nothing, every trial runs the
    Q net or the flood fill, and each result is the same, to the type of
    its fields; each check had decided some trials."""
    cases = [
        ("vacant", ModelParams(0.0, 1.0)),
        ("vacant", ModelParams(0.1, 1.0)),
        ("vacant", ModelParams(0.02, 2.0)),
        ("occupied", ModelParams(0.0, 1.0)),
        ("occupied", ModelParams(1.0, 1.0)),
        ("occupied", ModelParams(3.0, 0.5)),
    ]
    y_end = HPoint(0.0, math.exp(d))

    def run():
        return [
            sandwich_AQ(X_TUBE, y_end, s, model, params, 8, RngStream(seed))
            for model, params in cases
            for seed in range(4)
        ]

    counts = _spy_margins(monkeypatch)
    fast = run()
    _undecided(monkeypatch)
    for a, b in zip(fast, run(), strict=True):
        assert repr(a) == repr(b)
        assert {type(v) for v in (a.p_A, a.f_hat, a.p_Q, b.p_A, b.f_hat, b.p_Q)} == {float}
    for calls, decided in counts.values():
        assert decided > 0


# (p_A, f, p_Q) of the tube workload's sandwich (d 4, s 0.05) at seeds
# 0-4, recorded before the margin checks were added
SANDWICH_STREAM = [
    ("vacant", ModelParams(0.1, 1.0), 100,
     [(0.28, 0.26, 0.24), (0.38, 0.34, 0.32), (0.38, 0.37, 0.36), (0.31, 0.29, 0.28),
      (0.37, 0.31, 0.31)]),
    ("occupied", ModelParams(1.0, 1.0), 20,
     [(0.7, 0.7, 0.7), (0.55, 0.55, 0.55), (0.7, 0.65, 0.65), (0.6, 0.55, 0.5),
      (0.75, 0.6, 0.6)]),
    ("lines", ModelParams(0.1), 100,
     [(0.7, 0.69, 0.68), (0.67, 0.66, 0.63), (0.7, 0.69, 0.68), (0.72, 0.7, 0.68),
      (0.64, 0.63, 0.63)]),
]


@pytest.mark.parametrize("model, params, trials, pinned", SANDWICH_STREAM)
def test_sandwich_stream_is_pinned(monkeypatch, model, params, trials, pinned):
    """The tube workload's sandwich gives the recorded triples, and at its
    parameters each margin check settles most of the trials it sees."""
    counts = _spy_margins(monkeypatch)
    got = [sandwich_AQ(X_TUBE, Y_TUBE, 0.05, model, params, trials, RngStream(seed))
           for seed in range(5)]
    assert [(r.p_A, r.f_hat, r.p_Q) for r in got] == pinned
    if model != "lines":
        for calls, decided in counts.values():
            assert decided > calls / 2


def _end_nets(half_d: float, s: float, mesh: float):
    """The sandwich's nets of the balls of radius s around i e^-half_d
    and i e^half_d."""
    net = polar_around_origin(*ball_net(s, mesh, rim=False))
    return math.exp(-half_d) * net, math.exp(half_d) * net


def _ring_net(center_foot: float, s: float, mesh: float) -> np.ndarray:
    """Reference for _end_nets: the net of B(i e^center_foot, s) built
    ring by ring, its centre written as i e^center_foot."""
    chunks = [np.asarray([1j])]
    k = 1
    while k * mesh < s:
        m = max(4, int(math.ceil(2.0 * math.pi * math.sinh(k * mesh) / mesh)))
        chunks.append(polar_around_origin(np.full(m, k * mesh), 2.0 * math.pi * np.arange(m) / m))
        k += 1
    return math.exp(center_foot) * np.concatenate(chunks)


@pytest.mark.parametrize("s, mesh", [(0.05, 0.999 * 0.05 / 4.0), (0.05, 0.0125), (0.03, 0.014),
                                     (0.05, 0.2), (0.2, 0.999 * 0.2 / 4.0)])
def test_end_nets_match_the_ring_by_ring_net(s, mesh):
    for c, net in zip((-2.0, 2.0), _end_nets(2.0, s, mesh)):
        assert net.tobytes() == _ring_net(c, s, mesh).tobytes(), c


def _tube_nets(half_d: float, s: float):
    """Segments joining every point of a coarse net of B(x, s) to every
    point of one of B(y, s), as in the sandwich's Q net."""
    net_x, net_y = _end_nets(half_d, s, 0.999 * s / 2.0)
    seg_p = to_hyperboloid(np.repeat(net_x, len(net_y)))
    seg_q = to_hyperboloid(np.tile(net_y, len(net_x)))
    return seg_p, seg_q


@pytest.mark.parametrize(
    "model, params", [("vacant", ModelParams(0.1, 1.0)), ("occupied", ModelParams(1.0, 1.0))]
)
def test_filtered_points_decide_the_net_alike(model, params):
    """The sandwich measures its Q net only against the points strictly
    within R + s of the central segment; on the whole window of the
    tube the net is decided alike."""
    half_d, s, R = 2.0, 0.05, params.radius
    seg_p, seg_q = _tube_nets(half_d, s)
    outcomes, dropped = set(), 0
    for seed in range(40):
        pts = sample_points(params, half_d + s + R, RngStream(seed).generator()).points
        u, y = axis_coordinates(pts)
        near = _within_segment(u, y, half_d, R + s)
        full = _net_contained(seg_p, seg_q, to_hyperboloid(pts), R, model)
        assert _net_contained(seg_p, seg_q, to_hyperboloid(pts[near]), R, model) == full, seed
        outcomes.add(full)
        dropped += int((~near).sum())
    assert outcomes == {True, False} and dropped > 0


@pytest.mark.parametrize(
    "model, params",
    [
        ("vacant", ModelParams(0.05, 1.0)),
        ("occupied", ModelParams(0.8, 1.0)),
        ("lines", ModelParams(0.3)),
    ],
)
def test_sandwich_orders_each_realization(model, params):
    outcomes, a_events = set(), set()
    for seed in range(10):
        res = sandwich_AQ(X_TUBE, Y_TUBE, 0.05, model, params, 1, RngStream(seed))
        assert res.p_Q <= res.f_hat <= res.p_A, seed
        outcomes.add(res.f_hat)
        a_events.add(res.p_A)
    assert outcomes == {0.0, 1.0}
    # a line that crosses the tube from side to side blocks A
    assert a_events == {0.0, 1.0}


@pytest.mark.parametrize(
    "feet, events",
    [
        ([], (True, True, True)),
        ([-2.03], (True, True, False)),
        ([-1.97], (True, False, False)),
        ([-1.97, 1.97], (True, False, False)),
        ([0.0], (False, False, False)),
    ],
)
def test_lines_tube_events(feet, events):
    """(A, f, Q) for lines crossing the axis at right angles at the given
    feet, with the tube's end balls of radius 0.05 around i e^-2 and
    i e^2: a line behind the start centre cuts off part of the start
    net (Q fails), a line just past it separates the centres but not
    the net points beyond it (A holds, f fails), and a line at the
    middle separates everything."""
    s = 0.05
    hx, hy = (to_hyperboloid(net) for net in _end_nets(2.0, s, 0.999 * s / 4.0))
    feet = np.asarray(feet)
    # the line at right angles to the axis at foot c has its foot there:
    # distance |c| from (0, 1), disk direction 0 above (0, 1) and pi below
    lines = LineSample(1.0, 2.05, np.abs(feet), np.where(feet < 0.0, math.pi, 0.0))
    assert _lines_tube_events(lines, hx, hy) == events


@pytest.mark.parametrize("model", ["vacant", "occupied", "lines"])
def test_empty_process(model):
    """With no points or lines, the vacant set and the complement of the
    lines are the whole plane, and the occupied set is empty."""
    params = ModelParams(0.0, None if model == "lines" else 1.0)
    inside = model != "occupied"
    rays = surviving_directions(model, params, 4.0, 16, RngStream(1))
    assert len(rays.surviving) == (16 if inside else 0)
    det = detect_line_through_ball(model, params, 0.1, 4.0, RngStream(1), n_directions=36)
    assert det.found == inside
    assert det.n_surviving == (36 if inside else 0)
    res = sandwich_AQ(X_TUBE, Y_TUBE, 0.05, model, params, 2, RngStream(1))
    assert (res.p_A, res.f_hat, res.p_Q) == ((1.0,) * 3 if inside else (0.0,) * 3)
    f = estimate_f(model, params, [0.0, 2.0], 100, RngStream(1))
    assert np.all(f.estimates == (1.0 if inside else 0.0))
    gen = RngStream(1).generator()
    if model == "lines":
        sample = sample_lines(0.0, 5.0, gen)
    else:
        sample = sample_points(params, 5.0, gen)
    assert segment_in(model, ORIGIN, _axis_end(3.0), sample) == inside


def test_vacant_ray_share_matches_f_vacant():
    """Each direction's ray survives with probability f(r), so the mean
    surviving share over independent samples is gated by Hoeffding's
    bound 2 exp(-2 n t^2) = TAIL.  A window missing the balls beyond
    B(o, r) would read about 0.3 here, against f = 0.197."""
    params, r, n_dir, n = ModelParams(0.2, 1.0), 2.0, 32, 2000
    share = [
        len(surviving_directions("vacant", params, r, n_dir, RngStream(50, i)).surviving) / n_dir
        for i in range(n)
    ]
    t = math.sqrt(math.log(2.0 / TAIL) / (2.0 * n))
    assert abs(np.mean(share) - f_vacant(r, params)) <= t


def _all_pairs_antipodal(alive, r, s):
    """Reference for _antipodal_pairs: every pair of alive directions,
    taken in row-major order of the upper triangle and sorted stably by
    the distance from antipodal."""
    n = len(alive)
    idx = np.nonzero(alive)[0]
    th = (2.0 * math.pi * np.arange(n) / n)[idx]
    delta = np.mod(th[None, :] - th[:, None], 2.0 * math.pi)
    miss = np.abs(delta - math.pi)
    near = (miss <= 2.5 * (2.0 * math.pi / n)) & (_chord_distance(r, delta) < s)
    ci, cj = np.nonzero(np.triu(near, 1))
    order = np.argsort(miss[ci, cj], kind="stable")
    return idx[ci[order]], idx[cj[order]]


@pytest.mark.parametrize("n_dir", [36, 37, 360, 361])
@pytest.mark.parametrize(
    "model, params",
    [("vacant", ModelParams(0.05, 1.0)), ("occupied", ModelParams(1.0, 1.0)),
     ("lines", ModelParams(0.1))],
)
def test_antipodal_pairs_match_all_pairs(model, params, n_dir):
    """detect-line tries the pairs, and in the order, of the all-pairs
    reference: on the full grid, whose pairs tie in their distance from
    antipodal, and on the surviving directions of real samples."""
    r, s = 4.0, 0.1
    masks = [np.ones(n_dir, dtype=bool)]
    for seed in range(8):
        gen = RngStream(seed).generator()
        masks.append(percolation._ray_survivors(model, params, r, n_dir, gen)[1])
    partial_tried = 0
    for alive in masks:
        got, ref = _antipodal_pairs(alive, r, s), _all_pairs_antipodal(alive, r, s)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        partial_tried += len(got[0]) * (not alive.all())
    assert partial_tried > 0


@pytest.mark.parametrize("n_dir", [-4, 0, 1, 3, 7])
def test_detect_line_needs_eight_directions(n_dir):
    with pytest.raises(ValueError, match="at least 8 directions"):
        detect_line_through_ball("lines", ModelParams(0.1), 0.1, 4.0, RngStream(1), n_dir)
    det = detect_line_through_ball("lines", ModelParams(0.0), 0.1, 4.0, RngStream(1), 8)
    assert (det.found, det.witness, det.n_surviving) == (True, (0, 4), 8)


def test_chord_distance_is_well_conditioned():
    """At r = 10 the chords between the ends of near-antipodal rays of the
    360-direction grid, which detect-line tests, pass within a few
    hundredths of (0, 1); their distance holds to 1e-12 against 50-digit
    arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    r, n = 10.0, 360
    thetas = 2.0 * math.pi * np.arange(n) / n
    for m in range(178, 183):
        with mpmath.workdps(50):
            exact = float(mpmath.atanh(mpmath.tanh(r) * abs(mpmath.cos(mpmath.pi * m / n))))
        delta = np.mod(np.roll(thetas, -m) - thetas, 2.0 * math.pi)
        err = np.abs(_chord_distance(r, delta) - exact)
        assert err.max() < 1e-12, (m, err.max())


# ---------------------------------------------------------------------------
# the window checks and zero-length segments


@pytest.mark.parametrize("model", ["vacant", "occupied", "lines"])
def test_segment_in_refuses_a_segment_past_the_window(model):
    """A Boolean window must hold the R-neighbourhood of the segment, a
    line window the segment itself."""
    gen = RngStream(2).generator()
    if model == "lines":
        sample = sample_lines(1.0, 2.0, gen)
    else:
        sample = sample_points(ModelParams(0.5, 1.0), 3.0, gen)
    segment_in(model, ORIGIN, _axis_end(1.9), sample)
    segment_in(model, _axis_end(-1.9), ORIGIN, sample)
    with pytest.raises(WindowError):
        segment_in(model, ORIGIN, _axis_end(2.1), sample)
    with pytest.raises(WindowError):
        segment_in(model, _axis_end(-2.1), _axis_end(-2.1), sample)


@pytest.mark.parametrize("model", ["vacant", "occupied", "lines"])
def test_rays_refuse_a_length_past_the_window(model):
    gen = RngStream(3).generator()
    if model == "lines":
        sample = sample_lines(1.0, 2.0, gen)
        rays = partial(_line_ray_survivors, sample, n_dir=16)
    else:
        sample = sample_points(ModelParams(0.5, 1.0), 3.0, gen)
        rays = partial(_boolean_ray_survivors, sample, n_dir=16, model=model)
    assert rays(r=2.0).shape == (16,)
    with pytest.raises(WindowError):
        rays(r=2.1)


@pytest.mark.parametrize("at", [ORIGIN, HPoint(0.4, 0.7)])
@pytest.mark.parametrize(
    "gap, vacant, occupied", [(-1e-9, False, True), (1e-9, True, False), (None, True, False)]
)
def test_zero_length_segment_is_decided_as_a_point(at, gap, vacant, occupied):
    """One point at distance R + gap from the segment [at, at] in each of
    four directions, or no point at all (gap None)."""
    R = 1.0
    for phi in (0.0, 1.3, math.pi, 4.4):
        pts = np.empty(0, dtype=complex)
        if gap is not None:
            pts = np.atleast_1d(at.y * polar_around_origin(R + gap, phi) + at.x)
        sample = BooleanSample(ModelParams(1.0, R), 3.0, pts)
        assert segment_in("vacant", at, at, sample) == vacant, phi
        assert segment_in("occupied", at, at, sample) == occupied, phi


def test_zero_length_segment_is_in_the_lines_complement():
    """No line separates a point from itself, also when a line passes
    through it."""
    gen = np.random.default_rng(5)
    sample = sample_lines(5.0, 3.0, gen)
    z = polar_around_origin(gen.uniform(0.0, 2.5, 50), gen.uniform(0.0, 2.0 * math.pi, 50))
    on_lines = LineSample(1.0, 3.0, np.asarray([0.0, 0.7]), np.asarray([0.3, 2.0]))
    foot = polar_around_origin(0.7, 2.0)
    for s, p in [(sample, HPoint(zk.real, zk.imag)) for zk in z] + [
        (on_lines, ORIGIN),
        (on_lines, HPoint(foot.real, foot.imag)),
    ]:
        assert segment_in("lines", p, p, s)
