import contextlib
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy import integrate
from scipy.stats import binom, chi2, norm, poisson

from hyperc import percolation, sampling
from hyperc.analytic import alpha_occupied, alpha_vacant, f_grassmann, f_vacant, hitting_cdf
from hyperc.geometry import (
    ORIGIN,
    HPoint,
    axis_coordinates,
    ball_area,
    dist,
    dist_arrays,
    frame_fermi,
    line_normal,
    minkowski,
    polar_around_origin,
    polar_frame,
    polar_hyperboloid,
    to_hyperboloid,
    tube_area,
)
from hyperc.percolation import (
    LINES_MAX_R,
    LineDetection,
    TRIAL_BLOCK,
    _antipodal_pairs,
    _block_thresholds,
    _boolean_ray_survivors,
    _candidates,
    _chord_distance,
    _chords_contained,
    _coverage_reaches,
    _cell_radius,
    _cut_columns,
    _exposure_alpha,
    _first_chords,
    _flood_connected,
    _grid_lines,
    _half_arc,
    _line_ray_survivors,
    _lines_avoid,
    _lines_tube_events,
    _net_width,
    _q_by_columns,
    _q_by_margin,
    _ray_groups,
    _tube_grid,
    _within_segment,
    detect_line_through_ball,
    estimate_S_cdf,
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

from axis_oracles import axis_point, distance_to_axis_segment, polar_of, to_axis
from tube_oracles import (
    antipodal_pairs,
    block_samples,
    end_nets,
    full_chord_detection,
    lines_net_events,
    lines_tube_events,
    net_contained,
    q_net,
    group_of,
    ray_samples,
    reaches_cut_columns,
    sample_rays,
    tube_grid,
)

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

    def test_reaches_are_input_ends_whatever_the_block(self):
        """Each covered reach is one of its trial's right ends, bit for
        bit, however many trials share the block."""
        gen = np.random.default_rng(9)
        n = TRIAL_BLOCK
        trial = gen.integers(0, n, 40 * n)
        mid, half = gen.uniform(-2.0, 9.0, len(trial)), gen.uniform(0.0, 1.5, len(trial))
        got = _coverage_reaches(trial, mid - half, mid + half, n)
        assert np.count_nonzero(got >= 0.0) > n // 2
        for t in range(n):
            right = (mid + half)[trial == t]
            assert got[t] == _coverage_reach((mid - half)[trial == t], right)
            assert got[t] < 0.0 or got[t] in right


def _lexsort_coverage_reaches(trial, left, right, n: int) -> np.ndarray:
    """Oracle for _coverage_reaches: the same sweep over the intervals
    ordered by ``np.lexsort((left, trial))``."""
    keep = right >= 0.0
    trial, left, right = trial[keep], left[keep], right[keep]
    reach = np.full(n, -1.0)
    if len(trial) == 0:
        return reach
    order = np.lexsort((left, trial))
    trial, left, right = trial[order], left[order], right[order]
    off = trial * (right.max() - left.min() + 1.0)
    run = np.maximum.accumulate(right + off)
    stops = np.flatnonzero(np.append(left[1:] + off[1:] > run[:-1], True))
    starts = np.flatnonzero(np.append(True, trial[1:] != trial[:-1]))
    starts = starts[left[starts] <= 0.0]
    ends = stops[np.searchsorted(stops, starts)]
    runs = np.stack([starts, ends + 1], axis=1).ravel()
    reach[trial[starts]] = np.maximum.reduceat(np.append(right, -math.inf), runs)[::2]
    return reach


@pytest.mark.parametrize("n, k", [(1, 40), (7, 300), (TRIAL_BLOCK, 4524), (70_000, 150_000)])
def test_coverage_sort_matches_the_lexsort_oracle(n, k):
    """Thresholds equal to the lexsort sweep's bit for bit, on lefts and
    lengths in steps of 1/8, so that lefts tie exactly within a trial
    and across trials and closed intervals touch, and on a second draw
    of continuous ends.  70,000 segments take the 32-bit trial sort."""
    gen = np.random.default_rng(n)
    trial = gen.integers(0, n, k)
    left = gen.integers(-8, 8 * max(2, k // (2 * n)), k) / 8.0
    right = left + gen.integers(0, 12, k) / 8.0
    pairs = set(zip(trial.tolist(), left.tolist()))
    assert len(pairs) < k  # an exact tie within a trial
    assert len({lo for _, lo in pairs}) < len(pairs) or n == 1  # one across trials
    assert set(zip(trial.tolist(), right.tolist())) & pairs  # closed intervals that touch
    for lo, hi in ((left, right), (left + gen.uniform(0.0, 0.1, k), right + gen.uniform(0.1, 0.2, k))):
        got = _coverage_reaches(trial, lo, hi, n)
        assert got.tobytes() == _lexsort_coverage_reaches(trial, lo, hi, n).tobytes()
        top = np.full(n, -math.inf)
        np.maximum.at(top, trial, hi)
        # some trial's cover of 0 ends in a gap before its last interval
        assert ((got >= 0.0) & (got < top)).any() or n == 1


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
    return BooleanSample(params, r_max + params.radius, *polar_of(axis_point(u, y)))


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


POOL_CASES = [
    ("vacant", ModelParams(0.3, 1.0)),
    ("occupied", ModelParams(1.0, 1.0)),
    ("lines", ModelParams(0.3)),
]


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    rs = np.arange(0.0, 5.0)
    for model, params in POOL_CASES:
        monkeypatch.setattr(percolation, "TRIAL_BLOCK", TRIAL_BLOCK)
        ref = estimate_f(model, params, rs, 300, RngStream(32))
        monkeypatch.setattr(percolation, "TRIAL_BLOCK", 7)
        small = estimate_f(model, params, rs, 300, RngStream(32))
        assert np.array_equal(ref.successes, small.successes), model
        assert (ref.alpha_hat, ref.alpha_stderr) == (small.alpha_hat, small.alpha_stderr), model
        assert 0.0 < ref.alpha_hat < math.inf, model


@pytest.mark.parametrize("model, params", POOL_CASES)
def test_thresholds_do_not_depend_on_the_chunk(model, params, monkeypatch):
    """A block is drawn in chunks whose trials together expect at most
    MAX_TRIAL_POINTS points or crossings; the cap is patched to 3.5
    trials' mean, so 50 trials go in chunks of 3."""
    lam, R, r_max = params.intensity, params.radius, 4.0
    gens = partial(_gens, 33, 50)
    whole = _block_thresholds(model, lam, R, r_max, gens())
    sizes = []
    for name in ("sample_tube", "sample_crossings"):
        draw = getattr(percolation, name)
        monkeypatch.setattr(percolation, name,
                            lambda *a, _draw=draw: sizes.append(len(a[-1])) or _draw(*a))
    per_trial = lam * (r_max if model == "lines" else tube_area(R, r_max))
    monkeypatch.setattr(sampling, "MAX_TRIAL_POINTS", 3.5 * per_trial)
    assert np.array_equal(_block_thresholds(model, lam, R, r_max, gens()), whole)
    assert sizes == [3] * 16 + [2]


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
    sentinel = next(p.sentinel for p in multiprocessing.active_children() if p.pid == victim)
    os.kill(victim, signal.SIGKILL)
    # a worker that was sent SIGKILL but has not yet exited still looks
    # alive to the executor, which may then run the third call without it
    assert multiprocessing.connection.wait([sentinel], timeout=60), "the killed worker lives on"
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


# the f-grid parameters: vacant and lines decay exactly at 2 lambda sinh R
# and lambda, occupied at the renewal root
F_GRID_CASES = [
    ("vacant", ModelParams(0.1, 1.0), 0.2 * math.sinh(1.0)),
    ("occupied", ModelParams(1.0, 1.0), alpha_occupied(ModelParams(1.0, 1.0)).alpha),
    ("lines", ModelParams(0.1), 0.1),
]


def test_alpha_stderr_is_calibrated():
    """The z-scores (alpha_hat - alpha) / alpha_stderr of 40 seeds per model
    at r = 0..6 have a pooled root mean square inside the two-sided
    chi-square bound of 120 unit normals at tail 1e-6, and no occupied one
    strays past the normal tail of TAIL from alpha_occupied."""
    z = {}
    for model, params, alpha in F_GRID_CASES:
        res = [estimate_f(model, params, np.arange(0.0, 7.0), 500, RngStream(s)) for s in range(40)]
        z[model] = np.array([(r.alpha_hat - alpha) / r.alpha_stderr for r in res])
    pooled = np.concatenate(list(z.values()))
    lo, hi = np.sqrt(chi2.ppf([5e-7, 1.0 - 5e-7], len(pooled)) / len(pooled))
    assert lo <= math.sqrt(np.mean(pooled**2)) <= hi, {m: float(np.std(v)) for m, v in z.items()}
    assert np.all(np.abs(z["occupied"]) <= norm.isf(TAIL / 2.0))


def test_exponent_counts_only_the_trials_at_risk():
    """On [1, 3]: T = 1, 1.5 and 2.5 end in the window, and the exposure is
    0 + 0.5 + 1.5 + 2 + 2 from the trials with T >= 1."""
    thr = np.array([4.0, -1.0, 2.5, 0.5, math.inf, 1.0, 0.75, 1.5])
    alpha, stderr = _exposure_alpha(thr, 1.0, 3.0)
    assert alpha == 3.0 / 6.0 and stderr == 0.5 / math.sqrt(3.0)
    # from 0 on, T = 0.5 and 0.75 are at risk and end in the window too
    alpha = 5.0 / 12.25
    assert _exposure_alpha(thr, 0.0, 3.0) == (alpha, alpha / math.sqrt(5.0))


@pytest.mark.parametrize("model, params", POOL_CASES)
def test_exponent_on_a_window_past_zero(model, params):
    """With r_min > 0 the exponent is the hand count on the trials'
    thresholds, drawn again from identically keyed generators."""
    rs, trials = np.arange(1.0, 5.0), 300
    res = estimate_f(model, params, rs, trials, RngStream(36))
    thr = _block_thresholds(model, params.intensity, params.radius, 4.0, _gens(36, trials))
    events = sum(1 for t in thr if 1.0 <= t < 4.0)
    exposure = math.fsum(min(t, 4.0) - 1.0 for t in thr if t >= 1.0)
    assert events < np.count_nonzero(thr < 4.0)  # some trials end before r_min
    assert res.alpha_hat == events / exposure
    assert res.alpha_stderr == res.alpha_hat / math.sqrt(events)


@pytest.mark.parametrize("model, params", POOL_CASES)
def test_one_point_grid_has_no_exponent(model, params):
    res = estimate_f(model, params, [2.0], 200, RngStream(37))
    assert math.isnan(res.alpha_hat) and math.isnan(res.alpha_stderr)


def test_S_law_matches_the_hitting_cdf():
    """S is -inf with probability p0 = e^{-lambda area B(R)}, else in
    (0, 2R] with P(0 < S < t) = G(t).  The empirical P(S < t) keeps within
    the DKW bound 2.69 / sqrt(n) of p0 + G(t) (false-alarm rate 1e-6), and
    the count of empty balls passes the exact binomial gate against p0."""
    params, n = ModelParams(1.0, 1.0), 20000
    res = estimate_S_cdf(params, n, RngStream(39))
    p0 = math.exp(-ball_area(1.0))
    ts = np.linspace(0.0, 2.0, 201)[1:]
    exact = p0 + np.array([hitting_cdf(t, params) for t in ts])
    assert np.abs(res.neg_inf_mass + res.empirical_cdf(ts) - exact).max() <= 2.69 / math.sqrt(n)
    empty = round(res.neg_inf_mass * n)
    assert len(res.values) == n - empty and 0.0 < res.values[0] and res.values[-1] <= 2.0
    assert _binomial_tail(empty, n, p0) >= TAIL


@pytest.mark.parametrize(
    "trials, r, match",
    [pytest.param(trials, 1.0, "trials must be an integer of at least 100", id=str(trials))
     for trials in (99, 150.0, math.nan, math.inf, "200")]
    + [pytest.param(100, r, "r values must be nonnegative and finite", id=f"r={r}")
       for r in (math.nan, math.inf, -math.inf)],
)
def test_estimate_f_needs_a_whole_trial_count(trials, r, match):
    """150.0 trials raised TypeError in the trial spans, an r of nan
    failed on converting it to an integer, and one of inf on the sampling
    cap."""
    with pytest.raises(ValueError, match=match):
        estimate_f("vacant", ModelParams(0.1, 1.0), [0.0, r], trials, RngStream(0))
    res = estimate_f("vacant", ModelParams(0.1, 1.0), [1.0], np.int64(100), RngStream(0))
    assert res.trials == 100


@pytest.mark.parametrize("trials", [0, 2.0, math.nan, math.inf])
def test_s_law_needs_a_whole_trial_count(trials):
    """2.0 trials raised TypeError in the Poisson draw."""
    with pytest.raises(ValueError, match="trials must be an integer of at least 1"):
        estimate_S_cdf(ModelParams(1.0, 1.0), trials, RngStream(0))


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_f("sticks", ModelParams(1.0, 1.0), [1.0], 100, RngStream(0))
    with pytest.raises(ValueError):
        estimate_f("vacant", ModelParams(1.0, 1.0), [1.0], 99, RngStream(0))
    with pytest.raises(ValueError):
        estimate_f("vacant", ModelParams(1.0, 1.0), [-1.0, 1.0], 100, RngStream(0))
    with pytest.raises(ValueError):
        estimate_f("occupied", ModelParams(1.0), [1.0], 100, RngStream(0))
    with pytest.raises(ValueError, match="at least one r value"):
        estimate_f("vacant", ModelParams(1.0, 1.0), [], 100, RngStream(0))


# every entry point that reads a Boolean model's ball radius, called on
# ModelParams(0.1), which has none; each raised TypeError before
NO_RADIUS_CALLS = {
    "f_vacant": lambda p, model: f_vacant(1.0, p),
    "alpha_vacant": lambda p, model: alpha_vacant(p),
    "hitting_cdf": lambda p, model: hitting_cdf(0.5, p),
    "alpha_occupied": lambda p, model: alpha_occupied(p),
    "estimate_S_cdf": lambda p, model: estimate_S_cdf(p, 10, RngStream(0)),
    "estimate_f": lambda p, model: estimate_f(model, p, [1.0], 100, RngStream(0)),
    "sandwich_AQ": lambda p, model: sandwich_AQ(X_TUBE, Y_TUBE, 0.05, model, p, 1, RngStream(0)),
    "surviving_directions": lambda p, model: surviving_directions(model, p, 4.0, 16, 1,
                                                                  RngStream(0)),
    "detect_line_through_ball": lambda p, model: detect_line_through_ball(model, p, 0.1, 4.0, 1,
                                                                          RngStream(0)),
}


@pytest.mark.parametrize("model", ["vacant", "occupied"])
@pytest.mark.parametrize("name", NO_RADIUS_CALLS)
def test_a_boolean_call_without_a_ball_radius_is_a_usage_error(name, model):
    with pytest.raises(ValueError, match="need a ball radius R"):
        NO_RADIUS_CALLS[name](ModelParams(0.1), model)


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
        alive = _boolean_ray_survivors(*group_of([sample]), r, n_dir, model)()[0]
        for k in range(n_dir):
            end = HPoint(ends[k].real, ends[k].imag)
            assert alive[k] == segment_in(model, ORIGIN, end, sample), (seed, k)
        seen.update(alive.tolist())
    assert seen == {True, False}


def _ray_end(r: float, theta: float) -> HPoint:
    """The end of the ray of length r from (0, 1) in the disk direction
    theta, from its hyperboloid vector X = polar_hyperboloid(r, theta):
    y = 1 / (X0 - X2), with X0 - X2 = e^-r + 2 sinh r sin^2(theta / 2)
    written without cancellation, and x = X1 y."""
    y = 1.0 / (math.exp(-r) + 2.0 * math.sinh(r) * math.sin(theta / 2.0) ** 2)
    return HPoint(-math.sinh(r) * math.sin(theta) * y, y)


@pytest.mark.parametrize("r", [12.0, 15.0, 17.0, 19.0, 22.0])
def test_far_rays_match_the_segment_predicate(r):
    """Far from (0, 1) the ray survivors read the same Fermi coordinates
    as ``segment_in``.  A lone vacant point at t = r + 0.9, 0.9 from the
    ray in direction 0, meets that ray's geodesic over feet from about
    r + 0.149 on, so the ray survives; the ray's end is its exact point
    at distance r.  At r = 19 and r = 22 random samples, at intensities
    that keep them below the sampling cap, agree on every direction too.
    The ends lie at distance r from (0, 1) to the bit, so the windows
    need no padding past r + R."""
    params, n_dir = ModelParams(1.0, 1.0), 64
    window = r + params.radius
    t = r + 0.9
    samples = [BooleanSample(params, window, np.asarray([t]),
                             np.asarray([math.asin(math.sinh(0.9) / math.sinh(t))]))]
    lam = {19.0: 1e-5, 22.0: 1e-6}.get(r)
    if lam:
        drawn = sample_points(ModelParams(lam, 1.0), r + 1.0, RngStream(int(r)).generator())
        samples.append(BooleanSample(params, window, drawn.t, drawn.psi))
    for i, sample in enumerate(samples):
        alive = _boolean_ray_survivors(*group_of([sample]), r, n_dir, "vacant")()[0]
        for k in range(n_dir):
            end = _ray_end(r, 2.0 * math.pi * k / n_dir)
            assert alive[k] == segment_in("vacant", ORIGIN, end, sample), (i, k)
        assert alive[0]


def _all_pairs_ray_survivors(sample: BooleanSample, r: float, n_dir: int, model: str):
    """Reference for _boolean_ray_survivors: every direction measured
    against every point, in the polar frame."""
    thetas = 2.0 * math.pi * np.arange(n_dir) / n_dir
    foot, offset = frame_fermi(*polar_frame(sample.t, sample.psi - thetas[:, None]))
    k = np.repeat(np.arange(n_dir), len(sample))
    R = sample.params.radius
    return percolation._reaches(model, k, foot.ravel(), offset.ravel(), R, n_dir) >= r


@pytest.mark.parametrize("n_dir", [360, 37])
@pytest.mark.parametrize(
    "model, params", [("vacant", ModelParams(0.3, 0.5)), ("occupied", ModelParams(1.0, 1.0))]
)
def test_ray_arcs_match_all_pairs(model, params, n_dir):
    r = 5.0
    for seed in range(8):
        sample = sample_points(params, r + params.radius, RngStream(seed).generator())
        got = _boolean_ray_survivors(*group_of([sample]), r, n_dir, model)()[0]
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
        sample = BooleanSample(params, r + params.radius, np.asarray([t]), np.asarray([psi]))
        got = _boolean_ray_survivors(*group_of([sample]), r, n_dir, "vacant")()[0]
        ref = _all_pairs_ray_survivors(sample, r, n_dir, "vacant")
        assert np.array_equal(got, ref), (t, psi)
        blocked.add(int(n_dir - got.sum()))
    # points near (0, 1) block every ray, far ones only a few
    assert n_dir in blocked and min(blocked) < n_dir // 4


def test_ray_filter_keeps_a_rounding_tie():
    """At R = 0.49, arcsinh(sinh R) rounds below R, so a lone point at
    t = R, a quarter turn from direction 0, reads an offset below R from
    that ray: measuring every pair blocks the vacant ray, and so must
    the kernel, whose filter on sinh t |sin(psi - theta)| keeps a margin
    above sinh R."""
    R, r, n_dir = 0.49, 3.0, 8
    assert np.arcsinh(np.sinh(R)) < R
    sample = BooleanSample(ModelParams(1.0, R), r + R, np.asarray([R]), np.asarray([math.pi / 2]))
    got = _boolean_ray_survivors(*group_of([sample]), r, n_dir, "vacant")()[0]
    assert np.array_equal(got, _all_pairs_ray_survivors(sample, r, n_dir, "vacant"))
    assert not got[0]


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
    alive = _line_ray_survivors(*group_of([sample]), np.full(len(sample), -1), r, n_dir)()[0]
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
    """segment_in, on hyperboloid vectors, decides each segment as the
    axis oracle does after the isometry that lays the segment on the
    imaginary axis has moved the segment and the points; the one-pass net
    oracle decides the segments together alike."""
    R = params.radius
    gen = np.random.default_rng(40)
    # segments between points of B(o, 2) lie in it, so the window
    # B(o, 2 + R) holds every ball that can reach them
    sample = sample_points(params, 2.0 + R, gen)
    pts = sample.points
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
        ends_k = [HPoint(z.real, z.imag) for z in ends[:, k]]
        assert segment_in(model, *ends_k, sample) == expect[-1], k
    assert set(expect) == {True, False}
    assert net_contained(p, q, w, R, model) == all(expect)
    good = np.flatnonzero(expect)
    assert net_contained(p[good], q[good], w, R, model)


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


def _fixed_points(monkeypatch, z) -> None:
    """Make every Boolean realization the point or points z."""
    t, psi = polar_of(z)
    monkeypatch.setattr(
        percolation, "sample_points", lambda p, radius, gen: BooleanSample(p, radius, t, psi)
    )


# the sandwich's sufficient checks: the margin and the certificate that
# settle Q, and the column cut that settles A before the flood fill
MARGIN_CHECKS = ("_q_by_margin", "_q_by_columns", "_cut_columns")


def _spy_margins(monkeypatch) -> dict:
    """Wrap the sandwich's margin checks and its cross-section certificate;
    per check's name, [trials it saw, trials it settled]."""
    counts = {}
    for name in MARGIN_CHECKS:
        tally = counts[name] = [0, 0]

        def spy(*args, check=getattr(percolation, name), tally=tally):
            out = check(*args)
            assert out.shape == (args[4],) and out.dtype == bool
            tally[0] += len(out)
            tally[1] += int(np.count_nonzero(out))
            return out

        monkeypatch.setattr(percolation, name, spy)
    return counts


def _undecided(monkeypatch) -> None:
    """Leave every trial where f fails to the flood fill."""
    monkeypatch.setattr(percolation, "_cut_columns",
                        lambda model, trial, u, y, n, *rest: np.zeros(n, bool))


def test_sandwich_measures_a_point_beside_the_tube(monkeypatch):
    """A point R + s/2 beside the end y of the tube keeps more than R
    from the central segment, so f holds, but comes within R of B(y, s),
    so Q fails; A holds."""
    params, s = ModelParams(0.1, 1.0), 0.05
    _fixed_points(monkeypatch, axis_point(2.0, params.radius + s / 2.0))
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
    _fixed_points(monkeypatch, axis_point(foot, params.radius - gap * s))
    counts = _spy_margins(monkeypatch)
    res = sandwich_AQ(X_TUBE, Y_TUBE, s, "vacant", params, 1, RngStream(0))
    assert (res.p_A, res.f_hat, res.p_Q) == events
    assert counts == {"_q_by_margin": [0, 0], "_q_by_columns": [0, 0], "_cut_columns": [1, cut]}
    _undecided(monkeypatch)
    assert sandwich_AQ(X_TUBE, Y_TUBE, s, "vacant", params, 1, RngStream(0)) == res


def _column_cuts(model, u, y, feet, R, w) -> np.ndarray:
    """_cut_columns's verdict on each column over the feet alone: column
    c is passed as trial c, its one foot at 0 and the points moved along
    the axis by -feet[c]."""
    cols = len(feet)
    trial = np.repeat(np.arange(cols), len(u))
    moved = (u[None, :] - feet[:, None]).ravel()
    return _cut_columns(model, trial, moved, np.tile(y, cols), cols, np.zeros(1), R, w)


def _mid_feet(half_d: float, s: float) -> np.ndarray:
    """The feet of the sandwich's cut columns: the grid's rows from the
    last that holds a start cell to the first that holds an end cell."""
    feet, _, _, start, end = _tube_grid(half_d, s)
    return feet[np.flatnonzero(start.any(axis=1))[-1]:np.flatnonzero(end.any(axis=1))[0] + 1]


def _cell_test_radius(model: str, R: float, rho: float) -> float:
    """The radius at which the sandwich blocks a cell: R - rho (vacant,
    closed when blocked) or R + rho (occupied, closed when not)."""
    return R - rho if model == "vacant" else R + rho


@pytest.mark.parametrize(
    "model, params", [("vacant", ModelParams(0.1, 1.0)), ("occupied", ModelParams(1.0, 1.0))]
)
def test_margins_imply_the_full_checks(model, params):
    """Over 200 realizations of the tube workload's model, decided in one
    call of each margin check and of the cross-section certificate: a Q
    that the margin or the certificate accepts is one that the
    Q net accepts, the certificate accepts some that the margin leaves,
    and a trial that the column margin cuts has a cut column, each of
    which is closed in every cell of the sandwich's grid, all blocked at
    R - rho (vacant) or none at R + rho (occupied)."""
    half_d, s, R = 2.0, 0.05, params.radius
    seg_p, seg_q = q_net(half_d, s)
    feet, offs = _tube_grid(half_d, s)[:2]
    rho = _cell_radius(feet, offs)
    mid = _mid_feet(half_d, s)
    trials = []
    for seed in range(200):
        pts = sample_points(params, half_d + s + R, RngStream(seed).generator()).points
        u, y = axis_coordinates(pts)
        near = _within_segment(u, y, half_d, R + s)
        trials.append((pts[near], u[near], y[near]))
    trial = np.repeat(np.arange(200), [len(u) for _, u, _ in trials])
    u_all, y_all = (np.concatenate([t[k] for t in trials]) for k in (1, 2))
    q_accepted = _q_by_margin(model, trial, u_all, y_all, 200, half_d, R, s)
    q_columns = _q_by_columns(model, trial, u_all, y_all, 200, feet, half_d, R, s)
    cut = _cut_columns(model, trial, u_all, y_all, 200, mid, R, s + rho)
    for seed, (pts, u, y) in enumerate(trials):
        if q_accepted[seed] or q_columns[seed]:
            assert net_contained(seg_p, seg_q, to_hyperboloid(pts), R, model), seed
        columns = _column_cuts(model, u, y, mid, R, s + rho)
        assert columns.any() == cut[seed], seed
        radius = _cell_test_radius(model, R, rho)
        blocked = percolation._blocked_cells(mid[columns], offs, u, y, radius)
        assert (blocked if model == "vacant" else ~blocked).all(), seed
    assert 0 < q_accepted.sum() < 200 and 0 < cut.sum() < 200
    assert (q_columns & ~q_accepted).any()


@pytest.mark.parametrize("d", [4.0, 5.0, 6.0])
@pytest.mark.parametrize("s", [0.02, 0.05])
def test_net_width_bounds_every_net_segment(d, s):
    """41 points along each segment of the Q net lie within _net_width of
    the axis at their foot.  The net's rings reach 0.999 of the bound
    beyond the end feet, 0.99 where it is s, between the feet d/2 - s and
    d/2, and 0.94 over the middle, where the bound takes the worst ends
    at once."""
    half_d = d / 2.0
    p, q = q_net(half_d, s)
    length = np.arccosh(np.maximum(-minkowski(p, q), 1.0))[:, None, None]
    tau = np.linspace(0.0, 1.0, 41)[:, None]
    pts = (np.sinh((1.0 - tau) * length) * p[:, None] + np.sinh(tau * length) * q[:, None])
    pts /= np.sinh(length)
    # the axis through (0, 1) in direction 0 has frame products (x1, -x0)
    u, v = frame_fermi(pts[..., 1], -pts[..., 0])
    ratio = np.abs(v) / _net_width(u, half_d, s)
    assert ratio.max() <= 1.0
    assert ratio[np.abs(u) > half_d].max() > 0.998
    assert ratio[(np.abs(u) > half_d - s) & (np.abs(u) <= half_d)].max() > 0.99
    assert ratio[np.abs(u) <= half_d - s].max() > 0.94


# (p_A, f, p_Q) of the sandwich whose balls cover the whole tube
COVERED = (1.0, 1.0, 1.0)


def test_certificate_settles_a_cover_that_the_margin_leaves(monkeypatch):
    """Occupied balls of radius 1 centred on the axis at feet -+0.98 and
    -+2 cover the tube, but those of radius R - s leave a gap around the
    foot 0, so the Q margin fails; the cross-sections, covered by the
    balls of radius R - eps, settle Q."""
    params, s = ModelParams(1.0, 1.0), 0.05
    _fixed_points(monkeypatch, axis_point(np.asarray([-2.0, -0.98, 0.98, 2.0]), 0.0))
    counts = _spy_margins(monkeypatch)
    res = sandwich_AQ(X_TUBE, Y_TUBE, s, "occupied", params, 1, RngStream(0))
    assert (res.p_A, res.f_hat, res.p_Q) == COVERED
    assert counts["_q_by_margin"] == [1, 0] and counts["_q_by_columns"] == [1, 1]


def test_certificate_refuses_a_hole_beside_the_net(monkeypatch):
    """Occupied balls of radius 1 on the axis at feet -+c, cosh c =
    cosh R / cosh v_h, and -+2 leave a hole mid-tube at offsets above v_h,
    halfway between s and the width w at foot 0 of the segments from
    B(x, s) to B(y, s).  Those keep inside w, so Q* holds, and the Q net
    accepts; but the balls of radius R - eps leave the middle column
    open, so the certificate refuses, and Q is false: Q stays below Q*."""
    params, s, R = ModelParams(1.0, 1.0), 0.05, 1.0
    w = float(_net_width(np.zeros(1), 2.0, s)[0])
    v_h = (w + s) / 2.0
    c = math.acosh(math.cosh(R) / math.cosh(v_h))
    centres = axis_point(np.asarray([-2.0, -c, c, 2.0]), 0.0)
    # the hole: a point of the tube farther than R from every centre
    assert dist_arrays(axis_point(0.0, (v_h + s) / 2.0), centres).min() > R
    _fixed_points(monkeypatch, centres)
    counts = _spy_margins(monkeypatch)
    res = sandwich_AQ(X_TUBE, Y_TUBE, s, "occupied", params, 1, RngStream(0))
    assert (res.p_A, res.f_hat, res.p_Q) == (1.0, 1.0, 0.0)
    assert counts["_q_by_margin"] == [1, 0] and counts["_q_by_columns"] == [1, 0]
    assert net_contained(*q_net(2.0, s), to_hyperboloid(centres), R, "occupied")


def test_certificate_decides_nothing_below_eps():
    """With occupied balls of radius R below eps, R - eps is negative and
    the certificate settles no trial, even where the balls cover the
    tube: a lattice of points 0.001 apart over a tube of half-length 0.1
    and radius 0.05.  Balls of radius 0.02 around the same lattice are
    settled."""
    half_d, s = 0.1, 0.05
    eps = math.acosh(1.0 + math.cosh(s) ** 2 * (math.cosh(s / 16.0) - 1.0))
    feet = _tube_grid(half_d, s)[0]
    u, y = np.meshgrid(np.arange(-0.16, 0.161, 0.001), np.arange(-0.06, 0.061, 0.001))
    u, y = u.ravel(), y.ravel()
    trial = np.zeros(len(u), dtype=np.int64)
    for R, settled in ((0.9 * eps, False), (0.02, True)):
        got = _q_by_columns("occupied", trial, u, y, 1, feet, half_d, R, s)
        assert got.tolist() == [settled], R


@pytest.mark.parametrize(
    "model, params, trials",
    [("vacant", ModelParams(0.1, 1.0), 50), ("occupied", ModelParams(1.0, 1.0), 2)],
)
def test_sandwich_is_the_same_with_the_reaches_column_cut(monkeypatch, model, params, trials):
    """The column cut tests each (point, column) by a cosh product; with
    the form that passes every column to ``_reaches`` as a zero-length
    segment patched in, the tube workload's sandwich gives the same
    results at seeds 0-39, and the cut settled some trials."""
    def run():
        return [sandwich_AQ(X_TUBE, Y_TUBE, 0.05, model, params, trials, RngStream(seed))
                for seed in range(40)]

    counts = _spy_margins(monkeypatch)
    got = run()
    assert counts["_cut_columns"][1] > 0
    monkeypatch.setattr(percolation, "_cut_columns", reaches_cut_columns)
    assert run() == got


@pytest.mark.parametrize("model", ["vacant", "occupied"])
def test_column_cut_matches_the_reaches_form(model):
    """On random points near the tube, 64 trials at each radius, the cosh
    test cuts the trials that the zero-length segments of ``_reaches``
    cut, also at R < s, where no vacant ball of radius R - s exists."""
    gen = np.random.default_rng(34)
    feet = np.linspace(-1.95, 1.95, 625)
    for R in (0.03, 0.5, 1.0):
        trial = np.sort(gen.integers(0, 64, 400))
        u, y = gen.uniform(-3.0, 3.0, 400), gen.uniform(-R - 0.1, R + 0.1, 400)
        got = _cut_columns(model, trial, u, y, 64, feet, R, 0.05)
        assert np.array_equal(got, reaches_cut_columns(model, trial, u, y, 64, feet, R, 0.05)), R
        assert got.any() != (model == "vacant" and R < 0.05), R


@pytest.mark.parametrize("d", [4.0, 5.0, 6.0])
@pytest.mark.parametrize("s", [0.02, 0.05])
def test_margins_leave_the_sandwich_unchanged(monkeypatch, d, s):
    """With the column cut made to decide nothing, every trial where f
    fails runs the flood fill, and each result is the same, to the type
    of its fields; each check had decided some trials (the certificate
    at every (d, s) in the occupied case at lambda 2, R 0.7)."""
    cases = [
        ("vacant", ModelParams(0.0, 1.0)),
        ("vacant", ModelParams(0.1, 1.0)),
        ("vacant", ModelParams(0.02, 2.0)),
        ("occupied", ModelParams(0.0, 1.0)),
        ("occupied", ModelParams(1.0, 1.0)),
        ("occupied", ModelParams(3.0, 0.5)),
        ("occupied", ModelParams(2.0, 0.7)),
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
# 0-4, with Q certified and A one-sided, the trials drawn a block at a time
SANDWICH_STREAM = [
    ("vacant", ModelParams(0.1, 1.0), 100,
     [(0.29, 0.27, 0.27), (0.29, 0.27, 0.27), (0.31, 0.29, 0.25), (0.36, 0.36, 0.34),
      (0.3, 0.28, 0.27)]),
    ("occupied", ModelParams(1.0, 1.0), 20,
     [(0.75, 0.65, 0.65), (0.9, 0.8, 0.75), (0.75, 0.65, 0.65), (0.65, 0.65, 0.65),
      (0.7, 0.65, 0.6)]),
    ("lines", ModelParams(0.1), 100,
     [(0.67, 0.67, 0.65), (0.71, 0.7, 0.68), (0.62, 0.62, 0.61), (0.68, 0.67, 0.66),
      (0.67, 0.67, 0.65)]),
]


@pytest.mark.parametrize("model, params, trials, pinned", SANDWICH_STREAM)
def test_sandwich_stream_is_pinned(monkeypatch, model, params, trials, pinned):
    """The tube workload's sandwich gives the recorded triples, and at its
    parameters each margin check settles most of the trials it sees; the
    cross-section certificate, which sees only the trials that the Q
    margin leaves, settles some of them."""
    counts = _spy_margins(monkeypatch)
    got = [sandwich_AQ(X_TUBE, Y_TUBE, 0.05, model, params, trials, RngStream(seed))
           for seed in range(5)]
    assert [(r.p_A, r.f_hat, r.p_Q) for r in got] == pinned
    if model != "lines":
        for name in ("_q_by_margin", "_cut_columns"):
            calls, decided = counts[name]
            assert decided > calls / 2
        assert counts["_q_by_columns"][1] > 0


@pytest.mark.parametrize("budget", [1, 7])
def test_sandwich_is_the_same_at_any_block_size(monkeypatch, budget):
    """Trials decided in groups of at most 7 points, or about one at a
    time, give the results of the default groups, over several default
    groups (about 170 vacant trials of 6 points, or 17 occupied trials of
    60 points) and a part one."""
    cases = [("vacant", ModelParams(0.1, 1.0), 400), ("occupied", ModelParams(1.0, 1.0), 70)]
    cuts, sizes = percolation._group_cuts, []

    def spy(counts, budget):
        for n, owner, elements in cuts(counts, budget):
            sizes.append((n, len(owner)))
            yield n, owner, elements

    def run():
        sizes.clear()
        return [sandwich_AQ(X_TUBE, Y_TUBE, 0.05, model, params, trials, RngStream(seed))
                for model, params, trials in cases for seed in range(2)]

    monkeypatch.setattr(percolation, "_group_cuts", spy)
    default = run()
    assert max(sizes)[0] > 100 and len(sizes) >= 12
    monkeypatch.setattr(percolation, "GROUP_POINTS", budget)
    assert run() == default
    assert all(points <= budget or trials == 1 for trials, points in sizes)


@pytest.mark.parametrize(
    "model, params, exact",
    [("vacant", ModelParams(0.1, 1.0), f_vacant(4.0, ModelParams(0.1, 1.0))),
     ("lines", ModelParams(0.1), f_grassmann(4.0, 0.1))],
    ids=["vacant", "lines"],
)
def test_sandwich_f_matches_the_exact_f(model, params, exact):
    """The sandwich's f-hat over 4000 trials, drawn a block at a time,
    counts the trials whose segment of length d = 4 lies in the set, so
    it is gated by the exact two-sided binomial tail against f(4) (0.278
    vacant, 0.670 lines).  A block drawn at lambda instead of m lambda,
    or every point of a block given to one trial, reads f-hat near 1."""
    trials = 4000
    res = sandwich_AQ(X_TUBE, Y_TUBE, 0.05, model, params, trials, RngStream(70))
    k = round(res.f_hat * trials)
    assert _binomial_tail(k, trials, exact) >= TAIL, (res.f_hat, exact)
    assert res.p_Q <= res.f_hat <= res.p_A


def _split_counts(model, params, rho, samples, seed) -> list:
    """Each block's per-sample counts, as ``_sample_groups`` splits its draw,
    with every block one group."""
    blocks = []
    for n, owner, _ in percolation._sample_groups(model, params, rho, samples,
                                                   RngStream(seed).generator(), 1 << 40):
        blocks.append(np.bincount(owner, minlength=n))
    return blocks


# (model, params, rho, LINE_BLOCK or None, samples): the sandwich's balls
# (6.0 and 60.2 points, 1.20 lines a sample) and a rays ball (1261
# points), in default blocks (5443, 544, 25 and 27,307 samples), and in
# blocks of 4 and 2 samples
SPLIT_CASES = [
    ("vacant", ModelParams(0.1, 1.0), 3.05, None, 20000),
    ("occupied", ModelParams(1.0, 1.0), 3.05, None, 4000),
    ("occupied", ModelParams(1.0, 1.0), 6.0, None, 400),
    ("lines", ModelParams(0.1), 2.05, None, 40000),
    ("vacant", ModelParams(0.1, 1.0), 3.05, 25, 20000),
    ("lines", ModelParams(0.1), 2.05, 3, 20000),
]


@pytest.mark.parametrize("model, params, rho, line_block, samples", SPLIT_CASES)
def test_block_split_counts_are_poisson(monkeypatch, model, params, rho, line_block, samples):
    """A block of m samples is one draw at m lambda split by a multinomial
    draw of its counts, so each sample's count is Poisson with mean mu =
    lambda area B(rho) (lambda phi_ball(rho) for lines).  Over all the
    samples, the mean lies within z sqrt(mu / N) of mu and the variance
    within z sqrt((mu + 2 mu^2) / N) of mu, z = norm.isf(TAIL / 2) = 5.5.
    A block drawn at lambda reads the mean mu / m; every point given to
    one sample reads a variance near m mu^2."""
    if line_block is not None:
        monkeypatch.setattr(percolation, "LINE_BLOCK", line_block)
    mu = params.intensity * (math.pi * math.sinh(rho) if model == "lines" else ball_area(rho))
    blocks = _split_counts(model, params, rho, samples, 71)
    counts = np.concatenate(blocks)
    assert len(counts) == samples and len(blocks) > 1
    z, n = norm.isf(TAIL / 2.0), len(counts)
    assert abs(counts.mean() - mu) <= z * math.sqrt(mu / n), (counts.mean(), mu)
    assert abs(counts.var(ddof=1) - mu) <= z * math.sqrt((mu + 2.0 * mu * mu) / n)


@pytest.mark.parametrize("model, params, rho, line_block, samples",
                         [case for case in SPLIT_CASES if case[3] is not None])
def test_block_split_counts_are_uncorrelated(monkeypatch, model, params, rho, line_block,
                                             samples):
    """The samples of a block are independent Poisson processes, so over
    the blocks the counts of a block's first two samples have correlation
    0, within z / sqrt(blocks), z = norm.isf(TAIL / 2) = 5.5.  A split of a
    fixed total among m samples reads -1 / (m - 1): -1/3 in blocks of 4,
    -1 in blocks of 2."""
    monkeypatch.setattr(percolation, "LINE_BLOCK", line_block)
    blocks = np.asarray(_split_counts(model, params, rho, samples, 72))
    corr = np.corrcoef(blocks[:, 0], blocks[:, 1])[0, 1]
    assert blocks.shape[1] in (2, 4)
    assert abs(corr) <= norm.isf(TAIL / 2.0) / math.sqrt(len(blocks)), corr


def _ring_net(center_foot: float, s: float, mesh: float) -> np.ndarray:
    """Reference for end_nets: the net of B(i e^center_foot, s) built
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
    for c, net in zip((-2.0, 2.0), end_nets(2.0, s, mesh)):
        assert net.tobytes() == _ring_net(c, s, mesh).tobytes(), c


def _grid_flood(model: str, u, y, R: float, half_d: float, s: float) -> bool:
    """The sandwich's A for the points at axis coordinates (u, y): the
    flood fill over its grid, the cells blocked at R -+ rho."""
    feet, offs, in_region, start, end = _tube_grid(half_d, s)
    rho = _cell_radius(feet, offs)
    blocked = percolation._blocked_cells(feet, offs, u, y, _cell_test_radius(model, R, rho))
    return _flood_connected((blocked if model == "occupied" else ~blocked) & in_region, start, end)


@pytest.mark.parametrize(
    "model, params", [("vacant", ModelParams(0.1, 1.0)), ("occupied", ModelParams(1.0, 1.0))]
)
def test_filtered_points_decide_the_net_alike(model, params):
    """The sandwich decides its events only from the points strictly
    within R + s of the central segment; on the whole window of the tube,
    a coarse Q net and the flood fill are decided alike at these seeds.
    (A dropped occupied point could open only a cell that it covers
    outside the tube, which the bracket allows either way.)"""
    half_d, s, R = 2.0, 0.05, params.radius
    seg_p, seg_q = q_net(half_d, s, 0.999 * s / 2.0)
    nets, floods, dropped = set(), set(), 0
    for seed in range(40):
        pts = sample_points(params, half_d + s + R, RngStream(seed).generator()).points
        u, y = axis_coordinates(pts)
        near = _within_segment(u, y, half_d, R + s)
        full = net_contained(seg_p, seg_q, to_hyperboloid(pts), R, model)
        assert net_contained(seg_p, seg_q, to_hyperboloid(pts[near]), R, model) == full, seed
        flood = _grid_flood(model, u, y, R, half_d, s)
        assert _grid_flood(model, u[near], y[near], R, half_d, s) == flood, seed
        nets.add(full)
        floods.add(flood)
        dropped += int((~near).sum())
    assert nets == floods == {True, False} and dropped > 0


@pytest.mark.parametrize(
    "model, params", [("vacant", ModelParams(0.1, 1.0)), ("occupied", ModelParams(1.0, 1.0))]
)
def test_certified_q_implies_the_net(model, params):
    """Over 300 one-trial sandwiches at the tube workload's parameters,
    every certified Q is accepted by the Q net on the same realization,
    whose segments are some of those that Q* quantifies over: Q lies
    below Q*, which lies below the net."""
    half_d, s, R = dist(X_TUBE, Y_TUBE) / 2.0, 0.05, params.radius
    seg_p, seg_q = q_net(half_d, s)
    certified = 0
    for seed in range(300):
        res = sandwich_AQ(X_TUBE, Y_TUBE, s, model, params, 1, RngStream(seed))
        if res.p_Q == 1.0:
            pts = sample_points(params, half_d + s + R, RngStream(seed).generator()).points
            assert net_contained(seg_p, seg_q, to_hyperboloid(pts), R, model), seed
            certified += 1
    assert 50 < certified < 300


def test_the_net_accepts_a_tube_that_q_refuses(monkeypatch):
    """A vacant point at distance R + 0.996 s from the start centre x, at
    right angles to the axis, midway between two points of the Q net's
    outer ring (26 points at radius 0.999 s), keeps more than R from
    every net segment, so the net accepts; but it lies within R of the
    segment from the point of B(x, s) toward it to y, so Q* fails, and
    so does Q.  f and A hold.  In canonical position x and y lie at
    i e^-2 and i e^2."""
    params, s, R = ModelParams(0.1, 1.0), 0.05, 1.0
    z = math.exp(-2.0) * polar_around_origin(np.asarray([R + 0.996 * s]), np.asarray([math.pi / 2]))
    assert net_contained(*q_net(2.0, s), to_hyperboloid(z), R, "vacant")
    t, psi = polar_of(z)
    edge = math.exp(-2.0) * polar_around_origin(s * (1.0 - 1e-9), math.pi / 2)
    sample = BooleanSample(params, 2.0 + s + R, t, psi)
    y_end = HPoint(0.0, math.exp(2.0))
    assert not segment_in("vacant", HPoint(float(edge.real), float(edge.imag)), y_end, sample)
    _fixed_points(monkeypatch, z)
    res = sandwich_AQ(X_TUBE, Y_TUBE, s, "vacant", params, 1, RngStream(0))
    assert (res.p_A, res.f_hat, res.p_Q) == (1.0, 1.0, 0.0)


def _fine_flood(model: str, u, y, R: float, half_d: float, s: float, mesh: float) -> bool:
    """A flood fill at the given mesh whose cells are judged by their
    centres: the region and the start and end cells hold the centres
    within s of the central segment, of x and of y, and a cell is open
    when no point lies strictly within R of its centre (vacant) or some
    point lies within R of it (occupied); 4-connected components by
    ``scipy.ndimage.label``.  Each point is measured only on the rows of
    feet within R of its own, as cosh dist >= cosh(u - t)."""
    feet = np.linspace(-half_d - s, half_d + s, int(math.ceil((2.0 * half_d + 2.0 * s) / mesh)) + 1)
    offs = np.linspace(-s, s, 2 * int(math.ceil(s / mesh)) + 1)
    near = np.zeros((len(feet), len(offs)), dtype=bool)
    for uk, yk in zip(u, y):
        rows = np.abs(feet - uk) < R
        ch = math.cosh(yk) * np.cosh(offs) * np.cosh(uk - feet[rows])[:, None]
        near[rows] |= ch - math.sinh(yk) * np.sinh(offs) < math.cosh(R)
    tt = np.abs(feet)[:, None]
    reach = np.cosh(np.maximum(tt - half_d, 0.0)) * np.cosh(offs)
    region = reach <= math.cosh(s)
    start, end = ((np.cosh(feet - c)[:, None] * np.cosh(offs) <= math.cosh(s))
                  for c in (-half_d, half_d))
    open_cells = (near if model == "occupied" else ~near) & region
    return _label_connected(open_cells, start, end)


@pytest.mark.parametrize(
    "model, params, seeds",
    [("vacant", ModelParams(0.1, 1.0), 60), ("occupied", ModelParams(1.0, 1.0), 120)],
)
def test_one_sided_a_contains_the_fine_flood(model, params, seeds):
    """On one-trial sandwiches at the tube workload's parameters, every
    A that the sandwich refuses is refused by a flood fill at mesh s / 64
    judged by its cells' centres, an approximation of A* from finer cells;
    A holds on some where f fails."""
    half_d, s, R = dist(X_TUBE, Y_TUBE) / 2.0, 0.05, params.radius
    refused = a_not_f = 0
    for seed in range(seeds):
        res = sandwich_AQ(X_TUBE, Y_TUBE, s, model, params, 1, RngStream(seed))
        a_not_f += res.p_A > res.f_hat
        if res.p_A == 0.0:
            pts = sample_points(params, half_d + s + R, RngStream(seed).generator()).points
            u, y = axis_coordinates(pts)
            near = _within_segment(u, y, half_d, R + s)
            assert not _fine_flood(model, u[near], y[near], R, half_d, s, s / 64.0), seed
            refused += 1
    assert refused > 10 and a_not_f > 0


def test_one_sided_a_passes_a_gap_between_cell_centres(monkeypatch):
    """Two vacant points at foot 0 leave a channel of width 0.001 s at
    offsets around 0.5625 s, between two rows of cell centres, and the
    lower one blocks the central segment.  A path along the channel joins
    the end balls, so A* holds, and so does A; cells judged by their
    centres at radius R close every cell across the channel."""
    params, s, R = ModelParams(0.1, 1.0), 0.05, 1.0
    gap, width = 0.5625 * s, 0.001 * s
    pts = axis_point(np.zeros(2), np.asarray([gap + width / 2.0 + R, gap - width / 2.0 - R]))
    _fixed_points(monkeypatch, pts)
    res = sandwich_AQ(X_TUBE, Y_TUBE, s, "vacant", params, 1, RngStream(0))
    assert (res.p_A, res.f_hat, res.p_Q) == (1.0, 0.0, 0.0)
    feet, offs, in_region, start, end = _tube_grid(2.0, s)
    u, y = axis_coordinates(pts)
    by_centres = ~percolation._blocked_cells(feet, offs, u, y, R) & in_region
    assert not _flood_connected(by_centres, start, end)


@pytest.mark.parametrize("lam", [0.1, 0.3])
def test_lines_closed_forms_match_a_fine_net(lam):
    """On 400 line realizations of the tube workload's sandwich, the
    closed forms give the f and Q of end nets at mesh 0.999 s / 32, whose
    outer rings lie at 0.999 s, and A wherever some point of one net is
    joined to some point of the other, off the lines."""
    half_d, s = 2.0, 0.05
    hx, hy = (to_hyperboloid(net) for net in end_nets(half_d, s, 0.999 * s / 32.0))
    gen = RngStream(7).generator()
    samples = [sample_lines(lam, half_d + s, gen) for _ in range(400)]
    a_ok, f_ok, q_ok = _lines_tube_events(*group_of(samples), half_d, s)
    for i, sample in enumerate(samples):
        a_net, f_net, q_net_ok = lines_net_events(sample, hx, hy)
        assert (f_ok[i], q_ok[i]) == (f_net, q_net_ok), i
        assert a_ok[i] or not a_net, i
    assert 0 < q_ok.sum() < f_ok.sum() < a_ok.sum() < len(samples)


@pytest.mark.parametrize("s", [0.001, 0.02, 0.05])
def test_cell_radius_bounds_every_cell(s):
    """Points on the four edges of cells in the grid's outer and middle
    rows of offsets, measured from the cell's centre by ``dist_arrays``,
    lie within rho, and the outer cells' far corners reach it, less its
    margin for rounding."""
    feet, offs = _tube_grid(2.0, s)[:2]
    rho = _cell_radius(feet, offs)
    a, b = (feet[1] - feet[0]) / 2.0, (offs[1] - offs[0]) / 2.0
    e = np.linspace(-1.0, 1.0, 101)
    edge_t = np.concatenate([a * e, a * e, np.full(101, a), np.full(101, -a)])
    edge_v = np.concatenate([np.full(101, b), np.full(101, -b), b * e, b * e])
    for t0, v0 in ((feet[7], offs[0]), (feet[300], offs[len(offs) // 2]), (feet[-1], offs[-1])):
        d = dist_arrays(axis_point(t0 + edge_t, v0 + edge_v), axis_point(t0, v0))
        assert d.max() <= rho, (t0, v0)
        if v0 != 0.0:
            assert d.max() == pytest.approx(rho - 1e-12, rel=1e-9, abs=0.0)


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


def _label_connected(open_grid, start_cells, end_cells) -> bool:
    """The flood fill's oracle: some 4-connected component of the open
    cells, as ``scipy.ndimage.label`` numbers them, holds an open start
    cell and an open end cell."""
    labels, _ = ndimage.label(open_grid)
    return bool(np.intersect1d(labels[start_cells & open_grid], labels[end_cells & open_grid]).size)


def _serpentine(shape, gap=None) -> np.ndarray:
    """Open cells of a corridor on the tube workload's grid (657 x 17):
    along the feet at offset 2 from the start centre to foot 400, across
    to offset 8, back along the feet to foot 100, across to offset 14 and
    on to the end centre; gap, a (foot, offset) cell, is closed."""
    grid = np.zeros(shape, dtype=bool)
    grid[8:401, 2] = True
    grid[400, 2:9] = True
    grid[100:401, 8] = True
    grid[100, 8:15] = True
    grid[100:649, 14] = True
    if gap is not None:
        grid[gap] = False
    return grid


@pytest.mark.parametrize("s", [0.001, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05])
def test_tube_grid_matches_the_arccosh_grid(s):
    """At d = 4, 4.05, ..., 12 the grid has the oracle's feet and offsets,
    and each mask holds every cell that the oracle puts within s of an
    end centre (or in the straight tube) and none that it puts beyond
    s + 1e-9: the grid's cosh test errs only toward more cells."""
    for d in np.linspace(4.0, 12.0, 161):
        got, lo, hi = _tube_grid(d / 2.0, s), tube_grid(d / 2.0, s), tube_grid(d / 2.0, s, 1e-9)
        assert np.array_equal(got[0], lo[0]) and np.array_equal(got[1], lo[1]), (d, s)
        for mask, inner, outer in zip(got[2:], lo[2:], hi[2:], strict=True):
            assert mask.shape == inner.shape and np.all(inner <= mask) and np.all(mask <= outer)


def test_flood_fill_agrees_with_the_component_labels():
    """On the tube workload's grid, with its start and end masks: seeded
    random grids of open density 0.3-0.8, an all-closed grid, a grid
    whose start cells are all closed, and a corridor that doubles back
    along the feet, whole and cut."""
    _, _, in_region, start, end = _tube_grid(2.0, 0.05)
    rng = np.random.default_rng(2024)
    grids = [(rng.random(in_region.shape) < p) & in_region
             for p in np.repeat(np.linspace(0.3, 0.8, 11), 4)]
    outcomes = [_label_connected(g, start, end) for g in grids]
    assert 0 < sum(outcomes) < len(grids)
    for grid, expected in zip(grids, outcomes):
        assert _flood_connected(grid, start, end) == expected
    cases = [
        (np.zeros_like(in_region), False),
        (in_region & ~start, False),
        (in_region, True),
        (_serpentine(in_region.shape), True),
        (_serpentine(in_region.shape, gap=(250, 8)), False),
        (_serpentine(in_region.shape, gap=(100, 11)), False),
    ]
    for grid, expected in cases:
        assert _label_connected(grid, start, end) == expected
        assert _flood_connected(grid, start, end) == expected


@pytest.mark.parametrize(
    "open_cells, start, end, expected",
    [
        # a start cell next to an end cell, and one that is an end cell
        ([(0, 0), (1, 0)], [(0, 0)], [(1, 0)], True),
        ([(2, 1)], [(2, 1)], [(2, 1)], True),
        # diagonal neighbours are not joined
        ([(0, 0), (1, 1)], [(0, 0)], [(1, 1)], False),
        # an end cell next to the start cell but closed
        ([(0, 0)], [(0, 0)], [(1, 0)], False),
    ],
)
def test_flood_fill_of_start_cells_that_touch_end_cells(open_cells, start, end, expected):
    def mask(cells):
        grid = np.zeros((4, 3), dtype=bool)
        grid[tuple(np.transpose(cells))] = True
        return grid

    args = mask(open_cells), mask(start), mask(end)
    assert _label_connected(*args) == expected
    assert _flood_connected(*args) == expected


def test_sandwich_is_the_same_with_the_component_labels(monkeypatch):
    """The tube workload's Boolean sandwiches give equal results with the
    flood fill and with its oracle; the flood fill ran in many trials."""
    calls = []

    def counted(*args):
        calls.append(1)
        return _flood_connected(*args)

    cases = [("vacant", ModelParams(0.1, 1.0), 50), ("occupied", ModelParams(1.0, 1.0), 10)]
    monkeypatch.setattr(percolation, "_flood_connected", counted)
    got = [sandwich_AQ(X_TUBE, Y_TUBE, 0.05, model, params, trials, RngStream(seed))
           for model, params, trials in cases for seed in range(10)]
    monkeypatch.setattr(percolation, "_flood_connected", _label_connected)
    want = [sandwich_AQ(X_TUBE, Y_TUBE, 0.05, model, params, trials, RngStream(seed))
            for model, params, trials in cases for seed in range(10)]
    assert got == want
    assert len(calls) >= 20


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
    i e^2: a line behind the start centre, within s of it, cuts the
    start ball (Q fails), a line just past it separates the centres but
    not the whole balls (A holds, f fails), and a line at the middle
    separates everything.  The end nets give the same events."""
    s = 0.05
    hx, hy = (to_hyperboloid(net) for net in end_nets(2.0, s, 0.999 * s / 4.0))
    feet = np.asarray(feet)
    # the line at right angles to the axis at foot c has its foot there:
    # distance |c| from (0, 1), disk direction 0 above (0, 1) and pi below
    lines = LineSample(1.0, 2.05, np.abs(feet), np.where(feet < 0.0, math.pi, 0.0))
    assert lines_tube_events(lines, 2.0, s) == lines_net_events(lines, hx, hy) == events
    assert tuple(ok.tolist() for ok in _lines_tube_events(*group_of([lines]), 2.0, s)) == tuple(
        [e] for e in events)


@pytest.mark.parametrize("model", ["vacant", "occupied", "lines"])
def test_empty_process(model):
    """With no points or lines, the vacant set and the complement of the
    lines are the whole plane, and the occupied set is empty: no trial
    ends, or none is at risk at r = 0."""
    params = ModelParams(0.0, None if model == "lines" else 1.0)
    inside = model != "occupied"
    [rays] = surviving_directions(model, params, 4.0, 16, 1, RngStream(1))
    assert len(rays.surviving) == (16 if inside else 0)
    [det] = detect_line_through_ball(model, params, 0.1, 4.0, 1, RngStream(1), n_directions=36)
    assert det.found == inside
    [rays] = surviving_directions(model, params, 4.0, 36, 1, RngStream(1))
    assert len(rays.surviving) == (36 if inside else 0)
    res = sandwich_AQ(X_TUBE, Y_TUBE, 0.05, model, params, 2, RngStream(1))
    assert (res.p_A, res.f_hat, res.p_Q) == ((1.0,) * 3 if inside else (0.0,) * 3)
    f = estimate_f(model, params, [0.0, 2.0], 100, RngStream(1))
    assert np.all(f.estimates == (1.0 if inside else 0.0))
    if inside:
        assert (f.alpha_hat, f.alpha_stderr) == (0.0, 0.0)
    else:
        assert math.isnan(f.alpha_hat) and math.isnan(f.alpha_stderr)
    gen = RngStream(1).generator()
    if model == "lines":
        sample = sample_lines(0.0, 5.0, gen)
    else:
        sample = sample_points(params, 5.0, gen)
    assert segment_in(model, ORIGIN, _axis_end(3.0), sample) == inside


@pytest.mark.parametrize(
    "model, params, r, n_dir, f",
    [("vacant", ModelParams(0.2, 1.0), 2.0, 32, f_vacant),
     ("lines", ModelParams(0.8), 2.0, 32, lambda r, params: f_grassmann(r, params.intensity)),
     ("lines", ModelParams(0.1), 10.0, 360, lambda r, params: f_grassmann(r, params.intensity)),
     ("lines", ModelParams(0.04), LINES_MAX_R, 360,
      lambda r, params: f_grassmann(r, params.intensity))],
    ids=["vacant", "lines", "lines-far", "lines-bound"],
)
def test_ray_share_matches_f(model, params, r, n_dir, f):
    """Each direction's ray survives with probability f(r), so the mean
    surviving share over independent samples is gated by Hoeffding's
    bound 2 exp(-2 n t^2) = TAIL.  A vacant window missing the balls
    beyond B(o, r) would read about 0.3 here, against f = 0.197; for
    lines f = e^{-lambda r} = 0.202, 0.368 and, at the longest lines
    rays accepted, 0.368."""
    n = 2000
    rays = surviving_directions(model, params, r, n_dir, n, RngStream(50))
    share = [len(rs.surviving) / n_dir for rs in rays]
    t = math.sqrt(math.log(2.0 / TAIL) / (2.0 * n))
    assert abs(np.mean(share) - f(r, params)) <= t


@pytest.mark.parametrize("params, r, n_dir", [(ModelParams(1.0, 1.0), 3.0, 64),
                                              (ModelParams(2.0, 0.7), 2.0, 360)])
def test_occupied_ray_share_matches_estimate_f(params, r, n_dir):
    """The occupied f has no closed form, so the mean surviving share over
    2000 independent samples is compared with estimate_f at the same
    (lambda, R, r) on 20,000 trials of an independent stream.  The
    samples' shares are i.i.d. with mean f(r), and the trials are
    Bernoulli(f(r)), so the difference over its estimated standard error
    sqrt(var(share) / 2000 + f (1 - f) / 20000) is about standard normal;
    the two-sample z-test rejects beyond norm.isf(TAIL / 2) = 5.5."""
    n, trials = 2000, 20000
    rays = surviving_directions("occupied", params, r, n_dir, n, RngStream(51))
    share = np.asarray([len(rs.surviving) / n_dir for rs in rays])
    f = float(estimate_f("occupied", params, [r], trials, RngStream(52)).estimates[0])
    se = math.sqrt(share.var(ddof=1) / n + f * (1.0 - f) / trials)
    assert 0.1 < f < 0.9
    assert abs(share.mean() - f) <= norm.isf(TAIL / 2.0) * se


@pytest.mark.parametrize("lam, r, n_dir, lag", [(0.1, 10.0, 360, 1), (0.1, 10.0, 360, 5),
                                                (0.1, 10.0, 360, 180), (0.3, 5.0, 64, 1),
                                                (0.3, 5.0, 64, 5), (0.3, 5.0, 64, 32)])
def test_ray_pairs_match_the_triangle(lam, r, n_dir, lag):
    """The lines that meet rays k and k + lag are those that meet their
    triangle, of measure half its perimeter, r + c / 2 with sinh(c / 2) =
    sinh r sin(pi lag / n_dir); both rays survive with probability
    f_grassmann(r + c / 2).  The share of such surviving pairs per sample
    is gated by Hoeffding's bound, as in ``test_ray_share_matches_f``:
    lines thinned to those that cross a grid ray keep the joint law, not
    only each ray's."""
    n = 2000
    rays = surviving_directions("lines", ModelParams(lam), r, n_dir, n, RngStream(60))
    alive = np.zeros((n, n_dir), dtype=bool)
    for i, rs in enumerate(rays):
        alive[i, rs.surviving] = True
    share = (alive & np.roll(alive, -lag, axis=1)).mean(axis=1)
    c = 2.0 * math.asinh(math.sinh(r) * math.sin(math.pi * lag / n_dir))
    t = math.sqrt(math.log(2.0 / TAIL) / (2.0 * n))
    assert abs(share.mean() - f_grassmann(r + c / 2.0, lam)) <= t


@pytest.mark.parametrize("r, lam", [(1.0, -1.0), (1.0, -math.inf), (1.0, math.nan),
                                    (math.nan, 1.0), (-1.0, 1.0)])
def test_f_grassmann_refuses_what_is_no_probability(r, lam):
    """f_grassmann(1, -1) read e^1 = 2.718, and a NaN length or intensity
    read NaN."""
    with pytest.raises(ValueError, match="nonnegative"):
        f_grassmann(r, lam)


@pytest.mark.parametrize("r", [1e-3, 2.0, 10.0, 19.0, 30.0, 400.0])
def test_half_arc_against_50_digits(r):
    """The arc of directions a line blocks, cos beta = tanh p / tanh r,
    keeps its digits up to p = r: arccos of the rounded ratio read 0 for
    every p beyond 18.4 at r = 19, which left those lines blocking no
    ray and the rays' share at lambda = 0.1 reading 0.155 against
    e^{-1.9} = 0.150."""
    mpmath = pytest.importorskip("mpmath")
    p = r * np.asarray([0.0, 1e-9, 0.3, 0.9, 0.97, 1.0 - 1e-6, 1.0 - 1e-12, 1.0])
    got = _half_arc(p, r)
    # tanh r needs about 0.87 r digits to tell it from 1
    with mpmath.workdps(50 + int(r)):
        for pk, beta in zip(p, got):
            exact = mpmath.acos(mpmath.tanh(mpmath.mpf(pk)) / mpmath.tanh(r))
            assert abs(beta - float(exact)) <= 4e-16 * float(exact), (pk, beta, exact)


@pytest.mark.parametrize("lam, r, n_dir", [(0.1, 10.0, 360), (0.3, 5.0, 64), (0.8, 2.0, 32)])
def test_grid_lines_count_matches_their_measure(lam, r, n_dir):
    """The lines that cross a grid ray number Poisson with mean (lam / 2)
    n_dir int_0^r min(h, 2 beta(p)) cosh p dp, cos beta = tanh p / tanh r,
    per sample; over 2000 samples the total is gated by its exact
    two-sided Poisson tail.  Keeping 10% too few lines fails every case."""
    h, n = 2.0 * math.pi / n_dir, 2000

    def density(p):
        return min(h, 2.0 * math.acos(math.tanh(p) / math.tanh(r))) * math.cosh(p)

    wide = math.atanh(math.tanh(r) * math.cos(h / 2.0))  # where 2 beta = h
    mean = lam / 2.0 * n_dir * sum(integrate.quad(density, a, b, epsrel=1e-10, limit=200)[0]
                                   for a, b in [(0.0, wide), (wide, r)])
    groups = _grid_lines(lam, r, n_dir, n, RngStream(9).generator(), percolation.RAY_PAIRS)
    total = sum(len(sample) for _, _, sample, _ in groups)
    tail = 2.0 * min(poisson.cdf(total, n * mean), poisson.sf(total - 1, n * mean))
    assert tail >= TAIL, (total, n * mean)


def test_grid_lines_draw_in_blocks_under_the_cap(monkeypatch):
    """Under a block of 1000 lines, samples that expect 289 envelope
    lines each are drawn three to a block: at a budget of one line, the
    call yields every sample as a group of its own, and each block as a
    call for just its samples draws it from the same generator state; at
    a budget of 1000 lines, a group is a block.  A sample that expects
    more than the sampling cap, here also 1000, is refused."""
    monkeypatch.setattr(percolation, "LINE_BLOCK", 1000)
    monkeypatch.setattr(sampling, "MAX_TRIAL_POINTS", 1000)
    got = list(_grid_lines(0.1, 10.0, 360, 7, RngStream(2).generator(), 1))
    gen = RngStream(2).generator()
    ref = [group for m in (3, 3, 1) for group in _grid_lines(0.1, 10.0, 360, m, gen, 1)]
    assert len(got) == 7 and all(n == 1 and len(sample) > 100 for n, _, sample, _ in got)
    for (_, _, a, ray_a), (_, _, b, ray_b) in zip(got, ref, strict=True):
        assert np.array_equal(a.foot_dist, b.foot_dist) and np.array_equal(a.foot_dir, b.foot_dir)
        assert np.array_equal(ray_a, ray_b)
    blocks = list(_grid_lines(0.1, 10.0, 360, 7, RngStream(2).generator(), 1000))
    assert [n for n, *_ in blocks] == [3, 3, 1]
    assert np.array_equal(np.concatenate([g[2].foot_dir for g in blocks]),
                          np.concatenate([g[2].foot_dir for g in got]))
    with pytest.raises(ValueError, match="MAX_TRIAL_POINTS"):
        next(_grid_lines(1.0, 10.0, 360, 1, gen, 1))


@pytest.mark.parametrize("r, misses", [(25.0, False), (30.0, True), (36.0, True)])
def test_narrow_lines_block_their_ray(r, misses):
    """Each line that ``_grid_lines`` draws with 2 beta < h lies within
    beta of its grid angle k h, so it blocks ray k and no other.  Over 200
    samples at lambda 0.1 and 360 directions (139,192 such lines at r = 25
    and 218,538 at r = 36), each of them, decided as a sample of its own,
    leaves every ray but its k alive.  Rounding (phi -+ beta) / h, as the
    arcs of the wide lines are, misses the grid ray of none of them at
    r = 25, of one at r = 30 and of 141 at r = 36."""
    n_dir, rounded_misses, narrow_lines = 360, 0, 0
    h = 2.0 * math.pi / n_dir
    for _, _, sample, ray in _grid_lines(0.1, r, n_dir, 200, RngStream(8).generator(), 2000):
        narrow = ray >= 0
        m = int(narrow.sum())
        lines = LineSample(0.1, r, sample.foot_dist[narrow], sample.foot_dir[narrow])
        alive = _line_ray_survivors(m, np.arange(m), lines, ray[narrow], r, n_dir)()
        assert not alive[np.arange(m), ray[narrow]].any()
        assert np.all(alive.sum(axis=1) == n_dir - 1)
        beta = _half_arc(lines.foot_dist, r)
        rounded_misses += int(np.sum(np.ceil((lines.foot_dir - beta) / h)
                                     > np.floor((lines.foot_dir + beta) / h)))
        narrow_lines += m
    assert narrow_lines > 100000
    assert (rounded_misses > 0) == misses


@pytest.mark.parametrize("model", ["lines", "vacant"])
def test_lines_rays_refuse_rays_past_the_bound(model):
    """Past LINES_MAX_R a line's blocked arc nears the rounding of its
    direction, so lines rays and detect-line refuse the ray length, by
    its CLI name, before any draw; the Boolean models are bounded by the
    sampling cap instead, and take a ray just past it at a low intensity."""
    params = ModelParams(1e-9, 1.0)
    r = LINES_MAX_R + 1e-9
    if model == "lines":
        with pytest.raises(ValueError, match="--r"):
            surviving_directions(model, params, r, 360, 1, RngStream(0))
        with pytest.raises(ValueError, match="--r"):
            detect_line_through_ball(model, params, 0.1, r, 1, RngStream(0))
    else:
        assert surviving_directions(model, params, r, 360, 1, RngStream(0))[0].surviving


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


# (r, s) of the pair tests: s = 0.5 lets the coarse grids of 8 and 9
# directions have pairs, and at s = 1e-20 no chord of any grid passes
# close enough, not even an antipodal one (its distance rounds to ~6e-17)
PAIR_CASES = [(4.0, 0.1), (10.0, 0.02), (2.0, 0.5), (4.0, 1e-20)]


@pytest.mark.parametrize("n_dir", [8, 9, 36, 37, 360, 361])
@pytest.mark.parametrize(
    "model, params",
    [("vacant", ModelParams(0.05, 1.0)), ("occupied", ModelParams(1.0, 1.0)),
     ("lines", ModelParams(0.1))],
)
def test_antipodal_pairs_match_all_pairs(model, params, n_dir):
    """detect-line tries the pairs, and in the order, of the all-pairs
    reference and of the search among each sample's surviving
    directions: the call's pairs of the whole grid, gathered per group,
    on the full grid, whose pairs tie in their distance from antipodal,
    and on each row of the group masks of real samples."""
    groups = [survive() for _, survive in _ray_groups(model, params, 4.0, n_dir, 8, RngStream(0),
                                                      n_dir)]
    groups.append(np.ones((1, n_dir), dtype=bool))
    assert max(len(alive) for alive in groups) > 1
    partial_tried, sizes = 0, []
    for r, s in PAIR_CASES:
        pair_i, pair_j = _antipodal_pairs(n_dir, r, s)
        sizes.append(len(pair_i))
        for alive in groups:
            sample, pair = _candidates(alive, pair_i, pair_j)
            assert np.all(np.diff(sample) >= 0)
            for row, mask in enumerate(alive):
                got = pair_i[pair[sample == row]], pair_j[pair[sample == row]]
                for ref in (_all_pairs_antipodal(mask, r, s), antipodal_pairs(mask, r, s)):
                    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
                partial_tried += len(got[0]) * (not mask.all())
    assert partial_tried > 0 and sizes[-1] == 0


@pytest.mark.parametrize("build, args", [(_antipodal_pairs, (360, 5.0, 0.1)),
                                         (_tube_grid, (2.0, 0.05))])
def test_call_constants_are_built_once_and_read_only(build, args):
    """detect-line's pairs and the sandwich's grid are kept per process:
    a second call returns the very arrays of the first, which no caller
    can write."""
    first, second = build(*args), build(*args)
    assert all(a is b for a, b in zip(first, second, strict=True))
    for a in first:
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = a[:1]


@pytest.mark.parametrize("n_dir", [-4, 0, 1, 3, 7])
def test_detect_line_needs_eight_directions(n_dir):
    with pytest.raises(ValueError, match="at least 8 directions"):
        detect_line_through_ball("lines", ModelParams(0.1), 0.1, 4.0, 1, RngStream(1), n_dir)
    [det] = detect_line_through_ball("lines", ModelParams(0.0), 0.1, 4.0, 1, RngStream(1), 8)
    assert (det.found, det.witness) == (True, (0, 4))
    [rays] = surviving_directions("lines", ModelParams(0.0), 4.0, 8, 1, RngStream(1))
    assert rays.surviving == list(range(8))


@pytest.mark.parametrize("s", [-1.0, 0.0, float("nan"), math.inf])
def test_detect_line_needs_a_positive_ball(s):
    with pytest.raises(ValueError, match="radius s must be positive"):
        detect_line_through_ball("lines", ModelParams(0.1), s, 4.0, 1, RngStream(1))


@pytest.mark.parametrize(
    "samples, n_dir, match",
    [pytest.param(samples, 16, "samples must be an integer", id=str(samples))
     for samples in (-1, 2.5, math.nan, math.inf, "3")]
    + [pytest.param(1, n_dir, "at least 8 directions, a whole number", id=f"directions={n_dir}")
       for n_dir in (64.0, 8.5, math.nan)],
)
@pytest.mark.parametrize("model", ["vacant", "lines"])
def test_rays_need_a_whole_sample_count(model, samples, n_dir, match):
    """A negative count read no sample and 2.5 raised TypeError; 64.0
    directions raised IndexError, 8.5 TypeError, and nan failed on the
    length of a range.  All are refused before any draw, and 0 samples
    give none."""
    params = ModelParams(0.1, None if model == "lines" else 1.0)
    with pytest.raises(ValueError, match=match):
        surviving_directions(model, params, 4.0, n_dir, samples, RngStream(1))
    with pytest.raises(ValueError, match=match):
        detect_line_through_ball(model, params, 0.1, 4.0, samples, RngStream(1), n_dir)
    assert surviving_directions(model, params, 4.0, 16, np.int64(0), RngStream(1)) == []


@pytest.mark.parametrize(
    "trials, y_end, match",
    [pytest.param(trials, Y_TUBE, "trials must be an integer of at least 1", id=str(trials))
     for trials in (0, -1, 2.5, math.nan)]
    + [pytest.param(1, HPoint(0.0, math.inf), "need a finite d", id="y-at-infinity"),
       pytest.param(1, HPoint(math.nan, 1.0), "need a finite d", id="y-nan")],
)
def test_sandwich_needs_a_trial(trials, y_end, match):
    """0 trials failed on the sandwich's own unpacking of no events, and a
    y at infinity on converting a NaN to an integer."""
    with pytest.raises(ValueError, match=match):
        sandwich_AQ(X_TUBE, y_end, 0.05, "vacant", ModelParams(0.1, 1.0), trials, RngStream(1))


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("model", ["vacant", "lines"])
def test_rays_need_a_positive_length(model, r):
    params = ModelParams(0.1, None if model == "lines" else 1.0)
    with pytest.raises(ValueError, match="ray length r must be positive"):
        surviving_directions(model, params, r, 16, 1, RngStream(1))
    with pytest.raises(ValueError, match="ray length r must be positive"):
        detect_line_through_ball(model, params, 0.1, r, 1, RngStream(1))


@pytest.mark.parametrize("r", [1e-8, 1e-100, 1e-300])
@pytest.mark.parametrize(
    "model, params", [("vacant", ModelParams(0.1, 1.0)), ("occupied", ModelParams(0.3, 1.0))]
)
def test_short_chords_are_decided_at_the_origin(model, params, r):
    """Rays and chords of length about r lie within r of (0, 1), so
    detect-line finds a chord in a sample iff (0, 1) lies outside every
    ball (vacant) or inside one (occupied), over 100 samples that hold
    both kinds.  The chords are read in their frame at the foot; a frame
    taken from the cosh of their length, which rounds to 1, read a point
    2 from (0, 1) at foot -674 at r = 1e-8 and divided by zero at
    1e-200."""
    found = detect_line_through_ball(model, params, 0.1, r, 100, RngStream(7), n_directions=36)
    samples, outcomes = ray_samples(model, params, r, 36, 100, RngStream(7).generator()), set()
    for i, (det, sample) in enumerate(zip(found, samples, strict=True)):
        covered = bool(np.any(sample.t < params.radius))
        assert det.found == (covered if model == "occupied" else not covered), i
        outcomes.add(covered)
    assert outcomes == {True, False}


@pytest.mark.parametrize("r", [5.0, 10.0])
@pytest.mark.parametrize("lam", [0.05, 0.1, 0.3])
def test_the_lines_witness_needs_no_chord_check(lam, r):
    """Over 200 samples, detect-line's unchecked lines witness is the one
    that the chord check finds, and its chord misses every line that
    crosses a grid ray, by _lines_avoid and by segment_in.  Every line of
    an independent draw of all lines meeting B(o, r) that splits the
    witness chord crosses one of its two rays, |theta - phi| <= beta,
    cos beta = tanh p / tanh r: the lines that miss every grid ray, which
    rays and detect-line do not draw, cannot split the chord."""
    params, s = ModelParams(lam), 0.1
    outcomes, splits = set(), 0
    found = detect_line_through_ball("lines", params, s, r, 200, RngStream(0))
    samples = ray_samples("lines", params, r, 360, 200, RngStream(0).generator())
    gen = RngStream(1).generator()
    for i, (det, sample) in enumerate(zip(found, samples, strict=True)):
        assert det == full_chord_detection("lines", params, s, r, sample), i
        outcomes.add(det.found)
        if det.found:
            thetas = 2.0 * math.pi * np.asarray(det.witness) / 360
            disk = polar_around_origin(np.full(2, r), thetas)
            ends = to_hyperboloid(disk)
            assert _lines_avoid(sample, ends), i
            assert segment_in("lines", *(HPoint(z.real, z.imag) for z in disk), sample), i
            full = sample_lines(lam, r, gen)
            side = full.sides(ends)
            split = side[0] * side[1] < 0.0
            beta = np.arccos(np.tanh(full.foot_dist) / math.tanh(r))
            off = np.abs(np.remainder(full.foot_dir[:, None] - thetas + math.pi, 2.0 * math.pi)
                         - math.pi)
            assert not np.any(split & ~(off <= beta[:, None]).any(axis=1)), i
            splits += int(split.sum())
    assert True in outcomes and splits > 0


# (model, params, r, directions): about 130-170 points a sample, 48 lines
# that cross a grid ray, or 1261 points, 25 samples to a block, so that
# the draw spans two blocks
GROUPED_CASES = [
    ("vacant", ModelParams(0.1, 1.0), 5.0, 64),
    ("occupied", ModelParams(1.0, 1.0), 3.0, 64),
    ("lines", ModelParams(0.2), 6.0, 90),
    ("occupied", ModelParams(1.0, 1.0), 5.0, 64),
]
# the default groups of a rays call and a detect-line call, by (model, r):
# a call a group, or at 1261 points a sample 8192 points a rays group and
# a block a detect-line group
DEFAULT_GROUPS = {("occupied", 5.0): [6, 6, 6, 6, 1, 6, 6, 3, 25, 15]}


@pytest.mark.parametrize("budget", [1, 500, None])
@pytest.mark.parametrize("model, params, r, n_dir", GROUPED_CASES)
def test_grouped_rays_match_the_per_sample_oracle(monkeypatch, model, params, r, n_dir, budget):
    """rays and detect-line decide the samples of a block in groups whose
    points or lines, times n_dir (rays) or n_dir / 8 (detect-line), stay
    within RAY_PAIRS.  At a budget of 1 point (a sample a group), 500
    points a rays group (a few samples; detect-line takes about 4000
    points) and the default (``DEFAULT_GROUPS``), every sample's
    survivors and detection equal those of the sample decided on its own,
    cut from the same block draw, each chord measured against its whole
    sample, and detect-line's lazy rounds ask the ray kernel only for rays
    that the whole-grid oracle decides alike."""
    if budget is not None:
        monkeypatch.setattr(percolation, "RAY_PAIRS", budget * n_dir)
    name = "_line_ray_survivors" if model == "lines" else "_boolean_ray_survivors"
    survivors, sizes = getattr(percolation, name), []

    def spy(n, *args):
        sizes.append(n)
        return survivors(n, *args)

    monkeypatch.setattr(percolation, name, spy)
    rays = surviving_directions(model, params, r, n_dir, 40, RngStream(3))
    found = detect_line_through_ball(model, params, 0.1, r, 40, RngStream(3), n_dir)
    assert sum(sizes) == 80
    if budget == 1:
        assert set(sizes) == {1}
    else:
        default = DEFAULT_GROUPS.get((model, r), [40, 40])
        assert max(sizes) > 1 and (len(sizes) > 2 if budget else sizes == default)
    samples = ray_samples(model, params, r, n_dir, 40, RngStream(3).generator())
    for rs, det, sample in zip(rays, found, samples, strict=True):
        alive = sample_rays(model, sample, r, n_dir)
        assert rs.surviving == np.flatnonzero(alive).tolist()
        assert det == full_chord_detection(model, params, 0.1, r, sample, n_dir)
    assert {det.found for det in found} == {True, False}


def _beside_chord(i: int, j: int, n_dir: int, r: float, x: float, off: float):
    """Polar (t, psi) of the point at foot x along the chord between the
    points at distance r in the grid directions i and j, counted from the
    chord's point nearest (0, 1), and off beyond the chord, away from
    (0, 1): a point off from the chord whose nearest point on it is x
    from that foot."""
    delta = 2.0 * math.pi * (j - i) / n_dir
    h = float(_chord_distance(r, np.asarray(delta)))
    b = math.pi * (i + j) / n_dir + (math.pi if delta > math.pi else 0.0)
    foot, normal = polar_hyperboloid(h, b), line_normal(h, b)
    along = np.asarray([-math.cos(b), -math.sin(b), 0.0])
    w = math.cosh(off) * (math.cosh(x) * foot + math.sinh(x) * along) + math.sinh(off) * normal
    return math.acosh(w[2]), math.atan2(-w[0], w[1])


@pytest.mark.parametrize("budget", [40, None])
def test_chord_rounds_match_the_per_sample_oracle(monkeypatch, budget):
    """On a coarse odd grid, whose chords all miss (0, 1), with a wide
    ball s, the first chord of a vacant sample sometimes fails (in about
    3 of 100 samples with a candidate).  detect-line then decides each
    group's chords in rounds, the next candidate of every undecided
    sample per round.  The first group gets one more sample, built by
    hand: two points, each R - 0.005 beyond one of the grid's first two
    candidate chords, 1 from its foot, block both chords but neither's
    rays, so the third candidate, the first contained, takes 3 rounds
    within detect-line's first round over the pair list.  Over it and 400
    drawn samples every detection equals the per-sample oracle's, which
    tries the chords one at a time, each against every point.  At a
    budget of 40 points (a few samples a group) and the default (all in
    one group), some group holds several samples."""
    params, s, r, n_dir = ModelParams(0.3, 1.0), 0.6, 2.0, 41
    pair_i, pair_j = _antipodal_pairs(n_dir, r, s)
    blockers = [_beside_chord(pair_i[k], pair_j[k], n_dir, r, 1.0, params.radius - 0.005)
                for k in (0, 1)]
    built = BooleanSample(params, r + params.radius, *np.asarray(blockers).T)
    if budget is not None:
        monkeypatch.setattr(percolation, "RAY_PAIRS", budget * (n_dir // 8))
    first_chords, sample_groups, rounds = percolation._first_chords, percolation._sample_groups, []

    def spy(model, todo, *args):
        rounds.append([int(todo.sum()), 0])
        return first_chords(model, todo, *args)

    def count(*args):
        rounds[-1][1] += 1
        return _chords_contained(*args)

    def with_built(*args):
        groups = sample_groups(*args)
        n, owner, sample = next(groups)
        yield (n + 1, np.append(np.zeros(len(built), int), owner + 1),
               BooleanSample(params, sample.window_radius, np.append(built.t, sample.t),
                             np.append(built.psi, sample.psi)))
        yield from groups

    monkeypatch.setattr(percolation, "_first_chords", spy)
    monkeypatch.setattr(percolation, "_chords_contained", count)
    monkeypatch.setattr(percolation, "_sample_groups", with_built)
    found = detect_line_through_ball("vacant", params, s, r, 400, RngStream(36), n_dir)
    samples = [built, *ray_samples("vacant", params, r, n_dir, 400, RngStream(36).generator())]
    for det, sample in zip(found, samples, strict=True):
        assert det == full_chord_detection("vacant", params, s, r, sample, n_dir)
    assert found[0] == LineDetection(True, (int(pair_i[2]), int(pair_j[2])))
    assert rounds[0][1] >= 3 and max(size for size, _ in rounds) > 1
    assert {det.found for det in found} == {True, False}


def _chord_ends(i: int, j: int, n_dir: int, r: float) -> np.ndarray:
    ends = 2.0 * math.pi * np.asarray([i, j]) / n_dir
    return to_hyperboloid(polar_around_origin(np.full(2, r), ends))


@pytest.mark.parametrize(
    "model, params", [("vacant", ModelParams(0.1, 1.0)), ("occupied", ModelParams(1.0, 1.0))]
)
def test_pruned_chord_check_matches_the_full_check(model, params):
    """On 200 realizations, three chords each between nearly antipodal
    grid directions that pass within s of (0, 1), all decided in one
    round as the lone candidates of 600 samples: a chord measured
    against the points near its rays is contained iff it is when
    measured against every point."""
    r, s, n_dir, R = 3.0, 0.1, 360, params.radius
    pair_i, pair_j = _antipodal_pairs(n_dir, r, s)
    samples, ends, verdicts = [], [], []
    for seed in range(200):
        gen = RngStream(seed, 5).generator()
        sample = sample_points(params, r + R, gen)
        w = to_hyperboloid(sample.points)
        for k in gen.integers(len(pair_i), size=3):
            pq = _chord_ends(pair_i[k], pair_j[k], n_dir, r)
            verdicts.append(net_contained(pq[:1], pq[1:], w, R, model))
            samples.append(sample)
            ends.append((pair_i[k], pair_j[k]))
    order = np.arange(len(samples))
    n, owner, joined = group_of(samples)
    first = _first_chords(model, np.ones(n, dtype=bool), owner, joined, order, np.asarray(ends),
                          n_dir, r, s)
    assert np.array_equal(first, np.where(verdicts, order, -1))
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("model", ["vacant", "occupied"])
def test_pruned_chord_check_keeps_a_point_at_R_plus_s(monkeypatch, model):
    """The chord between the antipodal directions 0 and pi is the
    diameter along direction 0.  A point exactly R + s from it is
    measured, one R + s + 1e-6 from it is not, and the verdict is the
    full check's, on a realization that holds both."""
    params, r, s, n_dir = ModelParams(1.0, 1.0), 3.0, 0.1, 360
    R = params.radius
    drawn = sample_points(params, r + R, RngStream(9).generator())
    t = np.asarray([2.0, 2.5])
    psi = np.arcsin(np.sinh([R + s, R + s + 1e-6]) / np.sinh(t))
    sample = BooleanSample(params, r + R, np.append(drawn.t, t), np.append(drawn.psi, psi))
    seen = []

    def spy(model, R, r, ends, chord, t, psi):
        seen.append(np.stack([t, psi], axis=1))
        return _chords_contained(model, R, r, ends, chord, t, psi)

    monkeypatch.setattr(percolation, "_chords_contained", spy)
    [first] = _first_chords(model, np.ones(1, dtype=bool), np.zeros(len(sample), int), sample,
                            np.zeros(1, int), np.asarray([[0, n_dir // 2]]), n_dir, r, s)
    pq = _chord_ends(0, n_dir // 2, n_dir, r)
    assert (first == 0) == net_contained(pq[:1], pq[1:], to_hyperboloid(sample.points), R, model)
    [measured] = seen
    at, beyond = np.stack([t, psi], axis=1)
    assert np.any(np.all(measured == at, axis=1)) and not np.any(np.all(measured == beyond, axis=1))
    assert len(measured) < len(drawn)


@pytest.mark.parametrize("budget", [1, 10, None])
def test_lines_sandwich_matches_the_per_trial_events(monkeypatch, budget):
    """The lines sandwich takes every line's sides once per group of
    trials and counts the lines that break each event.  Over 200 seeds of
    20 trials at the tube workload's lambda = 0.1 (about 1.2 lines a
    trial; 30% of the trials hold none), at a budget of 1 line (a trial a
    group), 10 and the default, its (A, f, Q) are those of the trials
    decided one by one, line by line."""
    if budget is not None:
        monkeypatch.setattr(percolation, "GROUP_POINTS", budget)
    lam, s, trials = 0.1, 0.05, 20
    empty, a_not_f = 0, 0
    for seed in range(200):
        res = sandwich_AQ(X_TUBE, Y_TUBE, s, "lines", ModelParams(lam), trials, RngStream(seed))
        samples = block_samples("lines", ModelParams(lam), 2.0 + s, trials,
                                RngStream(seed).generator())
        events = [lines_tube_events(sample, 2.0, s) for sample in samples]
        n_A, n_f, n_Q = (sum(col) for col in zip(*events))
        assert (res.p_A, res.f_hat, res.p_Q) == (n_A / trials, n_f / trials, n_Q / trials), seed
        empty += sum(len(sample) == 0 for sample in samples)
        a_not_f += n_A - n_f
    assert empty > 0 and a_not_f > 0


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


def test_chord_distance_against_60_digits():
    """At r up to 18 and any delta, the chord's distance h from (0, 1)
    lies within 2e-16 (h + sinh 2h) of 60-digit arithmetic on the same r
    and delta, the bound its docstring states."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(33)
    r = np.concatenate([np.linspace(0.0, 18.0, 37), rng.uniform(0.0, 18.0, 264)])
    delta = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 151),
                            math.pi + rng.uniform(-0.1, 0.1, 100), rng.uniform(0.0, 0.01, 50)])
    got = np.asarray([_chord_distance(a, np.asarray(b)) for a, b in zip(r.tolist(), delta)])
    with mpmath.workdps(60):
        exact = np.asarray([float(mpmath.atanh(mpmath.tanh(mpmath.mpf(a))
                                               * abs(mpmath.cos(mpmath.mpf(float(b)) / 2))))
                            for a, b in zip(r, delta)])
    assert (np.abs(got - exact) <= 2e-16 * (exact + np.sinh(2.0 * exact))).all()


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
        rays = partial(_line_ray_survivors, *group_of([sample]), np.full(len(sample), -1),
                       n_dir=16)
    else:
        sample = sample_points(ModelParams(0.5, 1.0), 3.0, gen)
        rays = partial(_boolean_ray_survivors, *group_of([sample]), n_dir=16, model=model)
    assert rays(r=2.0)().shape == (1, 16)
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
        sample = BooleanSample(ModelParams(1.0, R), 3.0, *polar_of(pts))
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
