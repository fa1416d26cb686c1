import math

import numpy as np
import pytest
from scipy.stats import binom

from hyperc import percolation
from hyperc.analytic import f_grassmann, f_vacant
from hyperc.geometry import GeodesicFrame, ball_area, offset_point
from hyperc.percolation import (
    TRIAL_BLOCK,
    Segment,
    _block_thresholds,
    _coverage_reach,
    _coverage_reaches,
    _line_side_values,
    estimate_f,
    segment_avoids_lines,
    segment_in_occupied,
    segment_in_vacant,
)
from hyperc.sampling import (
    BooleanSample,
    LineSample,
    ModelParams,
    RngStream,
    _polar_to_ideal,
    sample_crossings,
    sample_tube,
)

AXIS = GeodesicFrame.canonical_axis()
# false-alarm rate per estimate of the exact two-sided binomial gates
TAIL = 3.8e-8


def _binomial_tail(k: int, n: int, p: float) -> float:
    return min(1.0, 2.0 * float(min(binom.cdf(k, n, p), binom.sf(k - 1, n, p))))


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


def _trial_sample(params, u, y, r_max) -> BooleanSample:
    # the neighbourhood's points are all that the segments over
    # [0, r_max] can see; the window claims the ball around the
    # segment's midpoint that holds the neighbourhood
    pts = np.array([offset_point(AXIS, a, b).as_complex() for a, b in zip(u, y)], dtype=complex)
    return BooleanSample(params, AXIS.point(r_max / 2.0), r_max / 2.0 + 2.0 * params.radius, pts)


def _crossing_lines(lam, feet, r_max, gen) -> LineSample:
    """Lines that cross the axis at the given feet, at random angles."""
    psi = gen.uniform(-1.4, 1.4, len(feet))
    p = np.arctanh(np.tanh(feet) * np.cos(psi))
    a, b = _polar_to_ideal(p, psi)
    lines = LineSample(lam, r_max, a, b, p, np.mod(psi, 2.0 * math.pi))
    for z in np.exp(feet):
        side = _line_side_values(lines, complex(0.0, z))
        assert np.min(np.abs(side) / z**2) < 1e-9  # some line passes through i e^c
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
                lambda r: segment_avoids_lines(Segment(AXIS, 0.0, r), lines), thr[t], r_max
            )
        return
    trial, u, y = sample_tube(params, r_max, _gens(11, n))
    predicate = segment_in_vacant if model == "vacant" else segment_in_occupied
    for t in range(n):
        sample = _trial_sample(params, u[trial == t], y[trial == t], r_max)
        _threshold_agrees(lambda r: predicate(Segment(AXIS, 0.0, r), sample), thr[t], r_max)
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


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_f("sticks", ModelParams(1.0, 1.0), [1.0], 100, RngStream(0))
    with pytest.raises(ValueError):
        estimate_f("vacant", ModelParams(1.0, 1.0), [1.0], 99, RngStream(0))
    with pytest.raises(ValueError):
        estimate_f("vacant", ModelParams(1.0, 1.0), [-1.0, 1.0], 100, RngStream(0))
    with pytest.raises(ValueError):
        estimate_f("occupied", ModelParams(1.0), [1.0], 100, RngStream(0))
