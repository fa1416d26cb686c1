import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hyperc import sampling
from hyperc.geometry import (
    HPoint,
    ORIGIN,
    axis_coordinates,
    ball_area,
    dist,
    dist_arrays,
    frame_fermi,
    polar_around_origin,
    polar_frame,
    to_hyperboloid,
)
from hyperc.sampling import (
    LineSample,
    ModelParams,
    RngStream,
    phi_ball,
    phi_ball_quadrature,
    phi_segment,
    phi_segment_quadrature,
    phi_separating,
    phi_separating_quadrature,
    sample_crossings,
    sample_lines,
    sample_points,
    sample_tube,
)

from axis_oracles import axis_point
from line_oracles import dist_to_geodesic, geodesic, semicircle_sides


def sample_lines_rejection(intensity: float, rho: float, gen: np.random.Generator, count: int):
    """Reference sampler: rejection on boundary-angle pairs.

    Proposes (alpha, beta) uniformly on the circle squared and accepts
    with probability proportional to |e^{i alpha} - e^{i beta}|^{-2},
    restricted to pairs whose line meets B(o, rho).  The acceptance
    rate collapses like e^{-2 rho}, so this is only usable for small
    windows; it cross-validates ``sample_lines``.
    """
    dmin = 2.0 * math.acos(math.tanh(rho))
    bound = 1.0 / (4.0 * math.sin(dmin / 2.0) ** 2)
    alphas = []
    betas = []
    got = 0
    while got < count:
        a = gen.uniform(0.0, 2.0 * math.pi, 4096)
        b = gen.uniform(0.0, 2.0 * math.pi, 4096)
        gap = np.abs(a - b)
        gap = np.minimum(gap, 2.0 * math.pi - gap)
        dens = 1.0 / (4.0 * np.sin((a - b) / 2.0) ** 2)
        keep = (gap > dmin) & (gen.uniform(0.0, 1.0, 4096) < dens / bound)
        alphas.append(a[keep])
        betas.append(b[keep])
        got += int(keep.sum())
    a = np.concatenate(alphas)[:count]
    b = np.concatenate(betas)[:count]
    # polar form: foot distance from the gap, direction from the
    # bisector of the short arc
    gap = np.abs(a - b)
    sep = np.minimum(gap, 2.0 * math.pi - gap)
    p = np.arctanh(np.cos(sep / 2.0))
    mid = 0.5 * (a + b)
    phi = np.mod(np.where(gap > math.pi, mid + math.pi, mid), 2.0 * math.pi)
    return LineSample(intensity, rho, p, phi)


# PCG64's multiplier, and 2**128 - 1
PCG_MULT, MASK_128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def philox_trial_state(seed: int, stream: int, t: int) -> dict:
    """The PCG64 state that RngStream(seed, stream).generator(t) starts
    from, by another route: a fresh Philox under the stream's key
    advanced by t blocks gives the trial's four words, and PCG64's
    seeding (state 0, one step, add the first two words, one step, with
    the increment made of the last two) runs on Python integers."""
    key = np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(6, np.uint64)[4:]
    philox = np.random.Philox(key=key)
    philox.advance(t)
    w = [int(x) for x in philox.random_raw(4)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & MASK_128
    state = ((inc + (w[0] << 64 | w[1])) * PCG_MULT + inc) & MASK_128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


class TestRngStream:
    def test_bitwise_reproducible(self):
        a = RngStream(123, 4).generator().uniform(size=100)
        b = RngStream(123, 4).generator().uniform(size=100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 4).generator().uniform(size=100)
        b = RngStream(123, 5).generator().uniform(size=100)
        assert not np.array_equal(a, b)

    def test_sampling_is_deterministic(self):
        p = ModelParams(1.0, 1.0)
        s1 = sample_points(p, 2.0, RngStream(9).generator())
        s2 = sample_points(p, 2.0, RngStream(9).generator())
        assert np.array_equal(s1.points, s2.points)
        l1 = sample_lines(1.0, 2.0, RngStream(9).generator())
        l2 = sample_lines(1.0, 2.0, RngStream(9).generator())
        assert np.array_equal(l1.foot_dist, l2.foot_dist)
        assert np.array_equal(l1.foot_dir, l2.foot_dir)


    @pytest.mark.parametrize("seed", [0, 1, 2**40 - 1, 2**64 + 5, 2**128 + 7])
    def test_generators_are_numpys(self, seed):
        """generator() is PCG64 seeded by numpy's SeedSequence, and
        generator(t) by numpy's Philox, at the ends of a key group, past
        32 bits and at the last key."""
        for stream in (0, 7, 2**32 - 1, 2**32):
            rng = RngStream(seed, stream)
            seq = np.random.SeedSequence(seed, spawn_key=(stream,))
            assert rng.generator().bit_generator.state == np.random.PCG64(seq).state
            for t in (0, 255, 256, 2**32, 2**64 - 1):
                assert rng.generator(t).bit_generator.state == philox_trial_state(seed, stream, t)
            assert (rng.generator(np.int64(5)).bit_generator.state
                    == rng.generator(5).bit_generator.state)

    def test_negative_key_is_refused(self):
        with pytest.raises(ValueError, match="trial key must be an integer"):
            RngStream(3, 1).generator(-1)

    @pytest.mark.parametrize("key", [2**64, 2**70, 1.0, np.float64(2.0), "3", math.nan])
    def test_keys_outside_the_trial_range_are_refused(self, key):
        with pytest.raises(ValueError, match="trial key must be an integer"):
            RngStream(3, 1).generator(key)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**200 - 1), st.integers(0, 2**40 - 1), st.integers(0, 2**64 - 1))
    def test_trial_generators_are_numpys(self, seed, stream, t):
        assert (RngStream(seed, stream).generator(t).bit_generator.state
                == philox_trial_state(seed, stream, t))

    def test_keys_out_of_order(self):
        # each key leaves another group's blocks cached for the next
        rng = RngStream(2**70 + 3, 9)
        for t in (300, 5, 300, 2**64 - 1, 0):
            assert rng.generator(t).bit_generator.state == philox_trial_state(2**70 + 3, 9, t), t

    def test_trial_generators_look_independent(self):
        """The first uniforms of 10^5 consecutive trial generators pass a
        two-sided Kolmogorov-Smirnov test against U(0, 1) at p > 1e-6,
        and their lag-1 correlation lies within 5 sd (1/sqrt(n)) of 0."""
        n, rng = 10**5, RngStream(2026, 4)
        u = np.array([rng.generator(t).random() for t in range(n)])
        assert stats.kstest(u, "uniform").pvalue > 1e-6
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 5.0 / math.sqrt(n)

    def test_threads_sharing_a_stream(self):
        """Two threads cycle over keys of the same four groups on one
        stream, out of step, so each keeps replacing the group the other
        cached, and at times finds the group it wants cached by the other."""
        seed, stream = 17, 3
        keys = [[0, 300, 600, 900], [301, 601, 901, 1]]
        want = {t: philox_trial_state(seed, stream, t) for ks in keys for t in ks}
        rng = RngStream(seed, stream)
        wrong, done = [], []

        def run(ks):
            for i in range(3000):
                t = ks[i % len(ks)]
                if rng.generator(t).bit_generator.state != want[t]:
                    wrong.append(t)
            done.append(ks)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(ks,)) for ks in keys]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(done) == 2 and wrong == []


class TestTrialCap:
    """Each sampler refuses, before it draws, a trial that expects more
    than MAX_TRIAL_POINTS points or lines; the cap is patched down."""

    DRAWS = {
        "points": (lambda gens: sample_points(ModelParams(2.0, 1.0), 2.0, gens[0]),
                   2.0 * ball_area(2.0)),
        "lines": (lambda gens: sample_lines(2.0, 1.5, gens[0]), 2.0 * phi_ball(1.5)),
        "tube": (lambda gens: sample_tube(ModelParams(2.0, 1.0), 3.0, gens),
                 2.0 * (3.0 * 2.0 * math.sinh(1.0) + ball_area(1.0))),
        "crossings": (lambda gens: sample_crossings(2.0, 3.0, gens), 2.0 * 3.0),
    }

    @pytest.mark.parametrize("name", DRAWS)
    def test_refuses_above_the_cap_before_drawing(self, name, monkeypatch):
        draw, expected = self.DRAWS[name]
        gens = _gens(8, 3)
        before = [g.bit_generator.state for g in gens]
        monkeypatch.setattr(sampling, "MAX_TRIAL_POINTS", 0.999 * expected)
        with pytest.raises(ValueError, match=f"one trial expects {expected:.4g} "):
            draw(gens)
        assert [g.bit_generator.state for g in gens] == before
        monkeypatch.setattr(sampling, "MAX_TRIAL_POINTS", 1.001 * expected)
        draw(gens)


class TestSamplePoints:
    def test_zero_intensity(self):
        s = sample_points(ModelParams(0.0, 1.0), 2.0, RngStream(1).generator())
        assert len(s) == 0

    def test_points_inside_window(self):
        s = sample_points(ModelParams(2.0, 1.0), 1.5, RngStream(2).generator())
        assert s.window_radius == 1.5 and len(s) > 0
        assert (dist_arrays(s.points, np.asarray(1j)) <= 1.5 + 1e-9).all()

    def test_mean_count(self):
        # Poisson(lambda * area): z test on the total of many trials
        lam, radius, trials = 1.0, 1.0, 3000
        gen = RngStream(3).generator()
        counts = [len(sample_points(ModelParams(lam, radius), radius, gen)) for _ in range(trials)]
        mean = lam * ball_area(radius)
        z = (np.sum(counts) - trials * mean) / math.sqrt(trials * mean)
        assert abs(z) < 3.5

    def test_radial_cdf(self):
        # one large conditional draw is i.i.d. from the radial law
        radius = 2.0
        lam = 100_000 / ball_area(radius)
        s = sample_points(ModelParams(lam, radius), radius, RngStream(4).generator())
        t = dist_arrays(s.points, np.asarray(1j))
        cdf = lambda x: (np.cosh(x) - 1.0) / (math.cosh(radius) - 1.0)
        res = stats.kstest(t, cdf)
        assert res.pvalue > 1e-3

    def test_isometry_invariance_congruent_regions(self):
        # counts in two congruent balls inside the window are exchangeable
        lam, window = 2.0, 2.0
        gen = RngStream(5).generator()
        c1 = np.asarray(HPoint(0.0, math.exp(0.9)).as_complex())
        c2 = np.asarray(HPoint(0.0, math.exp(-0.9)).as_complex())
        n1, n2 = [], []
        for _ in range(2000):
            s = sample_points(ModelParams(lam, 1.0), window, gen)
            if len(s) == 0:
                n1.append(0)
                n2.append(0)
                continue
            n1.append(int((dist_arrays(s.points, c1) < 0.8).sum()))
            n2.append(int((dist_arrays(s.points, c2) < 0.8).sum()))
        res = stats.ks_2samp(n1, n2)
        assert res.pvalue > 1e-3

    def test_polar_form_is_kept_until_the_points_are_read(self):
        s = sample_points(ModelParams(2.0, 1.0), 1.5, RngStream(7).generator())
        assert len(s) == len(s.t) == len(s.psi) > 0
        assert (s.t <= 1.5).all() and (s.psi >= 0.0).all() and (s.psi < 2.0 * math.pi).all()
        assert "points" not in vars(s)
        assert np.array_equal(s.points, polar_around_origin(s.t, s.psi))
        assert "points" in vars(s) and s.points is s.points

    def test_radii_against_60_digits(self):
        """For U from 1e-24 to 1 and radii from 1e-3 to 25, each radius
        that ``ball_polar`` draws lies within 2.2e-16 (2 coth t + t) of the
        exact radius t = arccosh(1 + U (cosh radius - 1)) of its U, in
        60-digit arithmetic as 2 asinh(sinh(radius / 2) sqrt U), which
        does not cancel: the bound its docstring states.  The largest
        error, 1.5e-8, comes where 1 + U (cosh radius - 1) rounds to 1."""
        mpmath = pytest.importorskip("mpmath")

        class Drawn:  # hands ball_polar the given U for the radii and the angles
            def __init__(self, u):
                self.u = u

            def random(self, n):
                return self.u

        rng = np.random.default_rng(41)
        err, exact = [], []
        for radius in (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 18.0, 25.0):
            u = np.concatenate([10.0 ** rng.uniform(-24.0, 0.0, 150), rng.random(150),
                                1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 20), [1.0, 5e-324]])
            t, _ = sampling.ball_polar(radius, len(u), Drawn(u))
            with mpmath.workdps(60):
                c = mpmath.sinh(mpmath.mpf(radius) / 2)
                for uk, tk in zip(u, t):
                    exact.append(2 * mpmath.asinh(c * mpmath.sqrt(mpmath.mpf(float(uk)))))
                    err.append(float(abs(mpmath.mpf(float(tk)) - exact[-1])))
                    exact[-1] = float(exact[-1])
        err, exact = np.asarray(err), np.asarray(exact)
        assert (err <= 2.2e-16 * (2.0 / np.tanh(exact) + exact)).all()
        assert 1e-8 < err.max() <= 1.5e-8

    def test_thinning_matches_lower_intensity(self):
        lam, keep = 3.0, 0.4
        gen = RngStream(6).generator()
        thinned, direct = [], []
        for _ in range(3000):
            s = sample_points(ModelParams(lam, 1.0), 1.5, gen)
            thinned.append(int((gen.uniform(size=len(s)) < keep).sum()))
            s2 = sample_points(ModelParams(lam * keep, 1.0), 1.5, gen)
            direct.append(len(s2))
        res = stats.ks_2samp(thinned, direct)
        assert res.pvalue > 1e-3


class TestSampleLines:
    def test_zero_intensity(self):
        s = sample_lines(0.0, 2.0, RngStream(1).generator())
        assert len(s) == 0

    def test_every_line_meets_reference_ball(self):
        s = sample_lines(2.0, 1.5, RngStream(2).generator())
        assert (s.foot_dist < 1.5 + 1e-9).all()
        # the line through the polar form's ideal ends passes at foot_dist
        for k in range(min(len(s), 200)):
            d, _ = dist_to_geodesic(ORIGIN, geodesic(s.foot_dist[k], s.foot_dir[k]))
            assert d == pytest.approx(s.foot_dist[k], abs=1e-9)

    def test_sides_match_the_semicircle_oracle(self):
        """sides is the sinh of the signed distance to each line: its size
        is the distance to the line through the ideal ends, (0, 1) lies on
        its negative side, and it separates two points exactly when the
        UHP semicircle test does."""
        s = sample_lines(1.0, 3.0, RngStream(7).generator())
        gen = np.random.default_rng(8)
        z = polar_around_origin(gen.uniform(0.0, 3.0, 60), gen.uniform(0.0, 2.0 * math.pi, 60))
        sides = s.sides(to_hyperboloid(z))
        assert sides.shape == (60, len(s)) and len(s) > 20
        # each line flips the oracle's sign by one constant factor
        agree = np.sign(sides) * np.sign(np.stack([semicircle_sides(s, zk) for zk in z]))
        assert np.all(agree == agree[0])
        assert np.any(sides > 0.0, axis=0).sum() > 10  # lines that separate some points
        for k in range(0, 60, 6):
            for line in range(len(s)):
                g = geodesic(s.foot_dist[line], s.foot_dir[line])
                d, _ = dist_to_geodesic(HPoint(z[k].real, z[k].imag), g)
                assert math.asinh(abs(sides[k, line])) == pytest.approx(d, abs=1e-9)
        assert np.allclose(s.sides(to_hyperboloid(1j)), -np.sinh(s.foot_dist), rtol=1e-12)
        assert s.sides(to_hyperboloid(z)[:0]).shape == (0, len(s))
        empty = sample_lines(0.0, 3.0, RngStream(7).generator())
        assert empty.sides(to_hyperboloid(z)).shape == (60, 0)

    def test_mean_count_matches_phi_ball(self):
        lam, rho, trials = 1.0, 1.5, 4000
        gen = RngStream(3).generator()
        total = sum(len(sample_lines(lam, rho, gen)) for _ in range(trials))
        mean = lam * phi_ball(rho)
        z = (total - trials * mean) / math.sqrt(trials * mean)
        assert abs(z) < 3.5

    def test_fraction_meeting_central_segment(self):
        # of the lines meeting B(o, rho), the fraction meeting a length-r
        # segment through o is r / phi_ball(rho)
        lam, rho, r = 2.0, 2.5, 1.0
        gen = RngStream(4).generator()
        hits = total = 0
        z1 = complex(0.0, math.exp(-r / 2.0))
        z2 = complex(0.0, math.exp(r / 2.0))
        for _ in range(2000):
            s = sample_lines(lam, rho, gen)
            total += len(s)
            if len(s) == 0:
                continue
            s1, s2 = semicircle_sides(s, z1), semicircle_sides(s, z2)
            hits += int((s1 * s2 < 0).sum())
        p = r / phi_ball(rho)
        z = (hits - total * p) / math.sqrt(total * p * (1 - p))
        assert abs(z) < 3.5

    def test_agreement_with_rejection_sampler(self):
        # the inversion sampler must match the boundary-pair rejection
        # sampler in distribution (small rho keeps rejection viable)
        rho = 1.0
        gen = RngStream(5).generator()
        s_inv = sample_lines(40_000 / phi_ball(rho), rho, gen)
        s_rej = sample_lines_rejection(1.0, rho, gen, count=40_000)
        assert stats.ks_2samp(s_inv.foot_dist, s_rej.foot_dist).pvalue > 1e-3
        assert stats.ks_2samp(s_inv.foot_dir, s_rej.foot_dir).pvalue > 1e-3

    def test_containment_law(self):
        # quick check of f(r) = e^{-lambda r}; the acceptance suite runs
        # the full-size version
        lam, r = 1.0, 2.0
        rho = r / 2.0 + 2.0
        gen = RngStream(6).generator()
        clear = 0
        trials = 4000
        z1 = complex(0.0, math.exp(-r / 2.0))
        z2 = complex(0.0, math.exp(r / 2.0))
        for _ in range(trials):
            s = sample_lines(lam, rho, gen)
            s1, s2 = semicircle_sides(s, z1), semicircle_sides(s, z2)
            clear += bool((s1 * s2 >= 0).all())
        p = math.exp(-lam * r)
        z = (clear - trials * p) / math.sqrt(trials * p * (1 - p))
        assert abs(z) < 3.5


def _gens(seed: int, n: int) -> list:
    stream = RngStream(seed)
    return [stream.generator(t) for t in range(n)]


def _tube_per_trial(params: ModelParams, length: float, gens):
    """Reference for sample_tube: the same draws, with each trial's end
    caps read in the polar frame on their own."""
    R = params.radius
    mean = params.intensity * length * 2.0 * math.sinh(R)
    rects, caps = [], []
    for k, gen in enumerate(gens):
        a, b = gen.random((2, gen.poisson(mean)))
        rects.append((np.full(len(a), k), length * a, np.arcsinh(math.sinh(R) * (2.0 * b - 1.0))))
        cap = sample_points(params, R, gen)
        cu, cy = frame_fermi(*polar_frame(cap.t, cap.psi))
        caps.append((np.full(len(cu), k), np.where(cu < 0.0, cu, cu + length), cy))
    return tuple(np.concatenate(col) for col in zip(*rects, *caps))


class TestSampleTube:
    @pytest.mark.parametrize(
        "lam, R, length, seed, trials, empty",
        [
            (0.1, 1.0, 2.0, 11, 256, (0.6, 0.8)),  # about 71% of the caps are empty
            (0.02, 0.1, 500.0, 12, 10, (1.0, 1.0)),  # every cap is empty
            (2.0, 1.0, 3.0, 13, 1, (0.0, 0.0)),  # a chunk of one trial
            (1.5, 0.6, 4.0, 14, 40, (0.0, 0.5)),
        ],
    )
    def test_caps_converted_per_chunk_match_per_trial(self, lam, R, length, seed, trials, empty):
        """Bitwise: the chunk's caps are converted by elementwise functions
        alone.  empty bounds the share of trials whose caps drew nothing."""
        params = ModelParams(lam, R)
        got = sample_tube(params, length, _gens(seed, trials))
        ref = _tube_per_trial(params, length, _gens(seed, trials))
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and np.array_equal(g, r)
        trial, u, _ = got
        caps = np.bincount(trial[(u < 0.0) | (u > length)], minlength=trials)
        assert len(trial) > 0 and empty[0] <= np.mean(caps == 0) <= empty[1]

    def test_points_in_neighbourhood(self):
        R, length = 0.7, 3.0
        trial, u, y = sample_tube(ModelParams(2.0, R), length, _gens(1, 50))
        assert len(trial) == len(u) == len(y) and set(trial) <= set(range(50))
        excess = u - np.clip(u, 0.0, length)
        assert (np.cosh(excess) * np.cosh(y) < math.cosh(R)).all()
        assert (u < 0.0).any() and (u > length).any()  # both end caps are drawn

    def test_fermi_coordinates_are_axis_coordinates(self):
        _, u, y = sample_tube(ModelParams(2.0, 1.0), 2.0, _gens(2, 20))
        u2, y2 = axis_coordinates(axis_point(u, y))
        assert np.allclose(u2, u, atol=1e-12) and np.allclose(y2, y, atol=1e-12)

    def test_offset_law(self):
        # area element cosh y du dy on the rectangle between the caps:
        # P(y <= x) = (sinh x + sinh R)/(2 sinh R)
        R, length = 1.3, 10.0
        _, u, y = sample_tube(ModelParams(50.0, R), length, _gens(3, 20))
        y = y[(u >= 0.0) & (u <= length)]
        res = stats.kstest(y, lambda x: (np.sinh(x) + math.sinh(R)) / (2.0 * math.sinh(R)))
        assert res.pvalue > 1e-3

    def test_count_is_poisson_of_the_neighbourhood_area(self):
        lam, R, length, trials = 0.8, 1.0, 2.0, 4000
        trial, _, _ = sample_tube(ModelParams(lam, R), length, _gens(4, trials))
        mean = lam * (2.0 * length * math.sinh(R) + ball_area(R))
        z = (len(trial) - trials * mean) / math.sqrt(trials * mean)
        assert abs(z) < 3.5
        # the per-trial counts are Poisson: variance equal to the mean
        counts = np.bincount(trial, minlength=trials)
        assert abs(counts.var() / counts.mean() - 1.0) < 0.1

    def test_ball_count_is_poisson_of_its_area(self):
        # the points within R of gamma(0), a region the neighbourhood
        # holds whole, number Poisson(lambda area B(R)) per trial
        lam, R, trials = 1.5, 1.0, 4000
        _, u, y = sample_tube(ModelParams(lam, R), 1.0, _gens(5, trials))
        inside = int((np.cosh(u) * np.cosh(y) < math.cosh(R)).sum())
        mean = lam * ball_area(R)
        z = (inside - trials * mean) / math.sqrt(trials * mean)
        assert abs(z) < 3.5

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            sample_tube(ModelParams(1.0, 1.0), -1.0, _gens(0, 10))


class TestSampleCrossings:
    def test_mean_count_is_lambda_r(self):
        lam, length, trials = 0.7, 3.0, 4000
        trial, feet = sample_crossings(lam, length, _gens(5, trials))
        mean = lam * phi_segment(length)
        z = (len(trial) - trials * mean) / math.sqrt(trials * mean)
        assert abs(z) < 3.5
        assert len(feet) == len(trial) and (feet >= 0.0).all() and (feet <= length).all()

    def test_feet_are_uniform(self):
        _, feet = sample_crossings(5.0, 2.0, _gens(6, 400))
        assert stats.kstest(feet, stats.uniform(0.0, 2.0).cdf).pvalue > 1e-3

    def test_zero_length_has_no_crossings(self):
        trial, feet = sample_crossings(1.0, 0.0, _gens(7, 10))
        assert len(trial) == 0 and len(feet) == 0


class TestPhiMeasures:
    def test_segment_trivial_and_exact(self):
        assert phi_segment(0.0) == 0.0
        assert phi_segment(1.0) == 1.0

    def test_segment_quadrature_oracle(self):
        assert phi_segment_quadrature(2.0) == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize(
        "r, message",
        [(math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"), (-1.0, "nonnegative")],
    )
    def test_segment_refuses_a_non_finite_or_negative_length(self, r, message):
        for phi in (phi_segment, phi_segment_quadrature):
            with pytest.raises(ValueError, match=f"segment length must be {message}"):
                phi(r)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_ball_refuses_a_non_finite_or_nonpositive_radius(self, rho):
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            phi_ball(rho)

    def test_separating_domain(self):
        for bad in (0.0, math.pi, -1.0, 4.0):
            with pytest.raises(ValueError):
                phi_separating(bad)

    def test_separating_closed_form_vs_oracle(self):
        for theta in (0.3, math.pi / 4, math.pi / 2, 2.0, 2.8):
            assert phi_separating(theta) == pytest.approx(
                phi_separating_quadrature(theta), abs=1e-6
            )

    def test_separating_midpoint_value(self):
        # -2 log(sin(pi/2)/2) = 2 log 2
        assert phi_separating(math.pi / 2) == pytest.approx(1.3862943611198906, abs=1e-12)

    def test_separating_shape(self):
        # the measure blows up at both ends and dips at pi/2: lines
        # nearly parallel to either diameter still cross both far away
        grid = np.linspace(0.2, math.pi - 0.2, 25)
        vals = np.asarray([phi_separating(t) for t in grid])
        oracle = np.asarray([phi_separating_quadrature(t) for t in grid])
        assert np.abs(vals - oracle).max() < 1e-6
        mid = len(grid) // 2
        assert (np.diff(vals[: mid + 1]) < 0).all()
        assert (np.diff(vals[mid:]) > 0).all()

    def test_separating_small_angle_asymptotic(self):
        theta = 1e-3
        assert phi_separating(theta) == pytest.approx(-2.0 * math.log(theta / 2.0), rel=1e-6)

    def test_phi_ball_quadrature_confirms_closed_form(self):
        # up to the line windows that rays and detect-line draw on (rho = r)
        for rho in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert phi_ball_quadrature(rho) == pytest.approx(math.pi * math.sinh(rho), rel=1e-8)
            assert phi_ball(rho) == math.pi * math.sinh(rho)

    def test_phi_ball_nested_consistency(self):
        # fraction of lines through B(o, rho/2) among lines through
        # B(o, rho) approaches the measure ratio
        rho = 2.0
        gen = RngStream(7).generator()
        inner = total = 0
        for _ in range(2000):
            s = sample_lines(1.0, rho, gen)
            total += len(s)
            inner += int((s.foot_dist < rho / 2.0).sum())
        p = phi_ball(rho / 2.0) / phi_ball(rho)
        z = (inner - total * p) / math.sqrt(total * p * (1 - p))
        assert abs(z) < 3.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            sample_lines(-1.0, 1.0, RngStream(0).generator())
        with pytest.raises(ValueError):
            sample_lines(1.0, 0.0, RngStream(0).generator())
        with pytest.raises(ValueError):
            sample_points(ModelParams(1.0, 1.0), 0.0, RngStream(0).generator())
        with pytest.raises(ValueError):
            ModelParams(-0.5, 1.0)
        with pytest.raises(ValueError):
            ModelParams(math.nan, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.0)


_angle = st.floats(0.0, 2.0 * math.pi)


@settings(deadline=None, max_examples=200)
@given(line=st.tuples(st.floats(0.0, 3.0), _angle), point=st.tuples(st.floats(0.0, 3.0), _angle))
def test_sides_is_the_sinh_of_the_distance_to_the_line(line, point):
    """For any line and point, |sides| is sinh of dist_to_geodesic to the
    line through the ideal ends, and the sign is positive exactly on the
    far side, the side of the point one beyond the foot."""
    p, phi = line
    sample = LineSample(1.0, 3.0, np.asarray([p]), np.asarray([phi]))
    z = complex(polar_around_origin(*point))
    side = float(sample.sides(to_hyperboloid(z))[0])
    d, _ = dist_to_geodesic(HPoint(z.real, z.imag), geodesic(p, phi))
    assert math.asinh(abs(side)) == pytest.approx(d, abs=1e-9)
    if d > 1e-9:
        far = complex(polar_around_origin(p + 1.0, phi))
        beyond = semicircle_sides(sample, z)[0] * semicircle_sides(sample, far)[0] > 0.0
        assert (side > 0.0) == beyond
