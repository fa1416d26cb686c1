import math

import numpy as np
import pytest
from scipy import stats

from hyperc.geometry import (
    Geodesic,
    GeodesicFrame,
    HPoint,
    ORIGIN,
    axis_coordinates,
    ball_area,
    dist,
    dist_arrays,
    dist_to_geodesic,
    offset_point,
)
from hyperc.sampling import (
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
    sample_lines_rejection,
    sample_points,
    sample_tube,
)


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
        s1 = sample_points(p, ORIGIN, 2.0, RngStream(9))
        s2 = sample_points(p, ORIGIN, 2.0, RngStream(9))
        assert np.array_equal(s1.points, s2.points)
        l1 = sample_lines(1.0, 2.0, RngStream(9))
        l2 = sample_lines(1.0, 2.0, RngStream(9))
        assert np.array_equal(l1.foot_dist, l2.foot_dist)
        assert np.array_equal(l1.a, l2.a)


class TestSamplePoints:
    def test_zero_intensity(self):
        s = sample_points(ModelParams(0.0, 1.0), ORIGIN, 2.0, RngStream(1))
        assert len(s) == 0

    def test_points_inside_window(self):
        center = HPoint(0.5, 2.0)
        s = sample_points(ModelParams(2.0, 1.0), center, 1.5, RngStream(2))
        d = dist_arrays(s.points, np.asarray(center.as_complex()))
        assert (d <= 1.5 + 1e-9).all()

    def test_mean_count(self):
        # Poisson(lambda * area): z test on the total of many trials
        lam, radius, trials = 1.0, 1.0, 3000
        gen = RngStream(3).generator()
        counts = [len(sample_points(ModelParams(lam, radius), ORIGIN, radius, gen)) for _ in range(trials)]
        mean = lam * ball_area(radius)
        z = (np.sum(counts) - trials * mean) / math.sqrt(trials * mean)
        assert abs(z) < 3.5

    def test_radial_cdf(self):
        # one large conditional draw is i.i.d. from the radial law
        radius = 2.0
        lam = 100_000 / ball_area(radius)
        s = sample_points(ModelParams(lam, radius), ORIGIN, radius, RngStream(4))
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
            s = sample_points(ModelParams(lam, 1.0), ORIGIN, window, gen)
            if len(s) == 0:
                n1.append(0)
                n2.append(0)
                continue
            n1.append(int((dist_arrays(s.points, c1) < 0.8).sum()))
            n2.append(int((dist_arrays(s.points, c2) < 0.8).sum()))
        res = stats.ks_2samp(n1, n2)
        assert res.pvalue > 1e-3

    def test_thinning_matches_lower_intensity(self):
        lam, keep = 3.0, 0.4
        gen = RngStream(6).generator()
        thinned, direct = [], []
        for _ in range(3000):
            s = sample_points(ModelParams(lam, 1.0), ORIGIN, 1.5, gen)
            thinned.append(int((gen.uniform(size=len(s)) < keep).sum()))
            s2 = sample_points(ModelParams(lam * keep, 1.0), ORIGIN, 1.5, gen)
            direct.append(len(s2))
        res = stats.ks_2samp(thinned, direct)
        assert res.pvalue > 1e-3


class TestSampleLines:
    def test_zero_intensity(self):
        s = sample_lines(0.0, 2.0, RngStream(1))
        assert len(s) == 0

    def test_every_line_meets_reference_ball(self):
        s = sample_lines(2.0, 1.5, RngStream(2))
        assert (s.foot_dist < 1.5 + 1e-9).all()
        # the stored ideal endpoints agree with the polar form
        for k in range(min(len(s), 200)):
            d, _ = dist_to_geodesic(ORIGIN, Geodesic(s.a[k], s.b[k]))
            assert d == pytest.approx(s.foot_dist[k], abs=1e-9)

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
            c = 0.5 * (s.a + s.b)
            rad = 0.5 * (s.b - s.a)
            vertical = np.isinf(s.b)
            s1 = np.where(vertical, z1.real - s.a, (z1.real - c) ** 2 + z1.imag**2 - rad * rad)
            s2 = np.where(vertical, z2.real - s.a, (z2.real - c) ** 2 + z2.imag**2 - rad * rad)
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
            c = 0.5 * (s.a + s.b)
            rad = 0.5 * (s.b - s.a)
            vertical = np.isinf(s.b)
            s1 = np.where(vertical, z1.real - s.a, (z1.real - c) ** 2 + z1.imag**2 - rad * rad)
            s2 = np.where(vertical, z2.real - s.a, (z2.real - c) ** 2 + z2.imag**2 - rad * rad)
            clear += bool((s1 * s2 >= 0).all())
        p = math.exp(-lam * r)
        z = (clear - trials * p) / math.sqrt(trials * p * (1 - p))
        assert abs(z) < 3.5


def _gens(seed: int, n: int) -> list:
    stream = RngStream(seed)
    return [stream.generator(t) for t in range(n)]


class TestSampleTube:
    def test_points_in_neighbourhood(self):
        R, length = 0.7, 3.0
        trial, u, y = sample_tube(ModelParams(2.0, R), length, _gens(1, 50))
        assert len(trial) == len(u) == len(y) and set(trial) <= set(range(50))
        excess = u - np.clip(u, 0.0, length)
        assert (np.cosh(excess) * np.cosh(y) < math.cosh(R)).all()
        assert (u < 0.0).any() and (u > length).any()  # both end caps are drawn

    def test_fermi_coordinates_are_axis_coordinates(self):
        _, u, y = sample_tube(ModelParams(2.0, 1.0), 2.0, _gens(2, 20))
        frame = GeodesicFrame.canonical_axis()
        z = np.array([offset_point(frame, a, b).as_complex() for a, b in zip(u, y)])
        u2, y2 = axis_coordinates(z)
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
        for rho in (0.5, 1.0, 2.0):
            assert phi_ball_quadrature(rho) == pytest.approx(math.pi * math.sinh(rho), abs=1e-6)
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
            sample_lines(-1.0, 1.0, RngStream(0))
        with pytest.raises(ValueError):
            sample_lines(1.0, 0.0, RngStream(0))
        with pytest.raises(ValueError):
            sample_points(ModelParams(1.0, 1.0), ORIGIN, 0.0, RngStream(0))
        with pytest.raises(ValueError):
            ModelParams(-0.5, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.0)
