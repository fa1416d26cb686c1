import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from hyperc.analytic import (
    SolverError,
    alpha_occupied,
    alpha_vacant,
    area_crescent,
    area_crescent_closed_form,
    f_grassmann,
    f_vacant,
    hitting_cdf,
    lambda_gc,
    lambda_gv,
    lrp_edge_measure,
    lrp_edge_prob,
)
from hyperc.geometry import ball_area
from hyperc.sampling import ModelParams

RNG = np.random.default_rng(77)


def hitting_H(t: float, params: ModelParams) -> float:
    """The half-range form of the hitting law, -exp(-4 lambda int_0^{t/2}
    sqrt(cosh^2 R / cosh^2 s - 1) ds); the oracle for G - 1."""
    lam, R = params.intensity, params.radius
    val, _ = integrate.quad(
        lambda s: math.sqrt(max(math.cosh(R) ** 2 / math.cosh(s) ** 2 - 1.0, 0.0)),
        0.0,
        min(t, 2.0 * R) / 2.0,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    return -math.exp(-4.0 * lam * val)


def hitting_density(s, params: ModelParams):
    """G'(s) = lambda 2 sqrt(cosh^2 R / cosh^2(s/2) - 1) e^{-lambda area},
    the density of the hitting law; the independent oracle for the
    renewal equation that alpha_occupied solves on its own nodes."""
    lam, R = params.intensity, params.radius
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    area = area_crescent_closed_form(s_arr, R)
    rate = 2.0 * np.sqrt(np.maximum(np.cosh(R) ** 2 / np.cosh(s_arr / 2.0) ** 2 - 1.0, 0.0))
    out = lam * rate * np.exp(-lam * area)
    return out if np.ndim(s) else float(out[0])


class TestVacantClosedForms:
    def test_zero_intensity(self):
        for r in (0.0, 1.0, 5.0):
            assert f_vacant(r, ModelParams(0.0, 1.0)) == 1.0

    def test_point_vacancy(self):
        # r = 0 is the probability that a fixed point is uncovered
        val = f_vacant(0.0, ModelParams(1.0, 1.0))
        assert val == pytest.approx(0.03296607537315531, abs=1e-12)

    def test_log_slope_is_alpha(self):
        p = ModelParams(0.7, 1.3)
        a = alpha_vacant(p)
        for r1, r2 in ((1.0, 2.0), (2.5, 7.0)):
            slope = (math.log(f_vacant(r1, p)) - math.log(f_vacant(r2, p))) / (r2 - r1)
            assert slope == pytest.approx(a, rel=1e-12)

    def test_alpha_examples(self):
        assert alpha_vacant(ModelParams(0.0, 1.0)) == 0.0
        assert alpha_vacant(ModelParams(0.5, 1.0)) == pytest.approx(math.sinh(1.0), rel=1e-15)
        for R in (0.5, 1.0, 2.0):
            assert alpha_vacant(ModelParams(lambda_gv(R), R)) == pytest.approx(1.0, rel=1e-14)

    def test_lambda_gv(self):
        assert lambda_gv(1.0) == pytest.approx(0.4254590641196608, abs=1e-15)
        vals = [lambda_gv(R) for R in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        with pytest.raises(ValueError):
            lambda_gv(0.0)

    def test_supermultiplicative(self):
        # equality of exponents makes f(r1 + r2) >= f(r1) f(r2) exact,
        # with slack from the duplicated end caps
        p = ModelParams(0.4, 0.8)
        for _ in range(100):
            r1, r2 = RNG.uniform(0.0, 10.0, 2)
            assert f_vacant(r1 + r2, p) >= f_vacant(r1, p) * f_vacant(r2, p)

    def test_exponential_sandwich_prefactor(self):
        # f(r) e^{alpha r} is the r-independent cap factor, at most one
        p = ModelParams(0.6, 1.1)
        a = alpha_vacant(p)
        cap = math.exp(-p.intensity * ball_area(p.radius))
        for r in (0.0, 1.0, 3.7, 9.0):
            val = f_vacant(r, p) * math.exp(a * r)
            assert val == pytest.approx(cap, rel=1e-12)
        assert cap <= 1.0


class TestCrescentArea:
    def test_degenerate(self):
        assert area_crescent(0.0, 1.0) == 0.0

    def test_full_ball_beyond_2R(self):
        for R in (0.5, 1.0, 2.0):
            assert area_crescent(2 * R, R) == pytest.approx(ball_area(R), abs=1e-12)
            assert area_crescent(2 * R + 1.0, R) == ball_area(R)

    def test_quadrature_matches_antiderivative(self):
        # the closed form, from the antiderivative of
        # sqrt(cosh^2 R - cosh^2 s)/cosh s, against the quadrature oracle
        for R in (0.5, 1.0, 2.0):
            ts = np.append(np.linspace(0.01, 2 * R - 1e-6, 23), [2 * R, 2 * R + 1.0])
            quad = [area_crescent(t, R) for t in ts]
            for t, q in zip(ts, quad):
                assert area_crescent_closed_form(t, R) == pytest.approx(q, abs=1e-10)
            # the array form, which the exponent solver uses
            assert area_crescent_closed_form(ts, R) == pytest.approx(quad, abs=1e-10)

    def test_quadrature_at_closure(self):
        for R in (0.5, 1.0, 2.0):
            val, _ = integrate.quad(
                lambda s: 2.0 * math.sqrt(max(math.cosh(R) ** 2 / math.cosh(s) ** 2 - 1, 0.0)),
                -R,
                R,
                limit=200,
            )
            assert val == pytest.approx(ball_area(R), abs=1e-8)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @settings(deadline=None, max_examples=200)
    @given(R=st.floats(0.05, 8.0), frac=st.floats(0.0, 2.5))
    @example(R=2.0, frac=4.45e-308 / 2.0)
    def test_closed_form_matches_the_quadrature_everywhere(self, R, frac):
        """The closed form agrees with its quadrature oracle to 1e-12 of the
        ball's area for R in [0.05, 8] and t in [0, 2.5 R], and the oracle
        warns nowhere, also for t near the smallest normal double."""
        t = frac * R
        gap = float(area_crescent_closed_form(t, R)) - area_crescent(t, R)
        assert abs(gap) <= 1e-12 * ball_area(R)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    def test_small_t_expansion(self):
        # the band integrand at s = 0 is 2 sinh R
        for R in (0.05, 0.5, 1.0, 2.0):
            t = 1e-4
            assert area_crescent(t, R) == pytest.approx(2.0 * t * math.sinh(R), rel=1e-6)
            # either side of the switch to the first-order area
            for t in (1e-8 * math.tanh(R) * (1.0 + 1e-9), 1e-8 * math.tanh(R)):
                assert area_crescent(t, R) == pytest.approx(2.0 * t * math.sinh(R), rel=1e-15)
            for t in (4.45e-308, 5e-324):
                assert area_crescent(t, R) == 2.0 * t * math.sinh(R)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            area_crescent(-0.1, 1.0)


class TestHittingLaw:
    def test_boundaries(self):
        p = ModelParams(1.0, 1.0)
        assert hitting_cdf(0.0, p) == 0.0
        g2r = hitting_cdf(2.0, p)
        assert g2r == pytest.approx(0.9670339246268447, abs=1e-12)
        assert g2r < 1.0

    def test_nondecreasing(self):
        p = ModelParams(0.8, 1.0)
        ts = np.linspace(0.0, 2.2, 45)
        vals = [hitting_cdf(t, p) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_H_plus_one_is_G(self):
        # the half-range 4-lambda form and the full crescent area agree
        p = ModelParams(1.0, 1.0)
        for t in np.linspace(0.0, 2.0, 100):
            assert hitting_H(t, p) + 1.0 == pytest.approx(hitting_cdf(t, p), abs=1e-10)

    def test_density_integrates_to_G(self):
        p = ModelParams(0.7, 0.9)
        val, _ = integrate.quad(lambda s: hitting_density(s, p), 0.0, 2 * p.radius, limit=200)
        assert val == pytest.approx(hitting_cdf(2 * p.radius, p), abs=1e-9)


class TestOccupiedExponent:
    def test_residual_grid(self):
        for lam in (0.5, 1.0, 2.0):
            for R in (0.5, 1.0, 2.0):
                res = alpha_occupied(ModelParams(lam, R))
                assert abs(res.residual) < 1e-10
                assert res.alpha > 0.0

    def test_monotone_decreasing_in_intensity(self):
        alphas = [alpha_occupied(ModelParams(lam, 1.0)).alpha for lam in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_defining_integrand_monotone_in_beta(self):
        # the beta-derivative of the exponential moment is positive
        p = ModelParams(1.0, 1.0)

        def moment(beta):
            val, _ = integrate.quad(
                lambda s: math.exp(beta * s) * hitting_density(s, p), 0.0, 2.0, limit=200
            )
            return val

        assert moment(0.8) > moment(0.3) > 0.0

    def test_density_positive_inside(self):
        p = ModelParams(1.0, 1.0)
        s = np.linspace(0.05, 1.95, 20)
        assert (hitting_density(s, p) > 0.0).all()

    def test_renewal_consistency(self):
        # the pure exponential e^{-alpha r} solves the renewal equation
        # f(r) = int_0^{2R} f(r - s) G'(s) ds at the solved exponent;
        # quadrature here is scipy's, independent of the solver's nodes
        for lam, R in ((0.5, 1.0), (1.0, 1.0)):
            p = ModelParams(lam, R)
            alpha = alpha_occupied(p).alpha
            for r in (3 * R, 5 * R):
                val, _ = integrate.quad(
                    lambda s: math.exp(-alpha * (r - s)) * hitting_density(s, p),
                    0.0,
                    2 * R,
                    limit=200,
                )
                assert val == pytest.approx(math.exp(-alpha * r), rel=1e-8)

    def test_zero_intensity_rejected(self):
        with pytest.raises(ValueError):
            alpha_occupied(ModelParams(0.0, 1.0))

    @pytest.mark.parametrize("lam, R", [(1.0, 8.0), (0.1, 10.0)])
    def test_non_finite_residual_is_refused(self, lam, R):
        """Far off the tested grid the renewal integral overflows and the
        residual at the bisection's end is NaN, which compares false
        with any bound; it must raise, not return an exponent."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="residual nan"):
                alpha_occupied(ModelParams(lam, R))


def nested_lambda_gc(R: float) -> float:
    """lambda_gc by bisection on alpha itself: a full alpha_occupied
    solve at every lambda step, with lambda_gc's bracket and stop width.
    The reference for the single bisection on the residual at beta = 1."""
    def excess(lam):
        return alpha_occupied(ModelParams(lam, R)).alpha - 1.0

    lo = hi = lambda_gv(R)
    if excess(lo) > 0.0:
        while excess(hi) > 0.0:
            lo, hi = hi, 2.0 * hi
    else:
        while excess(lo) < 0.0:
            hi, lo = lo, lo / 2.0
    while hi - lo > 1e-11 * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCriticalIntensity:
    @pytest.mark.parametrize("R", np.geomspace(0.05, 8.0, 25))
    def test_matches_the_nested_solve(self, R):
        # the sign of the residual at beta = 1 is the sign of 1 - alpha,
        # so both bisections take the same steps and end on the same bits
        assert lambda_gc(R) == nested_lambda_gc(R)

    def test_self_consistency(self):
        for R in (0.5, 1.0, 2.0):
            lam = lambda_gc(R)
            assert 0.0 < lam < math.inf
            assert abs(alpha_occupied(ModelParams(lam, R)).alpha - 1.0) < 1e-8

    def test_large_radius_converges(self):
        # lambda_gc(6) is about 2e-6 and lambda_gc(8) about 4e-8, so the
        # bisection width has to be relative to lambda
        for R in (6.0, 8.0):
            lam = lambda_gc(R)
            assert 0.0 < lam < 1e-5
            assert abs(alpha_occupied(ModelParams(lam, R)).alpha - 1.0) < 1e-10

    def test_known_value_R1(self):
        # pinned from the solver itself; guards against regressions
        assert lambda_gc(1.0) == pytest.approx(0.159873, abs=1e-5)


class TestGrassmannForms:
    def test_values(self):
        assert f_grassmann(0.0, 1.0) == 1.0
        assert f_grassmann(2.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_supermultiplicative_with_equality(self):
        for _ in range(20):
            r1, r2 = RNG.uniform(0, 5, 2)
            lhs = f_grassmann(r1 + r2, 0.7)
            rhs = f_grassmann(r1, 0.7) * f_grassmann(r2, 0.7)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestLongRangePercolation:
    def test_gap_two_value(self):
        m = lrp_edge_measure(0, 2)
        assert m == pytest.approx(0.28768207245178085, abs=1e-15)
        # 2-D quadrature oracle over the two unit intervals
        oracle, _ = integrate.dblquad(
            lambda v, u: (u - v) ** -2, 0.0, 1.0, lambda u: 2.0, lambda u: 3.0
        )
        assert m == pytest.approx(oracle, abs=1e-10)

    def test_symmetry_in_interval_exchange(self):
        assert lrp_edge_measure(3, 10) == pytest.approx(lrp_edge_measure(-10, -3), rel=1e-15)

    def test_asymptotic_tail(self):
        n = 100
        val = n * n * lrp_edge_prob(0, n, 1.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_rejects_overlapping(self):
        for bad in (0, 1):
            with pytest.raises(ValueError):
                lrp_edge_measure(0, bad)
