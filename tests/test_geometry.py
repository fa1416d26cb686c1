import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

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
    polar_hyperboloid,
    segment_point_distance,
    to_disk,
    to_hyperboloid,
)

from axis_oracles import axis_point, distance_to_axis_segment
from tube_oracles import ball_net, projection_segment_point_distance
from line_oracles import canonical_matrix, dist_to_geodesic, inverse
# the Mobius matrices, geodesics by ideal ends and boundary maps that the
# oracles are built on live in tests/mobius.py; TestIsometries,
# TestReflection, TestGeodesicType and the boundary-map round trip check
# them against the package's distance
from mobius import (
    INF,
    Geodesic,
    Isometry,
    disk_angle_from_ideal,
    ideal_from_disk_angle,
    reflection_in,
)

RNG = np.random.default_rng(20240811)


def random_point(rng=RNG, scale=3.0):
    return HPoint(float(rng.normal(0.0, scale)), float(rng.uniform(0.05, 6.0)))


def random_isometry(rng=RNG):
    while True:
        a, b, c, d = rng.normal(size=4)
        if abs(a * d - b * c) > 1e-3:
            return Isometry(a, b, c, d)


class TestDist:
    def test_identity(self):
        p = HPoint(0.0, 1.0)
        assert dist(p, p) == 0.0

    @pytest.mark.parametrize("t", [1.0, 2.5])
    def test_vertical_arclength(self, t):
        # the curve (0, e^t) is the unit-speed parameterization of the axis
        assert dist(HPoint(0, 1), HPoint(0, math.exp(t))) == pytest.approx(t, abs=1e-12)

    def test_against_length_integral(self):
        # independent oracle: integrate the metric |ds|/y along the
        # connecting semicircle (center 0, radius sqrt 2, theta in
        # [pi/4, 3pi/4], where ds = sqrt(2) dtheta and y = sqrt(2) sin theta)
        oracle, _ = integrate.quad(lambda th: 1.0 / math.sin(th), math.pi / 4, 3 * math.pi / 4)
        d = dist(HPoint(1, 1), HPoint(-1, 1))
        assert d == pytest.approx(oracle, abs=1e-10)
        assert d == pytest.approx(1.762747174039086, abs=1e-12)  # arccosh(3)

    def test_metric_properties(self):
        for _ in range(200):
            p, q, r = (random_point() for _ in range(3))
            assert dist(p, q) == dist(q, p)
            assert dist(p, q) >= 0.0
            assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-10

    def test_near_coincident_guard(self):
        p = HPoint(0.0, 1.0)
        q = HPoint(1e-9, 1.0)
        d = dist(p, q)
        assert 0.0 < d < 2e-9
        assert d == pytest.approx(1e-9, rel=1e-4)

    def test_array_version_matches(self):
        """dist is dist_arrays on one pair, bit for bit, also for
        near-coincident pairs."""
        ps = [random_point() for _ in range(400)]
        qs = [random_point() for _ in range(200)] + [
            HPoint(p.x + float(RNG.normal()) * 10.0 ** -(k % 16), p.y)
            for k, p in enumerate(ps[200:])
        ]
        d = dist_arrays(np.asarray([p.as_complex() for p in ps]),
                        np.asarray([q.as_complex() for q in qs]))
        assert [dist(p, q) for p, q in zip(ps, qs)] == d.tolist()

    @pytest.mark.parametrize("x", [0.0, 0.7])
    def test_vertical_distance_keeps_full_relative_precision(self, x):
        """(x, 1) and (x, y) are log y apart; with y = e^eps down to
        eps = 1e-9 the distance keeps its relative precision, which
        arccosh(1 + delta) loses with the digits 1 + delta rounds away."""
        y = np.exp(np.logspace(-9.0, -1.0, 200))
        d = dist_arrays(np.asarray(x + 1j), x + 1j * y)
        assert (np.abs(d - np.log(y)) <= 4.0 * np.finfo(float).eps * np.log(y)).all()


class TestDistToGeodesic:
    def test_point_on_geodesic(self):
        d, foot = dist_to_geodesic(HPoint(0.0, 2.5), Geodesic(0.0, INF))
        assert d == pytest.approx(0.0, abs=1e-12)
        assert foot == pytest.approx(math.log(2.5), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.2, math.pi / 2])
    def test_log_tan_half_formula(self, theta):
        p = HPoint(math.cos(theta), math.sin(theta))
        d, foot = dist_to_geodesic(p, Geodesic(0.0, INF))
        assert d == pytest.approx(abs(math.log(math.tan(theta / 2.0))), abs=1e-12)
        assert foot == pytest.approx(0.0, abs=1e-12)


def _hpoint(z) -> HPoint:
    return HPoint(float(np.real(z)), float(np.imag(z)))


class TestOffsetPoint:
    """``axis_point``, the oracle that places points by axis coordinates."""

    def test_zero_offset_is_frame_point(self):
        assert dist(_hpoint(axis_point(0.0, 0.0)), ORIGIN) < 1e-12

    def test_pythagoras_value(self):
        # cosh d = cosh 1 cosh 1
        d = dist(ORIGIN, _hpoint(axis_point(1.0, 1.0)))
        assert d == pytest.approx(1.513374006596504, abs=1e-10)

    def test_pythagoras_identity_random(self):
        # cosh d(i, z) = cosh s cosh y, also after a random isometry
        for _ in range(50):
            m = random_isometry()
            s, y = RNG.uniform(-2, 2, 2)
            p = m.apply(_hpoint(axis_point(s, y)))
            lhs = math.cosh(dist(m.apply(ORIGIN), p))
            assert lhs == pytest.approx(math.cosh(s) * math.cosh(y), rel=1e-10)

    def test_roundtrip_through_the_frame_pullback(self):
        # canonical_matrix(g) lays the axis on g, and points placed beside
        # g by it read back their axis coordinates through its inverse
        for _ in range(10):
            g = Geodesic(float(RNG.normal(0, 2)), float(RNG.normal(0, 2) + 4.0))
            m = canonical_matrix(g)
            s, y = RNG.uniform(-2.5, 2.5, (2, 5))
            on_g = m.apply_array(axis_point(s, 0.0))
            assert np.allclose(np.abs(on_g - (g.a + g.b) / 2.0), (g.b - g.a) / 2.0, rtol=1e-10)
            foot, yoff = axis_coordinates(inverse(m).apply_array(m.apply_array(axis_point(s, y))))
            assert np.allclose(yoff, y, atol=1e-8) and np.allclose(foot, s, atol=1e-8)

    def test_perpendicular_offset(self):
        assert dist(ORIGIN, _hpoint(axis_point(0.0, 0.75))) == pytest.approx(0.75, abs=1e-10)


class TestIsometries:
    def test_identity(self):
        p = random_point()
        assert Isometry.identity().apply(p) == p

    def test_scaling_is_translation(self):
        m = Isometry(2.0, 0.0, 0.0, 1.0)
        assert m.apply(HPoint(0, 1)) == HPoint(0.0, 2.0)
        d1 = dist(HPoint(0, 1), HPoint(0, 2))
        d2 = dist(m.apply(HPoint(0, 1)), m.apply(HPoint(0, 2)))
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_random_isometries_preserve_dist(self):
        for _ in range(100):
            m = random_isometry()
            p, q = random_point(), random_point()
            assert dist(m.apply(p), m.apply(q)) == pytest.approx(dist(p, q), abs=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Isometry(1.0, 2.0, 2.0, 4.0)

    def test_composition_matches_sequential(self):
        m1, m2 = random_isometry(), random_isometry()
        p = random_point()
        combined = (m1 @ m2).apply(p)
        sequential = m1.apply(m2.apply(p))
        assert dist(combined, sequential) < 1e-10

    def test_inverse(self):
        m = random_isometry()
        p = random_point()
        assert dist(inverse(m).apply(m.apply(p)), p) < 1e-10

    def test_apply_is_apply_array_bit_for_bit(self):
        """apply is apply_array on one Python complex, bit for bit, and both
        keep to CPython's complex arithmetic, reflections included: NumPy's
        complex division rounds otherwise in the last bit for many
        reflections.  On arrays the two agree to rounding."""
        mirrors = [reflection_in(Geodesic(float(RNG.normal()), float(RNG.normal()) + 3.0))
                   for _ in range(20)]
        for m in [random_isometry() for _ in range(20)] + mirrors:
            ps = [random_point() for _ in range(20)]
            for p in ps:
                z = p.as_complex().conjugate() if m.det < 0 else p.as_complex()
                w = (m.a * z + m.b) / (m.c * z + m.d)
                assert m.apply(p).as_complex() == m.apply_array(p.as_complex())
                assert m.apply(p) == HPoint(w.real, abs(w.imag))
            ws = m.apply_array(np.asarray([p.as_complex() for p in ps]))
            ref = [m.apply(p).as_complex() for p in ps]
            assert ws == pytest.approx(ref, rel=1e-14, abs=0.0)


class TestReflection:
    def test_fixes_points_on_line(self):
        g = Geodesic(-1.0, 3.0)
        p = canonical_matrix(g).apply(HPoint(0.0, math.exp(0.7)))
        assert dist(reflection_in(g).apply(p), p) < 1e-10

    def test_vertical_mirror(self):
        assert reflection_in(Geodesic(0.0, INF)).apply(HPoint(1, 1)) == HPoint(-1.0, 1.0)

    def test_involution_and_isometry(self):
        for _ in range(50):
            g = Geodesic(float(RNG.normal(0, 2)), float(RNG.normal(0, 2) + 3.0))
            p, q = random_point(), random_point()
            m = reflection_in(g)
            assert dist(m.apply(m.apply(p)), p) < 1e-10
            assert dist(m.apply(p), m.apply(q)) == pytest.approx(dist(p, q), abs=1e-10)

    def test_reflection_has_negative_determinant(self):
        assert reflection_in(Geodesic(-1.0, 3.0)).det < 0


class TestDiskModel:
    def test_center_convention(self):
        assert to_disk(1j) == 0.0
        assert to_disk(np.asarray([1j, 2j])).tolist() == [0.0, 1.0 / 3.0]

    def test_roundtrip(self):
        z = np.asarray([random_point().as_complex() for _ in range(1000)])
        w = to_disk(z)
        back = 1j * (1.0 + w) / (1.0 - w)  # the inverse Cayley map
        assert (dist_arrays(back, z) < 1e-12).all()

    def test_distance_agreement(self):
        # the disk metric: cosh d = 1 + 2|w1 - w2|^2 / ((1 - |w1|^2)(1 - |w2|^2))
        for _ in range(100):
            p, q = random_point(), random_point()
            w1, w2 = to_disk(p.as_complex()), to_disk(q.as_complex())
            excess = 2.0 * abs(w1 - w2) ** 2 / ((1.0 - abs(w1) ** 2) * (1.0 - abs(w2) ** 2))
            assert math.acosh(1.0 + excess) == pytest.approx(dist(p, q), abs=1e-10)

    def test_boundary_maps_roundtrip(self):
        for theta in (0.3, 1.0, math.pi, 4.0, 6.0):
            x = ideal_from_disk_angle(theta)
            assert disk_angle_from_ideal(x) == pytest.approx(theta, abs=1e-12)
        assert ideal_from_disk_angle(0.0) == INF
        assert disk_angle_from_ideal(INF) == 0.0


class TestBallMetrics:
    def test_degenerate(self):
        assert ball_area(0.0) == 0.0

    def test_unit_ball(self):
        assert ball_area(1.0) == pytest.approx(3.412276265284902, abs=1e-12)

    def test_area_derivative_is_circumference(self):
        h = 1e-6
        for r in (0.5, 1.0, 2.0, 3.0):
            slope = (ball_area(r + h) - ball_area(r - h)) / (2 * h)
            assert slope == pytest.approx(2.0 * math.pi * math.sinh(r), rel=1e-8)

    @pytest.mark.parametrize(
        "radius, mesh", [(0.33, 0.05), (0.3, 0.05), (0.05, 0.0125), (0.05, 0.05), (0.02, 0.05),
                         (1.0, 0.07)]
    )
    def test_ball_net_stays_in_the_ball(self, radius, mesh):
        """The centre and rings at k mesh < radius; rings at most mesh
        apart, and on each ring points at most mesh apart along it."""
        t, psi = ball_net(radius, mesh)
        rings = np.unique(t)
        assert rings[0] == 0.0 and psi[0] == 0.0 and np.count_nonzero(t == 0.0) == 1
        assert np.all(rings < radius)
        assert np.all(np.diff(np.append(rings, radius)) <= mesh * (1.0 + 1e-12))
        for rad in rings[1:]:
            on_ring = psi[t == rad]
            assert np.array_equal(on_ring, 2.0 * math.pi * np.arange(len(on_ring)) / len(on_ring))
            assert len(on_ring) >= 4
            assert 2.0 * math.pi * math.sinh(rad) / len(on_ring) <= mesh


class TestGeodesicType:
    def test_unordered_normalization(self):
        assert Geodesic(3.0, -1.0) == Geodesic(-1.0, 3.0)
        assert Geodesic(INF, 2.0) == Geodesic(2.0, INF)

    def test_distinct_endpoints_required(self):
        with pytest.raises(ValueError):
            Geodesic(1.0, 1.0)


class TestHyperboloid:
    def test_segment_distance_matches_reference(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=40) + 1j * rng.uniform(0.2, 8.0, 40)
        p = to_hyperboloid(np.asarray([1j]))
        q = to_hyperboloid(np.asarray([1j * math.exp(2.5)]))
        foot, perp = segment_point_distance(p, q, to_hyperboloid(pts))
        _, u_ref, y_ref = distance_to_axis_segment(pts, 2.5)
        assert np.abs(foot[0] - u_ref).max() < 1e-10
        assert np.abs(perp[0] - np.abs(y_ref)).max() < 1e-10

    def test_frame_kernel_matches_the_projection(self):
        """segment_point_distance reads (foot, perp) from the segment's
        frame; the projection form agrees on segments of length up to 20
        with points up to distance 15 from (0, 1).  Measured over 600
        such segments with 8 points each: at most 6.4e-10 apart in foot
        and 4.4e-13 in perp, and against 60-digit arithmetic on the same
        vectors the frame form is off by at most 4.1e-11 and 6.2e-11, the
        projection by 6.4e-10 and 6.2e-11."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(30)
        worst = np.zeros(2)
        for k in range(200):
            p = polar_around_origin(rng.uniform(0.0, 5.0), rng.uniform(0.0, 2.0 * math.pi))
            length = 20.0 if k % 4 == 0 else rng.uniform(1e-3, 20.0)
            q = p.imag * polar_around_origin(length, rng.uniform(0.0, 2.0 * math.pi)) + p.real
            w = polar_around_origin(rng.uniform(0.0, 15.0, 8), rng.uniform(0.0, 2.0 * math.pi, 8))
            ph, qh, wh = (to_hyperboloid(np.atleast_1d(z)) for z in (p, q, w))
            got = segment_point_distance(ph, qh, wh)
            ref = projection_segment_point_distance(ph, qh, wh)
            worst = np.maximum(worst, [np.abs(got[i] - ref[i]).max() for i in (0, 1)])
            if k % 10 == 0:
                with mpmath.workdps(60):
                    exact = np.asarray([_frame_exact(ph[0], qh[0], x, mpmath) for x in wh]).T
                for i in (0, 1):
                    assert np.abs(got[i][0] - exact[i]).max() < 1e-9, (k, i)
        assert worst[0] < 5e-9 and worst[1] < 5e-12, worst

    def test_polar_points_at_right_distance(self):
        t = np.asarray([0.5, 1.0, 2.0])
        phi = np.asarray([0.0, 1.0, 4.0])
        z = polar_around_origin(t, phi)
        for k in range(3):
            assert dist(ORIGIN, HPoint(z[k].real, z[k].imag)) == pytest.approx(t[k], abs=1e-12)

    def test_polar_around_origin_against_60_digits(self):
        """At t up to 30 and any direction, ``polar_around_origin`` puts a
        point within 4e-16 e^t (hyperbolic distance) of the point that
        60-digit arithmetic gives for the same t and phi, the bound its
        docstring states, 8.8e-12 at t = 10 and 4.3e-3 at t = 30."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(32)
        t = np.concatenate([np.linspace(0.0, 30.0, 61), rng.uniform(0.0, 30.0, 240)])
        phi = np.concatenate([rng.uniform(-math.pi, math.pi, 151), math.pi * rng.integers(-4, 5, 150) / 4])
        z = polar_around_origin(t, phi)
        err = []
        with mpmath.workdps(60):
            for got, a, b in zip(z, t, phi):
                w = mpmath.tanh(mpmath.mpf(float(a)) / 2) * mpmath.expj(mpmath.mpf(float(b)))
                exact = 1j * (1 + w) / (1 - w)
                exact = mpmath.mpc(exact.real, abs(exact.imag))
                got = mpmath.mpc(float(got.real), float(got.imag))
                err.append(float(mpmath.acosh(1 + abs(got - exact) ** 2 / (2 * got.imag * exact.imag))))
        assert (np.asarray(err) <= 4e-16 * np.exp(t)).all()

    def test_to_hyperboloid_against_60_digits(self):
        """At t up to 25, in any direction and near the unit circle, where
        |z|^2 - 1 cancels, ``to_hyperboloid`` keeps each coordinate within
        4e-16 cosh t of the vector that 60-digit arithmetic gives for the
        same z, t its distance from (0, 1): the bound its docstring
        states, 1.4e-5 at t = 25."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(33)
        t = np.concatenate([np.linspace(0.0, 25.0, 51), rng.uniform(0.0, 25.0, 250)])
        phi = np.concatenate([rng.uniform(-math.pi, math.pi, 101),
                              math.pi * rng.integers(-4, 5, 100) / 4,
                              rng.choice([-0.5, 0.5], 100) * math.pi + rng.normal(0.0, 1e-6, 100)])
        z = polar_around_origin(t, phi)
        err, cosh_t = [], []
        with mpmath.workdps(60):
            for zk, got in zip(z, to_hyperboloid(z)):
                x, y = mpmath.mpf(float(zk.real)), mpmath.mpf(float(zk.imag))
                n = x * x + y * y
                exact = (x / y, (n - 1) / (2 * y), (n + 1) / (2 * y))
                err.append([float(abs(mpmath.mpf(float(g)) - e)) for g, e in zip(got, exact)])
                cosh_t.append(float(exact[2]))
        assert (np.asarray(err) <= 4e-16 * np.asarray(cosh_t)[:, None]).all()

    def test_polar_frame_and_hyperboloid_against_60_digits(self):
        """At t up to 25, with angles from 1e-12 to pi, ``frame_fermi`` of
        ``polar_frame`` keeps foot and offset within 4e-16 (1 + t) of
        60-digit arithmetic on the same t and angle, and
        ``polar_hyperboloid`` each coordinate within 4e-16 cosh t: the
        bounds their docstrings state.  ``frame_fermi`` on its own is off
        by at most 2 units in the last place of the larger of the result
        and 1."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(31)
        t = np.concatenate([np.linspace(0.0, 25.0, 51), rng.uniform(0.0, 25.0, 250)])
        sign = rng.choice([-1.0, 1.0], len(t))
        dpsi = sign * np.concatenate([10.0 ** rng.uniform(-12.0, 0.0, 150),
                                      rng.uniform(0.0, math.pi, len(t) - 150)])
        foot, offset = frame_fermi(*polar_frame(t, dpsi))
        vector = polar_hyperboloid(t, dpsi)
        along, normal = rng.normal(size=(2, 300)) * 10.0 ** rng.uniform(-12.0, 11.0, (2, 300))
        direct = np.stack(frame_fermi(along, normal))
        with mpmath.workdps(60):
            exact = np.asarray([_polar_exact(a, b, mpmath) for a, b in zip(t, dpsi)])
            exact_direct = np.asarray([_fermi_exact(a, c, mpmath)
                                       for a, c in zip(along, normal)]).T
        assert (np.abs(foot - exact[:, 0]) <= 4e-16 * (1.0 + t)).all()
        assert (np.abs(offset - exact[:, 1]) <= 4e-16 * (1.0 + t)).all()
        assert (np.abs(vector - exact[:, 2:]) <= 4e-16 * np.cosh(t)[:, None]).all()
        ulp = np.spacing(np.maximum(np.abs(exact_direct), 1.0))
        assert (np.abs(direct - exact_direct) <= 2.0 * ulp).all()


def _fermi_exact(along, normal, mpmath):
    """(foot, offset) of ``frame_fermi`` in the working precision of
    mpmath, rounded to floats."""
    along, normal = mpmath.mpf(along), mpmath.mpf(normal)
    foot = mpmath.asinh(along / mpmath.sqrt(1 + normal ** 2))
    return [float(foot), float(mpmath.asinh(normal))]


def _polar_exact(t, dpsi, mpmath):
    """foot, offset and the three hyperboloid coordinates of the point at
    distance t from (0, 1), angle dpsi from direction 0, in the working
    precision of mpmath, t and dpsi taken as exact."""
    t, dpsi = mpmath.mpf(float(t)), mpmath.mpf(float(dpsi))
    along, normal = mpmath.sinh(t) * mpmath.cos(dpsi), mpmath.sinh(t) * mpmath.sin(dpsi)
    vector = [float(v) for v in (-normal, along, mpmath.cosh(t))]
    return _fermi_exact(along, normal, mpmath) + vector


def _frame_exact(p, q, w, mpmath):
    """(foot, perp) of the hyperboloid vector w relative to the segment
    [p, q] in the working precision of mpmath, the vectors taken as
    exact."""
    p, q, w = ([mpmath.mpf(float(x)) for x in v] for v in (p, q, w))

    def form(a, b):
        return a[0] * b[0] + a[1] * b[1] - a[2] * b[2]

    cosh_l = -form(p, q)
    e = [(b - cosh_l * a) / mpmath.sqrt(cosh_l ** 2 - 1) for a, b in zip(p, q)]
    n = [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[1] * q[0] - p[0] * q[1]]
    c = form(n, w) / mpmath.sqrt(form(n, n))
    return float(mpmath.asinh(form(e, w) / mpmath.sqrt(1 + c ** 2))), float(abs(mpmath.asinh(c)))


_angle = st.floats(0.0, 2.0 * math.pi)


@settings(deadline=None, max_examples=60)
@given(
    ends=st.tuples(st.floats(0.0, 3.0), _angle, st.floats(0.1, 4.0), _angle),
    pts=st.lists(st.tuples(st.floats(0.0, 4.0), _angle), min_size=1, max_size=8),
    move=st.tuples(_angle, st.floats(-2.0, 2.0), st.booleans()),
)
def test_segment_point_distance_is_invariant(ends, pts, move):
    """foot and perp, which the sandwich's Q net reads, do not change when
    one isometry (a rotation about (0, 1), a translation along the axis
    and maybe a reflection) moves the segment and the points."""
    t_p, phi_p, length, phi_q = ends
    p = polar_around_origin(t_p, phi_p)
    # q at distance length from p, in direction phi_q seen from p
    q = p.imag * polar_around_origin(length, phi_q) + p.real
    w = polar_around_origin(*np.asarray(pts).T)
    angle, shift, mirror = move
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    iso = Isometry(c, s, -s, c)
    iso = Isometry(math.exp(shift / 2), 0.0, 0.0, math.exp(-shift / 2)) @ iso
    if mirror:
        iso = Isometry(-1.0, 0.0, 0.0, 1.0) @ iso
    before = segment_point_distance(*(to_hyperboloid(np.atleast_1d(z)) for z in (p, q, w)))
    after = segment_point_distance(
        *(to_hyperboloid(iso.apply_array(np.atleast_1d(z))) for z in (p, q, w))
    )
    for name, k in (("foot", 0), ("perp", 1)):
        assert np.allclose(before[k], after[k], rtol=1e-7, atol=1e-7), name
