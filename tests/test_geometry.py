import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hyperc.geometry import (
    INF,
    Geodesic,
    HPoint,
    Isometry,
    ORIGIN,
    axis_coordinates,
    ball_area,
    ball_net,
    canonical_matrix,
    disk_angle_from_ideal,
    dist,
    dist_arrays,
    ideal_from_disk_angle,
    polar_around_origin,
    reflection_in,
    segment_point_distance,
    to_disk,
    to_hyperboloid,
)

from axis_oracles import axis_point, distance_to_axis_segment
from line_oracles import dist_to_geodesic

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
        zs = np.asarray([random_point().as_complex() for _ in range(64)])
        ws = np.asarray([random_point().as_complex() for _ in range(64)])
        d = dist_arrays(zs, ws)
        for k in range(64):
            ref = dist(HPoint(zs[k].real, zs[k].imag), HPoint(ws[k].real, ws[k].imag))
            assert d[k] == pytest.approx(ref, abs=1e-12)


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
            foot, yoff = axis_coordinates(m.inverse().apply_array(m.apply_array(axis_point(s, y))))
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
        assert dist(m.inverse().apply(m.apply(p)), p) < 1e-10


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
        assert to_disk(HPoint(0, 1)) == (0.0, 0.0)

    def test_roundtrip(self):
        for _ in range(1000):
            p = random_point()
            w = complex(*to_disk(p))
            z = 1j * (1.0 + w) / (1.0 - w)  # the inverse Cayley map
            assert dist(HPoint(z.real, z.imag), p) < 1e-12

    def test_distance_agreement(self):
        # the disk metric: cosh d = 1 + 2|w1 - w2|^2 / ((1 - |w1|^2)(1 - |w2|^2))
        for _ in range(100):
            p, q = random_point(), random_point()
            w1, w2 = complex(*to_disk(p)), complex(*to_disk(q))
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
    @pytest.mark.parametrize("rim", [False, True])
    def test_ball_net_stays_in_the_ball(self, radius, mesh, rim):
        """The centre, rings at k mesh < radius and, with rim, the rim
        itself; rings at most mesh apart, and on each ring points at
        most mesh apart along it."""
        t, psi = ball_net(radius, mesh, rim)
        rings = np.unique(t)
        assert rings[0] == 0.0 and psi[0] == 0.0 and np.count_nonzero(t == 0.0) == 1
        assert np.all(rings[:-1] < radius) and rings[-1] <= radius
        assert (rings[-1] == radius) == rim
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

    def test_polar_points_at_right_distance(self):
        t = np.asarray([0.5, 1.0, 2.0])
        phi = np.asarray([0.0, 1.0, 4.0])
        z = polar_around_origin(t, phi)
        for k in range(3):
            assert dist(ORIGIN, HPoint(z[k].real, z[k].imag)) == pytest.approx(t[k], abs=1e-12)


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
