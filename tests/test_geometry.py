import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from tdxray import geometry
from tdxray.conformal import bump_factor, constant_factor
from tdxray.errors import NoExit, TangentRay
from tdxray.geometry import (GRAZING_TOL, MetricSpec, ball, ellipsoid, exit_time,
                             geodesic_trace, hamiltonian_jet, make_ray,
                             march_to_exit, perp_frame, sample_inward_bundle,
                             trace_bundle)


def march_ray(c, body, ray, dt):
    """Times, points and momenta of one ray's Hamiltonian flow from
    p = -omega: the march that traces it under the conformal metric c."""
    state = {"x": ray.x[None, :], "p": -ray.omega[None, :]}
    [(times, nodes, _)] = march_to_exit(c, body, state, dt)
    return times, nodes["x"], nodes["p"]


class TestExitTime:
    def test_diameter_chord(self, unit_disk):
        ray = make_ray(unit_disk, (-1.0, 0.0), (1.0, 0.0))
        [tau] = exit_time(unit_disk, [ray])
        assert tau == pytest.approx(2.0, abs=1e-11)

    def test_oblique_chord(self, unit_disk):
        th = np.pi / 4
        ray = make_ray(unit_disk, (-1.0, 0.0), (np.cos(th), np.sin(th)))
        [tau] = exit_time(unit_disk, [ray])
        assert tau == pytest.approx(np.sqrt(2.0), abs=1e-11)

    def test_ellipse_against_bisection_oracle(self):
        body = ellipsoid((2.0, 1.0))
        ray = make_ray(body, (-2.0, 0.0), (0.8, 0.6))

        def phi_line(s):
            return float(body.phi(ray.x + s * ray.omega))

        oracle = brentq(phi_line, 1e-6, 1.5 * body.diameter, xtol=1e-14)
        [tau] = exit_time(body, [ray])
        assert tau == pytest.approx(oracle, abs=1e-10)

    def test_tangent_ray_rejected(self, unit_disk):
        with pytest.raises(TangentRay):
            make_ray(unit_disk, (-1.0, 0.0), (0.0, 1.0))

    def test_near_grazing_rejected(self, unit_disk):
        nu = np.array([-1.0, 0.0])
        tangent = np.array([0.0, 1.0])
        omega = tangent - 0.5 * GRAZING_TOL * nu
        omega /= np.linalg.norm(omega)
        with pytest.raises(TangentRay):
            make_ray(unit_disk, (-1.0, 0.0), omega)

    def test_3d_ball_chord(self):
        body = ball(dim=3)
        ray = make_ray(body, (0.0, 0.0, -1.0), (0.0, 0.0, 1.0))
        [tau] = exit_time(body, [ray])
        assert tau == pytest.approx(2.0, abs=1e-11)

    @given(semiaxes=st.lists(st.floats(0.5, 3.0), min_size=2, max_size=3),
           angles=st.lists(st.tuples(st.floats(0.05, 2 * np.pi - 0.05),
                                     st.floats(0.05, np.pi - 0.05),
                                     st.floats(-1.2, 1.2),
                                     st.floats(0.0, 2 * np.pi)),
                           min_size=1, max_size=8),
           radius=st.sampled_from([1.0, 4.0]))
    @settings(max_examples=30, deadline=None)
    def test_exit_point_on_boundary(self, semiaxes, angles, radius):
        # a family of rays on a 2-D or 3-D ellipsoid: the anchors at
        # azimuth theta (and polar angle), each ray turned by tilt from
        # the inward normal, towards the tangent at angle spin
        body = ellipsoid(semiaxes)
        theta, polar, tilt, spin = np.array(angles).T
        dirs = np.stack([np.cos(theta) * np.sin(polar),
                         np.sin(theta) * np.sin(polar), np.cos(polar)], -1)
        if body.dim == 2:
            dirs = dirs[:, :2]
        anchors = body.boundary_point(dirs)
        for d, anchor in zip(dirs, anchors):
            assert np.array_equal(body.boundary_point(d), anchor)
        rays = []
        for anchor, nu, tl, sp in zip(anchors, body.outward_normal(anchors),
                                      tilt, spin):
            frame = perp_frame(nu)
            tangent = (frame[0] if body.dim == 2 else
                       np.cos(sp) * frame[0] + np.sin(sp) * frame[1])
            rays.append(make_ray(body, anchor,
                                 -np.cos(tl) * nu + np.sin(tl) * tangent))
        taus = exit_time(body, rays)
        assert taus.shape == (len(rays),)
        for ray, tau in zip(rays, taus):
            # a family changes no bit of any of its chord lengths
            assert exit_time(body, [ray])[0] == tau
            assert 0.0 < tau <= body.diameter + 1e-9
            assert abs(body.phi(ray.x + tau * ray.omega)) < 1e-12
            assert body.phi(ray.x + 0.5 * tau * ray.omega) < 0.0
        # a ball is the ellipsoid of equal semiaxes, and its level function
        # keeps the bits of |x|^2 / r^2 - 1 at radii that are powers of two
        pts = radius * np.concatenate([anchors, dirs])
        assert np.array_equal(ball(radius, body.dim).phi(pts),
                              np.sum(pts * pts, axis=-1) / radius**2 - 1.0)


class TestBundle:
    def test_normal_rays(self, unit_disk):
        rays = sample_inward_bundle(unit_disk, 4, 1)
        assert len(rays) == 4
        for r in rays:
            assert float(r.omega @ r.normal) == pytest.approx(-1.0,
                                                              abs=1e-12)

    def test_counts_and_inwardness(self, unit_disk):
        rays = sample_inward_bundle(unit_disk, 8, 8)
        assert len(rays) == 64
        for r in rays:
            assert float(r.omega @ r.normal) < 0.0
            assert abs(np.linalg.norm(r.omega) - 1.0) < 1e-12

    def test_ellipse_chords_below_diameter(self):
        body = ellipsoid((2.0, 1.0))
        rays = sample_inward_bundle(body, 16, 16)
        assert np.all(exit_time(body, rays) <= body.diameter + 1e-9)

    def test_3d_bundle(self):
        body = ball(dim=3)
        rays = sample_inward_bundle(body, 6, 5)
        assert len(rays) == 30
        for r in rays:
            assert float(r.omega @ r.normal) < 0.0


class TestGeodesicTrace:
    def test_euclidean_is_straight(self, unit_disk):
        ray = make_ray(unit_disk, (-1.0, 0.0), (1.0, 0.0))
        path = geodesic_trace(MetricSpec(), unit_disk, ray, dt=1e-3)
        chord = ray.x[None, :] + path.times[:, None] * ray.omega[None, :]
        assert np.max(np.abs(path.points - chord)) < 1e-8
        assert path.times[-1] == pytest.approx(2.0, abs=1e-10)

    def test_conformal_reduces_to_straight(self, unit_disk):
        metric = MetricSpec("conformal", constant_factor())
        ray = make_ray(unit_disk, (-1.0, 0.0), (1.0, 0.0))
        path = geodesic_trace(metric, unit_disk, ray, dt=1e-3)
        assert np.max(np.abs(path.points[:, 1])) < 1e-8

    def test_hamiltonian_conserved(self, unit_disk):
        c = bump_factor(0.1, (0.0, 0.0), 0.8)
        ray = make_ray(unit_disk, (-1.0, 0.0), (1.0, 0.0))
        times, points, p = march_ray(c, unit_disk, ray, dt=5e-4)
        # h = sqrt(c) |p| along the path, for a time-independent c
        hs = np.sqrt(c(times, points)) * np.linalg.norm(p, axis=1)
        assert np.max(np.abs(hs - hs[0])) < 1e-6

    def test_conformal_interior_and_richardson(self, unit_disk):
        c = bump_factor(0.1, (0.0, 0.0), 0.8)
        metric = MetricSpec("conformal", c)
        ray = make_ray(unit_disk, (-1.0, 0.0), (1.0, 0.0))
        coarse = geodesic_trace(metric, unit_disk, ray, dt=2e-3)
        fine = geodesic_trace(metric, unit_disk, ray, dt=2e-4)
        assert np.isfinite(coarse.times[-1])
        assert np.all(unit_disk.phi(coarse.points[1:-1]) < 0.0)
        assert abs(coarse.times[-1] - fine.times[-1]) < 1e-8

    def test_unit_speed_in_ray_metric(self, unit_disk):
        c = bump_factor(0.1, (0.0, 0.0), 0.8)
        metric = MetricSpec("conformal", c)
        ray = make_ray(unit_disk, (-1.0, 0.0), (0.8, 0.6))
        times, points, p = march_ray(c, unit_disk, ray, dt=1e-3)
        assert np.array_equal(
            points, geodesic_trace(metric, unit_disk, ray, dt=1e-3).points)
        # the velocity dx/dt = -h_p
        cv, gv, _ = c.jet(times, points, 1)
        *_, h_p = hamiltonian_jet(cv, gv, p)
        speeds = np.linalg.norm(h_p, axis=1) / np.sqrt(c(times, points))
        assert np.max(np.abs(speeds - 1.0)) < 1e-8

    def test_reversibility(self, unit_disk):
        c = bump_factor(0.1, (0.05, -0.1), 0.7)
        metric = MetricSpec("conformal", c)
        ray = make_ray(unit_disk, (-1.0, 0.0), (0.9, np.sqrt(1 - 0.81)))
        _, points, p = march_ray(c, unit_disk, ray, dt=5e-4)
        # back along -dx/dt = h_p, which points along p
        back_dir = p[-1] / np.linalg.norm(p[-1])
        back_ray = make_ray(unit_disk, points[-1], back_dir)
        back = geodesic_trace(metric, unit_disk, back_ray, dt=5e-4)
        assert np.linalg.norm(back.points[-1] - ray.x) < 1e-5

    def test_no_exit_guard(self, unit_disk, monkeypatch):
        # 0.1 diameters at speed sqrt(m0) = sqrt(0.5) allow t = 0.28 for
        # a chord of length 2
        monkeypatch.setattr(geometry, "EXIT_BUDGET", 0.1)
        c = bump_factor(0.1, (0.0, 0.0), 0.8)
        metric = MetricSpec("conformal", c)
        ray = make_ray(unit_disk, (-1.0, 0.0), (1.0, 0.0))
        with pytest.raises(NoExit):
            geodesic_trace(metric, unit_disk, ray, dt=1e-3)


def ray_at(body, theta, tilt):
    """The ray from the boundary point at polar angle theta, turned by
    tilt from the inward normal."""
    anchor = body.boundary_point(np.array([np.cos(theta), np.sin(theta)]))
    nu = body.outward_normal(anchor)
    return make_ray(body, anchor, -np.cos(tilt) * nu
                    + np.sin(tilt) * np.array([-nu[1], nu[0]]))


class ReentrantBody:
    """A duck-typed body: the line x2 = 0 lies inside for x1 < 0.3 and
    again for 0.5 < x1 < 0.7, the line x2 = 1 for x1 < 1.5."""

    diameter = 2.0

    def phi(self, x):
        x1 = x[..., 0]
        return np.where(x[..., 1] < 0.5,
                        (x1 - 0.3) * (x1 - 0.5) * (x1 - 0.7), x1 - 1.5)


class TestTraceBundle:
    def test_row_stops_at_its_first_crossing(self):
        # the short row leaves at x1 = 0.3, comes back in at 0.5 and
        # leaves again at 0.7 while the long row is still inside; its
        # nodes must end at its first crossing, as when marched alone
        c, body = constant_factor(), ReentrantBody()
        state = {"x": np.array([[0.0, 0.0], [0.0, 1.0]]),
                 "p": np.array([[-1.0, 0.0], [-1.0, 0.0]])}
        family = march_to_exit(c, body, state, 0.013)
        for i, (times, nodes, step) in enumerate(family):
            [(times_1, nodes_1, step_1)] = march_to_exit(
                c, body, {key: v[i:i + 1] for key, v in state.items()}, 0.013)
            assert np.array_equal(times, times_1) and step == step_1
            for key in state:
                assert np.array_equal(nodes[key], nodes_1[key])
        assert [times[-1] for times, *_ in family] == pytest.approx(
            [0.3, 1.5], abs=1e-9)

    @given(angles=st.lists(st.tuples(st.floats(0.0, 2 * np.pi),
                                     st.floats(-1.3, 1.3)),
                           min_size=1, max_size=12),
           amplitude=st.floats(-0.1, 0.1), timed=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_paths_equal_rays_traced_alone(self, unit_disk, angles,
                                           amplitude, timed):
        # every step of the march acts row by row, and the deferred
        # bisection runs at per-row times, so a family changes no bit of
        # any of its paths
        c = bump_factor(amplitude, (0.1, -0.05), 0.7,
                        t_center=0.6 if timed else None)
        metric = MetricSpec("conformal", c)
        rays = [ray_at(unit_disk, th, tilt) for th, tilt in angles]
        paths = trace_bundle(metric, unit_disk, rays, dt=1.5e-2)
        assert len(paths) == len(rays)
        for ray, path in zip(rays, paths):
            alone = geodesic_trace(metric, unit_disk, ray, dt=1.5e-2)
            assert np.array_equal(path.times, alone.times)
            assert np.array_equal(path.points, alone.points)
            assert path.times[-1] == alone.times[-1]

    @pytest.mark.parametrize("long_first", [False, True])
    def test_no_exit_names_rays_inside(self, unit_disk, monkeypatch,
                                       long_first):
        # chords of about 0.72 and 2.0; only the longer outlasts the
        # t = 1.13 that 0.4 diameters at speed sqrt(m0) = sqrt(0.5) allow
        monkeypatch.setattr(geometry, "EXIT_BUDGET", 0.4)
        metric = MetricSpec("conformal", bump_factor(0.05, (0.1, 0.0), 0.7))
        rays = [ray_at(unit_disk, np.pi, 1.2), ray_at(unit_disk, np.pi, 0.0)]
        if long_first:
            rays.reverse()
        inside = 0 if long_first else 1
        with pytest.raises(NoExit, match=rf"rays \[{inside}\] of 2 ") as err:
            trace_bundle(metric, unit_disk, rays, dt=1e-2)
        assert str(err.value).endswith(f"x = {[rays[inside].x.tolist()]}")

    @pytest.mark.parametrize("metric", [
        MetricSpec(), MetricSpec("conformal",
                                 bump_factor(0.05, (0.1, 0.0), 0.7))])
    def test_nonpositive_step_rejected(self, unit_disk, metric):
        rays = sample_inward_bundle(unit_disk, 2, 1)
        for dt in (0.0, -1e-2):
            with pytest.raises(ValueError, match="dt must be positive"):
                trace_bundle(metric, unit_disk, rays, dt)


class TestConvexBody:
    def test_level_signs(self, unit_disk):
        assert unit_disk.phi(np.zeros(2)) < 0
        assert unit_disk.phi(np.array([2.0, 0.0])) > 0

    def test_two_sign_changes_along_chords(self, unit_disk, rng):
        # strict convexity proxy: dense sampling along interior chords
        for _ in range(25):
            th1, th2 = rng.uniform(0, 2 * np.pi, 2)
            p1 = np.array([np.cos(th1), np.sin(th1)]) * 1.5
            p2 = np.array([np.cos(th2), np.sin(th2)]) * 1.5
            s = np.linspace(0, 1, 4001)
            pts = p1[None, :] + s[:, None] * (p2 - p1)[None, :]
            signs = np.sign(unit_disk.phi(pts))
            changes = int(np.sum(np.abs(np.diff(signs)) > 0))
            assert changes in (0, 2)


class TestMetricSpec:
    def test_validate_conformal(self, unit_disk):
        from tdxray.conformal import bump_factor
        from tdxray.errors import Inadmissible
        good = MetricSpec("conformal", bump_factor(0.1, (0.0, 0.0), 0.8))
        good.validate(unit_disk)
        bad = MetricSpec("conformal", bump_factor(-0.9, (0.0, 0.0), 0.5))
        with pytest.raises(Inadmissible):
            bad.validate(unit_disk)
        with pytest.raises(ValueError):
            MetricSpec("conformal", None).validate(unit_disk)

    def test_zero_factor_rejected_before_march(self, unit_disk,
                                               monkeypatch):
        # c = 0 used to pass the check, and the march then ran at speed 0
        # with an infinite time budget, never returning
        from tdxray.errors import Inadmissible

        def no_march(*args, **kwargs):
            raise AssertionError("the march started")

        monkeypatch.setattr(geometry, "march_to_exit", no_march)
        metric = MetricSpec("conformal", bump_factor(-1.0, (0.0, 0.0), 0.5))
        with pytest.raises(Inadmissible, match="not positive"):
            trace_bundle(metric, unit_disk,
                         sample_inward_bundle(unit_disk, 2, 1), 0.01)

    def test_unknown_kind_rejected(self, unit_disk):
        # any kind but "euclidean" is traced with the factor, so a kind the
        # check does not know would skip it
        metric = MetricSpec("riemannian", bump_factor(0.6, (0.0, 0.0), 0.3))
        with pytest.raises(ValueError, match="unknown metric kind"):
            trace_bundle(metric, unit_disk,
                         sample_inward_bundle(unit_disk, 2, 1), dt=1e-2)

    def test_euclidean_validate_noop(self, unit_disk):
        MetricSpec().validate(unit_disk)
