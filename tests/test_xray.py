import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from tdxray.conformal import bump_factor
from tdxray.errors import Inadmissible, QuadratureNotConverged, TangentRay
from tdxray.fields import SpaceTimeField, single_bump
from tdxray.geometry import (BoundaryRay, GeodesicPath, MetricSpec, exit_time,
                             make_ray, sample_inward_bundle, trace_bundle)
from tdxray.xray import (QUAD_TOL, _simpson, perturb_sinogram, sinogram,
                         xray_single)


def inline_field(evaluator, dim=2):
    return SpaceTimeField(evaluator, (0.0, 2.0),
                          np.array([-1.0, -1.0]), np.array([1.0, 1.0]), dim,
                          "inline", None)


def diameter_path(unit_disk, n=801):
    ray = make_ray(unit_disk, (-1.0, 0.0), (1.0, 0.0))
    return GeodesicPath(np.linspace(0, 2, n),
                        ray.x[None, :]
                        + np.linspace(0, 2, n)[:, None] * ray.omega[None, :])


class TestSimpson:
    @given(n=st.integers(2, 600), seed=st.integers(0, 2**32 - 1),
           even=st.booleans(), last=st.sampled_from(["full", "short", "zero"]),
           zero_inner=st.booleans())
    @example(n=2, seed=0, even=True, last="zero", zero_inner=False)
    @example(n=3, seed=0, even=False, last="full", zero_inner=True)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_scipy(self, n, seed, even, last, zero_inner):
        # scipy's rule is the reference: the sinograms it produced must
        # not move by one bit
        rng = np.random.default_rng(seed)
        steps = (np.full(n - 1, 2.0 / (n - 1)) if even
                 else rng.uniform(1e-3, 1.0, n - 1))
        if last == "short":
            # what the exit bisection leaves after the march's last step
            steps[-1] *= rng.uniform()
        elif last == "zero":
            steps[-1] = 0.0
        if zero_inner:
            # a zero-length interval hits the rule's guarded divisions
            steps[rng.integers(n - 1)] = 0.0
        x = np.concatenate([[0.0], np.cumsum(steps)])
        y = rng.normal(size=n)
        assert np.array_equal(_simpson(y, x), simpson(y, x=x))


class TestXraySingle:
    def test_zero_field(self, unit_disk):
        f = inline_field(lambda t, x: np.zeros(np.broadcast(t, x[..., 0]).shape))
        assert xray_single(f, diameter_path(unit_disk)) == (0.0, 0.0)

    def test_constant_field_gives_chord_length(self, unit_disk):
        f = inline_field(lambda t, x: np.ones(np.broadcast(t, x[..., 0]).shape))
        assert xray_single(f, diameter_path(unit_disk))[0] == pytest.approx(
            2.0, abs=1e-12)

    def test_against_dense_trapezoid_oracle(self, unit_disk):
        def ev(t, x):
            return np.exp(-8.0 * np.sum(np.asarray(x) ** 2, axis=-1)) \
                * np.sin(np.asarray(t))

        f = inline_field(ev)
        val, _ = xray_single(f, diameter_path(unit_disk))
        s = np.linspace(0.0, 2.0, 100_000)
        pts = np.stack([-1.0 + s, np.zeros_like(s)], axis=-1)
        oracle = np.trapezoid(ev(s, pts), s)
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_not_converged_guard(self, unit_disk):
        def ev(t, x):
            return np.sin(60.0 * np.asarray(t))

        f = inline_field(ev)
        with pytest.raises(QuadratureNotConverged):
            xray_single(f, diameter_path(unit_disk, n=21))

    def test_halving_gap_returned(self, unit_disk, slice_field):
        path = diameter_path(unit_disk)
        val, gap = xray_single(slice_field, path)
        vals = slice_field(path.times, path.points)
        assert gap == abs(val - simpson(vals[::2], x=path.times[::2]))
        assert 0.0 < gap <= 10.0 * QUAD_TOL


class TestSinogram:
    def test_zero_field_zero_sup(self, unit_disk):
        f = inline_field(lambda t, x: np.zeros(np.broadcast(t, x[..., 0]).shape))
        rays = sample_inward_bundle(unit_disk, 6, 2)
        sino = sinogram(f, rays, MetricSpec(), unit_disk)
        assert np.all(sino.values == 0.0)
        assert sino.sup_norm == 0.0

    def test_constant_field_chord_lengths(self, unit_disk):
        f = inline_field(lambda t, x: np.ones(np.broadcast(t, x[..., 0]).shape))
        rays = sample_inward_bundle(unit_disk, 8, 1)
        sino = sinogram(f, rays, MetricSpec(), unit_disk)
        assert np.allclose(sino.values, sino.taus, atol=1e-10)
        assert np.allclose(sino.values, 2.0, atol=1e-10)

    def test_bump_sup_matches_per_ray_oracle(self, unit_disk, slice_field):
        rays = sample_inward_bundle(unit_disk, 8, 8)
        sino = sinogram(slice_field, rays, MetricSpec(), unit_disk)
        oracle = []
        for r, tau in zip(rays, exit_time(unit_disk, rays)):
            s = np.linspace(0.0, tau, 30_000)
            pts = r.x[None, :] + s[:, None] * r.omega[None, :]
            oracle.append(np.trapezoid(slice_field(s, pts), s))
        oracle = np.asarray(oracle)
        assert np.max(np.abs(sino.values - oracle)) < 1e-8
        assert sino.sup_norm == pytest.approx(np.max(np.abs(oracle)),
                                              abs=1e-8)

    def test_sup_norm_bound(self, unit_disk, slice_field, rng):
        rays = sample_inward_bundle(unit_disk, 12, 6)
        sino = sinogram(slice_field, rays, MetricSpec(), unit_disk)
        ts = rng.uniform(0, 2, 2000)
        xs = rng.uniform(-1, 1, (2000, 2))
        fmax = np.max(np.abs(slice_field(ts, xs)))
        assert sino.sup_norm <= unit_disk.diameter * fmax
        assert np.all(np.abs(sino.values) <= sino.taus * fmax + 1e-12)

    def test_linearity(self, unit_disk, linear_combination):
        f1 = single_bump(amplitude=1.0, x_center=(0.1, 0.0), x_width=0.5,
                         name="bump")
        f2 = single_bump(amplitude=0.7, t_center=0.8, x_center=(-0.2, 0.1),
                         x_width=0.4, name="bump")
        combo = linear_combination([f1, f2], [2.0, -3.0])
        path = diameter_path(unit_disk)
        lhs = xray_single(combo, path)[0]
        rhs = 2.0 * xray_single(f1, path)[0] - 3.0 * xray_single(f2, path)[0]
        assert abs(lhs - rhs) <= 2e-9

    def test_max_halving_gap_over_rays(self, unit_disk, slice_field):
        rays = sample_inward_bundle(unit_disk, 6, 3)
        sino = sinogram(slice_field, rays, MetricSpec(), unit_disk)
        gaps = [xray_single(slice_field, path)[1] for path in
                trace_bundle(MetricSpec(), unit_disk, rays, 2.5e-3)]
        assert sino.max_halving_gap == max(gaps) > 0.0
        noisy, _ = perturb_sinogram(sino, 1e-3, seed=1)
        assert noisy.max_halving_gap == sino.max_halving_gap

    def test_inadmissible_factor_rejected(self, unit_disk, slice_field):
        # C1 distance to 1 is about 4.3 against eps = 0.5; the family is
        # refused before any ray is traced
        metric = MetricSpec("conformal", bump_factor(0.6, (0.0, 0.0), 0.3))
        with pytest.raises(Inadmissible):
            sinogram(slice_field, sample_inward_bundle(unit_disk, 2, 1),
                     metric, unit_disk)

    @pytest.mark.parametrize("metric", [
        MetricSpec(),
        MetricSpec("conformal", bump_factor(0.05, (0.1, 0.0), 0.7))])
    def test_invalid_ray_named_by_index(self, unit_disk, slice_field, metric):
        # a tangent ray built without make_ray's check, third in the family
        rays = sample_inward_bundle(unit_disk, 4, 1)
        rays[2] = BoundaryRay(np.array([-1.0, 0.0]), np.array([0.0, 1.0]),
                              np.array([-1.0, 0.0]))
        with pytest.raises(TangentRay, match="^ray index 2: "):
            sinogram(slice_field, rays, metric, unit_disk)

    def test_time_shift_covariance(self, unit_disk, slice_field, shifted):
        path = diameter_path(unit_disk)
        val, _ = xray_single(shifted(slice_field, 0.1), path)
        s = np.linspace(0.0, 2.0, 100_000)
        pts = np.stack([-1.0 + s, np.zeros_like(s)], axis=-1)
        oracle = np.trapezoid(slice_field(s - 0.1, pts), s)
        assert val == pytest.approx(oracle, abs=1e-8)


class TestPerturb:
    def test_zero_level_identity(self, unit_disk, slice_field):
        rays = sample_inward_bundle(unit_disk, 6, 2)
        sino = sinogram(slice_field, rays, MetricSpec(), unit_disk)
        out, delta = perturb_sinogram(sino, 0.0, seed=1)
        assert delta == 0.0
        assert np.array_equal(out.values, sino.values)

    def test_bitwise_reproducible(self, unit_disk, slice_field):
        rays = sample_inward_bundle(unit_disk, 6, 2)
        sino = sinogram(slice_field, rays, MetricSpec(), unit_disk)
        a, da = perturb_sinogram(sino, 1e-3, seed=42)
        b, db = perturb_sinogram(sino, 1e-3, seed=42)
        assert np.array_equal(a.values, b.values)
        assert da == db

    def test_perturbation_sup_order_statistics(self, unit_disk, slice_field):
        rays = sample_inward_bundle(unit_disk, 8, 8)  # 64 rays
        sino = sinogram(slice_field, rays, MetricSpec(), unit_disk)
        for seed in range(5):
            _, delta = perturb_sinogram(sino, 1e-3, seed=seed)
            assert 0.5e-3 <= delta <= 1.0e-3

    def test_csv_schema(self, unit_disk, slice_field, tmp_path):
        rays = sample_inward_bundle(unit_disk, 4, 2)
        sino = sinogram(slice_field, rays, MetricSpec(), unit_disk)
        path = tmp_path / "sino.csv"
        sino.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,omega1,omega2,tau,value"
        assert len(lines) == 1 + len(rays)
        # every cell reads back to the sinogram's double, in header order
        cells = np.array([line.split(",") for line in lines[1:]], dtype=float)
        want = np.column_stack([[r.x for r in sino.rays],
                                [r.omega for r in sino.rays], sino.taus,
                                sino.values])
        assert np.array_equal(cells, want, equal_nan=True)
