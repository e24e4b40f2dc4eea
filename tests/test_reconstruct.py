from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdxray import reconstruct
from tdxray.errors import InfeasibleSandwich, RTooLargeForGrid
from tdxray.fields import default_recon_field, single_bump
from tdxray.geometry import ball
from tdxray.reconstruct import (SpectralSource, choose_R,
                                feasibility_threshold, hermitian_noise,
                                lattice_radius_limit, parseval_split,
                                reconstruction_errors, stability_curve,
                                truncated_inversion, visible_slice_source)
from tdxray.spectral import SpectralGrid, visible_direction


@pytest.fixture(scope="module")
def recon_setup():
    """Field, body, lattice and the field's tensor-grid oracle source."""
    f = default_recon_field()
    body = ball(4.0)
    grid = SpectralGrid.for_field(f, n_points=32, extent=14.0)
    return f, body, grid, SpectralSource.from_samples(grid, grid.sample(f))


class TestChooseR:
    def test_sandwich_numbers(self):
        cut = choose_R(np.exp(-100.0), 0.5, 2)
        assert cut.lower == pytest.approx(150.0, rel=1e-12)
        assert cut.upper == pytest.approx(18.75, rel=1e-12)
        assert cut.R == pytest.approx(18.75, rel=1e-12)
        assert cut.conflict

    def test_conflict_below_22_23_at_n2(self):
        # lower > upper iff 3 (n + 2) (1 - eps) > 1 - eps / 2
        assert choose_R(1e-30, 0.956, 2).conflict
        assert not choose_R(1e-30, 0.957, 2).conflict

    def test_infeasible_at_large_delta(self):
        with pytest.raises(InfeasibleSandwich):
            choose_R(1e-1, 0.5, 2)

    def test_feasibility_threshold(self):
        thr = feasibility_threshold(0.5, 2)
        choose_R(0.9 * thr, 0.5, 2)
        with pytest.raises(InfeasibleSandwich):
            choose_R(1.1 * thr, 0.5, 2)

    @given(d=st.floats(1e-12, 1e-4), factor=st.floats(1.5, 100.0),
           eps=st.floats(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_delta(self, d, factor, eps):
        lo = choose_R(d, eps, 2)
        try:
            hi = choose_R(min(d * factor, 3e-3), eps, 2)
        except InfeasibleSandwich:
            return
        assert lo.R >= hi.R

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            choose_R(1e-6, 1.2, 2)
        with pytest.raises(ValueError):
            choose_R(-1.0, 0.5, 2)


class TestTailBound:
    # the out-of-ball envelope is C * R^(n+1-a)
    def test_exponent_algebra(self):
        n, R = 2, 5.0
        a = n + 2                # the tail decay exponent
        tail = 3.0 * R ** (n + 1 - a)
        assert tail == pytest.approx(3.0 / 5.0)
        assert 3.0 * 10.0 ** (n + 1 - a) == pytest.approx(0.5 * tail)

    def test_domain(self, recon_setup):
        # the inversion refuses a cut radius that is not above 1
        source = recon_setup[3]
        for R in (0.5, 1.0):
            with pytest.raises(InfeasibleSandwich):
                truncated_inversion(source, R)

    def test_measured_tails_dominated(self):
        from tdxray.fields import tail_field
        f = tail_field()
        grid = SpectralGrid.for_field(f, n_points=64, extent=8.0)
        values = grid.forward(grid.sample(f))
        radius = grid.radius_mesh
        w = float(np.prod(grid.dk))
        tails = {R: float(np.sum(np.abs(values)[radius > R]) * w)
                 for R in (4.0, 8.0, 16.0)}
        # a = 4 at n = 2: the envelope is C / R
        C = tails[4.0] * 4.0
        assert tails[8.0] <= C / 8.0
        assert tails[16.0] <= C / 16.0


class TestInversion:
    def test_zero_source_zero_field(self, recon_setup):
        _, _, grid, oracle = recon_setup
        src = SpectralSource(grid, np.zeros_like(oracle.values),
                             oracle.available)
        rec, diag = truncated_inversion(src, 3.0)
        assert np.all(rec == 0.0)

    def test_oracle_full_band_recovery(self, slice_field):
        grid = SpectralGrid.for_field(slice_field, n_points=96, pad=0.35)
        samples = grid.sample(slice_field)
        in_ball = grid.radius_mesh < 0.99 * lattice_radius_limit(grid)
        rec = grid.inverse(np.where(in_ball, grid.forward(samples), 0.0))
        l2, _ = reconstruction_errors(grid, samples, rec.real)
        assert l2 < 1e-3
        assert grid.discrete_l2(rec.imag) / grid.discrete_l2(rec.real) < 1e-8

    def test_parseval_accounting(self, recon_setup):
        f, _, grid, oracle = recon_setup
        truth = grid.sample(f)
        for R in (2.0, 3.0, 4.0):
            rec, _ = truncated_inversion(oracle, R)
            err2 = grid.discrete_l2(rec - truth) ** 2
            split = parseval_split(oracle, R)
            expect = split["hidden_in_ball"] + split["out_of_ball"]
            assert abs(err2 - expect) / expect < 1e-6

    def test_r_too_large(self, recon_setup):
        with pytest.raises(RTooLargeForGrid):
            truncated_inversion(recon_setup[3], 100.0)

    def test_linearity(self, linear_combination):
        f1 = single_bump(amplitude=1.0, t_center=1.0, x_center=(0.1, 0.0),
                         x_width=0.5, name="bump")
        f2 = single_bump(amplitude=1.0, t_center=0.9, x_center=(-0.2, 0.1),
                         x_width=0.4, name="bump")
        combo = linear_combination([f1, f2], [2.0, -1.0])
        grid = SpectralGrid.for_field(combo, n_points=32, extent=6.0)
        recs = []
        for f in (f1, f2, combo):
            oracle = SpectralSource.from_samples(grid, grid.sample(f))
            rec, _ = truncated_inversion(oracle, 3.0)
            recs.append(rec)
        assert np.max(np.abs(2.0 * recs[0] - recs[1] - recs[2])) < 1e-10


class TestSliceSource:
    def test_matches_lattice_transform(self, recon_setup):
        f, body, grid, oracle = recon_setup
        src = visible_slice_source(f, body, grid, grid.sample(f), R_max=2.2,
                                   n_launch=160, n_s=128)
        mask = src.available
        assert mask.sum() > 10
        diff = np.abs(src.values - oracle.values)[mask]
        rel = diff / (1.0 + np.abs(oracle.values[mask]))
        # lattice sampling error dominates this comparison; the slice side
        # integrates the continuum field
        assert np.max(rel) < 2e-2
        # Hermitian structure of the filled table
        masked = np.where(mask, src.values, 0.0)
        assert np.max(np.abs(masked[grid.core]
                             - np.conj(grid.mirrored(masked)))) < 1e-12

    def test_available_only_visible_in_ball(self, recon_setup):
        f, body, grid, _ = recon_setup
        src = visible_slice_source(f, body, grid, grid.sample(f), R_max=1.8,
                                   n_launch=96, n_s=96)
        r = grid.radius_mesh
        vis = grid.visible_mask
        assert not np.any(src.available & ~vis)
        assert not np.any(src.available & (r > 1.8))


    @given(n=st.integers(4, 8).map(lambda k: 2 * k),
           R_max=st.floats(0.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_mirror_pair_fill(self, n, R_max):
        f = default_recon_field()
        grid = SpectralGrid.for_field(f, n_points=n, extent=14.0)
        calls = []

        def value(omega, xi):
            return complex(xi[0] + 2.0 * xi[1], omega[0] - 3.0 * omega[1])

        def stub(f, omega, xi, body, **kwargs):
            calls.append(xi)
            return value(omega, xi)

        with mock.patch.object(reconstruct, "slice_from_sinogram", stub):
            src = visible_slice_source(f, ball(4.0), grid, grid.sample(f),
                                       R_max, n_launch=200, n_s=160)
        pick = grid.visible_mask & (grid.radius_mesh <= R_max)
        assert np.array_equal(src.available, pick)

        # mirror classes by the even-lattice rule -k at index N - j, with
        # the j = 0 rows unpaired; each class is filled by one slice of
        # its first member in C order, except at xi = 0 (no direction)
        mesh = grid.frequency_mesh()
        N = np.array(pick.shape)
        classes = set()
        for idx in map(tuple, np.argwhere(pick)):
            mirror = tuple(N - idx)
            if min(idx) == 0 or not pick[mirror]:
                mirror = idx
            classes.add(tuple(sorted({idx, mirror})))
        sliced = 0
        for first, *rest in classes:
            xi = np.array([m[first] for m in mesh[1:]])
            if np.any(xi != 0.0):
                sliced += 1
                omega = visible_direction(mesh[0][first], xi)
                assert src.values[first] == value(omega, xi)
            for other in rest:
                assert src.values[other] == np.conj(src.values[first])
        assert len(calls) == sliced


class TestHermitianNoise:
    def test_symmetry_and_amplitude(self, recon_setup):
        _, _, grid, _ = recon_setup
        mask = grid.radius_mesh < 3.0
        rng = np.random.default_rng(0)
        eta = hermitian_noise(grid, mask, 1e-3, rng)
        assert np.max(np.abs(eta[grid.core]
                             - np.conj(grid.mirrored(eta)))) < 1e-18
        assert np.max(np.abs(eta.real)) <= 1e-3
        assert np.max(np.abs(eta.imag)) <= 1e-3
        assert np.all(eta[~mask] == 0.0)


class TestStabilityCurve:
    def test_noise_free_baseline(self, recon_setup):
        f, body, grid, oracle = recon_setup
        curve = stability_curve(f, body, [0.0], 0.5, 7, grid,
                                n_launch=200, n_s=160)
        row = curve.rows[0]
        rec, _ = truncated_inversion(oracle, row.R)
        l2, _ = reconstruction_errors(grid, grid.sample(f), rec)
        assert row.l2_error == pytest.approx(l2, rel=1e-12)

    def test_determinism_and_infeasible_rows(self, recon_setup):
        f, body, grid, _ = recon_setup
        levels = [1e-1, 1e-3, 1e-5]
        a = stability_curve(f, body, levels, 0.5, 11, grid,
                            n_launch=64, n_s=64)
        b = stability_curve(f, body, levels, 0.5, 11, grid,
                            n_launch=64, n_s=64)
        assert not a.rows[0].feasible and np.isnan(a.rows[0].R)
        assert a.rows[1].feasible and a.rows[2].feasible
        for ra, rb in zip(a.rows, b.rows):
            if ra.feasible:
                assert ra.l2_error == rb.l2_error
                assert ra.delta == rb.delta
        # deltas strictly decreasing over feasible rows
        feas = [r.delta for r in a.rows if r.feasible]
        assert all(x > y for x, y in zip(feas, feas[1:]))

    def test_csv_schema(self, recon_setup, tmp_path):
        f, body, grid, _ = recon_setup
        curve = stability_curve(f, body, [1e-3, 1e-5], 0.5, 3, grid,
                                n_launch=64, n_s=64)
        p = tmp_path / "curve.csv"
        curve.write_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "delta,R,l2_error,c0_error,envelope,feasible"
        assert len(lines) == 3
