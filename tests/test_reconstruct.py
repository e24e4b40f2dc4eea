import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, core, dense, mirrored, negated, oracle_inverse
from tdxray import reconstruct
from tdxray.errors import InfeasibleSandwich, RTooLargeForGrid
from tdxray.fields import default_recon_field, single_bump
from tdxray.geometry import ball
from tdxray.reconstruct import (SpectralSource, choose_R,
                                feasibility_threshold, hermitian_noise,
                                kept_modes, lattice_radius_limit,
                                noise_transfer_volume, parseval_split,
                                reconstruction_errors, stability_curve,
                                truncated_inversion, visible_slice_source)
from tdxray.spectral import (SpectralGrid, slice_from_sinogram,
                             visible_direction)


def oracle_noise(grid, mask, amplitude, rng):
    """hermitian_noise as a dense lattice, a + 1j*b drawn on centred
    lattices and shifted into the FFT's order, masked and symmetrised
    from a copy."""
    shape = mask.shape
    eta = np.fft.ifftshift(rng.uniform(-amplitude, amplitude, shape)
                           + 1j * rng.uniform(-amplitude, amplitude, shape))
    eta[~mask] = 0.0
    sym = 0.5 * (eta + np.conj(negated(eta)))
    sym[~mask] = 0.0
    return sym


@pytest.fixture(scope="module")
def recon_setup():
    """Field, body, lattice and the field's tensor-grid oracle source."""
    f = default_recon_field()
    body = ball(4.0)
    grid = SpectralGrid.for_field(f, n_points=32, extent=14.0)
    return f, body, grid, SpectralSource.from_samples(grid, grid.sample(f))


def invert(source, R):
    """truncated_inversion of the source's kept modes at R."""
    return truncated_inversion(source.grid, *kept_modes(source, R), R)


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
                invert(source, R)

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
        rec, diag = invert(src, 3.0)
        assert np.all(rec == 0.0)

    def test_oracle_full_band_recovery(self, slice_field):
        grid = SpectralGrid.for_field(slice_field, n_points=96, pad=0.35)
        samples = grid.sample(slice_field)
        in_ball = grid.radius_mesh < 0.99 * lattice_radius_limit(grid)
        index = np.flatnonzero(in_ball)
        rec = grid.inverse(index, grid.forward(samples).reshape(-1)[index])
        l2, _ = reconstruction_errors(grid, samples, rec.real)
        assert l2 < 1e-3
        assert grid.discrete_l2(rec.imag) / grid.discrete_l2(rec.real) < 1e-8

    def test_parseval_accounting(self, recon_setup):
        f, _, grid, oracle = recon_setup
        truth = grid.sample(f)
        for R in (2.0, 3.0, 4.0):
            rec, _ = invert(oracle, R)
            err2 = grid.discrete_l2(rec - truth) ** 2
            split = parseval_split(oracle, R)
            expect = split["hidden_in_ball"] + split["out_of_ball"]
            assert abs(err2 - expect) / expect < 1e-6

    def test_r_too_large(self, recon_setup):
        with pytest.raises(RTooLargeForGrid):
            invert(recon_setup[3], 100.0)

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
            rec, _ = invert(oracle, 3.0)
            recs.append(rec)
        assert np.max(np.abs(2.0 * recs[0] - recs[1] - recs[2])) < 1e-10


class TestSliceSource:
    def test_matches_lattice_transform(self, recon_setup):
        f, body, grid, oracle = recon_setup
        src = visible_slice_source(f, body, grid, grid.sample(f), R_max=2.2,
                                   n_launch=160, n_s=128)
        # the values of the available points only, in C order
        assert src.values.shape == (np.count_nonzero(src.available),)
        assert src.values.size > 10
        want = dense(oracle)[src.available]
        rel = np.abs(src.values - want) / (1.0 + np.abs(want))
        # lattice sampling error dominates this comparison; the slice side
        # integrates the continuum field
        assert np.max(rel) < 2e-2
        # Hermitian structure of the filled table
        masked = dense(src)
        assert np.max(np.abs(core(masked)
                             - np.conj(mirrored(masked)))) < 1e-12

    def test_available_only_visible_in_ball(self, recon_setup):
        f, body, grid, _ = recon_setup
        src = visible_slice_source(f, body, grid, grid.sample(f), R_max=1.8,
                                   n_launch=96, n_s=96)
        r = grid.radius_mesh
        vis = grid.visible_mask
        assert not np.any(src.available & ~vis)
        assert not np.any(src.available & (r > 1.8))

    def test_source_holds_its_modes_only(self):
        # what the fill leaves behind at 32^3, against a complex lattice
        # of 0.52 MB: 0.58 MB when it held its values as one, 0.06 MB as
        # its modes; the grid's cached radius mesh and visible mask are
        # the grid's, so they are built beforehand
        f, body = default_recon_field(), ball(4.0)
        grid = SpectralGrid.for_field(f, n_points=32, extent=14.0)
        samples = grid.sample(f)
        grid.radius_mesh, grid.visible_mask
        tracemalloc.start()
        try:
            src = visible_slice_source(f, body, grid, samples, R_max=2.2,
                                       n_launch=48, n_s=48)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert src.values.size > 100
        assert held < grid.n ** 3 * 16 / 4


    # (dim, n): the 2-D recon field's lattices, and 3-D lattices of one
    # bump, whose four axes pair mirrors across every one of them
    @given(case=st.one_of(
               st.tuples(st.just(2), st.integers(4, 8).map(lambda k: 2 * k)),
               st.tuples(st.just(3), st.sampled_from([8, 10, 12]))),
           R_max=st.floats(0.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_mirror_pair_fill(self, case, R_max):
        dim, n = case
        if dim == 2:
            f, body, extent = default_recon_field(), ball(4.0), 14.0
        else:
            f = single_bump(x_center=(0.05, -0.08, 0.03), name="bump3d")
            body, extent = ball(1.0, 3), 5.0
        grid = SpectralGrid.for_field(f, n_points=n, extent=extent)
        calls = []

        def value(omega, xi):
            return complex(np.dot(xi, (1.0, 2.0, 5.0)[:dim]),
                           np.dot(omega, (1.0, -3.0, 7.0)[:dim]))

        def stub(f, omega, xis, body, **kwargs):
            # one call per chord direction, one value per xi row
            calls.extend(xis)
            return np.array([value(omega, xi) for xi in xis])

        with mock.patch.object(reconstruct, "slice_from_sinogram", stub):
            src = visible_slice_source(f, body, grid, grid.sample(f),
                                       R_max, n_launch=200, n_s=160)
        pick = grid.visible_mask & (grid.radius_mesh <= R_max)
        assert np.array_equal(src.available, pick)
        values = dense(src)

        # mirror classes by the FFT-order rule -k at index (N - j) mod N;
        # each class is filled by one slice of its first member in C
        # order, except at xi = 0 (no direction)
        mesh = np.broadcast_arrays(*grid.frequency_mesh())
        N = np.array(pick.shape)
        classes = set()
        for idx in map(tuple, np.argwhere(pick)):
            mirror = tuple((N - idx) % N)
            if not pick[mirror]:
                mirror = idx
            classes.add(tuple(sorted({idx, mirror})))
        sliced = 0
        for first, *rest in classes:
            xi = np.array([m[first] for m in mesh[1:]])
            if np.any(xi != 0.0):
                sliced += 1
                omega = visible_direction(mesh[0][first], xi)
                assert values[first] == value(omega, xi)
            for other in rest:
                assert values[other] == np.conj(values[first])
        assert len(calls) == sliced

    def test_grouped_fill_equals_per_point_slices(self):
        # the fill makes one slice call per chord direction over all the
        # points that share it; the oracle is one call per representative
        # (the first of its mirror pair in C order), as the fill made
        # before, and the two tables must agree bit for bit
        f, body = default_recon_field(), ball(4.0)
        grid = SpectralGrid.for_field(f, n_points=16, extent=14.0)
        samples = grid.sample(f)
        R_max, kwargs = 3.2, dict(n_launch=48, n_s=48)
        src = visible_slice_source(f, body, grid, samples, R_max, **kwargs)

        mesh = np.broadcast_arrays(*grid.frequency_mesh())
        N = np.array(src.available.shape)
        expected = np.zeros(src.available.shape, dtype=complex)
        for idx in map(tuple, np.argwhere(src.available)):
            mirror = tuple((N - idx) % N)
            if mirror < idx and src.available[mirror]:
                expected[idx] = np.conj(expected[mirror])
                continue
            tau = float(mesh[0][idx])
            xi = np.array([float(m[idx]) for m in mesh[1:]])
            if np.all(xi == 0.0):
                expected[idx] = grid.point_transform(samples, [tau], [xi])[0]
            else:
                expected[idx] = slice_from_sinogram(
                    f, visible_direction(tau, xi), xi, body, **kwargs)
        assert np.count_nonzero(src.available) > 100
        assert np.array_equal(dense(src), expected)


class TestHermitianNoise:
    def test_symmetry_and_amplitude(self, recon_setup):
        _, _, grid, _ = recon_setup
        mask = grid.radius_mesh < 3.0
        index = np.flatnonzero(mask)
        rng = np.random.default_rng(0)
        eta = np.zeros(grid.shape, dtype=complex)
        eta.reshape(-1)[index] = hermitian_noise(grid, index, 1e-3, rng)
        assert np.max(np.abs(eta - np.conj(negated(eta)))) < 1e-18
        assert np.max(np.abs(eta.real)) <= 1e-3
        assert np.max(np.abs(eta.imag)) <= 1e-3
        assert np.all(eta[~mask] == 0.0)

    @staticmethod
    def check_bits(grid, mask, amplitude, seed):
        # the masks need not be mirror-closed: a kept point whose mirror
        # is not kept takes half its own draw
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        index = np.flatnonzero(mask)
        eta = hermitian_noise(grid, index, amplitude, rng)
        want = oracle_noise(grid, mask, amplitude, twin).reshape(-1)[index]
        assert np.array_equal(bits(eta), bits(want))
        # the same draws, so the sweep's next row sees the same stream
        assert rng.bit_generator.state == twin.bit_generator.state

    @given(half=st.integers(1, 8), dim=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**32 - 1), fill=st.floats(0.0, 1.0),
           amplitude=st.floats(1e-12, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_bits_on_small_lattices(self, half, dim, seed, fill, amplitude):
        grid = SpectralGrid(np.zeros(dim + 1), np.full(dim + 1, 0.3),
                            2 * half)
        mask = np.random.default_rng(seed + 1).random(grid.shape) < fill
        self.check_bits(grid, mask, amplitude, seed)

    def test_bits_on_the_recon_default_lattice(self):
        f = default_recon_field()
        grid = SpectralGrid.for_field(f, n_points=64, extent=14.0)
        mask = grid.visible_mask & (grid.radius_mesh < 2.2)
        self.check_bits(grid, mask, 3.7e-4, 2901)


# the tiny stability-curve config of the benchmark: 32^3, three levels
TINY_LEVELS = [1e-2, 1e-3, 1e-4]
TINY_SLICES = dict(n_launch=48, n_s=48)


def dense_rows(f, body, levels, epsilon, seed, grid, n_launch, n_s):
    """(delta, R, n_modes, imag_residual, l2_error, c0_error) of each row
    of stability_curve, None for an infeasible one, by the dense row
    path: the fill's values are spread on the lattice, a noisy row adds
    oracle_noise's lattice to them, and each row's kept mask is applied
    by np.where and inverted by oracle_inverse."""
    truth = grid.sample(f)
    rng = np.random.default_rng(seed)
    V = noise_transfer_volume(f)
    deltas = [float(np.max(np.abs(rng.uniform(-level, level, 64))))
              if level > 0.0 else 0.0 for level in levels]
    radii = []
    for delta in deltas:
        try:
            radii.append(choose_R(delta, epsilon, f.dim).R if delta > 0.0
                         else 0.98 * lattice_radius_limit(grid))
        except InfeasibleSandwich:
            radii.append(None)
    R_need = max([R for R, d in zip(radii, deltas) if R and d], default=0)
    if R_need:
        fill = visible_slice_source(f, body, grid, truth, R_need,
                                    n_launch=n_launch, n_s=n_s)
    rows = []
    for delta, R in zip(deltas, radii):
        if R is None:
            rows.append(None)
            continue
        source = SpectralSource.from_samples(grid, truth) if delta == 0.0 \
            else fill
        mask = (grid.radius_mesh < R) & grid.visible_mask & source.available
        values = dense(source) if delta == 0.0 else (
            dense(fill) + oracle_noise(grid, mask, delta * V, rng))
        rec = oracle_inverse(grid, np.where(mask, values, 0.0))
        l2, c0 = reconstruction_errors(grid, truth, rec.real)
        rows.append((delta, R, int(mask.sum()), grid.discrete_l2(rec.imag)
                     / (grid.discrete_l2(rec.real) + 1e-300), l2, c0))
    return rows


def row_values(curve):
    """The rows of a curve as dense_rows gives them."""
    return [(r.delta, r.R, r.n_modes, r.imag_residual, r.l2_error,
             r.c0_error) if r.feasible else None for r in curve.rows]


def tiny_sweep(seed, grid=None):
    f = default_recon_field()
    if grid is None:
        grid = SpectralGrid.for_field(f, n_points=32, extent=14.0)
    return grid, stability_curve(f, ball(4.0), TINY_LEVELS, 0.5, seed, grid,
                                 **TINY_SLICES)


def traced(run):
    """run()'s result and the tracemalloc peak of the allocations it
    made."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def traced_tiny_sweeps():
    """The tiny sweep traced twice: on a fresh grid, which builds its
    cached lattices, then again on that grid.  One untraced run on
    another grid before them keeps first-call set-up elsewhere in the
    process out of both peaks."""
    tiny_sweep(1)
    (grid, curve), fresh = traced(lambda: tiny_sweep(0))
    _, warm = traced(lambda: tiny_sweep(0, grid))
    return grid, curve, fresh, warm


class TestStabilityCurve:
    # peaks in complex lattice arrays (32^3, 512 KiB each)
    def test_peak_on_a_fresh_grid(self, traced_tiny_sweeps):
        # 11.2 with dense rows and a dense inverse, 6.3 with the inverse
        # in place and the cell phase built from the open mesh, 3.6 with
        # the fill and the rows kept as their modes
        grid, _, fresh, _ = traced_tiny_sweeps
        assert fresh < 4.5 * grid.n ** 3 * 16

    def test_peak_on_a_warm_grid(self, traced_tiny_sweeps):
        # 9.7 with a dense noise buffer per row and its values and
        # reconstruction outliving it, 4.7 with one noisy lattice at a
        # time, 2.1 with the fill and the rows kept as their modes
        grid, _, _, warm = traced_tiny_sweeps
        assert warm < 3 * grid.n ** 3 * 16

    def test_row_holds_one_complex_lattice(self, traced_tiny_sweeps):
        # from a row's noise draw to its error norms, a row adds one
        # complex lattice (the inverse's buffer) and one float lattice (a
        # draw, the real part, an error norm's square) to what the sweep
        # holds: 3.0 float lattices, where the dense noise, its mirror
        # temporary, the masked copy and the shifted copy made 6.0
        grid = traced_tiny_sweeps[0]
        starts, peaks = [], []
        noise = reconstruct.hermitian_noise
        errors = reconstruct.reconstruction_errors

        def row_start(*args, **kwargs):
            starts.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return noise(*args, **kwargs)

        def row_end(*args, **kwargs):
            out = errors(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        with mock.patch.object(reconstruct, "hermitian_noise", row_start), \
                mock.patch.object(reconstruct, "reconstruction_errors",
                                  row_end):
            traced(lambda: tiny_sweep(0, grid))
        added = [peak - start for start, peak in zip(starts, peaks)]
        assert len(added) == 2
        # with 8 KiB for the arrays over the row's few dozen kept modes
        assert max(added) <= (16 + 8) * grid.n ** 3 + 8192

    def test_rows_equal_the_oracle_sweep(self, traced_tiny_sweeps):
        grid, curve, _, _ = traced_tiny_sweeps
        assert [r.feasible for r in curve.rows] == [False, True, True]
        assert row_values(curve) == dense_rows(
            default_recon_field(), ball(4.0), TINY_LEVELS, 0.5, 0, grid,
            **TINY_SLICES)

    def test_noise_free_row_equals_the_oracle_sweep(self, recon_setup):
        # the 0.0 level inverts the samples' tensor-grid transform
        f, body, grid, _ = recon_setup
        levels = [1e-3, 1e-5, 0.0]
        curve = stability_curve(f, body, levels, 0.5, 5, grid,
                                **TINY_SLICES)
        assert [r.feasible for r in curve.rows] == [True, True, True]
        assert row_values(curve) == dense_rows(f, body, levels, 0.5, 5, grid,
                                               **TINY_SLICES)

    def test_noise_free_baseline(self, recon_setup):
        f, body, grid, oracle = recon_setup
        curve = stability_curve(f, body, [0.0], 0.5, 7, grid,
                                n_launch=200, n_s=160)
        row = curve.rows[0]
        rec, _ = invert(oracle, row.R)
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
        # every cell reads back to the row's double, in header order
        cells = np.array([line.split(",") for line in lines[1:]], dtype=float)
        want = [[r.delta, r.R, r.l2_error, r.c0_error, r.envelope,
                 r.feasible] for r in curve.rows]
        assert np.array_equal(cells, want, equal_nan=True)
