import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (bits, core, dense_frequency_mesh, every_mode,
                      mirror_reference, mirrored, oracle_forward,
                      oracle_inverse)
from tdxray import spectral
from tdxray.errors import (CoverageError, NotVisible, OddLattice,
                           SupportTruncated, ZeroXi)
from tdxray.fields import (BumpSpec, SpaceTimeField, bump_field,
                           default_recon_field, default_slice_field,
                           symmetric_field)
from tdxray.geometry import ball, perp_frame
from tdxray.harness.config import FIELD_PRESETS
from tdxray.spectral import (LAUNCH_PAD, SpectralGrid, hidden_bound,
                             is_visible, slice_from_sinogram,
                             visible_direction)


def separable_gaussian():
    """Smooth separable field with near-compact support on the grid box."""
    def ev(t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        gt = np.exp(-14.0 * (t - 1.0) ** 2)
        gx = np.exp(-16.0 * x[..., 0] ** 2 - 16.0 * x[..., 1] ** 2)
        return gt * gx

    return SpaceTimeField(ev, (0.0, 2.0), np.array([-0.9, -0.9]),
                          np.array([0.9, 0.9]), 2, "gaussian", None)


def tensor_only(f):
    """f without its separable form: slice_from_sinogram then takes the
    tensor path, the oracle of the correlation path."""
    return dataclasses.replace(f, separable=None)


def sampled_level_by_level(grid, f):
    """f on the lattice with one evaluator call per time level, t filled
    to the x mesh's shape: the oracle for the one-call sample."""
    shape = (grid.n,) * grid.dim
    axes = [grid.axis(a) for a in range(1, grid.dim + 1)]
    xmesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    out = np.empty((grid.n,) + shape)
    for j, t in enumerate(grid.axis(0)):
        out[j] = f(np.full(shape, t), xmesh)
    return out


def reduced_visible(tau, xi):
    """is_visible with the max-scale and the scaled sum as np.max and
    np.sum over the last axis: the oracle for the axis-by-axis form."""
    tau = np.asarray(tau, dtype=float)
    xi = np.asarray(xi, dtype=float)
    scale = np.max(np.abs(xi), axis=-1)
    safe = np.where(scale > 0.0, scale, 1.0)
    norm = safe * np.sqrt(np.sum((xi / safe[..., None]) ** 2, axis=-1))
    return np.abs(tau) <= norm


def aliasing_gap(f, grid, seed=7):
    """Largest relative move of the transform at eight probe frequencies
    within 0.4 of the smallest per-axis Nyquist frequency when the sample
    grid is doubled; above 1e-6 the lattice aliases f."""
    rng = np.random.default_rng(seed)
    k = 0.4 * float(np.min(np.pi / grid.spacing))
    taus = rng.uniform(-k, k, 8)
    xis = rng.uniform(-k, k, (8, grid.dim))
    zoom = SpectralGrid(grid.origin, grid.spacing / 2, grid.n * 2)
    base = grid.point_transform(grid.sample(f), taus, xis)
    fine = zoom.point_transform(zoom.sample(f), taus, xis)
    return float(np.max(np.abs(base - fine) / (1.0 + np.abs(fine))))


class TestFourierFull:
    def test_zero_field(self):
        f = SpaceTimeField(
            lambda t, x: np.zeros(np.broadcast(t, x[..., 0]).shape),
            (0.0, 2.0), np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 2,
            "zero", None)
        grid = SpectralGrid.for_field(f, n_points=16)
        assert np.all(grid.forward(grid.sample(f)) == 0.0)

    def test_separable_against_1d_quadrature(self):
        f = separable_gaussian()
        grid = SpectralGrid.for_field(f, n_points=96, pad=0.6)
        rng = np.random.default_rng(3)
        taus = rng.uniform(-5, 5, 10)
        xis = rng.uniform(-5, 5, (10, 2))
        vals = grid.point_transform(grid.sample(f), taus, xis)

        def hat1d(rate, center, k):
            re = quad(lambda u: np.exp(-rate * (u - center) ** 2)
                      * np.cos(k * u), center - 3, center + 3,
                      epsabs=1e-12)[0]
            im = quad(lambda u: np.exp(-rate * (u - center) ** 2)
                      * np.sin(k * u), center - 3, center + 3,
                      epsabs=1e-12)[0]
            return re - 1j * im

        for tau, xi, got in zip(taus, xis, vals):
            want = hat1d(14.0, 1.0, tau) * hat1d(16.0, 0.0, xi[0]) \
                * hat1d(16.0, 0.0, xi[1])
            assert abs(got - want) < 1e-7

    def test_hermitian_residual(self, slice_field):
        grid = SpectralGrid.for_field(slice_field, n_points=48)
        v = grid.forward(grid.sample(slice_field))
        residual = np.max(np.abs(core(v) - np.conj(mirrored(v))))
        assert residual / np.max(np.abs(core(v))) < 1e-10

    def test_hermitian_pairs_on_lattice(self, slice_field):
        grid = SpectralGrid.for_field(slice_field, n_points=32)
        v = grid.forward(grid.sample(slice_field))
        assert np.max(np.abs(np.abs(core(v)) - np.abs(mirrored(v)))) < 1e-12

    def test_tau_reflection_for_symmetric_field(self):
        f = symmetric_field()
        grid = SpectralGrid.for_field(f, n_points=32)
        mags = np.abs(core(grid.forward(grid.sample(f))))
        assert np.max(np.abs(mags - mags[::-1])) < 1e-10

    def test_aliasing_guard(self, slice_field):
        coarse = SpectralGrid.for_field(slice_field, n_points=12)
        assert aliasing_gap(slice_field, coarse) > 1e-6
        fine = SpectralGrid.for_field(slice_field, n_points=96)
        assert aliasing_gap(slice_field, fine) <= 1e-6

    def test_forward_inverse_roundtrip(self, slice_field):
        grid = SpectralGrid.for_field(slice_field, n_points=32)
        samples = grid.sample(slice_field)
        back = grid.inverse(*every_mode(grid.forward(samples)))
        assert np.max(np.abs(back.real - samples)) < 1e-12
        assert np.max(np.abs(back.imag)) < 1e-12

    def test_point_transform_matches_lattice(self, slice_field):
        grid = SpectralGrid.for_field(slice_field, n_points=24)
        samples = grid.sample(slice_field)
        lattice = grid.forward(samples)
        i, j, k = 13, 7, 16
        val = grid.point_transform(samples, [grid.freqs(0)[i]],
                                   [[grid.freqs(1)[j], grid.freqs(2)[k]]])[0]
        assert abs(val - lattice[i, j, k]) < 1e-10


def random_lattice(half, dim, seed):
    """A grid of 2 * half points per axis at a drawn origin and spacing,
    real samples and complex values on it."""
    rng = np.random.default_rng(seed)
    grid = SpectralGrid(rng.uniform(-4.0, 4.0, dim + 1),
                        rng.uniform(0.05, 0.6, dim + 1), 2 * half)
    samples = rng.standard_normal(grid.shape)
    values = (rng.standard_normal(grid.shape)
              + 1j * rng.standard_normal(grid.shape))
    return grid, samples, values


class TestLatticeBits:
    """The cached cell phase, the in-place transforms, the inverse's
    scatter of the kept modes and the open-mesh lattices give the bits
    of the dense-mesh, three-product forms."""

    @staticmethod
    def check(grid, samples, values):
        kept = values.copy()
        assert np.array_equal(bits(grid.forward(samples)),
                              bits(oracle_forward(grid, samples)))
        assert np.array_equal(bits(grid.inverse(*every_mode(values))),
                              bits(oracle_inverse(grid, values)))
        # a kept set drawn from the values' bits, zeros elsewhere
        mask = (bits(values.real) & 1).astype(bool)
        index = np.flatnonzero(mask)
        assert np.array_equal(
            bits(grid.inverse(index, values.reshape(-1)[index])),
            bits(oracle_inverse(grid, np.where(mask, values, 0.0))))
        assert np.array_equal(bits(values), bits(kept))
        mesh = dense_frequency_mesh(grid)
        assert np.array_equal(bits(grid.radius_mesh),
                              bits(np.sqrt(sum(m * m for m in mesh))))
        assert np.array_equal(grid.visible_mask, is_visible(
            mesh[0], np.stack(mesh[1:], axis=-1)))

    @given(half=st.integers(1, 8), dim=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_small_lattices(self, half, dim, seed):
        self.check(*random_lattice(half, dim, seed))

    def test_recon_default_lattice(self):
        # the 64^3 lattice of the stability-curve defaults, with the
        # field's own transform as the values
        f = default_recon_field()
        grid = SpectralGrid.for_field(f, n_points=64, extent=14.0)
        samples = grid.sample(f)
        self.check(grid, samples, oracle_forward(grid, samples))


class TestRegions:
    def test_examples(self):
        assert is_visible(0.0, (1.0, 0.0))
        assert not is_visible(2.0, (1.0, 0.0))
        # boundary of the cone is visible (closed inequality)
        assert is_visible(1.0, (1.0, 0.0))

    @given(tau=st.floats(-30, 30), x1=st.floats(-30, 30),
           x2=st.floats(-30, 30))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, tau, x1, x2):
        assert bool(is_visible(tau, (x1, x2))) == \
            (abs(tau) <= np.hypot(x1, x2))

    def test_direction_examples(self):
        assert np.allclose(visible_direction(0.0, (1.0, 0.0)), (0.0, 1.0),
                           atol=1e-14)
        assert np.allclose(visible_direction(2.0, (2.0, 0.0)), (-1.0, 0.0),
                           atol=1e-14)
        omega = visible_direction(0.5, (1.0, 0.0))
        assert float(omega @ (1.0, 0.0)) == pytest.approx(-0.5, abs=1e-14)
        assert np.linalg.norm(omega) == pytest.approx(1.0, abs=1e-14)

    def test_direction_errors(self):
        with pytest.raises(NotVisible):
            visible_direction(2.0, (1.0, 0.0))
        with pytest.raises(ZeroXi):
            visible_direction(1.0, (0.0, 0.0))

    @given(x1=st.floats(-8, 8), x2=st.floats(-8, 8), u=st.floats(-1, 1))
    @settings(max_examples=200, deadline=None)
    def test_direction_identities(self, x1, x2, u):
        xi = np.array([x1, x2])
        norm = np.linalg.norm(xi)
        if norm < 1e-6:
            return
        tau = u * norm
        omega = visible_direction(tau, xi)
        assert abs(float(omega @ xi) + tau) <= 1e-12 * max(1.0, norm)
        assert abs(np.linalg.norm(omega) - 1.0) <= 1e-12

    @given(n=st.integers(2, 17), dim=st.integers(2, 3),
           spacing=st.lists(st.floats(0.05, 4.0), min_size=4, max_size=4),
           tied=st.booleans(), log_scale=st.integers(-250, 250))
    @settings(max_examples=100, deadline=None)
    def test_bits_of_the_reduction(self, n, dim, spacing, tied, log_scale):
        # centred lattices of either parity; with one spacing on every
        # axis the lattice holds ties |tau| = |xi|, which are visible
        if tied:
            spacing = [spacing[0]] * 4
        axes = [2 * np.pi * 10.0**log_scale
                * np.fft.fftshift(np.fft.fftfreq(n, d))
                for d in spacing[:dim + 1]]
        mesh = np.meshgrid(*axes, indexing="ij")
        xi = np.stack(mesh[1:], axis=-1)
        got = is_visible(mesh[0], xi)
        assert np.array_equal(got, reduced_visible(mesh[0], xi))
        if tied:
            assert got[(0, 0) + (n // 2,) * (dim - 1)]

    @given(n=st.integers(2, 9), dim=st.integers(2, 3),
           spacing=st.lists(st.floats(0.05, 4.0), min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_batched_direction_equals_pointwise(self, n, dim, spacing):
        # the slice fill takes every visible point's omega in one batched
        # call and groups points by its bits, so a batch row must be the
        # one-point call bit for bit, on lattices of either parity
        axes = [2 * np.pi * np.fft.fftshift(np.fft.fftfreq(n, d))
                for d in spacing[:dim + 1]]
        mesh = np.meshgrid(*axes, indexing="ij")
        taus = mesh[0].ravel()
        xis = np.stack([m.ravel() for m in mesh[1:]], axis=-1)
        keep = is_visible(taus, xis) & np.any(xis != 0.0, axis=-1)
        taus, xis = taus[keep], xis[keep]
        batched = visible_direction(taus, xis)
        assert batched.shape == xis.shape
        for tau, xi, omega in zip(taus, xis, batched):
            assert np.array_equal(omega, visible_direction(float(tau), xi))

    def test_hidden_bound(self):
        assert hidden_bound(2.0, 0.0) == 0.0
        r = hidden_bound(4.0, 1e-3) / hidden_bound(2.0, 1e-3)
        assert r == pytest.approx(np.exp(2.0 / 3.0) * 2 ** (-1.0 / 3.0),
                                  rel=1e-12)
        with pytest.raises(ValueError):
            hidden_bound(0.0, 1e-3)


class TestSlices:
    def test_zero_field(self, unit_disk):
        f = SpaceTimeField(
            lambda t, x: np.zeros(np.broadcast(t, x[..., 0]).shape),
            (0.5, 1.5), np.array([-0.5, -0.5]), np.array([0.5, 0.5]), 2,
            "zero", None)
        val = slice_from_sinogram(f, (1.0, 0.0), (0.3, -0.4), unit_disk,
                                  n_launch=160, n_s=160)
        assert abs(val) < 1e-14

    def test_zero_frequency_consistency(self, unit_disk, slice_field):
        grid = SpectralGrid.for_field(slice_field, n_points=96)
        ref = grid.point_transform(grid.sample(slice_field), [0.0],
                                   [[0.0, 0.0]])[0]
        val = slice_from_sinogram(slice_field, (0.6, 0.8), (0.0, 0.0),
                                  unit_disk, n_launch=160, n_s=160)
        assert abs(val - ref) < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_slice_identity(self, unit_disk, slice_field, seed):
        rng = np.random.default_rng(seed)
        ang = rng.uniform(0, 2 * np.pi)
        omega = np.array([np.cos(ang), np.sin(ang)])
        xi = rng.uniform(-6, 6, 2)
        tau = -float(omega @ xi)
        grid = SpectralGrid.for_field(slice_field, n_points=128)
        ref = grid.point_transform(grid.sample(slice_field), [tau], [xi])[0]
        val = slice_from_sinogram(slice_field, omega, xi, unit_disk,
                                  n_launch=160, n_s=160)
        assert abs(val - ref) <= 1e-6 * (1.0 + abs(ref))

    def test_direct_path_matches_separable_path(self, unit_disk,
                                                slice_field):
        omega = np.array([0.8, 0.6])
        xi = np.array([1.7, -2.2])
        a = slice_from_sinogram(tensor_only(slice_field), omega, xi,
                                unit_disk, n_launch=160, n_s=160)
        b = slice_from_sinogram(slice_field, omega, xi, unit_disk,
                                n_launch=160, n_s=160)
        assert abs(a - b) < 1e-7

    def test_coverage_error(self, slice_field):
        small = ball(0.5)
        with pytest.raises(CoverageError):
            slice_from_sinogram(slice_field, (1.0, 0.0), (1.0, 0.0), small,
                                n_launch=160, n_s=160)


def correlation_reference(f, omega, xi, n_launch):
    """The separable slice by the direct correlation loop over the full
    m-lattice: q = spacing * sum_k g_k H[k:k+n_u], then the (u, v)
    Fourier sum.  Returns the value and cell * sum|q|, the L1 norm of the
    ray data, which bounds every slice value."""
    omega = np.asarray(omega, dtype=float) / np.linalg.norm(omega)
    (t_lo, t_hi), x_lo, x_hi = f.support_box
    center, half = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
    perp = perp_frame(omega)
    h_par = float(np.sum(np.abs(omega) * half))
    h_perp = [float(np.sum(np.abs(e) * half)) for e in perp]
    perp_pad = LAUNCH_PAD * 2 * max(h_perp)
    spacing = (2 * max(h_perp) + 2 * perp_pad) / n_launch
    u_lo = -h_par - t_hi - perp_pad
    n_u = int(np.ceil((h_par - t_lo + perp_pad - u_lo) / spacing)) + 1
    n_s = int(np.ceil((t_hi - t_lo) / spacing)) + 1
    v_axes = [np.arange(n_launch + 1) * spacing - (h + perp_pad)
              for h in h_perp]
    m = u_lo + t_lo + spacing * np.arange(n_u + n_s - 1)
    g, H = f.separable
    gv = g(t_lo + spacing * np.arange(n_s))
    Hv = H(center, omega, perp, m, v_axes)
    q = np.zeros((n_u,) + Hv.shape[1:])
    for k in range(n_s):
        q += gv[k] * Hv[k:k + n_u]
    q *= spacing
    val = q
    for axis, e in reversed(list(zip([u_lo + spacing * np.arange(n_u)]
                                     + v_axes, [omega, *perp]))):
        val = val @ np.exp(-1j * axis * float(np.dot(e, xi)))
    cell = spacing ** f.dim
    return (val * cell * np.exp(-1j * float(np.dot(center, xi))),
            cell * np.sum(np.abs(q)))


# field, body, n_launch, n_s, and the bar of the existing test that
# compares that field's slices with an independent transform
SLICE_CASES = {
    # test_direct_path_matches_separable_path: 1e-7 absolute
    "slice-default": (default_slice_field, lambda: ball(), 96, 96,
                      lambda ref: 1e-7),
    # TestSliceSource::test_matches_lattice_transform: 2e-2 (1 + |ref|).
    # At n_launch 48 the two paths differed by 0.0242 against a bar of
    # 0.0229 at azimuth 4.0, xi (-5.5, 4.5); at 96 they differ by at most
    # 0.13 of the bar over the drawn range (12 azimuths x a 7 x 7 xi grid,
    # and 300 uniform draws)
    "recon-default": (default_recon_field, lambda: ball(4.0), 96, 96,
                      lambda ref: 2e-2 * (1.0 + abs(ref))),
    # test_slice_identity_3d: 2e-5 (1 + |ref|)
    "bump3d": (lambda: bump_field([BumpSpec(1.0, 1.0, 0.8,
                                            (0.05, -0.1, 0.0), 0.5)],
                                  name="bump3d"),
               lambda: ball(dim=3), 32, 32,
               lambda ref: 2e-5 * (1.0 + abs(ref))),
}


class TestSliceEngine:
    @given(case=st.sampled_from(sorted(SLICE_CASES)),
           azimuth=st.floats(0.0, 2 * np.pi), polar=st.floats(0.0, np.pi),
           xi=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
           n_drawn=st.integers(8, 64))
    @example(case="recon-default", azimuth=4.0, polar=0.0,
             xi=[-5.5, 4.5, 0.0], n_drawn=48)
    @settings(max_examples=40, deadline=None)
    def test_separable_path(self, case, azimuth, polar, xi, n_drawn):
        make_field, make_body, n_launch, n_s, bar = SLICE_CASES[case]
        f, body = make_field(), make_body()
        if f.dim == 2:
            omega = np.array([np.cos(azimuth), np.sin(azimuth)])
        else:
            omega = np.array([np.cos(azimuth) * np.sin(polar),
                              np.sin(azimuth) * np.sin(polar),
                              np.cos(polar)])
        xi = np.array(xi[:f.dim])
        val = slice_from_sinogram(f, omega, xi, body, n_launch=n_launch,
                                  n_s=n_s)
        ref, l1 = correlation_reference(f, omega, xi, n_launch)
        assert abs(val - ref) <= 1e-12 * l1
        oracle = slice_from_sinogram(tensor_only(f), omega, xi, body,
                                     n_launch=n_launch, n_s=n_s)
        assert abs(val - oracle) <= bar(oracle)
        # the oracle bars were set at the fixed sizes; the correlation
        # loop must agree at any size, down to those where an axis ending
        # one spacing short of +(h + pad) would end inside the box
        val = slice_from_sinogram(f, omega, xi, body, n_launch=n_drawn,
                                  n_s=160)
        ref, l1 = correlation_reference(f, omega, xi, n_drawn)
        assert abs(val - ref) <= 1e-12 * l1

    # clip (a, b): the box cuts a off each x1-side and b off each x2-side
    # of the bump (half-width 0.55).  Along omega = (1, 0) a cut in x1
    # leaves H nonzero on the m-rows just outside the box, and a cut in x2
    # leaves the ray data nonzero on the outer launch columns, on either
    # path; pad < 0: the exact correlation rows stop short of the box.
    # Each returned a truncated value before its check; the x2 cut was
    # off by 1.9% on both paths.
    @pytest.mark.parametrize("clip, pad, separable", [
        pytest.param((0.2, 0.0), 0.06, True, id="0.2-0.06"),
        pytest.param((0.0, 0.0), -0.05, True, id="0.0--0.05"),
        pytest.param((0.0, 0.2), 0.06, True, id="across-separable"),
        pytest.param((0.0, 0.2), 0.06, False, id="across-tensor")])
    def test_understated_support_raised(self, unit_disk, slice_field,
                                        monkeypatch, clip, pad, separable):
        monkeypatch.setattr(spectral, "LAUNCH_PAD", pad)
        clipped = dataclasses.replace(slice_field,
                                      x_lo=slice_field.x_lo + np.array(clip),
                                      x_hi=slice_field.x_hi - np.array(clip))
        if not separable:
            clipped = tensor_only(clipped)
        with pytest.raises(SupportTruncated):
            slice_from_sinogram(clipped, (1.0, 0.0), (1.7, -2.2), unit_disk,
                                n_launch=160, n_s=160)

    @pytest.mark.parametrize("separable", [True, False])
    def test_rows_equal_one_xi_calls(self, unit_disk, slice_field,
                                     separable):
        # one call over a stack of xi builds q once and sums it per row;
        # each row must be the one-xi call bit for bit, on the correlation
        # path and on its tensor oracle
        omega = (0.6, -0.8)
        xis = np.array([[1.7, -2.2], [0.0, 0.0], [-3.1, 0.4], [0.85, -1.1],
                        [5.0, 5.0]])
        if not separable:
            slice_field = tensor_only(slice_field)
        kwargs = dict(n_launch=48, n_s=48)
        batched = slice_from_sinogram(slice_field, omega, xis, unit_disk,
                                      **kwargs)
        assert batched.shape == (len(xis),) and batched.dtype == complex
        single = [slice_from_sinogram(slice_field, omega, xi, unit_disk,
                                      **kwargs) for xi in xis]
        assert all(type(v) is complex for v in single)
        assert np.array_equal(batched, single)
        one_row = slice_from_sinogram(slice_field, omega, xis[:1],
                                      unit_disk, **kwargs)
        assert np.array_equal(one_row, single[:1])

    def test_coverage_sampled_once_per_field(self, unit_disk):
        calls = []
        base = default_slice_field()

        def counted(t, x):
            calls.append(1)
            return base(t, x)

        f = dataclasses.replace(base, evaluator=counted)
        for xi in [(1.7, -2.2), (0.3, 0.4)]:
            slice_from_sinogram(f, (0.8, 0.6), xi, unit_disk, n_launch=32,
                                n_s=160)
        assert len(calls) == 5       # one per interior sample time
        with pytest.raises(CoverageError):
            slice_from_sinogram(f, (1.0, 0.0), (1.0, 0.0), ball(0.5),
                                n_launch=32, n_s=160)
        assert len(calls) == 5


class TestSample:
    @pytest.mark.parametrize("name", [*FIELD_PRESETS, "bump3d", "gaussian",
                                      "lincomb", "shifted"])
    def test_equals_level_by_level(self, name, linear_combination, shifted):
        if name in FIELD_PRESETS:
            f = FIELD_PRESETS[name]()
        elif name == "bump3d":
            f = bump_field([BumpSpec(1.0, 1.0, 0.8, (0.05, -0.1, 0.0), 0.5),
                            BumpSpec(-0.4, 1.2, 0.5, (0.2, 0.1, -0.3), 0.3)],
                           name="bump3d")
        elif name == "gaussian":
            f = separable_gaussian()
        elif name == "lincomb":
            f = linear_combination([default_slice_field(), symmetric_field()],
                                   [0.7, -1.3])
        else:
            f = shifted(default_slice_field(), 0.25)
        # the recon field on the stability sweep's own lattice
        grid = (SpectralGrid.for_field(f, 64, extent=14.0)
                if name == "recon-default"
                else SpectralGrid.for_field(f, 16 if f.dim == 3 else 24))
        got = grid.sample(f)
        want = sampled_level_by_level(grid, f)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_one_evaluator_call_per_lattice(self):
        calls = []
        base = default_recon_field()

        def counted(t, x):
            calls.append((np.shape(t), np.shape(x)))
            return base(t, x)

        f = dataclasses.replace(base, evaluator=counted)
        grid = SpectralGrid.for_field(f, n_points=16, extent=14.0)
        grid.sample(f)
        assert calls == [((16, 1, 1), (16, 16, 2))]

    def test_evaluator_ignoring_t_rejected(self):
        f = SpaceTimeField(lambda t, x: np.zeros(np.shape(x)[:-1]),
                           (0.0, 2.0), np.array([-1.0, -1.0]),
                           np.array([1.0, 1.0]), 2, "static", None)
        grid = SpectralGrid.for_field(f, n_points=8)
        with pytest.raises(ValueError, match="static: evaluator gave"):
            grid.sample(f)


class TestFrequencyPoint:
    def test_record(self):
        assert is_visible(0.5, (1.0, 0.0))
        assert not is_visible(2.0, (1.0, 0.0))


class TestGridGuards:
    def test_undersized_extent_rejected(self, slice_field):
        with pytest.raises(ValueError):
            SpectralGrid.for_field(slice_field, n_points=16, extent=0.5)

    # measured before the guard: at 33 points the slice-source
    # reconstruction gave l2 0.84 and imaginary residual 0.89
    @given(n=st.integers(2, 64))
    @example(n=33)
    @settings(max_examples=20, deadline=None)
    def test_lattice_parity(self, slice_field, n):
        if n % 2:
            with pytest.raises(OddLattice):
                SpectralGrid.for_field(slice_field, n_points=n)
        else:
            grid = SpectralGrid.for_field(slice_field, n_points=n)
            assert grid.n == n and grid.dim == 2

    @given(n=st.integers(1, 8).map(lambda k: 2 * k),
           dim=st.sampled_from([2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_mirror_is_negated_frequency(self, n, dim):
        grid = SpectralGrid(np.zeros(dim + 1), np.array([0.3] + [0.2] * dim),
                            n)
        on, pair = grid.mirror(np.arange(n ** (dim + 1)))
        # on the whole lattice every mirror on it is in the index
        assert np.array_equal(pair >= 0, on)
        for axis in dense_frequency_mesh(grid):
            flat = axis.reshape(-1)
            assert np.array_equal(flat[pair[on]], -flat[on])
            assert np.array_equal(mirrored(axis), -core(axis))

    # index sets: empty, the whole lattice, k = 0 alone or with a random
    # subset, and random subsets of any density
    @given(dim=st.integers(1, 3), n=st.integers(1, 6).map(lambda k: 2 * k),
           kind=st.sampled_from(["empty", "full", "k0", "random"]),
           fill=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_mirror_matches_the_reversal(self, dim, n, kind, fill, seed):
        grid = SpectralGrid(np.zeros(dim + 1), np.full(dim + 1, 0.3), n)
        keep = np.random.default_rng(seed).random(grid.shape) < fill
        if kind == "k0":
            keep[(n // 2,) * (dim + 1)] = True
        elif kind != "random":
            keep[...] = kind == "full"
        index = np.flatnonzero(keep)
        on, pair = grid.mirror(index)
        want_on, want_pair = mirror_reference(grid.shape, index)
        assert np.array_equal(on, want_on)
        assert np.array_equal(pair, want_pair)

    def test_lattice_arrays_built_once_and_read_only(self, slice_field):
        grid = SpectralGrid.for_field(slice_field, n_points=12)
        for name in ("radius_mesh", "visible_mask", "_cell_phase"):
            first = getattr(grid, name)
            assert getattr(grid, name) is first, name
            with pytest.raises(ValueError):
                first[(0,) * first.ndim] = first[(1,) * first.ndim]

    # these would broadcast into plausible answers: (8, 8) and (1, 8, 8)
    # into (8, 8, 8) transforms, (8,) * 4 into a 4-D one
    @pytest.mark.parametrize("method, shape", [
        ("forward", (8, 8)), ("forward", (1, 8, 8)), ("forward", (8,) * 4)])
    def test_transforms_reject_other_shapes(self, method, shape):
        grid = SpectralGrid(np.zeros(3), np.array([0.3, 0.2, 0.2]), 8)
        with pytest.raises(ValueError, match=r"the lattice is \(8, 8, 8\)"):
            getattr(grid, method)(np.ones(shape))

    # a scatter would broadcast one value over every index, and wrap a
    # negative index round the lattice
    @pytest.mark.parametrize("index, size, match", [
        (np.arange(8), 1, "not one 1-D pair"),
        (np.arange(8).reshape(2, 4), 8, "not one 1-D pair"),
        (np.array([0, 512]), 2, "out of bounds"),
        (np.array([-1]), 1, "out of bounds")],
        ids=["values-short", "index-2d", "index-past-end", "index-negative"])
    def test_inverse_rejects_modes_off_the_lattice(self, index, size, match):
        grid = SpectralGrid(np.zeros(3), np.array([0.3, 0.2, 0.2]), 8)
        with pytest.raises(ValueError, match=match):
            grid.inverse(index, np.ones(size, dtype=complex))

    def test_grids_compare_and_hash_by_identity(self, slice_field):
        # the generated == compared the array fields, which raised numpy's
        # ValueError, and the generated __hash__ raised TypeError on them
        grid = SpectralGrid.for_field(slice_field, n_points=12)
        twin = SpectralGrid.for_field(slice_field, n_points=12)
        assert grid == grid and not grid != grid
        assert grid != twin and not grid == twin
        assert hash(grid) == hash(grid)
        assert len({grid, twin, grid}) == 2
        assert grid.visible_mask is grid.visible_mask
        assert np.array_equal(grid.visible_mask, twin.visible_mask)
        assert np.array_equal(grid.radius_mesh, twin.radius_mesh)

    def test_mask_agrees_with_pointwise_classification(self, slice_field):
        grid = SpectralGrid.for_field(slice_field, n_points=12)
        visible = grid.visible_mask
        mesh = np.broadcast_arrays(*grid.frequency_mesh())
        it = np.nditer(mesh[0], flags=["multi_index"])
        for tau in it:
            idx = it.multi_index
            xi = (float(mesh[1][idx]), float(mesh[2][idx]))
            assert bool(visible[idx]) == bool(is_visible(float(tau), xi))


class TestThreeDimensional:
    def test_slice_identity_3d(self):
        from tdxray.fields import BumpSpec, bump_field
        f = bump_field([BumpSpec(1.0, 1.0, 0.8, (0.05, -0.1, 0.0), 0.5)],
                       name="bump3d")
        body = ball(dim=3)
        grid = SpectralGrid.for_field(f, n_points=48, pad=0.3)
        omega = np.array([0.6, 0.64, 0.48])
        omega /= np.linalg.norm(omega)
        xi = np.array([1.5, -2.0, 0.8])
        tau = -float(omega @ xi)
        ref = grid.point_transform(grid.sample(f), [tau], [xi])[0]
        val = slice_from_sinogram(f, omega, xi, body, n_launch=72, n_s=96)
        assert abs(val - ref) <= 2e-5 * (1.0 + abs(ref))
