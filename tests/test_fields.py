import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdxray.fields import (RECON_T, BumpSpec, bump_field, bump_jet,
                           bump_profile, default_recon_field,
                           default_slice_field,
                           heldout_fields, single_bump, squared_distance,
                           tail_field)
from tdxray.geometry import perp_frame


def smoothness_budget(f, order=2, n_samples=4000, seed=0):
    """Sampled sup-norm estimates of the derivatives of f up to ``order``
    (at most 2), by crude centred finite differences on random interior
    points: a diagnostic, not a certified bound."""
    rng = np.random.default_rng(seed)
    t0, t1 = f.t_support
    ts = rng.uniform(t0, t1, n_samples)
    xs = rng.uniform(f.x_lo, f.x_hi, (n_samples, f.dim))
    f0 = f(ts, xs)
    vals = {0: float(np.max(np.abs(f0)))}
    h = 1e-4 * max(t1 - t0, float(np.max(f.x_hi - f.x_lo)))
    shifts = []
    for axis in range(f.dim + 1):
        dx = np.zeros(f.dim)
        if axis:
            dx[axis - 1] = h
        dt = 0.0 if axis else h
        shifts.append((f(ts + dt, xs + dx), f(ts - dt, xs - dx)))
    if order >= 1:
        vals[1] = max(float(np.max(np.abs(fp - fm) / (2 * h)))
                      for fp, fm in shifts)
    if order >= 2:
        vals[2] = max(float(np.max(np.abs(fp - 2 * f0 + fm) / h**2))
                      for fp, fm in shifts)
    return vals


class TestSquaredDistance:
    # the forward and rays-beams field values depend on these exact bits
    @given(dim=st.sampled_from([2, 3]), n=st.integers(1, 50),
           seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-8, 8),
           transposed=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_bits_of_the_reduction(self, dim, n, seed, log_scale,
                                   transposed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        x = scale * (rng.normal(size=(dim, n)).T if transposed
                     else rng.normal(size=(n, dim)))
        c = tuple(scale * rng.normal(size=dim))
        dx = x - np.asarray(c)
        assert np.array_equal(squared_distance(x, c),
                              np.sum(dx * dx, axis=-1))


def unwindowed(specs, origin, omega, perp, along, v_axes):
    """Sum over the bumps of amp * B(A + V), every bump on the whole frame,
    from the same 1-D terms as the separable factor's H."""
    total = 0.0
    for s in specs:
        d = np.asarray(origin, dtype=float) - s.x_center
        terms = [(axis + float(np.dot(d, e))) ** 2 / s.x_width**2
                 for axis, e in zip([along, *v_axes], [omega, *perp])]
        total = total + s.amplitude * bump_profile(
            functools.reduce(np.add.outer, terms))
    return total


class TestBumpFrame:
    # each bump is summed only on its window of the frame; outside it B is
    # exactly 0, so the windowed sum must give the unwindowed bits
    @given(dim=st.sampled_from([2, 3]), azimuth=st.floats(0.0, 2 * np.pi),
           polar=st.floats(0.0, np.pi), n_along=st.integers(1, 40),
           n_v=st.integers(1, 24), edge_row=st.sampled_from([0, -1]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_window_is_exact(self, dim, azimuth, polar, n_along, n_v,
                             edge_row, seed):
        rng = np.random.default_rng(seed)
        omega = np.array([np.cos(azimuth), np.sin(azimuth)])
        if dim == 3:
            omega = np.append(np.sin(polar) * omega, np.cos(polar))
        perp = perp_frame(omega)
        origin = rng.uniform(-1.0, 1.0, dim)
        spacing = rng.uniform(0.02, 0.2)
        along, *v_axes = [rng.uniform(-2.0, 0.0) + spacing * np.arange(n)
                          for n in [n_along] + [n_v] * len(perp)]

        def frame_point(i, js):
            return origin + along[i] * omega + sum(
                v[j] * e for v, j, e in zip(v_axes, js, perp))

        def spec(amplitude, center, width):
            return BumpSpec(amplitude, 1.0, 0.8, tuple(center), width)

        specs = [spec(rng.normal(), origin + rng.uniform(-2.5, 2.5, dim),
                      rng.uniform(0.05, 1.5)) for _ in range(3)]
        # centred on the first or last along row, so its window touches it
        specs.append(spec(rng.normal(), frame_point(
            edge_row, rng.integers(0, n_v, len(perp))),
            rng.uniform(0.1, 1.0)))
        # two widths beyond the last row: its along window is empty
        width = rng.uniform(0.05, 1.0)
        empty = spec(rng.normal(), frame_point(-1, [0] * len(perp))
                     + 2 * width * omega, width)
        frame = (origin, omega, perp, along, v_axes)
        _, H = bump_field(specs + [empty], name="bump").separable
        got = H(*frame)
        assert got.shape == (n_along,) + (n_v,) * len(perp)
        assert np.array_equal(got, unwindowed(specs + [empty], *frame))
        assert np.array_equal(got, bump_field(
            specs, name="bump").separable[1](*frame))


def masked_profile(u):
    """B by gather and scatter: exp(1 - 1/(1 - u)) on the points with
    u < 1, zeros elsewhere; the oracle for the in-place profile."""
    u = np.asarray(u, dtype=float)
    inside = u < 1.0
    full = np.zeros_like(u)
    full[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside]))
    return full


# u in and near [0, 1), just below 1 by a few ulp, at or past 1, negative,
# and NaN and +-inf
PROFILE_U = st.one_of(
    st.floats(-3.0, 3.0),
    st.integers(1, 64).map(lambda j: 1.0 - j * 2.0**-53),
    st.sampled_from([0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.inf,
                     -np.inf, np.nan, 1e300, -1e300, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True))


class TestBumpProfile:
    @given(values=st.lists(PROFILE_U, min_size=1, max_size=120),
           layout=st.sampled_from(["flat", "0-d", "strided", "3-d",
                                   "3-d transposed"]))
    @settings(max_examples=200, deadline=None)
    def test_bits_of_the_masked_form(self, values, layout):
        u = np.array(values)
        if layout == "0-d":
            u = u[0, ...]
        elif layout == "strided":
            u = u[::2]
        elif layout.startswith("3-d"):
            u = np.resize(u, (3, 4, 5))
            if layout == "3-d transposed":
                u = u.transpose(2, 0, 1)
        before = u.copy()
        got = bump_profile(u)
        want = masked_profile(u)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got.view(np.int64),
                              bump_jet(u, 0)[0].view(np.int64))
        # the profile works on a fresh array, not on its input
        assert np.array_equal(u.view(np.int64), before.view(np.int64))

    def test_normalisation_and_support(self):
        assert bump_profile(np.array([0.0]))[0] == 1.0
        assert bump_profile(np.array([1.0]))[0] == 0.0
        assert bump_profile(np.array([4.0]))[0] == 0.0

    def test_smooth_vanishing_at_edge(self):
        u = np.array([0.999])
        assert bump_profile(u)[0] < 1e-300 or bump_profile(u)[0] < 1e-100


class TestFields:
    @pytest.mark.parametrize("field,T", [
        (default_slice_field(), 2.0),
        (tail_field(), 2.0),
        (default_recon_field(), RECON_T),
    ])
    def test_compact_support(self, field, T, rng):
        # vanishes outside the declared box and at the time endpoints
        xs = rng.uniform(-1.5, 1.5, (500, 2)) * np.max(np.abs(field.x_hi))
        assert np.all(field(np.zeros(500), xs) == 0.0)
        assert np.all(field(np.full(500, T), xs) == 0.0)
        outside = field.x_hi + 0.1
        ts = rng.uniform(0, T, 100)
        assert np.all(field(ts, np.tile(outside, (100, 1))) == 0.0)

    def test_separable_matches_evaluator(self, rng):
        f = default_recon_field()
        g, H = f.separable
        origin = rng.uniform(-0.5, 0.5, 2)
        omega = np.array([np.cos(0.7), np.sin(0.7)])
        perp = perp_frame(omega)
        along = np.linspace(-3.8, 3.8, 30)
        v_axes = [np.linspace(-3.6, 3.7, 20)]
        mesh = np.meshgrid(along, *v_axes, indexing="ij")
        xs = (origin + mesh[0][..., None] * omega
              + mesh[1][..., None] * perp[0])
        ts = rng.uniform(0, RECON_T, xs.shape[:-1])
        assert np.allclose(f(ts, xs),
                           g(ts) * H(origin, omega, perp, along, v_axes),
                           atol=1e-14)

    def test_recon_field_inside_ball4(self, rng):
        f = default_recon_field()
        xs = rng.uniform(-5, 5, (4000, 2))
        alive = np.abs(f(np.full(4000, 6.0), xs)) > 0
        assert np.all(np.linalg.norm(xs[alive], axis=1) < 4.0)

    def test_dimension_from_centres(self):
        # a 3-D centre gives a 3-D field, whose third coordinate counts
        f = single_bump(x_center=(0.0, 0.0, 0.3), name="bump3d")
        assert f.dim == 3 and f.x_lo.shape == (3,)
        t = np.ones(2)
        got = f(t, np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.0]]))
        assert got[0] == 1.0
        assert got[1] == bump_profile(np.array([0.3**2 / 0.55**2]))[0]

    def test_mixed_centre_lengths_rejected(self):
        specs = [BumpSpec(1.0, 1.0, 0.8, (0.0, 0.1), 0.5),
                 BumpSpec(0.5, 1.0, 0.8, (0.0, 0.1, 0.2), 0.5)]
        with pytest.raises(ValueError, match="differ in length"):
            bump_field(specs, name="mixed")

    def test_heldout_fields_distinct(self):
        a, b = heldout_fields()
        assert a.name != b.name

    def test_smoothness_budget_orders(self):
        f = single_bump(name="bump")
        budget = smoothness_budget(f, order=2, n_samples=500)
        assert budget[0] <= 1.0 + 1e-12
        assert budget[1] > 0 and budget[2] > budget[1]

    def test_shift_moves_support(self, shifted):
        f = single_bump(name="bump")
        g = shifted(f, 0.3)
        assert g.t_support[0] == pytest.approx(f.t_support[0] + 0.3)
