import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdxray import conformal
from tdxray.conformal import bump_factor, constant_factor
from tdxray.errors import Inadmissible


def fd_grad(c, t, x, h=1e-6):
    out = np.zeros(x.size)
    for a in range(x.size):
        e = np.zeros(x.size)
        e[a] = h
        out[a] = (c(t, (x + e)[None, :])[0] - c(t, (x - e)[None, :])[0]) / (2 * h)
    return out


# the finite-difference checks run on each: planar, 3-D, and 3-D with a
# time profile (evaluated at t = 0.7, where it is neither 0 nor 1)
FD_FACTORS = [
    bump_factor(0.2, (0.1, -0.05), 0.6, name="2d"),
    bump_factor(0.2, (0.1, -0.05, 0.08), 0.6, name="3d"),
    bump_factor(-0.15, (0.1, -0.05, 0.08), 0.6, t_center=1.0, t_width=0.8,
                name="3d-timed"),
]


class TestBumpFactor:
    def test_value_range(self):
        c = bump_factor(0.1, (0.0, 0.0), 0.5)
        assert c(0.0, np.array([[0.0, 0.0]]))[0] == pytest.approx(1.1)
        assert c(0.0, np.array([[0.9, 0.0]]))[0] == pytest.approx(1.0)

    def test_gradient_matches_fd(self, rng):
        for c in FD_FACTORS:
            for _ in range(20):
                x = rng.uniform(-0.4, 0.5, c.dim)
                g = c.grad_x(0.7, x[None, :])[0]
                assert np.allclose(g, fd_grad(c, 0.7, x), atol=1e-7), c.name

    def test_hessian_matches_fd(self, rng):
        h = 1e-5
        for c in FD_FACTORS:
            for _ in range(10):
                x = rng.uniform(-0.35, 0.45, c.dim)
                H = c.hess_x(0.7, x[None, :])[0]
                for a in range(c.dim):
                    e = np.zeros(c.dim)
                    e[a] = h
                    col = (c.grad_x(0.7, (x + e)[None, :])[0]
                           - c.grad_x(0.7, (x - e)[None, :])[0]) / (2 * h)
                    assert np.allclose(H[:, a], col, atol=1e-6), c.name

    def test_time_derivative(self):
        h = 1e-6
        for x in ([[0.1, 0.1]], [[0.1, -0.2, 0.15]]):
            x = np.array(x)
            c = bump_factor(0.1, np.zeros(x.shape[1]), 0.6, t_center=1.0,
                            t_width=0.8)
            fd = (c(0.8 + h, x)[0] - c(0.8 - h, x)[0]) / (2 * h)
            assert c.dt(0.8, x)[0] == pytest.approx(fd, abs=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([2, 3]),
           amplitude=st.floats(-0.3, 0.3),
           center=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
           width=st.floats(0.2, 1.0),
           t_center=st.one_of(st.none(), st.floats(0.2, 1.8)),
           t_width=st.floats(0.3, 1.5),
           seed=st.integers(0, 2**32 - 1))
    def test_jet_entries_are_the_views(self, dim, amplitude, center, width,
                                       t_center, t_width, seed):
        # each view is one entry of the jet, whatever order serves it, on
        # points inside the support and outside it (u >= 1)
        c = bump_factor(amplitude, center[:dim], width, t_center=t_center,
                        t_width=t_width)
        rng = np.random.default_rng(seed)
        radius = width * np.concatenate([rng.uniform(0.0, 0.99, 8),
                                         rng.uniform(1.01, 2.0, 8)])
        dirs = rng.normal(size=(16, dim))
        x = (np.asarray(center[:dim]) + radius[:, None] * dirs
             / np.linalg.norm(dirs, axis=1, keepdims=True))
        t = rng.uniform(0.0, 2.0, 16)
        cv, gv, ct, hv = c.jet(t, x, 2)
        assert np.array_equal(cv, c.func(t, x))
        assert np.array_equal(cv, c(t, x))
        assert np.array_equal(gv, c.grad_x(t, x))
        assert np.array_equal(ct, c.dt(t, x))
        assert np.array_equal(hv, c.hess_x(t, x))
        for order in (0, 1):
            got = c.jet(t, x, order)
            assert len(got) == 2 * order + 1
            for lower, full in zip(got, (cv, gv, ct)):
                assert np.array_equal(lower, full)
        # outside the support c = 1 and every derivative vanishes
        out = slice(8, None)
        assert np.all(cv[out] == 1.0)
        assert not gv[out].any() and not ct[out].any() and not hv[out].any()
        if t_center is None:
            assert not ct.any()

    def test_scalar_time_is_a_row_of_the_array(self):
        # a float's ** 2 went through libm's pow, and 3 of these 2000 jets
        # came out apart from the array's; the beam batches the jet over
        # times that a march hands it one float at a time
        c = bump_factor(0.1, (0.1, 0.0), 0.6, t_center=0.9, t_width=0.55)
        ts = np.linspace(0.4, 1.4, 2000)
        x = np.full((2000, 2), 0.15)
        batch = c.jet(ts, x, 2)
        for i, t in enumerate(ts.tolist()):
            for one, rows in zip(c.jet(t, x[i:i + 1], 2), batch):
                assert np.array_equal(one, rows[i:i + 1])

    def test_time_independent_dt_zero(self):
        c = bump_factor(0.1, (0.0, 0.0), 0.6)
        assert not c.time_dependent
        assert np.all(c.dt(0.5, np.zeros((3, 2))) == 0.0)


class TestAdmissibility:
    def test_constant_passes(self):
        c = constant_factor()
        rep = c.check_admissible((-1, -1), (1, 1))
        assert rep["min_c"] == pytest.approx(1.0)

    def test_lower_bound_violation(self):
        c = bump_factor(-0.9, (0.0, 0.0), 0.5)
        c.m0 = 0.5
        with pytest.raises(Inadmissible):
            c.check_admissible((-1, -1), (1, 1))

    def test_nan_factor(self):
        # NaN fails no comparison against m0 or eps, so it passed
        c = bump_factor(float("nan"), (0.0, 0.0), 0.5)
        with pytest.raises(Inadmissible, match="not finite"):
            c.check_admissible((-1, -1), (1, 1))

    def test_zero_factor_rejected(self):
        # m0 = 0 passed "min c < m0", and a march at speed sqrt(0) never
        # leaves the body
        c = bump_factor(-1.0, (0.0, 0.0), 0.5)
        with pytest.raises(Inadmissible, match="m0 = 0.0 is not positive"):
            c.check_admissible((-1, -1), (1, 1))

    def test_c1_violation(self, monkeypatch):
        # C^1 distance 0.27: inside the class's EPS = 0.5, outside 0.1
        c = bump_factor(0.1, (0.0, 0.0), 0.8)
        c.check_admissible((-1, -1), (1, 1))
        monkeypatch.setattr(conformal, "EPS", 0.1)
        with pytest.raises(Inadmissible, match="exceeds eps = 0.1"):
            c.check_admissible((-1, -1), (1, 1))
