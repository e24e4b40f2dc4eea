import numpy as np
import pytest

from tdxray.conformal import bump_factor, constant_factor
from tdxray.errors import Inadmissible


def fd_grad(c, t, x, h=1e-6):
    out = np.zeros(2)
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        out[a] = (c(t, (x + e)[None, :])[0] - c(t, (x - e)[None, :])[0]) / (2 * h)
    return out


class TestBumpFactor:
    def test_value_range(self):
        c = bump_factor(0.1, (0.0, 0.0), 0.5)
        assert c(0.0, np.array([[0.0, 0.0]]))[0] == pytest.approx(1.1)
        assert c(0.0, np.array([[0.9, 0.0]]))[0] == pytest.approx(1.0)

    def test_gradient_matches_fd(self, rng):
        c = bump_factor(0.2, (0.1, -0.05), 0.6)
        for _ in range(20):
            x = rng.uniform(-0.4, 0.5, 2)
            g = c.grad_x(0.3, x[None, :])[0]
            assert np.allclose(g, fd_grad(c, 0.3, x), atol=1e-7)

    def test_hessian_matches_fd(self, rng):
        c = bump_factor(0.2, (0.1, -0.05), 0.6)
        h = 1e-5
        for _ in range(10):
            x = rng.uniform(-0.35, 0.45, 2)
            H = c.hess_x(0.0, x[None, :])[0]
            for a in range(2):
                e = np.zeros(2)
                e[a] = h
                col = (c.grad_x(0.0, (x + e)[None, :])[0]
                       - c.grad_x(0.0, (x - e)[None, :])[0]) / (2 * h)
                assert np.allclose(H[:, a], col, atol=1e-6)

    def test_time_derivative(self):
        c = bump_factor(0.1, (0.0, 0.0), 0.6, t_center=1.0, t_width=0.8)
        x = np.array([[0.1, 0.1]])
        h = 1e-6
        fd = (c(0.8 + h, x)[0] - c(0.8 - h, x)[0]) / (2 * h)
        assert c.dt(0.8, x)[0] == pytest.approx(fd, abs=1e-7)

    def test_time_independent_dt_zero(self):
        c = bump_factor(0.1, (0.0, 0.0), 0.6)
        assert not c.time_dependent
        assert np.all(c.dt(0.5, np.zeros((3, 2))) == 0.0)


class TestAdmissibility:
    def test_constant_passes(self):
        c = constant_factor(1.0)
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

    def test_c1_violation(self):
        c = bump_factor(0.4, (0.0, 0.0), 0.3)
        c.eps = 0.1
        with pytest.raises(Inadmissible):
            c.check_admissible((-1, -1), (1, 1))
