import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdxray import wavesim
from tdxray.conformal import bump_factor, constant_factor
from tdxray.errors import CFLViolation, IncompatibleData, Unstable
from tdxray.fields import bump_profile
from tdxray.wavesim import (BoundaryData, WaveGrid, WaveSolution,
                            boundary_probes, conformal_stability_experiment,
                            dtn_apply, dtn_norm_diff, dtn_traces,
                            h1_boundary_norm, key_identity_check,
                            l2_boundary_norm, sample_factor, solve_dirichlet)


def pulse(v, center=1.0, width=0.8):
    return bump_profile(((np.asarray(v, dtype=float) - center) / width) ** 2)


def dalembert_bc(t, s):
    """Boundary trace of the rightward pulse u = w(t - x) on the square."""
    s = np.asarray(s)
    x = np.where(s < 1, s, np.where(s < 2, 1.0, np.where(s < 3, 3 - s, 0.0)))
    return pulse(np.asarray(t) - x)


DALEMBERT = BoundaryData(dalembert_bc, "dalembert")


def leapfrog_reference(c, grid, data=None, u0=None, v0=None, source=None):
    """The unbatched scheme for c u_tt = Lap u + F, one factor and
    whole-array arithmetic, every level stored: the oracle for the batched
    march, which it matches bit for bit at zero initial data and F = 0.

    Zero Dirichlet data unless data is given, zero initial data unless
    u0/v0 are, and no source term unless source(t, mesh) is.  The first
    step is the Taylor expansion u^1 = u^0 + k v^0 + (k^2/2) (Lap u^0 +
    F^0)/c.
    """
    mesh = grid.mesh()

    def force(u, t):
        """Lap u + F(t) on the interior nodes."""
        out = np.zeros_like(u)
        out[1:-1, 1:-1] = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:]
                           + u[1:-1, :-2] - 4.0 * u[1:-1, 1:-1]) / grid.h**2
        if source is not None:
            out[1:-1, 1:-1] += source(t, mesh)[1:-1, 1:-1]
        return out

    c_grid = sample_factor(c, grid, mesh)
    bI, bJ, k, ts = grid.bI, grid.bJ, grid.k, grid.times
    bvals = (data.sample(grid) if data is not None
             else np.zeros((grid.nt, bI.size)))
    u = np.zeros((grid.nt, grid.nx, grid.nx))
    if u0 is not None:
        u[0] = u0
    u[0][bI, bJ] = bvals[0]
    u[1] = u[0] if v0 is None else u[0] + k * v0
    u[1] += 0.5 * k**2 * force(u[0], ts[0]) / c_grid[0]
    u[1][bI, bJ] = bvals[1]
    for m in range(1, grid.nt - 1):
        u[m + 1] = (2.0 * u[m] - u[m - 1]
                    + k**2 * force(u[m], ts[m]) / c_grid[m])
        u[m + 1][bI, bJ] = bvals[m + 1]
    return u


def discrete_energy(sol, c):
    """Leapfrog energy at half time steps (kinetic + cross-gradient form)."""
    g, u = sol.grid, sol.u
    c_grid = sample_factor(c, g, g.mesh())
    k, h = g.k, g.h
    es = []
    for m in range(g.nt - 1):
        du = (u[m + 1] - u[m]) / k
        kin = 0.5 * np.sum(c_grid[m] * du * du) * h * h
        gx0 = (u[m][1:, :] - u[m][:-1, :]) / h
        gx1 = (u[m + 1][1:, :] - u[m + 1][:-1, :]) / h
        gy0 = (u[m][:, 1:] - u[m][:, :-1]) / h
        gy1 = (u[m + 1][:, 1:] - u[m + 1][:, :-1]) / h
        pot = 0.5 * (np.sum(gx0 * gx1) + np.sum(gy0 * gy1)) * h * h
        es.append(kin + pot)
    return np.array(es)


def energy_bound_report(sol, data):
    """Observed constant in sup_t(|u|_H1 + |du/dt|_L2) <= C |f|_H1: the
    continuum bound guarantees some C, and the discrete ratio documents
    the solver's realisation of it."""
    g, h = sol.grid, sol.grid.h
    sup = 0.0
    for m in range(g.nt - 1):
        u = sol.u[m]
        gx = (u[1:, :] - u[:-1, :]) / h
        gy = (u[:, 1:] - u[:, :-1]) / h
        h1 = np.sqrt(np.sum(u * u) * h * h
                     + (np.sum(gx * gx) + np.sum(gy * gy)) * h * h)
        du = (sol.u[m + 1] - sol.u[m]) / g.k
        l2 = np.sqrt(np.sum(du * du) * h * h)
        sup = max(sup, h1 + l2)
    fnorm = h1_boundary_norm(g, data.sample(g))
    return {"sup_energy": float(sup), "boundary_h1": float(fnorm),
            "constant": float(sup / fnorm) if fnorm > 0 else 0.0}


class RhoFactors:
    """rho0 = 1 - c, rho1 = c^(n/2) - 1, rho2 = c^(n/2-1) - 1 and
    rho = rho1 - rho2 of a factor c in n space dimensions."""

    M0 = 10.0                # bound on the factor's higher norms

    def __init__(self, c, n):
        self.c, self.n = c, n

    def rho0(self, t, x):
        return 1.0 - self.c(t, x)

    def rho1(self, t, x):
        return self.c(t, x) ** (self.n / 2) - 1.0

    def rho2(self, t, x):
        return self.c(t, x) ** (self.n / 2 - 1) - 1.0

    def rho(self, t, x):
        return self.rho1(t, x) - self.rho2(t, x)

    def identity_residual(self, t, x) -> float:
        """Pointwise |rho - c^(n/2-1)(c-1)|, algebraically zero."""
        cv = self.c(t, x)
        return float(np.max(np.abs(
            self.rho(t, x) - cv ** (self.n / 2 - 1) * (cv - 1.0))))

    def c1_bound_check(self, x_lo, x_hi, n_samples=2000, seed=0) -> dict:
        """Sampled |rho_j|_C1 <= C |rho0|_C0 with C from the class bounds."""
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0.0, self.c.T, n_samples)
        xs = rng.uniform(np.asarray(x_lo, float), np.asarray(x_hi, float),
                         (n_samples, self.c.dim))
        cv = self.c(ts, xs)
        gv = self.c.grad_x(ts, xs)
        dtv = self.c.dt(ts, xs)
        rho0_c0 = float(np.max(np.abs(1.0 - cv)))
        out = {"rho0_c0": rho0_c0}
        M0, m0 = self.M0, self.c.m0
        for name, expo in (("rho1", self.n / 2), ("rho2", self.n / 2 - 1)):
            vals = cv**expo - 1.0
            dvals = expo * cv ** (expo - 1)
            c1 = max(float(np.max(np.abs(vals))),
                     float(np.max(np.abs(dvals[:, None] * gv))),
                     float(np.max(np.abs(dvals * dtv))))
            # |c^e - 1| <= e max(c)^(e-1,0) m0^(min(e-1,0)) |c-1|, and the
            # derivative factor is bounded the same way
            bound = (abs(expo) * max(M0 ** max(expo - 1, 0),
                                     m0 ** min(expo - 1, 0))
                     * (1.0 + M0) + 1.0)
            out[name] = {"c1": c1, "bound_constant": bound,
                         "ok": c1 <= bound * max(rho0_c0, 1e-300)}
        return out



@pytest.fixture(scope="module")
def c_unit():
    return constant_factor(1.0, T=2.5)


class TestSolver:
    def test_cfl_guard(self, c_unit):
        grid = WaveGrid(nx=33, k=0.9 / 32, T=1.0)
        with pytest.raises(CFLViolation):
            solve_dirichlet(c_unit, grid, DALEMBERT)

    def test_zero_data_zero_solution(self, c_unit):
        grid = WaveGrid(nx=33, k=0.6 / 32, T=1.0)
        sol = solve_dirichlet(c_unit, grid, BoundaryData(
            lambda t, s: np.zeros_like(s), "zero"))
        assert np.all(sol.u == 0.0)

    def test_dalembert_oracle_convergence(self, c_unit):
        errs = []
        for nx in (33, 65, 129):
            grid = WaveGrid(nx=nx, k=0.6 / (nx - 1), T=2.5)
            sol = solve_dirichlet(c_unit, grid, DALEMBERT)
            mesh = grid.mesh()
            exact = np.stack([pulse(t - mesh[..., 0]) for t in grid.times])
            errs.append(np.max(np.abs(sol.u - exact)))
        assert errs[0] / errs[1] > 2.8
        assert errs[1] / errs[2] > 2.8

    def test_manufactured_source_convergence(self):
        # a time-independent and a time-dependent factor, so both branches
        # of the factor sampler drive the scheme
        def u_star(t, mesh):
            return (t**3 * np.exp(-t) * np.sin(np.pi * mesh[..., 0])
                    * np.sin(np.pi * mesh[..., 1]))

        for c in (bump_factor(0.2, (0.45, 0.55), 0.3, T=1.0),
                  bump_factor(0.2, (0.45, 0.55), 0.3, T=1.0, t_center=0.5,
                              t_width=0.6)):
            def forcing(t, mesh, c=c):
                s = np.sin(np.pi * mesh[..., 0]) * np.sin(np.pi * mesh[..., 1])
                utt = (6 * t - 6 * t**2 + t**3) * np.exp(-t) * s
                lap = -2 * np.pi**2 * u_star(t, mesh)
                cv = c(np.full(mesh.shape[:-1], t), mesh)
                return cv * utt - lap

            errs = []
            for nx in (17, 33, 65):
                grid = WaveGrid(nx=nx, k=0.5 / (nx - 1), T=1.0)
                u = leapfrog_reference(c, grid, source=forcing)
                mesh = grid.mesh()
                exact = np.stack([u_star(t, mesh) for t in grid.times])
                errs.append(np.max(np.abs(u - exact)))
            assert errs[0] / errs[1] > 3.0, c.time_dependent
            assert errs[1] / errs[2] > 3.0, c.time_dependent

    def test_source_energy_bound_ratio(self, rng):
        c = constant_factor(1.0, T=1.0)
        grid = WaveGrid(nx=33, k=0.5 / 32, T=1.0)
        mesh0 = grid.mesh()
        interior = np.sin(np.pi * mesh0[..., 0]) * np.sin(np.pi * mesh0[..., 1])
        ratios = []
        for _ in range(10):
            a, b, w = rng.uniform(0.5, 2.0, 3)

            def forcing(t, mesh, a=a, b=b, w=w):
                return a * np.sin(b * 6.0 * t) * interior \
                    * pulse(t, center=0.5 * w, width=0.5)

            u = leapfrog_reference(c, grid, source=forcing)
            # L1-in-time of the L2 source norm vs sup of the solution norm
            f_l1l2 = sum(np.sqrt(np.sum(forcing(t, mesh0) ** 2)
                                 * grid.h**2) * grid.k
                         for t in grid.times)
            u_sup = max(np.sqrt(np.sum(u[m] ** 2) * grid.h**2)
                        for m in range(grid.nt))
            ratios.append(u_sup / f_l1l2)
        assert max(ratios) < 5.0

    def test_energy_conserved_homogeneous(self):
        # the cross-form leapfrog energy is an exact discrete invariant for
        # time-independent c, so conservation holds to roundoff (stronger
        # than the O(k^2)-per-step budget)
        c = constant_factor(1.0, T=1.0)
        mesh = WaveGrid(nx=65, k=0.5 / 64, T=1.0).mesh()
        u0 = (np.sin(np.pi * mesh[..., 0]) * np.sin(np.pi * mesh[..., 1])) \
            * 0.3
        for k_fac in (0.5, 0.25):
            grid = WaveGrid(nx=65, k=k_fac / 64, T=1.0)
            u = leapfrog_reference(c, grid, u0=u0, v0=np.zeros_like(u0))
            E = discrete_energy(WaveSolution(grid, u), c)
            assert np.max(np.abs(E - E[0])) / E[0] < 1e-12

    def test_unstable_guard(self, c_unit, monkeypatch):
        grid = WaveGrid(nx=33, k=1.2 / 32, T=2.0)
        monkeypatch.setattr(WaveGrid, "check_cfl",
                            lambda self, c_max: None)
        with pytest.raises(Unstable):
            solve_dirichlet(c_unit, grid, DALEMBERT)


@st.composite
def factor_families(draw):
    """Bump factors with amplitudes in +-0.08, some time-dependent."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        center = (draw(st.floats(0.3, 0.7)), draw(st.floats(0.3, 0.7)))
        t_center = draw(st.none() | st.floats(0.2, 0.8))
        factors.append(bump_factor(draw(st.floats(-0.08, 0.08)), center,
                                   draw(st.floats(0.2, 0.4)), T=1.0,
                                   t_center=t_center, t_width=0.6))
    return factors


class TestMarch:
    @given(factors=factor_families(), nx=st.integers(9, 40),
           probe=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_batched_traces_match_stored_solves(self, factors, nx, probe):
        # the batched march over [1, factors...] records only the stencil
        # rows; each trace must equal the trace of that factor's stored
        # solve bit for bit, and each stored solve the unbatched scheme's
        grid = WaveGrid(nx=nx, k=0.6 / (nx - 1), T=1.0)
        data = boundary_probes(4, 1.0)[probe]
        family = [constant_factor(1.0, T=1.0), *factors]
        traces, margins = dtn_traces(family, grid, data.sample(grid))
        assert traces.shape == (len(family), grid.nt, grid.bI.size)
        for c, trace, margin in zip(family, traces, margins):
            sol = solve_dirichlet(c, grid, data)
            assert np.array_equal(sol.u, leapfrog_reference(c, grid, data))
            assert np.array_equal(trace, dtn_apply(c, grid, data, sol=sol),
                                  equal_nan=True)
            c_max = np.max(sample_factor(c, grid, grid.mesh()))
            assert margin == grid.k / (grid.h / np.sqrt(2 * c_max))

    def test_unstable_guard_on_dtn_path(self, monkeypatch):
        grid = WaveGrid(nx=33, k=1.2 / 32, T=2.0)
        monkeypatch.setattr(WaveGrid, "check_cfl",
                            lambda self, c_max: None)
        c = bump_factor(0.04, (0.55, 0.42), 0.3, T=2.0)
        with pytest.raises(Unstable):
            dtn_norm_diff(constant_factor(1.0, T=2.0), [c], grid,
                          boundary_probes(2, 2.0))


class TestTrapz:
    @given(nt=st.integers(3, 40), trailing=st.lists(st.integers(1, 6),
                                                    min_size=1, max_size=3),
           k=st.floats(1e-3, 1.0), cell=st.floats(1e-4, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_trapezoid(self, nt, trailing, k, cell, seed):
        # trapezoid in time at step k of the cell-weighted spatial sums, to
        # 1e-12 of the same integral of |vals|
        vals = np.random.default_rng(seed).normal(size=(nt, *trailing))
        grid = WaveGrid(nx=5, k=k, T=k * (nt - 1))
        assert grid.nt == nt
        spatial = np.sum(vals, axis=tuple(range(1, vals.ndim))) * cell
        ref = np.trapezoid(spatial, dx=k)
        got = wavesim._trapz(grid, vals.copy(), cell)
        assert abs(got - ref) <= 1e-12 * np.sum(np.abs(vals)) * k * cell


class TestDtN:
    def test_zero_data(self, c_unit):
        grid = WaveGrid(nx=33, k=0.6 / 32, T=1.0)
        lam = dtn_apply(c_unit, grid, BoundaryData(
            lambda t, s: np.zeros_like(s), "zero"))
        assert np.nanmax(np.abs(lam)) == 0.0

    def test_dalembert_normal_derivative(self, c_unit):
        # u = w(t - x): the conormal trace at x = 1 is -w'(t - 1); the
        # discrete trace converges toward it at second order (edge L2,
        # slightly pre-asymptotic at these resolutions)
        from tdxray.fields import bump_profile_du

        def pulse_d(v, center=1.0, width=0.8):
            u = ((np.asarray(v, dtype=float) - center) / width) ** 2
            return bump_profile_du(u) * 2 * (np.asarray(v) - center) \
                / width**2

        errs = []
        for nx in (33, 65, 129):
            grid = WaveGrid(nx=nx, k=0.6 / (nx - 1), T=2.5)
            lam = dtn_apply(c_unit, grid, DALEMBERT)
            s = grid.boundary_arclength()
            right = (s > 1.0) & (s < 2.0) & ~grid.corner  # edge x = 1
            exact = -pulse_d(grid.times - 1.0)[:, None] \
                * np.ones((1, int(right.sum())))
            e = lam[:, right] - exact
            errs.append(float(np.sqrt(np.sum(e**2) * grid.k * grid.h)))
        assert errs[0] / errs[1] > 2.8
        assert errs[1] / errs[2] > 2.8

    @pytest.mark.parametrize("t_center", [None, 0.6])
    def test_trace_all_sides(self, t_center):
        # u = g(t) q(x, y) with q quadratic: the one-sided stencil is exact,
        # so the trace is c * g * dq/dnu on every side up to roundoff
        grid = WaveGrid(nx=33, k=0.6 / 32, T=1.2)
        c = bump_factor(0.2, (0.4, 0.55), 0.8, T=1.2, t_center=t_center,
                        t_width=0.7)
        mesh = grid.mesh()
        x, y = mesh[..., 0], mesh[..., 1]
        q = 1 + 0.3 * x - 0.7 * y + 0.5 * x**2 - 0.4 * x * y + 0.8 * y**2
        qx, qy = 0.3 + x - 0.4 * y, -0.7 - 0.4 * x + 1.6 * y
        gt = np.sin(3.0 * grid.times) + grid.times
        u = gt[:, None, None] * q
        lam = dtn_apply(c, grid, None, sol=WaveSolution(grid, u))

        I, J = grid.bI, grid.bJ
        n = grid.nx - 1
        dq_dnu = np.where(I == 0, -qx[I, J], np.where(
            I == n, qx[I, J], np.where(J == 0, -qy[I, J], qy[I, J])))
        pts = np.broadcast_to(mesh[I, J], (grid.nt, I.size, 2))
        cb = c(np.broadcast_to(grid.times[:, None], pts.shape[:-1]), pts)
        exact = cb * gt[:, None] * dq_dnu
        live = ~grid.corner
        assert np.all(np.isnan(lam[:, grid.corner]))
        assert np.max(np.abs(lam[:, live] - exact[:, live])) < 1e-12
        assert np.ptp(cb[:, live]) > 0.01  # c varies along the boundary

    def test_trace_norm_ratio(self, c_unit):
        grid = WaveGrid(nx=33, k=0.6 / 32, T=1.5)
        probe = boundary_probes(1, 1.5)[0]
        bvals = probe.sample(grid)
        trace = dtn_apply(c_unit, grid, probe)
        h1 = h1_boundary_norm(grid, bvals)
        l2 = l2_boundary_norm(grid, np.nan_to_num(trace), grid.corner)
        assert h1 > 0 and l2 > 0
        assert trace.shape == bvals.shape
        assert 0 < l2 / h1 < 10

    def test_incompatible_input_rejected(self, c_unit):
        grid = WaveGrid(nx=33, k=0.6 / 32, T=1.5)
        bad = BoundaryData(lambda t, s: np.ones_like(s), "one")
        with pytest.raises(IncompatibleData):
            dtn_norm_diff(c_unit, [c_unit], grid, [bad])

    def test_linearity(self, c_unit):
        grid = WaveGrid(nx=33, k=0.6 / 32, T=1.5)
        p1, p2 = boundary_probes(2, 1.5)
        combo = BoundaryData(lambda t, s: 2.0 * p1.func(t, s)
                             - 0.5 * p2.func(t, s), "combo")
        lam = dtn_apply(c_unit, grid, combo)
        lam1 = dtn_apply(c_unit, grid, p1)
        lam2 = dtn_apply(c_unit, grid, p2)
        assert np.nanmax(np.abs(lam - 2.0 * lam1 + 0.5 * lam2)) < 1e-9

    def test_norm_diff_zero_for_equal_factors(self):
        grid = WaveGrid(nx=33, k=0.6 / 32, T=1.5)
        c = bump_factor(0.03, (0.5, 0.5), 0.25, T=1.5)
        out, = dtn_norm_diff(c, [c], grid, boundary_probes(3, 1.5))
        assert out["norm_lower_bound"] < 1e-12

    def test_norm_estimate_nondecreasing_in_probes(self):
        grid = WaveGrid(nx=49, k=0.6 / 48, T=1.5)
        g1 = constant_factor(1.0, T=1.5)
        c = bump_factor(0.05, (0.55, 0.42), 0.3, T=1.5)
        probes = boundary_probes(6, 1.5)
        est3 = dtn_norm_diff(g1, [c], grid, probes[:3])[0]["norm_lower_bound"]
        est6 = dtn_norm_diff(g1, [c], grid, probes)[0]["norm_lower_bound"]
        assert est6 >= est3 - 1e-15

    def test_norm_monotone_in_scale(self):
        grid = WaveGrid(nx=49, k=0.6 / 48, T=1.5)
        g1 = constant_factor(1.0, T=1.5)
        probes = boundary_probes(4, 1.5)
        family = [bump_factor(s, (0.55, 0.42), 0.3, T=1.5)
                  for s in (0.01, 0.02, 0.04)]
        norms = [out["norm_lower_bound"]
                 for out in dtn_norm_diff(g1, family, grid, probes)]
        assert norms[0] < norms[1] < norms[2]


class TestRho:
    def test_unit_factor_all_zero(self, rng):
        fac = RhoFactors(constant_factor(1.0), 2)
        ts = rng.uniform(0, 1, 16)
        xs = rng.uniform(0, 1, (16, 2))
        assert np.all(fac.rho0(ts, xs) == 0.0)
        assert np.all(fac.rho(ts, xs) == 0.0)

    def test_n2_exponent_algebra(self):
        c = bump_factor(0.2, (0.5, 0.5), 0.3)
        fac = RhoFactors(c, 2)
        ts = np.zeros(5)
        xs = np.linspace(0.35, 0.65, 10).reshape(5, 2)
        assert np.allclose(fac.rho1(ts, xs), c(ts, xs) - 1.0)
        assert np.all(fac.rho2(ts, xs) == 0.0)
        assert np.allclose(fac.rho(ts, xs), c(ts, xs) - 1.0)

    def test_n3_point_value(self):
        c = constant_factor(1.21, dim=3)
        fac = RhoFactors(c, 3)
        t = np.array([0.0])
        x = np.zeros((1, 3))
        assert fac.rho(t, x)[0] == pytest.approx(1.21 ** 0.5 * 0.21,
                                                 abs=5e-4)

    @given(val=st.floats(0.2, 5.0), n=st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_identity_pointwise(self, val, n):
        fac = RhoFactors(constant_factor(val), n)
        t = np.array([0.0])
        x = np.zeros((1, 2))
        assert fac.identity_residual(t, x) <= 1e-12

    def test_c1_bound(self):
        c = bump_factor(0.1, (0.5, 0.5), 0.3)
        fac = RhoFactors(c, 3)
        out = fac.c1_bound_check((0, 0), (1, 1))
        assert out["rho1"]["ok"] and out["rho2"]["ok"]


class TestKeyIdentity:
    def test_trivial_for_unit_factor(self):
        grid = WaveGrid(nx=49, k=0.6 / 48, T=1.5)
        c = constant_factor(1.0, T=1.5)
        probes = boundary_probes(4, 1.5)
        res = key_identity_check(c, grid, probes[0], probes[2])
        scale = max(abs(res["lhs"]), abs(res["rhs"]), 1e-30)
        assert scale < 1e-10

    def test_swap_consistency(self):
        grid = WaveGrid(nx=65, k=0.6 / 64, T=1.5)
        c = bump_factor(0.05, (0.55, 0.42), 0.27, T=1.5)
        probes = boundary_probes(4, 1.5)
        fwd = key_identity_check(c, grid, probes[0], probes[2])
        swp = key_identity_check(c, grid, probes[2], probes[0])
        assert fwd["relative_gap"] < 0.02
        assert swp["relative_gap"] < 0.02

    def test_time_dependent_factor_rejected(self):
        grid = WaveGrid(nx=33, k=0.6 / 32, T=1.5)
        c = bump_factor(0.05, (0.5, 0.5), 0.25, T=1.5, t_center=0.7,
                        t_width=0.6)
        probes = boundary_probes(2, 1.5)
        with pytest.raises(ValueError):
            key_identity_check(c, grid, probes[0], probes[1])


class TestStabilityExperiment:
    def test_degenerate_family(self):
        grid = WaveGrid(nx=33, k=0.6 / 32, T=1.0)
        out = conformal_stability_experiment([0.0], grid, 2, (0.55, 0.42),
                                             0.3)
        row = out["rows"][0]
        assert row["c_dist_l2"] == 0.0
        assert row["dtn_norm"] < 1e-12

    def test_one_march_per_probe(self, monkeypatch):
        # the reference and the whole family share each probe's march
        marches, march = [], wavesim._march

        def counted(factors, *args, **kwargs):
            marches.append([c.name for c in factors])
            return march(factors, *args, **kwargs)

        monkeypatch.setattr(wavesim, "_march", counted)
        grid = WaveGrid(nx=17, k=0.6 / 16, T=1.0)
        conformal_stability_experiment([0.02, 0.04], grid, 2, (0.55, 0.42),
                                       0.3)
        assert marches == [["const1", "bump0.02", "bump0.04"]] * 2

    def test_probe_saturation(self):
        grid = WaveGrid(nx=49, k=0.6 / 48, T=1.5)
        a = conformal_stability_experiment([0.04], grid, probe_count=6,
                                           bump_center=(0.55, 0.42),
                                           bump_width=0.3)
        b = conformal_stability_experiment([0.04], grid, probe_count=12,
                                           bump_center=(0.55, 0.42),
                                           bump_width=0.3)
        na = a["rows"][0]["dtn_norm"]
        nb = b["rows"][0]["dtn_norm"]
        assert abs(nb - na) <= 0.1 * na


class TestEnergyReport:
    def test_bounded_constant(self, c_unit):
        grid = WaveGrid(nx=49, k=0.6 / 48, T=2.5)
        data = DALEMBERT
        sol = solve_dirichlet(c_unit, grid, data)
        rep = energy_bound_report(sol, data)
        assert rep["boundary_h1"] > 0
        assert 0 < rep["constant"] < 10.0

