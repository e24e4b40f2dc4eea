"""Explicit wave solver on the unit square, DtN probing, and the boundary
identity for conformal factors.

The conformal wave equation is discretised in the divergence form

    c^{n/2} d_t^2 u = div(c^{n/2 - 1} grad u),      n = 2:  c u_tt = Lap u,

the convention under which the boundary identity

    int (Lam_g - Lam_cg) f1 conj(f2) = int rho1 du1 du2
                                       - int rho2 <grad u1, grad u2>

holds exactly (time-independent c) with rho1 = c^{n/2} - 1 and
rho2 = c^{n/2-1} - 1.  At n = 2 the gradient term drops out since rho2 = 0.

Grid: vertex-centred lattice on [0,1]^2 including the boundary; leapfrog in
time; one-sided second-order normal derivative for the DtN trace.  Corner
nodes carry Dirichlet data but are excluded from DtN outputs (no single
outward normal exists there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conformal import ConformalFactor, bump_factor, constant_factor
from .errors import CFLViolation, Unstable
from .fields import bump_profile


@dataclass
class WaveGrid:
    nx: int                  # nodes per axis, boundary included
    k: float                 # time step
    T: float

    def __post_init__(self):
        self.h = 1.0 / (self.nx - 1)
        self.nt = int(round(self.T / self.k)) + 1
        # closed boundary path in arclength order, corners included: sides
        # j = 0, i = n, j = n, i = 0, each with its inward stencil step
        n = self.nx - 1
        up, down = np.arange(n), np.arange(n, 0, -1)
        zero, last = np.zeros(n, dtype=int), np.full(n, n)
        self.bI = np.concatenate([up, last, down, zero])
        self.bJ = np.concatenate([zero, up, last, down])
        self.dI = np.repeat([0, -1, 0, 1], n)
        self.dJ = np.repeat([1, 0, -1, 0], n)
        self.corner = np.isin(self.bI, (0, n)) & np.isin(self.bJ, (0, n))

    def check_cfl(self, c_max: float) -> None:
        """CFLViolation unless k is within the leapfrog limit
        h / sqrt(n max c), n = 2."""
        limit = self.h / np.sqrt(2 * c_max)
        if self.k > limit * (1 + 1e-12):
            raise CFLViolation(
                f"k = {self.k:.3e} exceeds h/sqrt(n max c) = {limit:.3e}")

    @property
    def times(self) -> np.ndarray:
        return self.k * np.arange(self.nt)

    def mesh(self) -> np.ndarray:
        ax = np.linspace(0.0, 1.0, self.nx)
        return np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)

    def boundary_arclength(self) -> np.ndarray:
        return self.h * np.arange(self.bI.size)


@dataclass
class BoundaryData:
    """Dirichlet input f(t, s) on the boundary path, s = arclength.

    Must vanish to first order at t = 0 (zero-initial-data compatibility).
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "probe"

    def sample(self, grid: WaveGrid) -> np.ndarray:
        """Samples (nt, n_boundary) at every time level and path node."""
        return self.func(*np.meshgrid(grid.times, grid.boundary_arclength(),
                                      indexing="ij"))


def time_window(T: float) -> Callable:
    """Smooth window vanishing identically near t = 0 (for
    t <= 0.3 - 0.02 T), plateau-free bump."""
    rise = 0.3
    center = 0.5 * (T + rise)
    width = 0.5 * (T - rise) + 0.02 * T

    def w(t):
        return bump_profile(((np.asarray(t, float) - center) / width) ** 2)

    return w


def boundary_probes(count: int, T: float) -> list[BoundaryData]:
    """Tensor probes: time window x Fourier modes along the boundary path
    of the unit square (perimeter 4)."""
    w = time_window(T)
    probes = []
    m = 1
    while len(probes) < count:
        for trig in (np.cos, np.sin):
            if len(probes) >= count:
                break
            k_ang = 2.0 * np.pi * m / 4.0

            def func(t, s, trig=trig, k_ang=k_ang):
                return w(t) * trig(k_ang * s)

            probes.append(BoundaryData(func, name=f"{trig.__name__}{m}"))
        m += 1
    return probes


# ---------------------------------------------------------------- solver


@dataclass
class WaveSolution:
    grid: WaveGrid
    u: np.ndarray            # (nt, nx, nx)

    def dt_interior(self) -> np.ndarray:
        """Centred time derivative on interior time levels (nt-2, nx, nx)."""
        return (self.u[2:] - self.u[:-2]) / (2.0 * self.grid.k)

    def grad(self) -> tuple[np.ndarray, np.ndarray]:
        """Centred spatial gradient on interior nodes, zero on the frame."""
        h = self.grid.h
        gx = np.zeros_like(self.u)
        gy = np.zeros_like(self.u)
        gx[:, 1:-1, :] = (self.u[:, 2:, :] - self.u[:, :-2, :]) / (2 * h)
        gy[:, :, 1:-1] = (self.u[:, :, 2:] - self.u[:, :, :-2]) / (2 * h)
        return gx, gy


def _laplacian(u: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(u)
    out[1:-1, 1:-1] = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:]
                       + u[1:-1, :-2] - 4.0 * u[1:-1, 1:-1]) / h**2
    return out


def sample_factor(c: ConformalFactor, grid: WaveGrid,
                  points: np.ndarray) -> np.ndarray:
    """c at every time level on fixed points (..., 2): shape (nt, ...).

    A time-independent factor is evaluated once and broadcast (read-only
    view); a time-dependent one is evaluated one time level at a time.
    """
    shape = points.shape[:-1]
    if not c.time_dependent:
        return np.broadcast_to(c(np.zeros(shape), points), (grid.nt,) + shape)
    return np.stack([c(np.full(shape, t), points) for t in grid.times])


def solve_dirichlet(c: ConformalFactor, grid: WaveGrid, data: BoundaryData,
                    u0: np.ndarray | None = None,
                    v0: np.ndarray | None = None,
                    source: Callable | None = None) -> WaveSolution:
    """Leapfrog solution of c u_tt = Lap u + F with Dirichlet data.

    Zero initial data unless u0/v0 given (used by the energy-conservation
    checks).  The first step uses the Taylor expansion
    u^1 = u^0 + k v^0 + (k^2/2) (Lap u^0 + F^0)/c.
    """
    mesh = grid.mesh()
    c_grid = sample_factor(c, grid, mesh)
    c_max = float(np.max(c_grid))
    grid.check_cfl(c_max)

    bI, bJ = grid.bI, grid.bJ
    bvals = data.sample(grid) if data is not None else \
        np.zeros((grid.nt, bI.size))

    nt, nx, h, k = grid.nt, grid.nx, grid.h, grid.k
    u = np.zeros((nt, nx, nx))
    u_prev = np.zeros((nx, nx)) if u0 is None else u0.copy()
    u_prev[bI, bJ] = bvals[0]
    u[0] = u_prev

    def F_at(m):
        if source is None:
            return 0.0
        return source(grid.times[m], mesh)

    first = u_prev + (k if v0 is not None else 0.0) * (v0 if v0 is not None
                                                       else 0.0)
    first = first + 0.5 * k**2 * (_laplacian(u_prev, h) + F_at(0)) / c_grid[0]
    first[bI, bJ] = bvals[1]
    u[1] = first

    bound = 1e8 * (1.0 + np.max(np.abs(bvals))
                   + (np.max(np.abs(u0)) if u0 is not None else 0.0)
                   + (np.max(np.abs(v0)) if v0 is not None else 0.0))
    for m in range(1, nt - 1):
        nxt = (2.0 * u[m] - u[m - 1]
               + k**2 * (_laplacian(u[m], h) + F_at(m)) / c_grid[m])
        nxt[bI, bJ] = bvals[m + 1]
        u[m + 1] = nxt
        if not np.all(np.isfinite(nxt)) or np.max(np.abs(nxt)) > bound:
            raise Unstable(f"solution blew up at step {m + 1}")
    return WaveSolution(grid, u)


# ---------------------------------------------------------------- norms


def _time_weights(nt: int) -> np.ndarray:
    """Trapezoid weights over nt time levels, in units of the step."""
    wt = np.ones(nt)
    wt[0] = wt[-1] = 0.5
    return wt


def h1_boundary_norm(grid: WaveGrid, bvals: np.ndarray) -> float:
    """Discrete H^1 norm of boundary data: trapezoid in time, lumped mass
    along the closed path, value + time-derivative + arc-derivative."""
    k, h = grid.k, grid.h
    dt = np.gradient(bvals, k, axis=0)
    ds = (np.roll(bvals, -1, axis=1) - np.roll(bvals, 1, axis=1)) / (2 * h)
    total = np.sum(_time_weights(grid.nt)[:, None]
                   * (bvals**2 + dt**2 + ds**2)) * k * h
    return float(np.sqrt(total))


def l2_boundary_norm(grid: WaveGrid, bvals: np.ndarray,
                     mask: np.ndarray | None = None) -> float:
    k, h = grid.k, grid.h
    vals = bvals if mask is None else bvals[:, ~mask]
    return float(np.sqrt(np.sum(_time_weights(grid.nt)[:, None] * vals**2)
                         * k * h))


# ---------------------------------------------------------------- DtN


def dtn_apply(c: ConformalFactor, grid: WaveGrid, data: BoundaryData,
              sol: WaveSolution | None = None) -> np.ndarray:
    """Conormal trace c * du/dnu on the boundary path (corners NaN).

    One-sided three-point second-order stencils along the inward axis.
    """
    if sol is None:
        sol = solve_dirichlet(c, grid, data)
    g, u = grid, sol.u
    I, J, dI, dJ = g.bI, g.bJ, g.dI, g.dJ
    dn = -(-3.0 * u[:, I, J] + 4.0 * u[:, I + dI, J + dJ]
           - u[:, I + 2 * dI, J + 2 * dJ]) / (2 * g.h)
    out = sample_factor(c, g, g.mesh()[I, J]) * dn
    out[:, g.corner] = np.nan
    return out


def dtn_norm_diff(c1: ConformalFactor, family: list[ConformalFactor],
                  grid: WaveGrid, probes: list[BoundaryData]) -> list[dict]:
    """Probed lower bounds of the H^1_0 -> L^2 norms of Lam_c1 - Lam_c, one
    per c in family; Lam_c1 is solved once per probe.

    Each probe must vanish to first order at t = 0 (zero-initial-data
    compatibility); violations raise.
    """
    if not probes:
        raise ValueError("need at least one probe")
    ratios = [[] for _ in family]
    for probe in probes:
        bvals = probe.sample(grid)
        if np.max(np.abs(bvals[0])) > 1e-12 or \
                np.max(np.abs(bvals[1] - bvals[0])) / grid.k > 1e-6:
            raise ValueError("boundary input must vanish to first order at t=0")
        den = h1_boundary_norm(grid, bvals)
        lam1 = dtn_apply(c1, grid, probe)
        for c, out in zip(family, ratios):
            lam = dtn_apply(c, grid, probe)
            out.append(l2_boundary_norm(grid, np.nan_to_num(lam1 - lam),
                                        grid.corner) / den)
    return [{"norm_lower_bound": max(r), "ratios": r} for r in ratios]


# ---------------------------------------------------------------- identity


def _trapz_time(vals: np.ndarray, k: float) -> np.ndarray:
    return np.tensordot(_time_weights(vals.shape[0]), vals, axes=(0, 0)) * k


def key_identity_check(c: ConformalFactor, grid: WaveGrid,
                       f1: BoundaryData, f2: BoundaryData) -> dict:
    """Boundary pairing of (Lam_g - Lam_cg) f1 with f2 against the interior
    rho-weighted energy pairing.

    u1 solves the c = 1 problem forward with data f1; u2 solves the
    conformal problem backward (zero state at t = T) with data f2, realised
    by time reversal of the scheme.  Exact in the continuum for
    time-independent c; the discrete gap shrinks at second order.
    """
    if c.time_dependent:
        raise ValueError("identity check requires time-independent c")
    n = 2                        # the square's dimension
    g = constant_factor(1.0, dim=c.dim, T=c.T)
    sol1 = solve_dirichlet(g, grid, f1)
    lam_g = dtn_apply(g, grid, f1, sol=sol1)
    lam_cg = dtn_apply(c, grid, f1)

    # backward conformal solve via time reversal
    T = grid.T

    def rev_func(t, s):
        return f2.func(T - np.asarray(t, dtype=float), s)

    sol2_rev = solve_dirichlet(c, grid, BoundaryData(rev_func, "rev"))
    u2 = sol2_rev.u[::-1].copy()
    sol2 = WaveSolution(grid, u2)

    corner = grid.corner
    f2_vals = f2.sample(grid)
    diff = np.nan_to_num(lam_g - lam_cg)[:, ~corner]
    lhs = float(np.sum(_time_weights(grid.nt)[:, None] * diff
                       * f2_vals[:, ~corner]) * grid.k * grid.h)

    c_grid = sample_factor(c, grid, grid.mesh())
    du1 = sol1.dt_interior()
    du2 = sol2.dt_interior()
    rho1_vals = c_grid[1:-1] ** (n / 2) - 1.0
    term_t = _trapz_time(
        np.sum(rho1_vals * du1 * du2, axis=(1, 2))[..., None],
        grid.k)[0] * grid.h**2

    g1x, g1y = sol1.grad()
    g2x, g2y = sol2.grad()
    rho2_vals = c_grid ** (n / 2 - 1) - 1.0
    term_x = _trapz_time(
        np.sum(rho2_vals * (g1x * g2x + g1y * g2y),
               axis=(1, 2))[..., None], grid.k)[0] * grid.h**2

    rhs = float(term_t - term_x)
    gap = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)
    return {"lhs": lhs, "rhs": rhs, "relative_gap": gap}


# ---------------------------------------------------------------- stability


def conformal_stability_experiment(scales, grid: WaveGrid,
                                   probe_count: int = 6,
                                   bump_center=(0.5, 0.5),
                                   bump_width: float = 0.3,
                                   T: float | None = None) -> dict:
    """Rows (|1 - c_s|_L2, probed DtN norm, envelope) for c_s = 1 + s bump.

    The envelope constant is the smallest C with |1 - c_s| <=
    C / log(1 / norm) across all rows (fit-then-assert protocol).
    """
    T = T if T is not None else grid.T
    family = [bump_factor(s, bump_center, bump_width, T=T, name=f"bump{s:g}")
              for s in scales]
    norms = dtn_norm_diff(constant_factor(1.0, T=T), family, grid,
                          boundary_probes(probe_count, T))
    mesh = grid.mesh()
    rows = []
    for s, cs, norm in zip(scales, family, norms):
        vals = 1.0 - sample_factor(cs, grid, mesh)
        l2 = float(np.sqrt(np.sum(_time_weights(grid.nt)[:, None, None]
                                  * vals**2) * grid.k * grid.h**2))
        rows.append({"scale": float(s), "c_dist_l2": l2,
                     "dtn_norm": norm["norm_lower_bound"]})
    # degenerate rows (vanishing DtN difference) carry no log-scale
    # information and are excluded from the envelope fit
    live = [r for r in rows if r["dtn_norm"] > 1e-14]
    for r in rows:
        r["log_inv_norm"] = (float(np.log(1.0 / r["dtn_norm"]))
                             if r["dtn_norm"] > 1e-14 else float("inf"))
    C = max((r["c_dist_l2"] * r["log_inv_norm"] for r in live),
            default=float("nan"))
    for r in rows:
        r["envelope"] = (C / r["log_inv_norm"]
                         if np.isfinite(r["log_inv_norm"]) else 0.0)
    return {"rows": rows, "envelope_C": C}
