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

One leapfrog march serves every caller.  It advances several factors at
once on a leading factor axis and holds three time levels; each caller
records what it needs from a level: every node (solve_dirichlet) or the
DtN stencil rows alone (dtn_traces).  It starts from rest with no source
term, and the levels before the first nonzero Dirichlet value are exactly
0, so it starts stepping at the last of these silent levels; the energy
and source checks run on the tests' unbatched scheme, which it matches
bit for bit.  The probed DtN norm samples every factor once per run, on
the mesh and on the boundary path, and marches the reference factor and
the whole family together, one march per probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conformal import ConformalFactor, bump_factor, constant_factor
from .errors import CFLViolation, IncompatibleData, Unstable
from .fields import bump_profile
from .parallel import parallel_map


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
        dI = np.repeat([0, -1, 0, 1], n)
        dJ = np.repeat([1, 0, -1, 0], n)
        # flat node indices of each path node and its two inward neighbours
        self.stencil = np.stack([(self.bI + j * dI) * self.nx + self.bJ
                                 + j * dJ for j in range(3)])
        self.corner = np.isin(self.bI, (0, n)) & np.isin(self.bJ, (0, n))

    def check_cfl(self, c_max: float) -> float:
        """The CFL margin k / limit for the leapfrog limit
        h / sqrt(n max c), n = 2; CFLViolation unless k is within it."""
        limit = self.h / np.sqrt(2 * c_max)
        if self.k > limit * (1 + 1e-12):
            raise CFLViolation(
                f"k = {self.k:.3e} exceeds h/sqrt(n max c) = {limit:.3e}")
        return float(self.k / limit)

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
    name: str

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
    of the unit square (perimeter 4), cos1, sin1, cos2, sin2, ..."""
    w = time_window(T)

    def probe(trig, m):
        k_ang = 2.0 * np.pi * m / 4.0
        return BoundaryData(lambda t, s: w(t) * trig(k_ang * s),
                            name=f"{trig.__name__}{m}")

    return [probe((np.cos, np.sin)[i % 2], i // 2 + 1) for i in range(count)]


# ---------------------------------------------------------------- solver


@dataclass
class WaveSolution:
    grid: WaveGrid
    u: np.ndarray            # (nt, nx, nx)

    def dt_interior(self) -> np.ndarray:
        """Centred time derivative on interior time levels (nt-2, nx, nx)."""
        return (self.u[2:] - self.u[:-2]) / (2.0 * self.grid.k)


def sample_factor(c: ConformalFactor, grid: WaveGrid,
                  points: np.ndarray) -> np.ndarray:
    """c at every time level on fixed points (..., 2): shape (nt, ...).

    A time-independent factor is evaluated once and broadcast; a
    time-dependent one is evaluated one time level at a time.  Either way
    the sample is read-only, so one sample can serve every probe thread.
    """
    shape = points.shape[:-1]
    if not c.time_dependent:
        return np.broadcast_to(c(np.zeros(shape), points), (grid.nt,) + shape)
    levels = np.stack([c(np.full(shape, t), points) for t in grid.times])
    levels.flags.writeable = False
    return levels


def _mesh_levels(factors: list[ConformalFactor], grid: WaveGrid):
    """c of every factor on the mesh, stacked on a leading factor axis: a
    function of the time level m giving (F, nx, nx), and each factor's
    CFL margin (CFLViolation past the limit).

    Without a time-dependent factor the stack is built once.
    """
    mesh = grid.mesh()
    samples = [sample_factor(c, grid, mesh) for c in factors]
    # a time-independent sample broadcasts its first level
    margins = [grid.check_cfl(float(np.max(s if c.time_dependent else s[0])))
               for c, s in zip(factors, samples)]
    if not any(c.time_dependent for c in factors):
        fixed = np.stack([s[0] for s in samples])
        return (lambda m: fixed), margins
    return (lambda m: np.stack([s[m] for s in samples])), margins


def _march(c_at: Callable[[int], np.ndarray], grid: WaveGrid,
           bvals: np.ndarray, record: Callable) -> None:
    """Leapfrog for c u_tt = Lap u from zero initial data with Dirichlet
    values bvals (nt, n_boundary), one solution per factor on a leading
    axis, all marched together in three rotating level buffers; c_at(m)
    is every factor's c on the mesh at time level m, (F, nx, nx).

    record(m, u) receives time level m as an (F, nx, nx) buffer that later
    steps overwrite.  Every level before first, the first level with a
    nonzero Dirichlet value, is exactly 0.  From first >= 2 these levels
    are not recorded, so a caller's store of them starts at 0, and the
    march steps from level first - 1, which gives the full march's values
    up to signs of zero; otherwise the first step is the Taylor expansion
    u^1 = u^0 + (k^2/2) Lap u^0 / c.  Unstable is raised at the first
    level past 1e8 (1 + max|bvals|), NaN and inf included.
    """
    nt, nx, h, k = grid.nt, grid.nx, grid.h, grid.k
    F, size = len(c_at(0)), grid.nx**2
    edge = grid.stencil[0]
    # levels are flat per factor, so the five-point stencil reads shifted
    # contiguous runs; the run span holds every interior node and the
    # frame nodes between rows, whose values the boundary data overwrite
    lo, hi = nx + 1, size - nx - 1
    span = np.s_[:, lo:hi]
    prev, cur, nxt = (np.zeros((F, size)) for _ in range(3))
    acc, tmp = np.empty((F, hi - lo)), np.empty((F, hi - lo))

    def accel(u, m, scale):
        """scale Lap u / c^m over the span, into acc; the operation order
        of the unbatched scheme, element by element."""
        np.add(u[:, lo + nx:hi + nx], u[:, lo - nx:hi - nx], out=acc)
        np.add(acc, u[:, lo + 1:hi + 1], out=acc)
        np.add(acc, u[:, lo - 1:hi - 1], out=acc)
        np.multiply(u[span], 4.0, out=tmp)
        np.subtract(acc, tmp, out=acc)
        np.divide(acc, h**2, out=acc)
        np.multiply(acc, scale, out=acc)
        np.divide(acc, c_at(m).reshape(F, size)[span], out=acc)
        return acc

    live = np.any(bvals != 0, axis=1)
    first = int(np.argmax(live)) if live.any() else nt
    if first < 2:
        prev[:, edge] = bvals[0]
        record(0, prev.reshape(F, nx, nx))
        cur[:] = prev
        np.add(cur[span], accel(prev, 0, 0.5 * k**2), out=cur[span])
        cur[:, edge] = bvals[1]
        record(1, cur.reshape(F, nx, nx))

    bound = 1e8 * (1.0 + np.max(np.abs(bvals)))
    for m in range(max(first - 1, 1), nt - 1):
        a = accel(cur, m, k**2)
        np.multiply(cur[span], 2.0, out=nxt[span])
        np.subtract(nxt[span], prev[span], out=nxt[span])
        np.add(nxt[span], a, out=nxt[span])
        nxt[:, edge] = bvals[m + 1]
        # prev is dead once nxt is built; np.max propagates NaN, which
        # fails the comparison
        if not np.max(np.abs(nxt, out=prev)) <= bound:
            raise Unstable(f"solution blew up at step {m + 1}")
        record(m + 1, nxt.reshape(F, nx, nx))
        prev, cur, nxt = cur, nxt, prev


def solve_dirichlet(c: ConformalFactor, grid: WaveGrid,
                    data: BoundaryData) -> WaveSolution:
    """Leapfrog solution of c u_tt = Lap u from zero initial data with
    Dirichlet data, every time level stored."""
    u = np.zeros((grid.nt, grid.nx, grid.nx))

    def keep(m, level):
        u[m] = level[0]

    _march(_mesh_levels([c], grid)[0], grid, data.sample(grid), keep)
    return WaveSolution(grid, u)


# ---------------------------------------------------------------- norms


def _trapz(grid: WaveGrid, vals: np.ndarray, cell: float) -> float:
    """Trapezoid in time at step grid.k, lumped mass of the given cell in
    space: sum_m w_m sum vals[m] k cell, w = 1/2 at the first and last of
    the len(vals) levels (once when they are one).  vals is weighted in
    place."""
    vals[[0, -1]] *= 0.5
    return float(np.sum(vals) * grid.k * cell)


def h1_boundary_norm(grid: WaveGrid, bvals: np.ndarray) -> float:
    """Discrete H^1 norm of boundary data: trapezoid in time, lumped mass
    along the closed path, value + time-derivative + arc-derivative."""
    k, h = grid.k, grid.h
    dt = np.gradient(bvals, k, axis=0)
    ds = (np.roll(bvals, -1, axis=1) - np.roll(bvals, 1, axis=1)) / (2 * h)
    return float(np.sqrt(_trapz(grid, bvals**2 + dt**2 + ds**2, h)))


def l2_boundary_norm(grid: WaveGrid, bvals: np.ndarray,
                     mask: np.ndarray) -> float:
    """Discrete L^2 norm of boundary data off the masked path nodes:
    trapezoid in time, lumped mass along the path."""
    return float(np.sqrt(_trapz(grid, bvals[:, ~mask] ** 2, grid.h)))


# ---------------------------------------------------------------- DtN


def _conormal(grid: WaveGrid, u: np.ndarray) -> np.ndarray:
    """Outward du/dnu on the boundary path from the one-sided three-point
    second-order stencil along the inward axis, over the last two axes of
    u: (..., nx, nx) -> (..., n_boundary)."""
    rows = u.reshape(u.shape[:-2] + (-1,))[..., grid.stencil]
    return -(-3.0 * rows[..., 0, :] + 4.0 * rows[..., 1, :]
             - rows[..., 2, :]) / (2 * grid.h)


def _edge_levels(factors: list[ConformalFactor],
                 grid: WaveGrid) -> list[np.ndarray]:
    """c of every factor at every time level on the boundary path, each
    (nt, n_boundary)."""
    points = grid.mesh()[grid.bI, grid.bJ]
    return [sample_factor(c, grid, points) for c in factors]


def _scale_trace(c_edge: np.ndarray, grid: WaveGrid,
                 dn: np.ndarray) -> np.ndarray:
    """The conormal trace c du/dnu from du/dnu (nt, n_boundary), in place:
    scaled by c_edge, c at every time level on the boundary path, corners
    NaN."""
    np.multiply(c_edge, dn, out=dn)
    dn[:, grid.corner] = np.nan
    return dn


def _traces(c_at: Callable, c_edge: list[np.ndarray], grid: WaveGrid,
            bvals: np.ndarray) -> np.ndarray:
    """Conormal traces (F, nt, n_boundary) of the factors sampled as c_at
    on the mesh and c_edge on the boundary path, with Dirichlet values
    bvals; only the stencil rows of each level are recorded, so three
    time levels are held."""
    dn = np.zeros((len(c_edge), grid.nt, grid.bI.size))

    def keep(m, level):
        dn[:, m] = _conormal(grid, level)

    _march(c_at, grid, bvals, keep)
    for c, trace in zip(c_edge, dn):
        _scale_trace(c, grid, trace)
    return dn


def dtn_traces(factors: list[ConformalFactor], grid: WaveGrid,
               bvals: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Conormal traces c du/dnu (corners NaN) of every factor's solution
    with Dirichlet values bvals (nt, n_boundary): (F, nt, n_boundary),
    and each factor's CFL margin.  The factors are marched together."""
    c_at, margins = _mesh_levels(factors, grid)
    return _traces(c_at, _edge_levels(factors, grid), grid, bvals), margins


def dtn_apply(c: ConformalFactor, grid: WaveGrid, data: BoundaryData,
              sol: WaveSolution | None = None) -> np.ndarray:
    """Conormal trace c * du/dnu on the boundary path (corners NaN), from
    the stored solution sol when given."""
    if sol is None:
        return dtn_traces([c], grid, data.sample(grid))[0][0]
    return _scale_trace(_edge_levels([c], grid)[0], grid,
                        _conormal(grid, sol.u))


def dtn_norm_diff(c1: ConformalFactor, family: list[ConformalFactor],
                  grid: WaveGrid, probes: list[BoundaryData]) -> list[dict]:
    """Probed lower bounds of the H^1_0 -> L^2 norms of Lam_c1 - Lam_c, one
    per c in family, with the per-probe ratios and the CFL margin of c.

    Every factor is sampled once per run, on the mesh and on the boundary
    path (CFLViolation past the limit), and the probes, run through
    parallel_map, read those samples.  Each probe marches c1 and the whole
    family together.  Each probe must vanish to first order at t = 0
    (zero-initial-data compatibility) and have a nonzero H^1 norm on the
    grid; violations raise IncompatibleData.
    """
    if not probes:
        raise ValueError("need at least one probe")
    factors = [c1, *family]
    c_at, margins = _mesh_levels(factors, grid)
    c_edge = _edge_levels(factors, grid)

    def probe_ratios(probe):
        bvals = probe.sample(grid)
        if np.max(np.abs(bvals[0])) > 1e-12 or \
                np.max(np.abs(bvals[1] - bvals[0])) / grid.k > 1e-6:
            raise IncompatibleData(
                f"boundary input {probe.name} must vanish to first order "
                f"at t = 0 (time step k = {grid.k:.3g})")
        den = h1_boundary_norm(grid, bvals)
        if den == 0.0:
            raise IncompatibleData(
                f"boundary input {probe.name} samples to 0 on this grid "
                f"(T = {grid.T:.3g}), so its H^1 norm is 0")
        lam = _traces(c_at, c_edge, grid, bvals)
        return [l2_boundary_norm(grid, np.nan_to_num(lam[0] - trace),
                                 grid.corner) / den
                for trace in lam[1:]]

    ratios = parallel_map(probe_ratios, probes)
    # per-probe rows, transposed to one row per family member
    return [{"norm_lower_bound": max(r), "ratios": list(r),
             "cfl_margin": margin}
            for r, margin in zip(zip(*ratios), margins[1:])]


# ---------------------------------------------------------------- identity


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
    g = constant_factor(1.0, dim=c.dim, T=c.T)
    sol1 = solve_dirichlet(g, grid, f1)
    lam_g = dtn_apply(g, grid, f1, sol=sol1)
    lam_cg = dtn_apply(c, grid, f1)

    # backward conformal solve via time reversal
    T = grid.T

    def rev_func(t, s):
        return f2.func(T - np.asarray(t, dtype=float), s)

    sol2_rev = solve_dirichlet(c, grid, BoundaryData(rev_func, "rev"))

    corner = grid.corner
    f2_vals = f2.sample(grid)
    diff = np.nan_to_num(lam_g - lam_cg)[:, ~corner]
    lhs = _trapz(grid, diff * f2_vals[:, ~corner], grid.h)

    c_grid = sample_factor(c, grid, grid.mesh())
    du1 = sol1.dt_interior()
    # u2(t) = u2_rev(T - t), so its centred time derivative is the
    # reversed one of u2_rev with the sign flipped
    du2 = -sol2_rev.dt_interior()[::-1]
    # on the square (n = 2) rho1 = c^(n/2) - 1 is c - 1, and the gradient
    # pairing's weight rho2 = c^(n/2 - 1) - 1 is 0
    pairing = np.sum((c_grid[1:-1] - 1.0) * du1 * du2, axis=(1, 2))
    rhs = _trapz(grid, pairing, grid.h**2)
    gap = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)
    return {"lhs": lhs, "rhs": rhs, "relative_gap": gap}


# ---------------------------------------------------------------- stability


def conformal_stability_experiment(scales, grid: WaveGrid, probe_count: int,
                                   bump_center, bump_width: float) -> dict:
    """Rows (|1 - c_s|_L2, probed DtN norm, envelope) for c_s = 1 + s bump.

    The envelope constant is the smallest C with |1 - c_s| <=
    C / log(1 / norm) across all rows (fit-then-assert protocol).
    """
    T = grid.T
    family = [bump_factor(s, bump_center, bump_width, T=T, name=f"bump{s:g}")
              for s in scales]
    mesh = grid.mesh()

    def c_dist(cs):
        # one (nt, nx, nx) array, squared and weighted in place, and none
        # held through the marches
        vals = 1.0 - sample_factor(cs, grid, mesh)
        np.square(vals, out=vals)
        return float(np.sqrt(_trapz(grid, vals, grid.h**2)))

    dists = [c_dist(cs) for cs in family]
    probes = boundary_probes(probe_count, T)
    norms = dtn_norm_diff(constant_factor(1.0, T=T), family, grid, probes)
    rows = []
    for s, l2, norm in zip(scales, dists, norms):
        dtn = norm["norm_lower_bound"]
        rows.append({"scale": float(s), "c_dist_l2": l2, "dtn_norm": dtn,
                     "ratios": dict(zip((p.name for p in probes),
                                        norm["ratios"])),
                     "cfl_margin": norm["cfl_margin"],
                     # a vanishing DtN difference carries no log-scale
                     # information, and its row is left out of the fit
                     "log_inv_norm": (float(np.log(1.0 / dtn)) if dtn > 1e-14
                                      else float("inf"))})
    C = max((r["c_dist_l2"] * r["log_inv_norm"] for r in rows
             if np.isfinite(r["log_inv_norm"])), default=float("nan"))
    for r in rows:
        r["envelope"] = (C / r["log_inv_norm"]
                         if np.isfinite(r["log_inv_norm"]) else 0.0)
    return {"rows": rows, "envelope_C": C}
