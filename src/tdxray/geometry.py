"""Strictly convex domains, boundary rays, exit times and ray tracing.

Domains are level sets {phi < 0} of a smooth scalar field.  Built-ins cover
balls and axis-aligned ellipses/ellipsoids in 2-D and 3-D; anything strictly
convex with a smooth phi works through the same interface.

Ray tracing follows the flow

    dx/dt = -h_p,   dp/dt = +h_x,      h(t, x, p) = sqrt(c(t, x)) |p|,

the characteristic system of the phase convention psi_t = h(t, x, grad psi).
Under this sign convention a ray that should physically enter the body along
the unit vector omega is launched with momentum p = -omega; the flow then
moves along +sqrt(c) omega.  With c == 1 the traced path is the straight
chord x + s*omega.

A family of rays is traced as one bundle: :func:`march_to_exit` steps every
ray still inside on a shared RK4 clock, with arrays that carry a leading
ray axis, and bisects all boundary crossings together after the march.
Every operation acts row by row, so a ray's path is the same, bit for bit,
whether it is traced alone or in a family.  The Gaussian beams of
``tdxray.beams`` ride the same march as one-row bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .conformal import ConformalFactor
from .errors import NoExit, TangentRay

GRAZING_TOL = 1e-8
BOUNDARY_TOL = 1e-9
# time a march may take before NoExit, in diameters at the slowest
# admissible speed sqrt(m0)
EXIT_BUDGET = 8.0


@dataclass
class ConvexBody:
    """Smooth strictly convex domain {phi < 0}."""

    level_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    bounding_box: tuple[np.ndarray, np.ndarray]
    diameter: float
    dim: int
    center: np.ndarray

    def phi(self, x) -> np.ndarray:
        return self.level_fn(np.asarray(x, dtype=float))

    def grad(self, x) -> np.ndarray:
        return self.grad_fn(np.asarray(x, dtype=float))

    def outward_normal(self, x) -> np.ndarray:
        g = self.grad(x)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    def boundary_point(self, direction: np.ndarray) -> np.ndarray:
        """Intersection of the ray center + r*direction with the boundary."""
        d = np.asarray(direction, dtype=float)
        d = d / np.linalg.norm(d)
        r_hi = 1.5 * self.diameter
        lo, hi = 0.0, r_hi
        # phi(center) < 0, phi(center + r_hi d) > 0 for strictly convex bodies
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.phi(self.center + mid * d) < 0.0:
                lo = mid
            else:
                hi = mid
        return self.center + 0.5 * (lo + hi) * d


def ball(radius: float = 1.0, dim: int = 2) -> ConvexBody:
    """The ball of the given radius about the origin."""
    c = np.zeros(dim)
    r = float(radius)

    def phi(x):
        d = np.asarray(x, dtype=float) - c
        return np.sum(d * d, axis=-1) / r**2 - 1.0

    def grad(x):
        return 2.0 * (np.asarray(x, dtype=float) - c) / r**2

    return ConvexBody(phi, grad, (c - r, c + r), 2.0 * r, dim, c)


def ellipsoid(semiaxes) -> ConvexBody:
    """The axis-aligned ellipse or ellipsoid with these semiaxes about the
    origin."""
    a = np.asarray(semiaxes, dtype=float)
    dim = a.size
    c = np.zeros(dim)

    def phi(x):
        d = (np.asarray(x, dtype=float) - c) / a
        return np.sum(d * d, axis=-1) - 1.0

    def grad(x):
        return 2.0 * (np.asarray(x, dtype=float) - c) / a**2

    return ConvexBody(phi, grad, (c - a, c + a), 2.0 * float(np.max(a)),
                      dim, c)


@dataclass
class BoundaryRay:
    """Inward-pointing unit direction anchored at a boundary point."""

    x: np.ndarray
    omega: np.ndarray
    normal: np.ndarray

    def validate(self, body: ConvexBody):
        if abs(np.linalg.norm(self.omega) - 1.0) > 1e-12:
            raise ValueError("omega is not a unit vector")
        if abs(float(body.phi(self.x))) > 100 * BOUNDARY_TOL:
            raise ValueError("anchor point is not on the boundary")
        inner = float(np.dot(self.omega, self.normal))
        if inner >= -GRAZING_TOL:
            raise TangentRay(
                f"<omega, nu> = {inner:.3e} not transversally inward")


def make_ray(body: ConvexBody, x, omega) -> BoundaryRay:
    omega = np.asarray(omega, dtype=float)
    omega = omega / np.linalg.norm(omega)
    ray = BoundaryRay(np.asarray(x, dtype=float), omega,
                      body.outward_normal(x))
    ray.validate(body)
    return ray


@dataclass
class MetricSpec:
    """Euclidean base metric, optionally rescaled by a conformal factor."""

    kind: str = "euclidean"  # "euclidean" | "conformal"
    c: ConformalFactor | None = None

    def validate(self, body: "ConvexBody") -> None:
        """Admissibility of the factor over the body's box (sampled)."""
        if self.kind not in ("euclidean", "conformal"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "conformal":
            if self.c is None:
                raise ValueError("conformal metric needs a factor")
            self.c.check_admissible(*body.bounding_box)


@dataclass
class GeodesicPath:
    times: np.ndarray
    points: np.ndarray
    exit_time: float


# ---------------------------------------------------------------- exit time


def exit_time(body: ConvexBody, ray: BoundaryRay) -> float:
    """Length of the straight chord from ray.x along ray.omega.

    Bracketed bisection to 1e-12 followed by two Newton polish steps.
    """
    ray.validate(body)
    x0, w = ray.x, ray.omega

    def phi_s(s):
        return float(body.phi(x0 + s * w))

    # Find a bracket: phi < 0 somewhere inside, phi > 0 beyond the far side.
    d = body.diameter
    probes = np.concatenate([
        d * np.array([1e-7, 1e-5, 1e-3]),
        np.linspace(0.01 * d, 1.5 * d, 192),
    ])
    vals = body.phi(x0[None, :] + probes[:, None] * w[None, :])
    neg = np.nonzero(vals < 0)[0]
    if neg.size == 0:
        raise TangentRay("no interior point found along the ray")
    pos_after = np.nonzero((vals > 0) & (probes > probes[neg[0]]))[0]
    if pos_after.size == 0:
        raise TangentRay("ray never re-crosses the boundary inside the probe range")
    hi = probes[pos_after[0]]
    lo = probes[neg[neg < pos_after[0]][-1]]  # last negative before hi

    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if phi_s(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    for _ in range(2):
        dphi = float(np.dot(body.grad(x0 + s * w), w))
        if dphi != 0.0:
            s = s - phi_s(s) / dphi
        s = min(max(s, lo - 1e-9), hi + 1e-9)
    return float(s)


# ---------------------------------------------------------------- bundles


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi_ang = np.pi * (1.0 + 5.0**0.5) * i
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi_ang), r * np.sin(phi_ang), z], axis=-1)


def perp_frame(v: np.ndarray) -> np.ndarray:
    """Rows: n - 1 unit vectors completing the unit vector v to an
    orthonormal basis (n = 2 or 3).

    In 2-D the single row is v turned a quarter counter-clockwise.
    """
    if v.size == 2:
        return np.array([[-v[1], v[0]]])
    a = np.array([1.0, 0.0, 0.0])
    if abs(v[0]) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    e1 = a - np.dot(a, v) * v
    e1 = e1 / np.linalg.norm(e1)
    return np.stack([e1, np.cross(v, e1)])


def sample_inward_bundle(body: ConvexBody, n_boundary: int,
                         n_directions: int) -> list[BoundaryRay]:
    """Quasi-uniform boundary points, inward hemisphere of directions each.

    n_directions = 1 returns exactly the inward normals.  Boundary points
    come from an angular sweep in 2-D and a spherical Fibonacci lattice in
    3-D, pushed radially from the center onto the level set.
    """
    if n_boundary < 1 or n_directions < 1:
        raise ValueError("counts must be >= 1")
    if body.dim == 2:
        angles = 2.0 * np.pi * (np.arange(n_boundary) + 0.5) / n_boundary
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    elif body.dim == 3:
        dirs = _fibonacci_sphere(n_boundary)
    else:
        raise ValueError("only dim 2 and 3 supported")

    rays: list[BoundaryRay] = []
    for d in dirs:
        bx = body.boundary_point(d)
        nu = body.outward_normal(bx)
        if n_directions == 1:
            rays.append(BoundaryRay(bx, -nu, nu))
            continue
        if body.dim == 2:
            alphas = ((np.arange(n_directions) + 0.5) / n_directions - 0.5) * np.pi
            tangent = perp_frame(nu)[0]
            for a in alphas:
                omega = -np.cos(a) * nu + np.sin(a) * tangent
                rays.append(BoundaryRay(bx, omega / np.linalg.norm(omega), nu))
        else:
            margin = max(0.05, 1.0 / (2 * n_directions))
            i = np.arange(n_directions) + 0.5
            z = margin + (1.0 - margin) * i / n_directions
            phi_ang = np.pi * (1.0 + 5.0**0.5) * i
            r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            frame = perp_frame(-nu)
            for zi, pa, ri in zip(z, phi_ang, r):
                omega = (zi * (-nu) + ri * np.cos(pa) * frame[0]
                         + ri * np.sin(pa) * frame[1])
                rays.append(BoundaryRay(bx, omega / np.linalg.norm(omega), nu))
    for r in rays:
        r.validate(body)
    return rays


# ---------------------------------------------------------------- flow


def hamiltonian_jet(c: ConformalFactor, t, x, p):
    """(c, grad_x c, sqrt(c), |p|, p/|p|, h_x, h_p) for h = sqrt(c)|p|, row
    by row: x and p have shape (N, n), t is a scalar or has shape (N,).
    The flow is (dx/dt, dp/dt) = (-h_p, h_x).

    Row dot products go through ``np.vecdot``, which takes the BLAS dot
    kernel of a single-vector product, bit for bit; an elementwise product
    and sum rounds differently where that kernel fuses multiply and add.
    """
    cv = c(t, x)
    gv = c.grad_x(t, x)
    pn = np.sqrt(np.vecdot(p, p))
    gam = np.sqrt(cv)
    pc, gc = pn[:, None], gam[:, None]
    phat = p / pc
    return cv, gv, gam, pn, phat, pc * gv / (2 * gc), gc * phat


def _ray_flow(c: ConformalFactor, t, state: dict) -> dict:
    """dx/dt = -h_p and dp/dt = h_x of the rows of state["x"], state["p"]."""
    *_, h_x, h_p = hamiltonian_jet(c, t, state["x"], state["p"])
    return {"x": -h_p, "p": h_x}


def rk4_step(rhs, t, state: dict, dt) -> dict:
    """One classical fourth-order step of every entry of the state dict;
    ``rhs(t, state)`` returns the derivatives under the same keys.  Entries
    carry a leading row axis; ``t`` and ``dt`` are scalars shared by every
    row or arrays of shape (N,), one value per row."""
    if isinstance(dt, np.ndarray):   # one step per row, over each entry
        h = {key: dt.reshape(dt.shape + (1,) * (v.ndim - 1))
             for key, v in state.items()}
    else:
        h = dict.fromkeys(state, dt)

    def add(k, div):
        return {key: state[key] + h[key] / div * k[key] for key in state}

    k1 = rhs(t, state)
    k2 = rhs(t + dt / 2, add(k1, 2))
    k3 = rhs(t + dt / 2, add(k2, 2))
    k4 = rhs(t + dt, add(k3, 1))
    return {key: state[key] + h[key] / 6 * (k1[key] + 2 * k2[key]
                                            + 2 * k3[key] + k4[key])
            for key in state}


def march_to_exit(rhs, c: ConformalFactor, body: ConvexBody, t0: float,
                  state: dict, dt: float,
                  check=None) -> list[tuple[np.ndarray, dict]]:
    """Fixed-step RK4 of a bundle of rows from (t0, state) until every
    row's state["x"] has left the body.

    Each entry of ``state`` carries a leading row axis of length N, and
    ``rhs(t, state)`` gives the derivatives of every entry; state["x"] and
    state["p"] follow the ray flow of c, whatever else the state carries.
    The rows share the step clock t0, t0 + dt, ...; a row whose full step
    lands at phi >= 0 stops advancing, and after the march one bisection
    (80 halvings) over every row's crossing step together puts its last
    node on phi = 0.  The bisection steps x and p alone, along the ray
    flow, since nothing else moves x, and stops once a halving moves no
    row's bracket, since every later one would give the same brackets.
    Every operation acts row by row, so a row's nodes do not depend on the
    other rows.  Returns one (times, nodes) pair per row, ``nodes`` holding
    that row's values of each entry stacked along the first axis.
    ``check(t, state)`` sees each full step of the rows still
    inside before the exit test and may raise.  NoExit names every row
    still inside, with its launch point, once t - t0 exceeds t_max,
    EXIT_BUDGET diameters at the slowest admissible speed sqrt(m0).
    ``dt`` must be positive (ValueError).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t_max = EXIT_BUDGET * body.diameter / np.sqrt(c.m0)
    n_rows = len(state["x"])
    live = np.arange(n_rows)
    # runs of steps taken by the same rows: (first clock index, rows, states)
    clock, runs = [t0], [(0, live, [state])]
    # the state each row crossing the boundary left from, and its time
    base = {key: np.empty_like(v) for key, v in state.items()}
    base_t = np.empty(n_rows)
    last = np.empty(n_rows, dtype=int)
    t = t0
    while True:
        cur = runs[-1][2][-1]
        nxt = rk4_step(rhs, t, cur, dt)
        if check is not None:
            check(t + dt, nxt)
        out = body.phi(nxt["x"]) >= 0.0
        if out.any():
            gone = live[out]
            base_t[gone] = t
            last[gone] = len(clock) - 1
            for key in base:
                base[key][gone] = cur[key][out]
            live = live[~out]
            if not live.size:
                break
            nxt = {key: v[~out] for key, v in nxt.items()}
            runs.append((len(clock), live, []))
        t = t + dt
        clock.append(t)
        runs[-1][2].append(nxt)
        if t - t0 > t_max:
            raise NoExit(
                f"rays {live.tolist()} of {n_rows} still inside after "
                f"t - t0 = {t - t0:.3f} (> t_max = {t_max:.3f}); launched "
                f"from x = {state['x'][live].tolist()}")

    flow, xp = partial(_ray_flow, c), {"x": base["x"], "p": base["p"]}
    lo, hi = np.zeros(n_rows), np.full(n_rows, dt)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        inside = body.phi(rk4_step(flow, base_t, xp, mid)["x"]) < 0.0
        new_lo, new_hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
        if (new_lo == lo).all() and (new_hi == hi).all():
            break
        lo, hi = new_lo, new_hi
    step = 0.5 * (lo + hi)
    final = rk4_step(rhs, base_t, base, step)

    clock = np.array(clock)
    grids = {}
    for key, v in state.items():
        grid = grids[key] = np.empty((len(clock),) + v.shape, v.dtype)
        for start, rows, states in runs:
            grid[start:start + len(states), rows] = [s[key] for s in states]
    return [(np.append(clock[:last[i] + 1], base_t[i] + step[i]),
             {key: np.concatenate([grid[:last[i] + 1, i], final[key][i:i + 1]])
              for key, grid in grids.items()})
            for i in range(n_rows)]


# ---------------------------------------------------------------- tracing


def _chord(body: ConvexBody, ray: BoundaryRay, dt: float) -> GeodesicPath:
    """The exact straight chord, sampled at an even number of intervals of
    at most about dt (positive, ValueError) for Simpson users."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    tau = exit_time(body, ray)
    n = max(2, int(np.ceil(tau / dt)))
    n += n % 2
    s = np.linspace(0.0, tau, n + 1)
    pts = ray.x[None, :] + s[:, None] * ray.omega[None, :]
    return GeodesicPath(s, pts, tau)


def trace_bundle(metric: MetricSpec, body: ConvexBody,
                 rays: list[BoundaryRay], dt: float) -> list[GeodesicPath]:
    """Trace a family of rays through the body until each exits, in the
    input order.

    Euclidean metrics short-circuit to the exact straight chords, ray by
    ray.  A conformal metric is first checked for admissibility over the
    body (Inadmissible), once per family; then the whole family rides one
    :func:`march_to_exit` of the Hamiltonian flow from p = -omega, so every
    last sample lands on the boundary.  A path equals the one its ray
    gives when traced alone.  An invalid ray (TangentRay, ValueError) is
    named by its index, and dt must be positive (ValueError).
    NoExit names the index and launch point of every ray still inside when
    the march's time budget runs out.
    """
    if not rays:
        raise ValueError("ray family is empty")
    for i, ray in enumerate(rays):
        try:
            ray.validate(body)
        except (TangentRay, ValueError) as exc:
            exc.args = (f"ray index {i}: {exc}",)
            raise
    metric.validate(body)
    if metric.kind == "euclidean":
        return [_chord(body, ray, dt) for ray in rays]

    c = metric.c
    state = {"x": np.array([ray.x for ray in rays], dtype=float),
             "p": -np.array([ray.omega for ray in rays], dtype=float)}
    return [GeodesicPath(times, nodes["x"], float(times[-1]))
            for times, nodes in march_to_exit(partial(_ray_flow, c), c,
                                              body, 0.0, state, dt)]


def geodesic_trace(metric: MetricSpec, body: ConvexBody, ray: BoundaryRay,
                   dt: float) -> GeodesicPath:
    """Trace one ray through the body until it exits: the one-ray
    :func:`trace_bundle`, so Euclidean metrics give the exact chord."""
    return trace_bundle(metric, body, [ray], dt)[0]
