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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conformal import ConformalFactor
from .errors import NoExit, TangentRay

GRAZING_TOL = 1e-8
BOUNDARY_TOL = 1e-9


@dataclass
class ConvexBody:
    """Smooth strictly convex domain {phi < 0}."""

    level_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    bounding_box: tuple[np.ndarray, np.ndarray]
    diameter: float
    dim: int
    center: np.ndarray
    boundary_tol: float = BOUNDARY_TOL
    name: str = "body"

    def phi(self, x) -> np.ndarray:
        return self.level_fn(np.asarray(x, dtype=float))

    def grad(self, x) -> np.ndarray:
        return self.grad_fn(np.asarray(x, dtype=float))

    def outward_normal(self, x) -> np.ndarray:
        g = self.grad(x)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    def contains(self, x, margin: float = 0.0) -> np.ndarray:
        return self.phi(x) < -margin

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


def ball(radius: float = 1.0, dim: int = 2, center=None) -> ConvexBody:
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    r = float(radius)

    def phi(x):
        d = np.asarray(x, dtype=float) - c
        return np.sum(d * d, axis=-1) / r**2 - 1.0

    def grad(x):
        return 2.0 * (np.asarray(x, dtype=float) - c) / r**2

    return ConvexBody(phi, grad, (c - r, c + r), 2.0 * r, dim, c,
                      name=f"ball{dim}d")


def ellipsoid(semiaxes, center=None) -> ConvexBody:
    a = np.asarray(semiaxes, dtype=float)
    dim = a.size
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def phi(x):
        d = (np.asarray(x, dtype=float) - c) / a
        return np.sum(d * d, axis=-1) - 1.0

    def grad(x):
        return 2.0 * (np.asarray(x, dtype=float) - c) / a**2

    return ConvexBody(phi, grad, (c - a, c + a), 2.0 * float(np.max(a)),
                      dim, c, name=f"ellipsoid{dim}d")


@dataclass
class BoundaryRay:
    """Inward-pointing unit direction anchored at a boundary point."""

    x: np.ndarray
    omega: np.ndarray
    normal: np.ndarray

    def validate(self, body: ConvexBody, grazing_tol: float = GRAZING_TOL):
        if abs(np.linalg.norm(self.omega) - 1.0) > 1e-12:
            raise ValueError("omega is not a unit vector")
        if abs(float(body.phi(self.x))) > 100 * body.boundary_tol:
            raise ValueError("anchor point is not on the boundary")
        inner = float(np.dot(self.omega, self.normal))
        if inner >= -grazing_tol:
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
        if self.kind == "conformal":
            if self.c is None:
                raise ValueError("conformal metric needs a factor")
            self.c.check_admissible(*body.bounding_box)


@dataclass
class GeodesicPath:
    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    exit_time: float


# ---------------------------------------------------------------- exit time


def exit_time(body: ConvexBody, ray: BoundaryRay,
              grazing_tol: float = GRAZING_TOL) -> float:
    """Length of the straight chord from ray.x along ray.omega.

    Bracketed bisection to 1e-12 followed by two Newton polish steps.
    """
    ray.validate(body, grazing_tol)
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


def hamiltonian_jet(c: ConformalFactor, t: float, x, p):
    """(c, grad_x c, sqrt(c), |p|, p/|p|, h_x, h_p) for h = sqrt(c)|p| at
    one phase-space point; the flow is (dx/dt, dp/dt) = (-h_p, h_x)."""
    xb = x[None, :]
    cv = float(c(t, xb)[0])
    gv = c.grad_x(t, xb)[0]
    pn = float(np.linalg.norm(p))
    gam = np.sqrt(cv)
    phat = p / pn
    return cv, gv, gam, pn, phat, pn * gv / (2 * gam), gam * phat


def rk4_step(rhs, t: float, state: dict, dt: float) -> dict:
    """One classical fourth-order step of every entry of the state dict;
    ``rhs(t, state)`` returns the derivatives under the same keys."""
    def add(s, k, fac):
        return {key: s[key] + fac * k[key] for key in s}

    k1 = rhs(t, state)
    k2 = rhs(t + dt / 2, add(state, k1, dt / 2))
    k3 = rhs(t + dt / 2, add(state, k2, dt / 2))
    k4 = rhs(t + dt, add(state, k3, dt))
    return {key: state[key] + dt / 6 * (k1[key] + 2 * k2[key] + 2 * k3[key]
                                        + k4[key]) for key in state}


def march_to_exit(rhs, c: ConformalFactor, body: ConvexBody, t0: float,
                  state: dict, dt: float, t_max: float | None = None,
                  check=None) -> tuple[list, list]:
    """Node times and states of fixed-step RK4 from (t0, state) until
    state["x"] leaves the body, the crossing step bisected (80 halvings)
    onto phi = 0.  ``check(t, state)`` sees each full step before its exit
    test and may raise.  NoExit once t - t0 exceeds ``t_max`` (default 8
    diameters at the slowest admissible speed sqrt(m0)).
    """
    if t_max is None:
        t_max = 8.0 * body.diameter / np.sqrt(c.m0)
    t = t0
    times, states = [t], [state]
    while True:
        nxt = rk4_step(rhs, t, state, dt)
        if check is not None:
            check(t + dt, nxt)
        if float(body.phi(nxt["x"])) >= 0.0:
            lo, hi = 0.0, dt
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if float(body.phi(rk4_step(rhs, t, state, mid)["x"])) < 0.0:
                    lo = mid
                else:
                    hi = mid
            step = 0.5 * (lo + hi)
            times.append(t + step)
            states.append(rk4_step(rhs, t, state, step))
            return times, states
        t, state = t + dt, nxt
        times.append(t)
        states.append(state)
        if t - t0 > t_max:
            raise NoExit(
                f"path from x={states[0]['x']} still inside after "
                f"t - t0 = {t - t0:.3f} (> t_max = {t_max:.3f})")


# ---------------------------------------------------------------- tracing


def geodesic_trace(metric: MetricSpec, body: ConvexBody, ray: BoundaryRay,
                   dt: float, t_max: float | None = None) -> GeodesicPath:
    """Trace the ray through the body until it exits.

    Euclidean metrics short-circuit to the exact straight chord.  Conformal
    metrics integrate the Hamiltonian flow from p = -omega with
    :func:`march_to_exit`, which the Gaussian beams ride too, so the last
    sample lands on the boundary; velocities -h_p follow from the
    integrated momenta.  ``t_max`` overrides the default time budget.
    """
    ray.validate(body)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if metric.kind == "euclidean" or metric.c is None:
        tau = exit_time(body, ray)
        n = max(2, int(np.ceil(tau / dt)))
        n += n % 2  # even interval count for Simpson users
        s = np.linspace(0.0, tau, n + 1)
        pts = ray.x[None, :] + s[:, None] * ray.omega[None, :]
        vel = np.broadcast_to(ray.omega, pts.shape).copy()
        return GeodesicPath(s, pts, vel, tau)

    c = metric.c

    def rhs(t, s):
        *_, h_x, h_p = hamiltonian_jet(c, t, s["x"], s["p"])
        return {"x": -h_p, "p": h_x}

    times, states = march_to_exit(rhs, c, body, 0.0,
                                  {"x": ray.x, "p": -ray.omega},
                                  dt, t_max)
    times = np.array(times)
    points = np.array([s["x"] for s in states])
    p = np.array([s["p"] for s in states])
    speed = np.sqrt(c(times, points))
    vel = -speed[:, None] * p / np.linalg.norm(p, axis=1, keepdims=True)
    return GeodesicPath(times, points, vel, float(times[-1]))
