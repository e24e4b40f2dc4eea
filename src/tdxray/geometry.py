"""Strictly convex domains, boundary rays, exit times and ray tracing.

A body is the ellipsoid {phi < 0}, phi(x) = sum_i (x_i / a_i)^2 - 1, of
semiaxes a along the coordinate axes about the origin.  One row-wise search,
:func:`bisect`, finds every chord length (:func:`exit_time`), boundary
point (:meth:`ConvexBody.boundary_point`) and march exit
(:func:`march_to_exit`) of a family at once.

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
Every operation acts row by row, so a ray's path, chord length or boundary
point is the same, bit for bit, whether it is found alone or in a family.
The Gaussian beams of ``tdxray.beams`` ride the same march as one-row
bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .conformal import ConformalFactor
from .errors import NoExit, TangentRay

GRAZING_TOL = 1e-8
BOUNDARY_TOL = 1e-9
# time a march may take before NoExit, in diameters at the slowest
# admissible speed sqrt(m0)
EXIT_BUDGET = 8.0
# halvings before bisect stops: a bracket [0, h] about a crossing at s
# closes to adjacent floats after about 53 + log2(h / s) of them
BISECT_CAP = 200


def bisect(inside, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, where ``inside`` turns from true to false in [lo, hi]:
    every bracket is halved together until a halving moves none of them,
    since every later one would give the same brackets, or BISECT_CAP
    halvings.  Returns the midpoints; a row's depends on its entries alone.
    """
    for _ in range(BISECT_CAP):
        mid = 0.5 * (lo + hi)
        ins = inside(mid)
        new_lo, new_hi = np.where(ins, mid, lo), np.where(ins, hi, mid)
        if (new_lo == lo).all() and (new_hi == hi).all():
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


@dataclass(eq=False)
class ConvexBody:
    """The ellipsoid {phi < 0}, phi(x) = sum((x / semiaxes)**2) - 1, about
    the origin with its axes along the coordinate axes."""

    semiaxes: np.ndarray

    @property
    def dim(self) -> int:
        return self.semiaxes.size

    @property
    def diameter(self) -> float:
        return 2.0 * float(np.max(self.semiaxes))

    @property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return -self.semiaxes, self.semiaxes

    def phi(self, x) -> np.ndarray:
        d = np.asarray(x, dtype=float) / self.semiaxes
        return np.sum(d * d, axis=-1) - 1.0

    def grad(self, x) -> np.ndarray:
        return 2.0 * np.asarray(x, dtype=float) / self.semiaxes**2

    def outward_normal(self, x) -> np.ndarray:
        g = self.grad(x)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    def boundary_point(self, direction) -> np.ndarray:
        """Where the rays r * direction from the origin leave the body, for
        directions of shape (..., n), one point per direction."""
        d = np.asarray(direction, dtype=float)
        d = d / np.sqrt(np.vecdot(d, d))[..., None]
        # phi(0) < 0 and phi(r d) > 0 at r = 1.5 diameters
        r = bisect(lambda s: self.phi(s[..., None] * d) < 0.0,
                   np.zeros(d.shape[:-1]),
                   np.full(d.shape[:-1], 1.5 * self.diameter))
        # + 0.0 turns the -0.0 of a zero coordinate into 0.0
        return r[..., None] * d + 0.0


def ball(radius: float = 1.0, dim: int = 2) -> ConvexBody:
    """The ball of the given radius about the origin."""
    return ellipsoid((radius,) * dim)


def ellipsoid(semiaxes) -> ConvexBody:
    """The axis-aligned ellipse or ellipsoid with these semiaxes about the
    origin."""
    return ConvexBody(np.asarray(semiaxes, dtype=float))


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


def _check_family(body: ConvexBody, rays: list[BoundaryRay]) -> None:
    """Validate every ray of a non-empty family; an invalid ray (TangentRay,
    ValueError) is named by its index."""
    if not rays:
        raise ValueError("ray family is empty")
    for i, ray in enumerate(rays):
        try:
            ray.validate(body)
        except (TangentRay, ValueError) as exc:
            exc.args = (f"ray index {i}: {exc}",)
            raise


def exit_time(body: ConvexBody, rays: list[BoundaryRay]) -> np.ndarray:
    """Lengths of the straight chords from each ray.x along ray.omega, one
    per ray, by one :func:`bisect` of every chord over [0, 1.5 diameters].
    The family is validated first, naming an invalid ray by its index."""
    _check_family(body, rays)
    x = np.array([ray.x for ray in rays], dtype=float)
    w = np.array([ray.omega for ray in rays], dtype=float)
    return bisect(lambda s: body.phi(x + s[:, None] * w) < 0.0,
                  np.zeros(len(rays)), np.full(len(rays), 1.5 * body.diameter))


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

    points = body.boundary_point(dirs)
    rays: list[BoundaryRay] = []
    for bx, nu in zip(points, body.outward_normal(points)):
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
    lands at phi >= 0 stops advancing, and after the march one
    :func:`bisect` of every row's crossing step together puts its last
    node on phi = 0.  The bisection steps x and p alone, along the ray
    flow, since nothing else moves x.  Every operation acts row by row, so
    a row's nodes do not depend on the other rows.  Returns one (times,
    nodes) pair per row, ``nodes`` holding that row's values of each entry
    stacked along the first axis.
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
    step = bisect(
        lambda s: body.phi(rk4_step(flow, base_t, xp, s)["x"]) < 0.0,
        np.zeros(n_rows), np.full(n_rows, dt))
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


def _chord(ray: BoundaryRay, tau: float, dt: float) -> GeodesicPath:
    """The exact straight chord of length tau, sampled at an even number of
    intervals of at most about dt (positive, ValueError) for Simpson
    users."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = max(2, int(np.ceil(tau / dt)))
    n += n % 2
    s = np.linspace(0.0, tau, n + 1)
    pts = ray.x[None, :] + s[:, None] * ray.omega[None, :]
    return GeodesicPath(s, pts, float(tau))


def trace_bundle(metric: MetricSpec, body: ConvexBody,
                 rays: list[BoundaryRay], dt: float) -> list[GeodesicPath]:
    """Trace a family of rays through the body until each exits, in the
    input order.

    A metric is first checked, and a conformal one for admissibility over
    the body (Inadmissible), once per family.  Euclidean metrics
    short-circuit to the exact straight chords, whose lengths come from one
    :func:`exit_time` of the family.  Under a conformal metric the whole
    family rides one :func:`march_to_exit` of the Hamiltonian flow from
    p = -omega, so every last sample lands on the boundary.  A path equals
    the one its ray gives when traced alone.  An invalid ray (TangentRay,
    ValueError) is named by its index, and dt must be positive
    (ValueError).  NoExit names the index and launch point of every ray
    still inside when the march's time budget runs out.
    """
    metric.validate(body)
    if metric.kind == "euclidean":
        return [_chord(ray, tau, dt)
                for ray, tau in zip(rays, exit_time(body, rays))]

    _check_family(body, rays)
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
