"""Zeroth-order Gaussian beams for the conformal wave operator.

Beam phase convention: psi_t = h(t, x, grad psi) with
h(t, x, p) = sqrt(c(t, x) g^{kl} p_k p_l), g Euclidean.  The beam rides the
characteristic flow

    dx/dt = -h_p,   dp/dt = +h_x,

launched from a boundary ray (x0, omega0) with momentum p(t0) chosen so
that grad psi(t0, x0) = -omega0 and psi_t(t0, x0) = 1 (the two coincide
when c = 1 at the launch point).  The phase is quadratic transverse to the
curve, psi = <p, dx> + <M dx, dx>/2, with M = N Y^{-1} propagated
through the variational system of the flow (Y(0) = I, N(0) = M(0)); the
leading amplitude solves the transport equation along the curve.

The wave operator consistent with this phase convention scales the inverse
metric:  Box u = d_t^2 u - c^{n/2} div(c^{1-n/2} grad u), whose principal
part is c |xi|^2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .conformal import ConformalFactor
from .errors import CausticDetected, QuadratureNotConverged, StencilUnderResolved
from .geometry import (BoundaryRay, ConvexBody, hamiltonian_jet,
                       march_to_exit, rk4_step)


# the concentration lemma's cutoff scale in (0, 1), cutoff exponent > 1
# and concentration exponent in (0, 1/2)
EPS1 = 0.01
ALPHA = 1.5
SIGMA = 0.1


def tube_radii(n: int) -> tuple[float, float]:
    """Inner and outer radius of the cutoff tube in n dimensions:
    eps1^(1/(2 n alpha)) and 2^(1/n) times it."""
    inner = float(EPS1 ** (1.0 / (2 * n * ALPHA)))
    return inner, float(2.0 ** (1.0 / n) * inner)


# ---------------------------------------------------------------- h derivatives


def _h_derivs(c: ConformalFactor, eye: np.ndarray, t, x: np.ndarray,
              p: np.ndarray):
    """c, grad_x c and 2h, h_x, h_p, h_xx, h_px, h_pp, dh/dt row by row:
    x and p have shape (N, n), t is a scalar or has shape (N,), and
    ``eye`` is the n x n identity.  dh/dt is 0.0 for a time-independent
    factor, whose time derivative is not evaluated."""
    cv, gv, gam, pn, phat, h_x, h_p = hamiltonian_jet(c, t, x, p)
    g2 = 2 * gam
    g3, p3, g23 = gam[:, None, None], pn[:, None, None], g2[:, None, None]
    p_col, g_row = phat[:, :, None], gv[:, None, :]
    h_pp = g3 * (eye - p_col * phat[:, None, :]) / p3
    h_px = p_col * g_row / g23                       # d^2 h / dp_i dx_j
    h_xx = p3 * (c.hess_x(t, x) / g23
                 - gv[:, :, None] * g_row / (2 * g23 * cv[:, None, None]))
    h_t = pn * c.dt(t, x) / g2 if c.time_dependent else 0.0
    return cv, gv, g2 * pn, h_x, h_p, h_xx, h_px, h_pp, h_t


def _beam_rhs(c: ConformalFactor, eye: np.ndarray, t, state: dict):
    x, p, Y, N, a0 = (state["x"], state["p"], state["Y"], state["N"],
                      state["a0"])
    cv, gv, h2, h_x, h_p, h_xx, h_px, h_pp, h_t = _h_derivs(c, eye, t, x, p)
    M = N @ np.linalg.inv(Y)
    psi_tt = h_t + np.vecdot(h_x, h_p) + np.vecdot(h_p, np.matvec(M, h_p))
    lap_psi = (cv * M.trace(axis1=1, axis2=2)
               + (1 - len(eye) / 2) * np.vecdot(gv, p))
    return {
        "x": -h_p,
        "p": h_x,
        "Y": -(h_px @ Y + h_pp @ N),
        "N": h_xx @ Y + h_px.mT @ N,
        "a0": (lap_psi - psi_tt) / h2 * a0,      # -(box psi) / (2h) * a0
    }


# ---------------------------------------------------------------- beam curve


@dataclass
class BeamCurve:
    c: ConformalFactor
    dim: int
    t0: float
    dt: float
    times: np.ndarray
    xtilde: np.ndarray          # (nt, n)
    omega: np.ndarray           # momentum = grad psi on the curve, (nt, n)
    Y: np.ndarray               # (nt, n, n) complex
    N: np.ndarray               # (nt, n, n) complex
    a0: np.ndarray              # (nt,) complex

    @property
    def t_exit(self) -> float:
        return float(self.times[-1])

    def min_eig_imag_M(self) -> np.ndarray:
        return np.linalg.eigvalsh(
            (self.N @ np.linalg.inv(self.Y)).imag).min(axis=-1)

    def state_at(self, t: float) -> dict:
        """Beam state at arbitrary t inside the range.

        One fractional integrator step from the nearest stored node keeps
        the map t -> state smooth, so finite-difference stencils in t see
        a C-infinity field rather than interpolation kinks.
        """
        t = float(t)
        k = int(np.clip(np.floor((t - self.t0) / self.dt), 0,
                        len(self.times) - 1))
        base = {"x": self.xtilde[k:k + 1], "p": self.omega[k:k + 1],
                "Y": self.Y[k:k + 1], "N": self.N[k:k + 1],
                "a0": self.a0[k:k + 1]}
        step = t - self.times[k]
        if step != 0.0:
            base = rk4_step(partial(_beam_rhs, self.c, np.eye(self.dim)),
                            self.times[k], base, step)
        M = base["N"][0] @ np.linalg.inv(base["Y"][0])
        return {"x": base["x"][0], "p": base["p"][0], "M": M,
                "a0": base["a0"][0]}

    def write_csv(self, path) -> None:
        det = np.linalg.det(self.Y)
        eig = self.min_eig_imag_M()
        n = self.dim
        header = (["t"] + [f"xtilde{i+1}" for i in range(n)]
                  + [f"omega{i+1}" for i in range(n)]
                  + ["a0_re", "a0_im", "min_eig_ImM", "detY_re", "detY_im"])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for k, t in enumerate(self.times):
                row = [repr(float(t))]
                row += [repr(float(v)) for v in self.xtilde[k]]
                row += [repr(float(v)) for v in self.omega[k]]
                row += [repr(float(self.a0[k].real)),
                        repr(float(self.a0[k].imag)),
                        repr(float(eig[k])), repr(float(det[k].real)),
                        repr(float(det[k].imag))]
                w.writerow(row)


def build_beam(c: ConformalFactor, body: ConvexBody, ray: BoundaryRay,
               t0: float = 0.0, dt: float = 2e-3) -> BeamCurve:
    """Integrate the beam system from a boundary ray until exit.

    The factor must be admissible over the body's box (Inadmissible).
    Normalisation at (t0, x0): a0 = 1, grad psi = -omega0 / sqrt(c), so
    psi_t = 1 exactly; with c = 1 near the boundary this is the inward
    unit momentum.  Initial phase Hessian M(0) = i I.  The state
    (x, p, Y, N, a0) rides geometry's :func:`march_to_exit`, the
    integrator the rays use, as a one-row bundle, with its time budget
    (NoExit) and a per-step caustic guard raising CausticDetected where
    |det Y| < 1e-10.
    """
    ray.validate(body)
    c.check_admissible(*body.bounding_box)
    n = body.dim
    c0 = float(c(t0, ray.x[None, :])[0])
    state = {
        "x": ray.x[None, :].astype(float),
        "p": -ray.omega[None, :] / np.sqrt(c0),
        "Y": np.eye(n, dtype=complex)[None],
        "N": 1j * np.eye(n, dtype=complex)[None],
        "a0": np.ones(1, dtype=complex),
    }

    def caustic_guard(t, s):
        if (np.abs(np.linalg.det(s["Y"])) < 1e-10).any():
            raise CausticDetected(f"det Y ~ 0 at t = {t:.4f}")

    [(times, nodes)] = march_to_exit(partial(_beam_rhs, c, np.eye(n)), c,
                                     body, t0, state, dt,
                                     check=caustic_guard)
    return BeamCurve(c=c, dim=n, t0=t0, dt=dt, times=times,
                     xtilde=nodes["x"], omega=nodes["p"], Y=nodes["Y"],
                     N=nodes["N"], a0=nodes["a0"])


# ---------------------------------------------------------------- evaluation


def beam_evaluate(lam: float, state: dict, x: np.ndarray) -> np.ndarray:
    """U(t, x) = (lam/pi)^(n/4) exp(i lam psi) a0 with quadratic psi, at
    the beam state of time t (beam.state_at(t)).

    Vectorised over x with shape (..., n).
    """
    return ((lam / np.pi) ** (state["x"].size / 4)
            * np.exp(1j * lam * beam_psi(state, x)) * state["a0"])


def beam_psi(state: dict, x: np.ndarray) -> np.ndarray:
    """psi = <p, d> + <M d, d>/2, d = x - xtilde, at the beam state
    (beam.state_at(t)); vectorised over x with shape (..., n)."""
    d = np.asarray(x, dtype=float) - state["x"]
    return (d @ state["p"]
            + 0.5 * np.einsum("...i,ij,...j->...", d, state["M"], d))


def wave_operator_fd(beam: BeamCurve, lam: float, t: float,
                     xs: np.ndarray, h_fd: float) -> np.ndarray:
    """Box U = d_t^2 U - c^{n/2} div(c^{1-n/2} grad U) at probe points.

    Fourth-order centred stencils in every variable; symbolic-free, so the
    test exercises the evaluated field itself.  At n = 2 the operator
    reduces to d_t^2 U - c (Lap U).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = beam.dim
    lam_states = {dt_off: beam.state_at(t + dt_off * h_fd)
                  for dt_off in (-2, -1, 0, 1, 2)}

    def U_t(dt_off, pts):
        return beam_evaluate(lam, lam_states[dt_off], pts)

    w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0

    utt = sum(w * U_t(o, xs) for w, o in zip(w2, (-2, -1, 0, 1, 2))) / h_fd**2

    lap = np.zeros(xs.shape[0], dtype=complex)
    grad = np.zeros((xs.shape[0], n), dtype=complex)
    for a in range(n):
        e = np.zeros(n)
        e[a] = h_fd
        stack = [U_t(0, xs + k * e) for k in (-2, -1, 0, 1, 2)]
        lap += sum(w * s for w, s in zip(w2, stack)) / h_fd**2
        grad[:, a] = sum(w * s for w, s in zip(w1, stack)) / h_fd

    cv = beam.c(np.full(xs.shape[0], t), xs)
    gv = beam.c.grad_x(np.full(xs.shape[0], t), xs)
    div_term = cv * lap + (1 - n / 2) * np.einsum("...i,...i->...", gv, grad)
    return utt - div_term


def _patch(center, half_width: float, points: int):
    """A mesh of points nodes per axis over the cube of that half width
    about center, shape (points,) * n + (n,), and its cell volume."""
    axes = [np.linspace(x - half_width, x + half_width, points)
            for x in center]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return mesh, np.prod([ax[1] - ax[0] for ax in axes])


def _residual_l2_at(beam: BeamCurve, lam: float, t: float, h_fd: float,
                    body: ConvexBody) -> float:
    """Spatial L2 norm of Box U(t, .) over the Gaussian core inside the body.

    The patch covers 3.5 envelope widths on a 36-point grid per axis;
    beyond that the integrand is exponentially negligible at every lambda
    in use.
    """
    st = beam.state_at(t)
    m = max(np.min(np.linalg.eigvalsh(st["M"].imag)), 1e-6)
    mesh, cell = _patch(st["x"], 3.5 / np.sqrt(lam * m), 36)
    pts = mesh.reshape(-1, beam.dim)
    vals = wave_operator_fd(beam, lam, t, pts[body.phi(pts) < 0.0], h_fd)
    return float(np.sqrt(np.sum(np.abs(vals) ** 2) * cell))


# the residual's stencil step, in units of lam^(-3/2)
STENCIL_SCALE = 0.5


def residual_scaling(beam: BeamCurve, body: ConvexBody, lambdas) -> dict:
    """Size of Box U_lam per lambda over the tube of a built beam, and the
    log-log slope of a least-squares fit.

    The beam is used as given (its factor, launch time t0 and step dt);
    the probe times span its own [t0, t_exit].  ``body`` is the domain it
    was built in, which clips the L2 patch.

    The size is sup_t of the spatial L2 norm over the Gaussian core, the
    quantity the energy estimates consume; its exponent is n/4 at n = 2
    for this construction.  (The pointwise sup carries an extra
    sqrt(lambda) from the cubic eikonal and linear transport remainders of
    a quadratic-phase, curve-constant-amplitude beam.)  It is measured
    with symbolic-free finite differences.

    The stencil step is STENCIL_SCALE lam^(-3/2): the phase oscillates at
    scale 1/lam inside a Gaussian envelope of width 1/sqrt(lam), and a
    lam^(-1/2)-sized step cannot resolve it (halving such a step fails
    the stencil-convergence guard), while lam^(-3/2) keeps the
    fourth-order truncation error a fixed small fraction of |U|.
    """
    lambdas = sorted(float(l) for l in lambdas)
    if len(lambdas) < 4:
        raise ValueError("need at least 4 lambda values for the fit")
    t_sel = np.linspace(0.08, 0.92, 7) * (beam.t_exit - beam.t0) + beam.t0

    def size_at(lam: float, h_fd: float) -> float:
        return max(_residual_l2_at(beam, lam, t, h_fd, body) for t in t_sel)

    sups = []
    for lam in lambdas:
        h_fd = STENCIL_SCALE * lam ** (-1.5)
        sups.append(size_at(lam, h_fd))
        if lam == lambdas[-1]:
            half = size_at(lam, h_fd / 2)
            if abs(half - sups[-1]) > 0.05 * sups[-1]:
                raise StencilUnderResolved(
                    f"halving the stencil step moved the residual size by "
                    f"{abs(half - sups[-1]) / sups[-1]:.1%}")
    slope = float(np.polyfit(np.log(lambdas), np.log(sups), 1)[0])
    return {"lambdas": lambdas, "sups": sups, "slope": slope}


# ---------------------------------------------------------------- cutoff


def cutoff_build(beam: BeamCurve):
    """Smooth cutoff chi: 1 inside the inner space-time tube around the
    curve, 0 outside the outer tube, monotone in the tube distance
    min_r (|s - r| + |y - x(r)|).

    Derivative sup scales like the inverse transition width
    ~ eps1^(-1/(2 n alpha)), within the eps1^(-m/(2 alpha)) budget.  The
    curve is subsampled to at most 256 reference points (node spacing
    stays far below the tube width) and inputs are processed in chunks of
    8192 to bound memory.
    """
    max_nodes, chunk = 256, 8192
    n = beam.dim
    a1, a2 = tube_radii(n)
    width = a2 - a1
    stride = max(1, len(beam.times) // max_nodes)
    nodes_t = np.concatenate([beam.times[::stride], beam.times[-1:]])
    nodes_x = np.concatenate([beam.xtilde[::stride], beam.xtilde[-1:]])

    def smoothstep(w):
        w = np.clip(w, 0.0, 1.0)
        out = np.empty_like(w)
        lo = w <= 0.0
        hi = w >= 1.0
        mid = ~(lo | hi)
        out[lo] = 1.0
        out[hi] = 0.0
        wm = w[mid]
        sa = np.exp(-1.0 / (1.0 - wm))
        sb = np.exp(-1.0 / wm)
        out[mid] = sa / (sa + sb)
        return out

    def chi(s, y):
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(s, y[..., 0]).shape
        flat_s = np.broadcast_to(s, shape).reshape(-1)
        flat_y = np.broadcast_to(y, shape + (n,)).reshape(-1, n)
        dist = np.empty(flat_s.shape)
        for k in range(0, flat_s.size, chunk):
            sl = slice(k, k + chunk)
            d_t = np.abs(flat_s[sl, None] - nodes_t[None, :])
            d_x = np.linalg.norm(flat_y[sl, None, :] - nodes_x[None, :, :],
                                 axis=-1)
            dist[sl] = np.min(d_t + d_x, axis=1)
        return smoothstep((dist - a1) / width).reshape(shape)

    return chi


# ---------------------------------------------------------------- Lemma-style
# Gaussian concentration


def gaussian_concentration(h_field, beam: BeamCurve, lambdas,
                           t_eval: float) -> dict:
    """Error of the normalised Gaussian average of h against h on the curve.

    Computes (lam/pi)^(n/2) int exp(-lam |d|^2) h chi dx, d = x - x(t),
    per lambda by trapezoid quadrature (221 points per axis) over the
    cutoff tube, and returns |result - h(t, x(t))| together with the
    printed bound evaluated with both erfc sign conventions
    (erfc(-lam^{2 sigma}) tends to 2, so that version of the additive term
    does not vanish; both are reported).  The quadrature on every second
    node of each axis must agree (QuadratureNotConverged).
    """
    n = beam.dim
    st = beam.state_at(t_eval)
    x0 = st["x"]
    # an odd count puts x(t) on a node; with an even one every second node
    # mirrors the rest about x(t), and on a symmetric integrand the
    # halving check compares two equal sums
    mesh, cell = _patch(x0, tube_radii(n)[1] * 1.35, 221)
    d = mesh - x0
    sq_dist = np.einsum("...i,...i->...", d, d)
    hv = h_field(np.full(mesh.shape[:-1], t_eval), mesh)
    chiv = cutoff_build(beam)(np.full(mesh.shape[:-1], t_eval), mesh)
    target = float(h_field(np.array([t_eval]), x0[None, :])[0])
    every_second = (slice(None, None, 2),) * n

    rows = []
    for lam in sorted(float(l) for l in lambdas):
        weighted = np.exp(-lam * sq_dist) * hv * chiv
        scale = (lam / np.pi) ** (n / 2)
        value = scale * (np.sum(weighted) * cell)
        coarse = scale * (np.sum(weighted[every_second]) * cell * 2**n)
        if abs(coarse - value) > 5e-3 * (1.0 + abs(value)):
            raise QuadratureNotConverged(
                f"concentration quadrature unresolved at lambda={lam}")
        first = 2.0 * lam ** SIGMA * EPS1 ** (-1.0 / (2 * ALPHA)) \
            / np.sqrt(lam)
        tail = lam ** (2 * SIGMA)
        rows.append({
            "lam": lam,
            "value": float(value),
            "error": float(abs(value - target)),
            "bound_erfc_neg": float(first + 4.0 * math.erfc(-tail)),
            "bound_erfc_pos": float(first + 4.0 * math.erfc(tail)),
        })
    lams = np.array([r["lam"] for r in rows])
    errs = np.array([max(r["error"], 1e-16) for r in rows])
    if len(rows) >= 2:
        slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    else:
        slope = float("nan")
    return {"rows": rows, "decay_exponent": slope}
