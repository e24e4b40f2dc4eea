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

The curve (x, p) does not depend on (Y, N, a0): :func:`build_beam`
marches the ray alone, then steps the linear part along it from one batch
of the ray's coefficients.

The wave operator consistent with this phase convention scales the inverse
metric:  Box u = d_t^2 u - c^{n/2} div(c^{1-n/2} grad u), whose principal
part is c |xi|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .conformal import ConformalFactor
from .errors import CausticDetected, QuadratureNotConverged, StencilUnderResolved
from .geometry import (BoundaryRay, ConvexBody, hamiltonian_jet,
                       march_to_exit, rk4_step)
from .table import write_table


# the concentration lemma's cutoff scale in (0, 1), cutoff exponent > 1
# and concentration exponent in (0, 1/2)
EPS1 = 0.01
ALPHA = 1.5
SIGMA = 0.1
# |det Y| below which a beam step is a caustic
CAUSTIC_DET = 1e-10


def tube_radii(n: int) -> tuple[float, float]:
    """Inner and outer radius of the cutoff tube in n dimensions:
    eps1^(1/(2 n alpha)) and 2^(1/n) times it."""
    inner = float(EPS1 ** (1.0 / (2 * n * ALPHA)))
    return inner, float(2.0 ** (1.0 / n) * inner)


# ---------------------------------------------------------------- h derivatives


def _h_derivs(c: ConformalFactor, eye: np.ndarray, t, x: np.ndarray,
              p: np.ndarray):
    """The ray flow {x: -h_p, p: h_x} and the coefficients of the beam's
    linear part, row by row, from one order-2 jet of c: x and p have shape
    (N, n), t is a scalar or has shape (N,), and ``eye`` is the n x n
    identity.  The coefficients are 2h, c, h_p, h_xx, h_px, h_pp and the
    parts of psi_tt and lap psi free of M, h_t + <h_x, h_p> (dh/dt is 0.0
    for a time-independent factor) and (1 - n/2) <grad_x c, p>.
    """
    cv, gv, ct, hess = c.jet(t, x, 2)
    gam, pn, phat, h_x, h_p = hamiltonian_jet(cv, gv, p)
    g2 = 2 * gam
    g3, p3, g23 = gam[:, None, None], pn[:, None, None], g2[:, None, None]
    p_col, g_row = phat[:, :, None], gv[:, None, :]
    h_pp = g3 * (eye - p_col * phat[:, None, :]) / p3
    h_px = p_col * g_row / g23                       # d^2 h / dp_i dx_j
    h_xx = p3 * (hess / g23
                 - gv[:, :, None] * g_row / (2 * g23 * cv[:, None, None]))
    h_t = pn * ct / g2 if c.time_dependent else 0.0
    return {"x": -h_p, "p": h_x}, (
        g2 * pn, cv, h_p, h_xx, h_px, h_pp, h_t + np.vecdot(h_x, h_p),
        (1 - len(eye) / 2) * np.vecdot(gv, p))


def _linear_rhs(coef: tuple, state: dict) -> dict:
    """The beam's linear part along the ray, row by row, from the ray's
    coefficients (:func:`_h_derivs`): the variational system
    Y' = -(h_px Y + h_pp N), N' = h_xx Y + h_px^T N, and the transport
    equation a0' = -(box psi) / (2h) a0 with M = N Y^{-1}."""
    h2, cv, h_p, h_xx, h_px, h_pp, psi_tt_ray, lap_ray = coef
    Y, N = state["Y"], state["N"]
    M = N @ np.linalg.inv(Y)
    psi_tt = psi_tt_ray + np.vecdot(h_p, np.matvec(M, h_p))
    lap_psi = cv * M.trace(axis1=1, axis2=2) + lap_ray
    return {"Y": -(h_px @ Y + h_pp @ N), "N": h_xx @ Y + h_px.mT @ N,
            "a0": (lap_psi - psi_tt) / h2 * state["a0"]}


def _beam_rhs(c: ConformalFactor, eye: np.ndarray, t, state: dict) -> dict:
    """The ray flow and the linear part of (x, p, Y, N, a0) together."""
    flow, coef = _h_derivs(c, eye, t, state["x"], state["p"])
    return {**flow, **_linear_rhs(coef, state)}


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

    def state_at(self, t) -> dict:
        """Beam states (x, p, M, a0) at times t, stacked over t's shape: a
        scalar t gives x of shape (n,), times of shape S give x of shape
        S + (n,), M of shape S + (n, n) and a0 of shape S.

        One fractional integrator step from the nearest stored node keeps
        the map t -> state smooth, so finite-difference stencils in t see
        a C-infinity field rather than interpolation kinks.  Every time
        off a node takes its step in one RK4 call, a row per time; a time
        on a node keeps the node.
        """
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        k = np.clip(np.floor((flat - self.t0) / self.dt), 0,
                    len(self.times) - 1).astype(int)
        step = flat - self.times[k]
        off = step != 0.0
        state = {"x": self.xtilde[k], "p": self.omega[k], "Y": self.Y[k],
                 "N": self.N[k], "a0": self.a0[k]}
        moved = rk4_step(partial(_beam_rhs, self.c, np.eye(self.dim)),
                         self.times[k[off]],
                         {key: v[off] for key, v in state.items()}, step[off])
        for key, v in moved.items():
            state[key][off] = v
        M = state["N"] @ np.linalg.inv(state["Y"])
        return {"x": state["x"].reshape(t.shape + (self.dim,)),
                "p": state["p"].reshape(t.shape + (self.dim,)),
                "M": M.reshape(t.shape + (self.dim, self.dim)),
                "a0": state["a0"].reshape(t.shape)}

    def write_csv(self, path) -> None:
        det = np.linalg.det(self.Y)
        eig = self.min_eig_imag_M()
        n = self.dim
        header = (["t"] + [f"xtilde{i+1}" for i in range(n)]
                  + [f"omega{i+1}" for i in range(n)]
                  + ["a0_re", "a0_im", "min_eig_ImM", "detY_re", "detY_im"])
        write_table(path, header,
                    ([t, *self.xtilde[k], *self.omega[k], self.a0[k].real,
                      self.a0[k].imag, eig[k], det[k].real, det[k].imag]
                     for k, t in enumerate(self.times)))


def build_beam(c: ConformalFactor, body: ConvexBody, ray: BoundaryRay,
               t0: float = 0.0, dt: float = 2e-3) -> BeamCurve:
    """Integrate the beam system from a boundary ray until exit.

    The factor must be admissible over the body's box (Inadmissible).
    Normalisation at (t0, x0): a0 = 1, grad psi = -omega0 / sqrt(c), so
    psi_t = 1 exactly; with c = 1 near the boundary this is the inward
    unit momentum.  Initial phase Hessian M(0) = i I.

    The ray (x, p) rides geometry's :func:`march_to_exit` alone, as a
    one-row bundle with its time budget (NoExit).  One batched RK4 step
    from its nodes keeps the ray's coefficients (:func:`_h_derivs`) at the
    stage points of every full step, the one past the boundary included,
    and of the partial last step; (Y, N, a0) then steps through
    :func:`_linear_rhs` from those rows.  The nodes are those of one
    coupled march of (x, p, Y, N, a0), bit for bit.  A caustic guard sees
    the Y of every full step before the next step inverts it and raises
    CausticDetected where |det Y| < CAUSTIC_DET.
    """
    ray.validate(body)
    c.check_admissible(*body.bounding_box)
    n, eye = body.dim, np.eye(body.dim)
    c0 = float(c(t0, ray.x[None, :])[0])
    [(times, nodes, step)] = march_to_exit(
        c, body, t0, {"x": ray.x[None, :].astype(float),
                      "p": -ray.omega[None, :] / np.sqrt(c0)}, dt)

    # one RK4 step from every node but the exit: the full steps, the one
    # past the boundary last, then the partial step to the exit
    stages = []

    def coefficient_flow(t, s):
        flow, coef = _h_derivs(c, eye, t, s["x"], s["p"])
        stages.append(coef)
        return flow

    rk4_step(coefficient_flow, np.append(times[:-1], times[-2]),
             {key: np.concatenate([v[:-1], v[-2:-1]])
              for key, v in nodes.items()},
             np.append(np.full(len(times) - 1, dt), step))
    # each stage of a step of the linear part reads that step's row
    rows = (tuple(v[k:k + 1] for v in coef)
            for k in range(len(times)) for coef in stages)

    def stored_rhs(_, s):
        return _linear_rhs(next(rows), s)

    linear = [{"Y": np.eye(n, dtype=complex)[None],
               "N": 1j * np.eye(n, dtype=complex)[None],
               "a0": np.ones(1, dtype=complex)}]
    for t in times[:-1]:
        linear.append(rk4_step(stored_rhs, t, linear[-1], dt))
        if (np.abs(np.linalg.det(linear[-1]["Y"])) < CAUSTIC_DET).any():
            raise CausticDetected(f"det Y ~ 0 at t = {t + dt:.4f}")
    # the step past the boundary gives way to the partial one
    linear[-1] = rk4_step(stored_rhs, times[-2], linear[-2], step)
    Y, N, a0 = (np.concatenate([s[key] for s in linear])
                for key in ("Y", "N", "a0"))
    return BeamCurve(c=c, dim=n, t0=t0, dt=dt, times=times,
                     xtilde=nodes["x"], omega=nodes["p"], Y=Y, N=N, a0=a0)


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


# the offsets, in stencil steps, of the five times of a residual stencil
STENCIL_OFFSETS = np.arange(-2, 3)


def wave_operator_fd(beam: BeamCurve, lam: float, stencil: dict, t: float,
                     xs: np.ndarray, h_fd: float) -> np.ndarray:
    """Box U = d_t^2 U - c^{n/2} div(c^{1-n/2} grad U) at probe points.

    ``stencil`` holds the beam states at the times t + k h_fd for k in
    STENCIL_OFFSETS, stacked on a leading axis (beam.state_at of those
    times).  Fourth-order centred stencils in every variable;
    symbolic-free, so the test exercises the evaluated field itself.  At
    n = 2 the operator reduces to d_t^2 U - c (Lap U).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = beam.dim
    states = [{key: v[i] for key, v in stencil.items()}
              for i in range(len(STENCIL_OFFSETS))]
    mid = states[len(states) // 2]

    w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0

    utt = sum(w * beam_evaluate(lam, st, xs)
              for w, st in zip(w2, states)) / h_fd**2

    lap = np.zeros(xs.shape[0], dtype=complex)
    grad = np.zeros((xs.shape[0], n), dtype=complex)
    for a in range(n):
        e = np.zeros(n)
        e[a] = h_fd
        stack = [beam_evaluate(lam, mid, xs + k * e) for k in STENCIL_OFFSETS]
        lap += sum(w * s for w, s in zip(w2, stack)) / h_fd**2
        grad[:, a] = sum(w * s for w, s in zip(w1, stack)) / h_fd

    cv, gv, _ = beam.c.jet(np.full(xs.shape[0], t), xs, 1)
    div_term = cv * lap + (1 - n / 2) * np.einsum("...i,...i->...", gv, grad)
    return utt - div_term


def _patch(center, half_width: float, points: int):
    """A mesh of points nodes per axis over the cube of that half width
    about center, shape (points,) * n + (n,), and its cell volume."""
    axes = [np.linspace(x - half_width, x + half_width, points)
            for x in center]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return mesh, np.prod([ax[1] - ax[0] for ax in axes])


def _residual_l2_at(beam: BeamCurve, lam: float, stencil: dict, t: float,
                    h_fd: float, body: ConvexBody) -> float:
    """Spatial L2 norm of Box U(t, .) over the Gaussian core inside the
    body, from the stencil states of :func:`wave_operator_fd`.

    The patch, about the middle state's curve point, covers 3.5 envelope
    widths on a 36-point grid per axis; beyond that the integrand is
    exponentially negligible at every lambda in use.
    """
    mid = len(STENCIL_OFFSETS) // 2
    m = max(np.min(np.linalg.eigvalsh(stencil["M"][mid].imag)), 1e-6)
    mesh, cell = _patch(stencil["x"][mid], 3.5 / np.sqrt(lam * m), 36)
    pts = mesh.reshape(-1, beam.dim)
    vals = wave_operator_fd(beam, lam, stencil, t,
                            pts[body.phi(pts) < 0.0], h_fd)
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
        # every stencil state of the seven probe times in one RK4 step
        stencils = beam.state_at(t_sel[:, None] + STENCIL_OFFSETS * h_fd)
        return max(_residual_l2_at(beam, lam,
                                   {key: v[i] for key, v in stencils.items()},
                                   t, h_fd, body)
                   for i, t in enumerate(t_sel))

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
        # + 0.0 turns -0.0 into +0.0, so that w = 0 gives 1, not 0
        w = np.clip(w, 0.0, 1.0) + 0.0
        with np.errstate(divide="ignore"):
            sa = np.exp(-1.0 / (1.0 - w))
            sb = np.exp(-1.0 / w)
        return sa / (sa + sb)

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
