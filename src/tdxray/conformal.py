"""Admissible conformal factors c(t, x).

A factor is admissible when it is bounded below by m0 > 0 and its C^1
distance to 1 stays below EPS, the class's one constant.  Experiment
factors are built from the same compactly supported bump profile as the
test fields, so c = 1 identically near the domain boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Inadmissible
from .fields import bump_jet, squared_distance

EPS = 0.5


@dataclass
class ConformalFactor:
    """c(t, x) and its analytic derivatives, all from one jet.

    ``jet(t, x, order)`` returns [c] at order 0, [c, grad_x c, d_t c] at
    order 1 and [c, grad_x c, d_t c, hess_x c] at order 2, computing what
    they share once.  It is vectorised: t is a scalar or has shape (...,),
    x has shape (..., dim), grad_x c has shape (..., dim) and hess_x c
    (..., dim, dim).  The ray flow, the beam system, the admissibility
    check and the beam residual call the jet itself.  ``func``,
    ``grad_x``, ``hess_x`` and ``dt`` are its entries one at a time
    (:func:`jet_views`), for callers that evaluate or wrap one alone;
    ``c(t, x)`` calls ``func``.
    """

    jet: Callable
    func: Callable
    grad_x: Callable
    hess_x: Callable
    dt: Callable
    dim: int
    m0: float
    T: float
    name: str
    time_dependent: bool = False

    def __call__(self, t, x):
        return self.func(np.asarray(t, dtype=float), np.asarray(x, dtype=float))

    def check_admissible(self, x_lo, x_hi) -> dict:
        """Sampled admissibility check; raises Inadmissible when m0 is not
        positive, on a violation, or where c, grad_x c or d_t c is not
        finite.

        The C^1 distance to 1 is estimated from the analytic derivatives on
        4000 random points of [0, T] x box, drawn from seed 0.
        """
        if not self.m0 > 0:
            # rays and beams would march at speed sqrt(c) <= 0 without end
            raise Inadmissible(f"m0 = {self.m0} is not positive")
        n_samples = 4000
        rng = np.random.default_rng(0)
        ts = rng.uniform(0.0, self.T, n_samples)
        xs = rng.uniform(np.asarray(x_lo, float), np.asarray(x_hi, float),
                         (n_samples, self.dim))
        c, g, dt = self.jet(ts, xs, 1)
        if not all(np.isfinite(v).all() for v in (c, g, dt)):
            raise Inadmissible("c or a derivative of c is not finite")
        c0 = float(np.max(np.abs(c - 1.0)))
        c1 = max(c0, float(np.max(np.abs(g))), float(np.max(np.abs(dt))))
        report = {
            "min_c": float(np.min(c)),
            "c0_dist_to_one": c0,
            "c1_dist_to_one": c1,
        }
        if report["min_c"] < self.m0:
            raise Inadmissible(
                f"min c = {report['min_c']:.4g} below m0 = {self.m0}")
        if c1 > EPS:
            raise Inadmissible(
                f"C1 distance to 1 = {c1:.4g} exceeds eps = {EPS}")
        return report


def jet_views(jet: Callable) -> tuple[Callable, ...]:
    """The func, grad_x, hess_x and dt fields of the factor with this
    jet, each the jet's entry at the lowest order that holds it."""
    return (lambda t, x: jet(t, x, 0)[0],
            lambda t, x: jet(t, x, 1)[1],
            lambda t, x: jet(t, x, 2)[3],
            lambda t, x: jet(t, x, 1)[2])


def constant_factor(dim: int = 2, T: float = 2.0) -> ConformalFactor:
    """c = 1, the reference factor."""
    def jet(t, x, order):
        shape = np.broadcast(t, x[..., 0]).shape
        out = [np.ones(shape)]
        if order >= 1:
            out += [np.zeros(shape + (dim,)), np.zeros(shape)]
        if order >= 2:
            out.append(np.zeros(shape + (dim, dim)))
        return out

    func, grad_x, hess_x, dt = jet_views(jet)
    return ConformalFactor(jet, func, grad_x, hess_x, dt, dim=dim, m0=0.5,
                           T=T, name="const1")


def bump_factor(amplitude: float, x_center, x_width: float,
                t_center: float | None = None, t_width: float = 1.0,
                T: float = 2.0, name: str | None = None) -> ConformalFactor:
    """c = 1 + a * B(|x - xc|^2 / w^2) [* B(((t - tc)/wt)^2)].

    x has the dimension of xc.  Time-independent unless t_center is given.
    Amplitude may be negative; admissibility then requires 1 + a >= m0.
    """
    a = float(amplitude)
    xc = np.asarray(x_center, dtype=float)
    w = float(x_width)
    eye = np.eye(xc.size)
    timed = t_center is not None

    def jet(t, x, order):
        bx = bump_jet(squared_distance(x, xc) / w**2, order)
        if timed:
            # u * u, not u ** 2: a float's ** goes through libm's pow,
            # which rounds about one square in a thousand differently from
            # an array's, and t may come as either
            u = (t - t_center) / t_width
            bt = bump_jet(u * u, min(order, 1))
            scale = a * bt[0]
        else:
            scale = a
        out = [1.0 + scale * bx[0]]
        if order >= 1:
            d = x - xc
            out.append((scale * bx[1] * 2.0 / w**2)[..., None] * d)
            if timed:
                dut_dt = 2.0 * (np.asarray(t, float) - t_center) / t_width**2
                out.append(a * bx[0] * bt[1] * dut_dt)
            else:
                out.append(np.zeros(np.broadcast(t, x[..., 0]).shape))
        if order >= 2:
            grad_u = 2.0 * d / w**2
            outer = grad_u[..., :, None] * grad_u[..., None, :]
            out.append(np.asarray(scale)[..., None, None] * (
                bx[2][..., None, None] * outer
                + bx[1][..., None, None] * (2.0 / w**2) * eye))
        return out

    lower = min(1.0, 1.0 + a)
    func, grad_x, hess_x, dt = jet_views(jet)
    return ConformalFactor(jet, func, grad_x, hess_x, dt, dim=xc.size,
                           m0=0.5 * lower, T=T,
                           time_dependent=timed,
                           name=name or f"bump{a:+g}")
