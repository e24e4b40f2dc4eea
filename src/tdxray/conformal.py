"""Admissible conformal factors c(t, x).

A factor is admissible when it is bounded below by m0 > 0 and its C^1
distance to 1 stays below eps.  Experiment factors are built from the same
compactly supported bump profile as the test fields, so c = 1 identically
near the domain boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Inadmissible
from .fields import (bump_profile, bump_profile_d2u, bump_profile_du,
                     squared_distance)


@dataclass
class ConformalFactor:
    """c(t, x) together with analytic first/second x-derivatives and d/dt.

    All callables are vectorised: t shape (...,), x shape (..., dim).
    grad_x returns (..., dim), hess_x returns (..., dim, dim).
    """

    func: Callable
    grad_x: Callable
    hess_x: Callable
    dt: Callable
    dim: int
    m0: float
    T: float
    name: str
    eps: float = 0.5
    time_dependent: bool = False

    def __call__(self, t, x):
        return self.func(np.asarray(t, dtype=float), np.asarray(x, dtype=float))

    def check_admissible(self, x_lo, x_hi) -> dict:
        """Sampled admissibility check; raises Inadmissible on violation,
        or where c, grad_x c or d_t c is not finite.

        The C^1 distance to 1 is estimated from the analytic derivatives on
        4000 random points of [0, T] x box, drawn from seed 0.
        """
        n_samples = 4000
        rng = np.random.default_rng(0)
        ts = rng.uniform(0.0, self.T, n_samples)
        xs = rng.uniform(np.asarray(x_lo, float), np.asarray(x_hi, float),
                         (n_samples, self.dim))
        c = self(ts, xs)
        g = self.grad_x(ts, xs)
        dt = self.dt(ts, xs)
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
        if c1 > self.eps:
            raise Inadmissible(
                f"C1 distance to 1 = {c1:.4g} exceeds eps = {self.eps}")
        return report


def constant_factor(value: float, dim: int = 2,
                    T: float = 2.0) -> ConformalFactor:
    v = float(value)

    def func(t, x):
        return np.full(np.broadcast(t, x[..., 0]).shape, v)

    def grad(t, x):
        return np.zeros(np.broadcast(t, x[..., 0]).shape + (dim,))

    def hess(t, x):
        return np.zeros(np.broadcast(t, x[..., 0]).shape + (dim, dim))

    def dt(t, x):
        return np.zeros(np.broadcast(t, x[..., 0]).shape)

    return ConformalFactor(func, grad, hess, dt, dim=dim, m0=0.5 * v,
                           eps=max(0.5, abs(v - 1.0) + 0.1), T=T,
                           name=f"const{v:g}")


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
    timed = t_center is not None

    def parts(t, x):
        u = squared_distance(x, xc) / w**2
        if timed:
            ut = ((t - t_center) / t_width) ** 2
            return u, bump_profile(ut), bump_profile_du(ut), ut
        shape = np.broadcast(t, x[..., 0]).shape
        return u, np.ones(shape), np.zeros(shape), None

    def func(t, x):
        u, bt, _, _ = parts(t, x)
        return 1.0 + a * bt * bump_profile(u)

    def grad(t, x):
        u, bt, _, _ = parts(t, x)
        dBdu = bump_profile_du(u)
        return (a * bt * dBdu * 2.0 / w**2)[..., None] * (x - xc)

    def hess(t, x):
        u, bt, _, _ = parts(t, x)
        d1 = bump_profile_du(u)
        d2 = bump_profile_d2u(u)
        grad_u = 2.0 * (x - xc) / w**2
        outer = grad_u[..., :, None] * grad_u[..., None, :]
        eye = np.eye(xc.size)
        return a * bt[..., None, None] * (
            d2[..., None, None] * outer
            + d1[..., None, None] * (2.0 / w**2) * eye)

    def dt_func(t, x):
        u, bt, dbt_du, ut = parts(t, x)
        if not timed:
            return np.zeros(np.broadcast(t, x[..., 0]).shape)
        dut_dt = 2.0 * (np.asarray(t, float) - t_center) / t_width**2
        return a * bump_profile(u) * dbt_du * dut_dt

    lower = min(1.0, 1.0 + a)
    return ConformalFactor(func, grad, hess, dt_func, dim=xc.size,
                           m0=0.5 * lower, T=T,
                           time_dependent=timed,
                           name=name or f"bump{a:+g}")
