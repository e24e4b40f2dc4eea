"""Space-time test fields.

All experiment inputs are smooth bumps compactly supported strictly inside
(0, T) x U, so extension by zero to the whole space is smooth and every
Fourier-side quantity is well defined without an extension operator.

The radial profile used everywhere is the classic C-infinity bump

    B(r) = exp(1 - 1/(1 - r^2))   for r < 1,   B(r) = 0 otherwise,

normalised so B(0) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np


def squared_distance(x: np.ndarray, c) -> np.ndarray:
    """|x - c|^2 over the last axis of x, summed axis by axis in order.

    The same bits as np.sum((x - c) ** 2, axis=-1), without the cost of a
    reduction over a short axis.
    """
    total = (x[..., 0] - c[0]) ** 2
    for a in range(1, x.shape[-1]):
        total = total + (x[..., a] - c[a]) ** 2
    return total


def bump_profile(u: np.ndarray) -> np.ndarray:
    """B as a function of u = r^2, vectorised, zero for u >= 1 and NaN.

    The same bits as bump_jet(u, 0)[0], in place on one fresh array: 1 - u
    is clamped at 0 (NaN too), so 1/(1 - u) is +inf outside the unit ball
    and exp(1 - inf) is +0.0 there, with no gather or scatter.
    """
    u = np.asarray(u, dtype=float)
    om = np.subtract(1.0, u, out=np.empty_like(u))
    np.fmax(om, 0.0, out=om)
    with np.errstate(divide="ignore"):
        np.divide(1.0, om, out=om)
    np.subtract(1.0, om, out=om)
    return np.exp(om, out=om)


def bump_jet(u: np.ndarray, order: int) -> list[np.ndarray]:
    """B, dB/du and d^2B/du^2 as functions of u = r^2, the first
    order + 1 of them, vectorised and zero for u >= 1.

    One exponential serves every entry; the derivatives are the analytic
    ones that conformal factors are built from.
    """
    u = np.asarray(u, dtype=float)
    inside = u < 1.0
    om = 1.0 - u[inside]
    b = np.exp(1.0 - 1.0 / om)
    terms = [b]
    if order >= 1:
        terms.append(-b / om**2)
    if order >= 2:
        terms.append(b * (1.0 / om**4 - 2.0 / om**3))
    out = []
    for term in terms:
        full = np.zeros_like(u)
        full[inside] = term
        out.append(full)
    return out


@dataclass
class SpaceTimeField:
    """A smooth function f(t, x) with a declared compact support box.

    evaluator must be vectorised and broadcast t against x: t of shape S1
    and x of shape S2 + (dim,) produce values of shape broadcast(S1, S2).
    The lattice sample relies on this, with one call of t shaped
    (n, 1, ..., 1) against the (n, ..., n, dim) spatial mesh.

    When the field factorises exactly as f(t, x) = g(t) H(x), the pair of
    callables (g, H) may be exposed through ``separable``; consumers are
    free to exploit it (the chord-slice quadrature collapses one axis to a
    convolution) but must produce the same values as ``evaluator``.  g
    takes times of any shape.  H takes a launch frame rather than points:
    ``H(origin, omega, perp, along, v_axes)`` is H at
    origin + along_i omega + sum_k v_k[j_k] perp[k], for the orthonormal
    omega and perp[k] and the 1-D coordinate arrays along and v_axes[k],
    with shape (len(along), *map(len, v_axes)).
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    t_support: tuple[float, float]
    x_lo: np.ndarray
    x_hi: np.ndarray
    dim: int
    name: str
    separable: tuple[Callable, Callable] | None

    def __call__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return self.evaluator(t, x)

    @property
    def support_box(self):
        return (self.t_support, np.asarray(self.x_lo), np.asarray(self.x_hi))

    @cached_property
    def live_support(self) -> np.ndarray:
        """Points of a 24-per-axis mesh over the spatial box where f is
        nonzero at one of five interior times, shape (k, dim).

        Sampled once per field; the chord slices check it against the body.
        """
        axes = [np.linspace(lo, hi, 24) for lo, hi in zip(self.x_lo,
                                                          self.x_hi)]
        g = np.stack(np.meshgrid(*axes, indexing="ij"),
                     axis=-1).reshape(-1, self.dim)
        alive = np.zeros(g.shape[0], dtype=bool)
        for t in np.linspace(*self.t_support, 7)[1:-1]:
            alive |= np.abs(self(np.full(g.shape[0], t), g)) > 1e-13
        return g[alive]


@dataclass
class BumpSpec:
    amplitude: float
    t_center: float
    t_width: float
    x_center: Sequence[float]
    x_width: float


def _make_evaluator(specs: Sequence[BumpSpec]):
    specs = list(specs)

    def evaluate(t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        total = np.zeros(np.broadcast(t, x[..., 0]).shape)
        for s in specs:
            ut = ((t - s.t_center) / s.t_width) ** 2
            ux = squared_distance(x, s.x_center) / s.x_width**2
            total = total + s.amplitude * bump_profile(ut) * bump_profile(ux)
        return total

    return evaluate


def bump_field(specs: Sequence[BumpSpec], name: str) -> SpaceTimeField:
    """Superposition of separable space-time bumps, in the dimension of
    their centres (ValueError unless every centre has the same length).

    When every component shares the same time profile the field factorises
    as g(t) H(x) and the pair is exposed via ``separable``.  On a launch
    frame |X - c|^2 is a sum of 1-D squares, one per frame axis, so H
    builds no point mesh.
    """
    specs = list(specs)
    dims = {len(s.x_center) for s in specs}
    if len(dims) != 1:
        raise ValueError(f"bump centres differ in length: {sorted(dims)}")
    dim, = dims
    t_lo = min(s.t_center - s.t_width for s in specs)
    t_hi = max(s.t_center + s.t_width for s in specs)
    x_lo = np.min([np.asarray(s.x_center) - s.x_width for s in specs], axis=0)
    x_hi = np.max([np.asarray(s.x_center) + s.x_width for s in specs], axis=0)

    separable = None
    if len({(s.t_center, s.t_width) for s in specs}) == 1:
        tc, tw = specs[0].t_center, specs[0].t_width

        def g(t):
            return bump_profile(((np.asarray(t, dtype=float) - tc) / tw) ** 2)

        def H(origin, omega, perp, along, v_axes):
            frame = [(along, omega)] + list(zip(v_axes, perp))
            total = np.zeros(tuple(len(axis) for axis, _ in frame))
            for s in specs:
                d = np.asarray(origin, dtype=float) - s.x_center
                # |X - c|^2 / w^2 is one square per frame axis; where any
                # of them reaches 1 the bump is exactly 0, so it is summed
                # only on the window where every one is below 1
                terms, window = [], []
                for axis, e in frame:
                    term = (axis + float(np.dot(d, e))) ** 2 / s.x_width**2
                    inside = np.flatnonzero(term < 1.0)
                    if inside.size == 0:
                        break
                    window.append(slice(inside[0], inside[-1] + 1))
                    terms.append(term[window[-1]])
                else:
                    total[tuple(window)] += s.amplitude * bump_profile(
                        reduce(np.add.outer, terms))
            return total

        separable = (g, H)

    return SpaceTimeField(
        evaluator=_make_evaluator(specs),
        t_support=(t_lo, t_hi),
        x_lo=x_lo,
        x_hi=x_hi,
        dim=dim,
        name=name,
        separable=separable,
    )


def single_bump(amplitude=1.0, t_center=1.0, t_width=0.85,
                x_center=(0.05, -0.08), x_width=0.55, *,
                name: str) -> SpaceTimeField:
    return bump_field(
        [BumpSpec(amplitude, t_center, t_width, tuple(x_center), x_width)],
        name=name)


# ----------------------------------------------------------------------
# Frozen experiment fields (2-D space, time horizon T = 2).
# ----------------------------------------------------------------------

def default_slice_field() -> SpaceTimeField:
    """Single smooth bump used by the slice-identity checks and to fit
    the hidden-region envelope constant."""
    return single_bump(name="slice-default")


#: Domain radius and time horizon of the reconstruction experiments.
RECON_RADIUS = 4.0
RECON_T = 12.0


def default_recon_field() -> SpaceTimeField:
    """Multi-scale bump driving the log-stability sweep (ball of radius 4,
    T = 12).

    Frozen after tuning against the spectral-energy predictor of the
    sweep.  Three properties matter: a broad time profile keeps the
    spectrum inside the visible cone (small hidden-energy floor); the
    wide negative lobe cancels most of the spatial mean, draining the
    low-|xi| mass that would otherwise leak into the hidden cone; and the
    six-scale spatial ladder makes the tail energy beyond radius R fall
    off like ~1/R^2 across the band of cut radii the delta sweep visits.
    """
    widths = [2.516, 1.816, 1.148, 0.846, 0.611, 0.371]
    amps = [1.0, 0.856, 0.801, 0.772, 0.628, 0.568]
    centers = [(0.2, -0.3), (-0.65, 0.45), (0.85, 0.65),
               (-0.3, -0.85), (0.55, -0.75), (-0.85, -0.25)]
    w_neg, eta = 3.4, 0.823
    t_center, t_width = 6.0, 5.5

    masses = [a * w * w for a, w in zip(amps, widths)]
    a_neg = -eta * sum(masses) / w_neg**2
    x_neg = tuple(np.sum([np.asarray(c) * m
                          for c, m in zip(centers, masses)], axis=0)
                  / sum(masses))
    specs = [BumpSpec(a, t_center, t_width, c, w)
             for a, w, c in zip(amps, widths, centers)]
    specs.append(BumpSpec(a_neg, t_center, t_width, x_neg, w_neg))
    return bump_field(specs, name="recon-default")


def heldout_fields() -> list[SpaceTimeField]:
    """Two held-out bumps the fitted hidden envelope must dominate.

    Both are no larger and no narrower than the calibration bump
    (default_slice_field): the envelope constant scales with the size
    of the field, so the transfer test keeps the held-out family within
    the calibrated regime.
    """
    return [
        single_bump(amplitude=0.7, t_center=0.9, t_width=0.7,
                    x_center=(-0.12, 0.10), x_width=0.60, name="hidden-a"),
        single_bump(amplitude=0.5, t_center=1.15, t_width=0.8,
                    x_center=(0.15, 0.05), x_width=0.65, name="hidden-b"),
    ]


def symmetric_field() -> SpaceTimeField:
    """Separable bump, even in t and x about its centers.

    Its transform factorises, which makes |f^(tau, xi)| even in tau
    separately; used by the reflection symmetry checks.
    """
    return single_bump(x_center=(0.0, 0.0), name="symmetric")


def tail_field() -> SpaceTimeField:
    """Widest bump fitting the unit-disk experiment box.

    Used by the out-of-ball tail checks: its spectrum is as concentrated
    as the domain allows, so the L1 tail beyond radius 4 is genuinely in
    the decay regime.
    """
    return single_bump(amplitude=1.0, t_center=1.0, t_width=0.95,
                       x_center=(0.0, 0.0), x_width=0.8, name="tail")
