"""Time-dependent X-ray transform along chords/geodesics and sinograms.

The transform integrates f(s, gamma(s)) along a traced path, the time
argument advancing with the path parameter.  Sinograms collect per-ray
values over a boundary-ray family together with their sup-norm delta.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureNotConverged
from .fields import SpaceTimeField
from .geometry import (BoundaryRay, ConvexBody, GeodesicPath, MetricSpec,
                       trace_bundle)
from .parallel import parallel_map

QUAD_TOL = 1e-9


@dataclass
class Sinogram:
    rays: list[BoundaryRay]
    values: np.ndarray
    taus: np.ndarray
    sup_norm: float
    max_halving_gap: float   # the largest Simpson halving gap over the rays

    @classmethod
    def from_values(cls, rays, values, taus, gaps) -> "Sinogram":
        values = np.asarray(values, dtype=float)
        return cls(list(rays), values, np.asarray(taus, dtype=float),
                   float(np.max(np.abs(values))) if values.size else 0.0,
                   max(gaps, default=0.0))

    def write_csv(self, path) -> None:
        n = self.rays[0].x.size if self.rays else 2
        header = ([f"x{i+1}" for i in range(n)]
                  + [f"omega{i+1}" for i in range(n)] + ["tau", "value"])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for ray, tau, val in zip(self.rays, self.taus, self.values):
                w.writerow([repr(float(v)) for v in ray.x]
                           + [repr(float(v)) for v in ray.omega]
                           + [repr(float(tau)), repr(float(val))])


def _ratio(num, den):
    """num / den, and 0 where den is 0."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson of y over the non-decreasing 1-D nodes x, which may
    be unevenly spaced.

    An odd node count uses the paired-interval rule throughout; an even
    count adds Cartwright's correction for the last interval, and two
    nodes give the trapezoid.  The operations, their order and the
    zero-spacing guards are those of the reference routine that
    tests/test_xray.py checks this one against, bit for bit.
    """
    n = y.shape[0]
    # the two-node and even-count branches end by adding to 0.0, as the
    # reference's accumulator does, which turns -0.0 into 0.0
    if n == 2:
        return 0.0 + 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2])
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    h0_over_h1 = _ratio(h0, h1)
    result = np.sum(hsum / 6.0 * (
        y[0:stop:2] * (2.0 - _ratio(1.0, h0_over_h1))
        + y[1:stop + 1:2] * (hsum * _ratio(hsum, h0 * h1))
        + y[2:stop + 2:2] * (2.0 - h0_over_h1)))
    if n % 2:
        return result
    # after the exit bisection the last interval is short, so this is the
    # branch a traced path takes
    a, b = h[-2], h[-1]
    # the power ufuncs, which the reference's 0-d spacings go through: a
    # float scalar's ** rounds differently in the last bit
    alpha = _ratio(2 * np.square(b) + 3 * a * b, 6 * (b + a))
    beta = _ratio(np.square(b) + 3.0 * a * b, 6 * a)
    eta = _ratio(np.power(b, 3), 6 * a * (a + b))
    return result + (alpha * y[-1] + beta * y[-2] - eta * y[-3]) + 0.0


def xray_single(f: SpaceTimeField, path: GeodesicPath) -> tuple[float, float]:
    """Integral of f(s, gamma(s)) ds over the path by composite Simpson,
    and the halving gap: how far the value on every second sample point
    lies from it (0 below 5 samples, where there is no halved rule).

    A gap above 10 * QUAD_TOL raises.
    """
    vals = f(path.times, path.points)
    full = float(_simpson(vals, path.times))
    if path.times.size < 5:
        return full, 0.0
    gap = abs(full - float(_simpson(vals[::2], path.times[::2])))
    if gap > 10.0 * QUAD_TOL:
        raise QuadratureNotConverged(
            f"Simpson halving changed the value by {gap:.3e}"
            f" (> {10.0 * QUAD_TOL:.1e}); refine the path sampling")
    return full, gap


def sinogram(f: SpaceTimeField, rays: list[BoundaryRay], metric: MetricSpec,
             body: ConvexBody, dt: float = 2.5e-3) -> Sinogram:
    """Per-ray transform over traced paths, in the input ray order.

    The family is traced once by :func:`trace_bundle` (exact chords for a
    Euclidean metric, one march for a conformal one) and the paths are
    integrated through ``parallel_map``.  An error raised for one ray names
    its index; NoExit names every ray still inside.
    """
    paths = trace_bundle(metric, body, rays, dt)

    def one(pair):
        i, path = pair
        try:
            return xray_single(f, path)
        except Exception as exc:
            exc.args = (f"ray index {i}: {exc}",)
            raise

    values, gaps = zip(*parallel_map(one, enumerate(paths)))
    taus = np.array([path.exit_time for path in paths])
    return Sinogram.from_values(rays, values, taus, gaps)


def perturb_sinogram(s: Sinogram, noise_level: float,
                     seed: int) -> tuple[Sinogram, float]:
    """Add uniform noise of the given amplitude to every ray value.

    Returns the perturbed sinogram and the measured sup-norm of the
    perturbation itself, which the forward pipeline records as its
    noise_sup diagnostic.
    """
    if noise_level < 0:
        raise ValueError("noise_level must be >= 0")
    if noise_level == 0:
        return replace(s, values=s.values.copy(), taus=s.taus.copy()), 0.0
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-noise_level, noise_level, size=s.values.shape)
    values = s.values + noise
    out = replace(s, values=values, taus=s.taus.copy(),
                  sup_norm=float(np.max(np.abs(values))))
    return out, float(np.max(np.abs(noise)))
