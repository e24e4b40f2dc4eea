"""Time-dependent X-ray transform along chords/geodesics and sinograms.

The transform integrates f(s, gamma(s)) along a traced path, the time
argument advancing with the path parameter.  Sinograms collect per-ray
values over a boundary-ray family together with their sup-norm delta.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

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

    @classmethod
    def from_values(cls, rays, values, taus) -> "Sinogram":
        values = np.asarray(values, dtype=float)
        return cls(list(rays), values, np.asarray(taus, dtype=float),
                   float(np.max(np.abs(values))) if values.size else 0.0)

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


def xray_single(f: SpaceTimeField, path: GeodesicPath) -> float:
    """Integral of f(s, gamma(s)) ds over the path by composite Simpson.

    The quadrature error is estimated by comparing against the value on
    every second sample point; a change above 10 * QUAD_TOL raises.
    """
    vals = f(path.times, path.points)
    full = float(simpson(vals, x=path.times))
    if path.times.size >= 5:
        coarse = float(simpson(vals[::2], x=path.times[::2]))
        if abs(full - coarse) > 10.0 * QUAD_TOL:
            raise QuadratureNotConverged(
                f"Simpson halving changed the value by {abs(full - coarse):.3e}"
                f" (> {10.0 * QUAD_TOL:.1e}); refine the path sampling")
    return full


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

    values = np.array(parallel_map(one, enumerate(paths)))
    taus = np.array([path.exit_time for path in paths])
    return Sinogram.from_values(rays, values, taus)


def perturb_sinogram(s: Sinogram, noise_level: float,
                     seed: int) -> tuple[Sinogram, float]:
    """Add uniform noise of the given amplitude to every ray value.

    Returns the perturbed sinogram and the measured sup-norm of the
    perturbation itself, which the stability experiments use as delta.
    """
    if noise_level < 0:
        raise ValueError("noise_level must be >= 0")
    if noise_level == 0:
        return Sinogram(s.rays, s.values.copy(), s.taus.copy(), s.sup_norm), 0.0
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-noise_level, noise_level, size=s.values.shape)
    values = s.values + noise
    out = Sinogram(s.rays, values, s.taus.copy(),
                   float(np.max(np.abs(values))))
    return out, float(np.max(np.abs(noise)))
