"""Time-dependent X-ray transform toolkit."""

__version__ = "0.1.0"

from .conformal import ConformalFactor, bump_factor, constant_factor
from .fields import SpaceTimeField, bump_field, single_bump
from .geometry import (BoundaryRay, ConvexBody, GeodesicPath, MetricSpec,
                       ball, ellipsoid, exit_time, geodesic_trace, make_ray,
                       sample_inward_bundle, trace_bundle)
from .spectral import (SpectralGrid, hidden_bound, slice_from_sinogram,
                       visible_direction)
from .xray import Sinogram, perturb_sinogram, sinogram, xray_single

__all__ = [
    "BoundaryRay", "ConformalFactor", "ConvexBody", "GeodesicPath",
    "MetricSpec", "Sinogram", "SpaceTimeField", "SpectralGrid", "ball",
    "bump_factor", "bump_field", "constant_factor", "ellipsoid",
    "exit_time", "geodesic_trace", "hidden_bound", "make_ray",
    "perturb_sinogram", "sample_inward_bundle", "single_bump", "sinogram",
    "slice_from_sinogram", "trace_bundle", "visible_direction",
    "xray_single",
]
