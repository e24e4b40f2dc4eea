import numpy as np
import pytest

from tdxray.fields import SpaceTimeField, default_slice_field
from tdxray.geometry import ball


@pytest.fixture(scope="session")
def unit_disk():
    return ball()


@pytest.fixture(scope="session")
def slice_field():
    return default_slice_field()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def linear_combination():
    """Builds the field sum_i coeffs[i] * fields[i] over the union of the
    support boxes."""
    def combine(fields, coeffs, name="lincomb"):
        fields = list(fields)
        coeffs = [float(c) for c in coeffs]

        def evaluate(t, x):
            out = coeffs[0] * fields[0](t, x)
            for f, c in zip(fields[1:], coeffs[1:]):
                out = out + c * f(t, x)
            return out

        t_lo = min(f.t_support[0] for f in fields)
        t_hi = max(f.t_support[1] for f in fields)
        x_lo = np.min([f.x_lo for f in fields], axis=0)
        x_hi = np.max([f.x_hi for f in fields], axis=0)
        return SpaceTimeField(evaluate, (t_lo, t_hi), x_lo, x_hi,
                              fields[0].dim, name, None)

    return combine


@pytest.fixture(scope="session")
def shifted():
    """Builds the time shift f(t - dt, x), support moved accordingly."""
    def shift(f, dt):
        return SpaceTimeField(
            lambda t, x: f.evaluator(np.asarray(t) - dt, x),
            (f.t_support[0] + dt, f.t_support[1] + dt), f.x_lo, f.x_hi,
            f.dim, f"{f.name}+shift{dt:g}", None)

    return shift
