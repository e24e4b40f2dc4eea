import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tdxray.fields import SpaceTimeField, default_slice_field
from tdxray.geometry import ball


def load_perfbench(name: str, monkeypatch):
    """A module of the benchmark, loaded read-only: no bytecode is written
    next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bits(a) -> np.ndarray:
    """The bits of a float or complex array, as int64."""
    return np.ascontiguousarray(a).view(np.int64)


def dense_frequency_mesh(grid):
    """The frequency mesh in the FFT's order, one dense lattice per axis,
    from numpy's fftfreq."""
    return np.meshgrid(*(2 * np.pi * np.fft.fftfreq(grid.n, d)
                         for d in grid.spacing), indexing="ij")


def corner_phase(grid) -> np.ndarray:
    """exp(-i origin . (tau, xi)) on the dense frequency mesh: the oracle
    for the grid's cached cell phase."""
    mesh = dense_frequency_mesh(grid)
    phase = grid.origin[0] * mesh[0]
    for o, m in zip(grid.origin[1:], mesh[1:]):
        phase = phase + o * m
    return np.exp(-1j * phase)


def oracle_forward(grid, samples) -> np.ndarray:
    """The lattice transform as three lattice products."""
    return grid.cell_volume * corner_phase(grid) * np.fft.fftn(samples)


def oracle_inverse(grid, values) -> np.ndarray:
    """The inverse of a dense lattice of values, as a product and a
    quotient."""
    return np.fft.ifftn(values / (grid.cell_volume * corner_phase(grid)))


def negated(a, axes=None) -> np.ndarray:
    """a(-k) for a lattice-shaped a, negating k along axes (every axis by
    default): -k lives at index (-j) mod N, so this is a reversed and
    rolled by one along each of them.  The reference for
    SpectralGrid.mirror."""
    axes = tuple(range(a.ndim)) if axes is None else axes
    return np.roll(np.flip(a, axes), 1, axes)


def core(a) -> np.ndarray:
    """a on the core lattice, off the Nyquist index N/2 of every axis: the
    points whose negated frequency -k is on the lattice, not an alias."""
    for axis in range(a.ndim):
        a = np.delete(a, a.shape[axis] // 2, axis)
    return a


def mirrored(a, axes=None) -> np.ndarray:
    """a(-k) on the core lattice, negating k along axes (every axis by
    default)."""
    return core(negated(a, axes))


def dense(source) -> np.ndarray:
    """A SpectralSource's values on the dense lattice, zero off its
    available points."""
    out = np.zeros(source.available.shape, dtype=complex)
    out[source.available] = source.values
    return out


def every_mode(values) -> tuple:
    """A dense lattice of values as the kept modes that
    SpectralGrid.inverse takes: every flat index, and the values."""
    return np.arange(values.size), values.reshape(-1)


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
