"""A catalogue of plausible defects, each a context manager that patches
one name in src/ for as long as it is entered.

A gate that no plausible defect trips does not make its number
trustworthy; tests/test_defects.py runs the criteria of the defect's
module under each entry and asserts that some criterion fails, and
tests/defect_table.py prints the defect x criterion table of README.
"""

import contextlib
from unittest import mock

import numpy as np

from tdxray import beams, reconstruct, wavesim
from tdxray.spectral import SpectralGrid


@contextlib.contextmanager
def _inverse(inverse):
    with mock.patch.object(SpectralGrid, "inverse", inverse):
        yield


def inverse_no_shift():
    """SpectralGrid.inverse scattering the kept modes at their centered
    positions, not their FFT-order ones: the lattice is transformed as if
    k = 0 sat at index 0."""
    def inverse(self, index, values):
        spec = np.zeros(self.shape, dtype=complex)
        spec.reshape(-1)[index] = values
        return np.fft.ifftn(spec / np.fft.fftshift(self._cell_phase))

    return _inverse(inverse)


def inverse_no_phase():
    """SpectralGrid.inverse dividing by the cell volume only, without the
    corner phase exp(-i origin . k)."""
    def inverse(self, index, values):
        at = np.unravel_index(index, self.shape)
        spec = np.zeros(self.shape, dtype=complex)
        spec[tuple((j + self.n // 2) % self.n for j in at)] = values
        return np.fft.ifftn(spec / self.cell_volume)

    return _inverse(inverse)


def fill_conj():
    """The visible-slice fill given the conjugate of every chord slice, as
    if the slice phase had the wrong sign."""
    slice_from_sinogram = reconstruct.slice_from_sinogram

    def conjugated(*args, **kwargs):
        return np.conj(slice_from_sinogram(*args, **kwargs))

    return mock.patch.object(reconstruct, "slice_from_sinogram", conjugated)


def slice_phase_sign():
    """The visible-slice fill given every chord slice with the centre phase
    exp(+i center . xi), not exp(-i center . xi), where center is the
    middle of the field's support box."""
    slice_from_sinogram = reconstruct.slice_from_sinogram

    def flipped(f, omega, xi, *args, **kwargs):
        _, x_lo, x_hi = f.support_box
        center = 0.5 * (np.asarray(x_lo) + np.asarray(x_hi))
        return (slice_from_sinogram(f, omega, xi, *args, **kwargs)
                * np.exp(2j * (np.asarray(xi, dtype=float) @ center)))

    return mock.patch.object(reconstruct, "slice_from_sinogram", flipped)


def noise_x0():
    """hermitian_noise returning zeros: the stability sweep's rows invert
    the slice fill with no data noise."""
    def zeros(grid, index, amplitude, rng):
        return np.zeros(index.shape, dtype=complex)

    return mock.patch.object(reconstruct, "hermitian_noise", zeros)


def mirror_none():
    """SpectralGrid.mirror reporting no pairs: the fill integrates both
    points of every mirror pair, and the noise leaves every draw
    unpaired, so a noisy row's data are not Hermitian."""
    def mirror(self, index):
        return np.zeros(index.shape, dtype=bool), np.full(index.shape, -1)

    return mock.patch.object(SpectralGrid, "mirror", mirror)


def conormal_first_order():
    """_conormal taking the first-order one-sided difference -(u1 - u0)/h,
    not the second-order three-point stencil, for du/dnu."""
    def conormal(grid, u):
        rows = u.reshape(u.shape[:-2] + (-1,))[..., grid.stencil]
        return -(rows[..., 1, :] - rows[..., 0, :]) / grid.h

    return mock.patch.object(wavesim, "_conormal", conormal)


def trace_without_c():
    """_traces recording du/dnu, not c du/dnu: the DtN trace is not scaled
    by c at the boundary path's nodes."""
    def traces(c_at, grid, bvals, also=None):
        dn = np.zeros((len(c_at(0)), grid.nt, grid.bI.size))

        def keep(m, level, c):
            dn[:, m] = wavesim._conormal(grid, level)
            if also is not None:
                also(m, level)

        wavesim._march(c_at, grid, bvals, keep)
        dn[..., grid.corner] = np.nan
        return dn

    return mock.patch.object(wavesim, "_traces", traces)


def beam_im_m_sign():
    """beam_psi reading conj(M), not M: the beam's quadratic phase with the
    wrong sign on Im M."""
    def psi(state, x):
        d = np.asarray(x, dtype=float) - state["x"]
        return (d @ state["p"] + 0.5 * np.einsum(
            "...i,ij,...j->...", d, np.conj(state["M"]), d))

    return mock.patch.object(beams, "beam_psi", psi)


# each defect and the module whose acceptance criteria should catch it
CATALOGUE = {
    "inverse_no_shift": "reconstruct",
    "inverse_no_phase": "reconstruct",
    "fill_conj": "reconstruct",
    "slice_phase_sign": "reconstruct",
    "noise_x0": "reconstruct",
    "mirror_none": "reconstruct",
    "conormal_first_order": "wavesim",
    "trace_without_c": "wavesim",
    "beam_im_m_sign": "beams",
}
