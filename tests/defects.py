"""A catalogue of plausible defects, each a context manager that patches
one name in src/ for as long as it is entered.

A gate that no plausible defect trips does not make its number
trustworthy; tests/test_defects.py runs the criteria of the defect's
module under each entry and asserts that some criterion fails.
"""

import contextlib
from unittest import mock

import numpy as np

from tdxray.spectral import SpectralGrid


@contextlib.contextmanager
def _inverse(inverse):
    with mock.patch.object(SpectralGrid, "inverse", inverse):
        yield


def inverse_no_shift():
    """SpectralGrid.inverse without the ifftshift: the centered lattice is
    transformed as if k = 0 sat at index 0."""
    def inverse(self, values):
        return np.fft.ifftn(values / np.fft.fftshift(self._cell_phase))

    return _inverse(inverse)


def inverse_no_phase():
    """SpectralGrid.inverse dividing by the cell volume only, without the
    corner phase exp(-i origin . k)."""
    def inverse(self, values):
        return np.fft.ifftn(np.fft.ifftshift(values / self.cell_volume))

    return _inverse(inverse)
