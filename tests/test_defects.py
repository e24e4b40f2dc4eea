"""Each catalogued defect fails the acceptance criteria that should
catch it, with no criterion or tolerance edited."""

import inspect

import pytest

import defects
from defects import fill_conj, inverse_no_phase, inverse_no_shift, mirror_none
from tdxray.fields import default_recon_field
from tdxray.geometry import ball
from tdxray.harness.acceptance import run_acceptance
from tdxray.harness.manifest import TOLERANCES
from tdxray.reconstruct import stability_curve
from tdxray.spectral import SpectralGrid


@pytest.mark.parametrize("defect", [inverse_no_shift, inverse_no_phase])
def test_inverse_defect_fails_log_stability_and_parseval(defect, capsys):
    with defect():
        results = {r.cid: r for r in run_acceptance("reconstruct")}
    report = capsys.readouterr().out
    assert not results[5].passed, report
    assert not results[6].passed, report


def test_conjugated_fill_fails_log_stability(capsys):
    with fill_conj():
        results = {r.cid: r for r in run_acceptance("reconstruct")}
    report = capsys.readouterr().out
    assert not results[5].passed, report


def test_dropped_mirror_leaves_noisy_rows_complex():
    # no criterion catches mirror_none (README's table); the inversion's
    # imaginary residual, which the manifest records per row, does: about
    # 1e-2 at delta 1e-3 under the defect, 1e-16 without it
    f = default_recon_field()
    grid = SpectralGrid.for_field(f, n_points=32, extent=14.0)

    def residuals():
        curve = stability_curve(f, ball(4.0), [1e-3, 1e-4], 0.5, 0, grid,
                                n_launch=48, n_s=48)
        return [r.imag_residual for r in curve.rows]

    tol = TOLERANCES["hermitian_tol"]
    assert max(residuals()) < tol
    with mirror_none():
        assert min(residuals()) > tol


def test_catalogue_lists_every_defect():
    # tests/defect_table.py runs the catalogue's entries, so a defect left
    # out of it would be missing from README's table
    made = {name for name, fn in vars(defects).items()
            if inspect.isfunction(fn) and fn.__module__ == "defects"
            and not name.startswith("_")}
    assert made == set(defects.CATALOGUE)
