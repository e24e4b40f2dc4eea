"""Each catalogued defect fails the acceptance criteria that should
catch it, with no criterion or tolerance edited."""

import inspect
from pathlib import Path

import numpy as np
import pytest

import defects
from defect_table import change
from defects import (beam_im_m_sign, fill_conj, inverse_no_phase,
                     inverse_stale_shift, leapfrog_without_c, mirror_none,
                     trace_without_c)
from test_wavesim import stored_trace
from tdxray.conformal import bump_factor
from tdxray.fields import default_recon_field
from tdxray.geometry import ball
from tdxray.harness.acceptance import run_acceptance
from tdxray.harness.manifest import TOLERANCES
from tdxray.reconstruct import stability_curve
from tdxray.spectral import SpectralGrid
from tdxray.wavesim import (WaveGrid, boundary_probes, dtn_traces,
                            solve_dirichlet)


@pytest.mark.parametrize("defect", [inverse_stale_shift, inverse_no_phase])
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


def test_wrong_im_m_sign_fails_beam_residual_and_geometry(capsys):
    # with conj(M) the Gaussian grows off the curve: Im psi < 0 there, and
    # the residual's patch sees the growth
    with beam_im_m_sign():
        results = {r.cid: r for r in run_acceptance("beams")}
    report = capsys.readouterr().out
    assert not results[7].passed, report
    assert not results[8].passed, report


def test_leapfrog_without_c_fails_identity_and_stability(capsys):
    # with c dropped from the step the marched solution is c = 1's, so the
    # identity's boundary pairing and every DtN difference vanish: both
    # pipelines raise, and both criteria read FAIL with the error
    with leapfrog_without_c():
        results = {r.cid: r for r in run_acceptance("wavesim")}
    report = capsys.readouterr().out
    assert not results[10].passed, report
    assert not results[11].passed, report
    assert results[10].measured.startswith("IncompatibleData: "), report
    assert results[11].measured.startswith("IncompatibleData: "), report


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


def test_unscaled_trace_leaves_the_stored_oracle():
    # no criterion catches trace_without_c (README's table): C10 and C11
    # keep the bump inside the square, so c = 1 on the boundary path and
    # du/dnu is c du/dnu there.  The stored-solve oracle, which samples c
    # on the path itself, does, on a bump that reaches the boundary.
    grid = WaveGrid(nx=17, k=0.6 / 16, T=1.0)
    c = bump_factor(0.2, (0.4, 0.55), 0.8, T=1.0)
    data = boundary_probes(1, 1.0)[0]
    oracle = stored_trace(c, grid, solve_dirichlet(c, grid, data).u)

    def matches():
        trace = dtn_traces([c], grid, data.sample(grid))[0]
        return np.array_equal(trace, oracle, equal_nan=True)

    assert matches()
    with trace_without_c():
        assert not matches()


def test_catalogue_lists_every_defect():
    # tests/defect_table.py runs the catalogue's entries, so a defect left
    # out of it would be missing from README's table
    made = {name for name, fn in vars(defects).items()
            if inspect.isfunction(fn) and fn.__module__ == "defects"
            and not name.startswith("_")}
    assert made == set(defects.CATALOGUE)


def test_readme_table_rows_match_catalogue():
    # README's table is printed by tests/defect_table.py: one row with no
    # defect, then one per catalogue entry with its docstring as the
    # Change cell, so an entry added or reworded without a rerun shows here
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text[text.index("| Defect | Change |"):].split("\n\n", 1)[0]
    rows = [line.strip("| ").split(" | ")[:2]
            for line in table.splitlines()[2:]]
    assert rows == [[f"`{name}`", change(name)]
                    for name in ("none", *defects.CATALOGUE)]
