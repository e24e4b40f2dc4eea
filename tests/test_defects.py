"""Each catalogued defect fails the acceptance criteria that should
catch it, with no criterion or tolerance edited."""

import inspect

import pytest

import defects
from defects import fill_conj, inverse_no_phase, inverse_no_shift
from tdxray.harness.acceptance import run_acceptance


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


def test_catalogue_lists_every_defect():
    # tests/defect_table.py runs the catalogue's entries, so a defect left
    # out of it would be missing from README's table
    made = {name for name, fn in vars(defects).items()
            if inspect.isfunction(fn) and fn.__module__ == "defects"
            and not name.startswith("_")}
    assert made == set(defects.CATALOGUE)
