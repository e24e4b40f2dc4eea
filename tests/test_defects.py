"""Each catalogued defect fails the acceptance criteria that should
catch it, with no criterion or tolerance edited."""

import pytest

from defects import inverse_no_phase, inverse_no_shift
from tdxray.harness.acceptance import run_acceptance


@pytest.mark.parametrize("defect", [inverse_no_shift, inverse_no_phase])
def test_inverse_defect_fails_log_stability_and_parseval(defect, capsys):
    with defect():
        results = {r.cid: r for r in run_acceptance("reconstruct")}
    report = capsys.readouterr().out
    assert not results[5].passed, report
    assert not results[6].passed, report
