"""Acceptance gate: one test per criterion, fixed tolerances.

Each test prints its criterion line (visible with -s or on failure), so a
full run doubles as the acceptance report; a criterion prints nothing of
its own, so no pipeline output leaks into that report.  Heavy
intermediates are shared through a module-scoped context.

The tests are made from acc.CRITERIA, one per criterion, each named
test_cNN_<name> after the criterion's declared number and name.
"""

import time

import pytest

from tdxray import wavesim
from tdxray.errors import IncompatibleData
from tdxray.harness import acceptance as acc


@pytest.fixture(scope="module")
def ctx():
    return acc.AcceptanceContext()


def criterion_test(crit):
    def test(ctx, capsys):
        result = crit(ctx)
        assert capsys.readouterr() == ("", ""), result.line()
        print(result.line())
        assert result.passed, result.line()

    return test


for _crit, _ in acc.CRITERIA:
    _name = f"test_c{_crit.cid:02d}_{_crit.name.replace('-', '_')}"
    globals()[_name] = criterion_test(_crit)


@pytest.mark.parametrize("limit_s, passed", [(60, True), (0.01, False)])
def test_time_limit_declared_once(limit_s, passed):
    # a check that passes fails over its limit, and the tolerance states
    # that same limit
    @acc.criterion(99, "fake", "<= 1", limit_s=limit_s)
    def fake(ctx):
        time.sleep(0.05)
        return True, "1"

    result = fake(None)
    assert result.passed is passed
    assert result.seconds >= 0.05
    assert result.tolerance == f"<= 1, < {limit_s} s"


def test_raising_criterion_fails_and_suite_runs_on(monkeypatch, capsys):
    # C10's experiment raises: C10 reads FAIL with the error as its
    # measured text, and C11 still runs
    def raises(*args, **kwargs):
        raise IncompatibleData("no pairing on this grid")

    monkeypatch.setattr(wavesim, "key_identity_check", raises)
    results = acc.run_acceptance("wavesim")
    assert [r.cid for r in results] == [10, 11]
    assert not results[0].passed
    assert results[0].measured == "IncompatibleData: no pairing on this grid"
    assert capsys.readouterr().out.splitlines() == [r.line() for r in results]
