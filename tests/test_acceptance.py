"""Acceptance gate: one test per criterion, fixed tolerances.

Each test prints its criterion line (visible with -s or on failure), so a
full run doubles as the acceptance report; a criterion prints nothing of
its own, so no pipeline output leaks into that report.  Heavy
intermediates are shared through a module-scoped context.
"""

import pytest

from tdxray.harness import acceptance as acc


@pytest.fixture(scope="module")
def ctx():
    return acc.AcceptanceContext()


def check(result, capsys):
    assert capsys.readouterr() == ("", ""), result.line()
    print(result.line())
    assert result.passed, result.line()


def test_c01_fourier_slice_identity(ctx, capsys):
    check(acc.criterion_01(ctx), capsys)


def test_c02_region_decomposition(ctx, capsys):
    check(acc.criterion_02(ctx), capsys)


def test_c03_hidden_envelope(ctx, capsys):
    check(acc.criterion_03(ctx), capsys)


def test_c04_tail_bound(ctx, capsys):
    check(acc.criterion_04(ctx), capsys)


def test_c05_log_stability_curve(ctx, capsys):
    check(acc.criterion_05(ctx), capsys)


def test_c06_parseval_split(ctx, capsys):
    check(acc.criterion_06(ctx), capsys)


def test_c07_beam_residual(ctx, capsys):
    check(acc.criterion_07(ctx), capsys)


def test_c08_beam_geometry(ctx, capsys):
    check(acc.criterion_08(ctx), capsys)


def test_c09_concentration(ctx, capsys):
    check(acc.criterion_09(ctx), capsys)


def test_c10_key_identity(ctx, capsys):
    check(acc.criterion_10(ctx), capsys)


def test_c11_conformal_stability(ctx, capsys):
    check(acc.criterion_11(ctx), capsys)


def test_c12_determinism(ctx, capsys):
    check(acc.criterion_12(ctx), capsys)
