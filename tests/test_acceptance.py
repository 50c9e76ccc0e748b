"""Acceptance harness: every built-in criterion must pass its tolerance
within its time budget.  Run with -v to get one line per criterion; the
printed detail line carries the measured value, tolerance, and runtime.
"""

import pytest

import betajacobi.acceptance as acceptance
from betajacobi.acceptance import format_line, run_criterion, slugs


@pytest.mark.parametrize("slug", slugs())
def test_criterion(slug):
    r = run_criterion(slug, threads=4)
    print(format_line(r))
    assert r.passed, format_line(r)


def test_polynomials_catches_a_wrong_zeta_asymptotic(monkeypatch):
    # a large-n constant 1% off moves the zeta_n / zeta_asymptotic gap
    # from about 1.4e-4 to about 1e-2, past its 1e-3 bound
    good = run_criterion("polynomials")
    assert good.passed and good.detail["zeta_asymptotic_gap"] <= 2e-4
    true = acceptance.zeta_asymptotic
    monkeypatch.setattr(acceptance, "zeta_asymptotic", lambda p, n: 1.01 * true(p, n))
    bad = run_criterion("polynomials")
    assert not bad.passed
    assert 0.9e-2 <= bad.detail["zeta_asymptotic_gap"] <= 1.1e-2
    assert bad.measured == good.measured
