"""Coefficient streams against an exact big-rational oracle.

The float formulas are plain rational expressions with no cancellation,
so they must track the Fraction evaluation to a few ulps uniformly in
the index.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betajacobi import (
    JacobiParams,
    ModelKind,
    ParameterError,
    lambda_hat0,
    lambda_n,
    mu_n,
    tridiag_entries,
    validate_model,
    zeta_n,
)
from oracles import (
    frac_lambda_hat0,
    frac_lambda_n,
    frac_mu_n,
    textbook_tridiag_entries,
    textbook_zeta_n,
)

REL = 1e-13


def _fractions(p: JacobiParams):
    return Fraction(p.a), Fraction(p.b), Fraction(p.c)


class TestJacobiParams:
    def test_gamma_combination(self):
        p = JacobiParams(0.25, 0.5, 3.0)
        assert p.gamma == 0.25 + 0.5 + 1.0

    def test_shifted_moves_only_c(self):
        p = JacobiParams(0.25, 0.5, 3.0).shifted(-1.0)
        assert (p.a, p.b, p.c) == (0.25, 0.5, 2.0)

    @pytest.mark.parametrize("bad", [(-1.0, 0.0), (0.0, -1.5), (np.inf, 0.0)])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ParameterError):
            JacobiParams(bad[0], bad[1], 0.0)


class TestStreamsAgainstFractions:
    def test_lambda_hat0(self, params):
        ref = frac_lambda_hat0(*_fractions(params))
        assert lambda_hat0(params) == pytest.approx(float(ref), rel=REL)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 25, 60])
    def test_lambda_n(self, params, n):
        ref = frac_lambda_n(*_fractions(params), n)
        assert lambda_n(params, n) == pytest.approx(float(ref), rel=REL)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 25, 60])
    def test_mu_n(self, params, n):
        ref = frac_mu_n(*_fractions(params), n)
        if ref == 0:
            assert mu_n(params, n) == 0.0
        else:
            assert mu_n(params, n) == pytest.approx(float(ref), rel=REL)

    def test_frozen_head_value(self):
        # (c+a+1)/(2c+a+b+2) at (0.3, 0.7, 1.2) is exactly 25/54
        assert lambda_hat0(JacobiParams(0.3, 0.7, 1.2)) == pytest.approx(
            25.0 / 54.0, rel=1e-15
        )

    def test_array_indices_match_scalars(self, params):
        idx = np.array([0, 1, 5, 9])
        lam = lambda_n(params, idx)
        mu = mu_n(params, idx)
        for j, n in enumerate(idx):
            assert lam[j] == lambda_n(params, int(n))
            assert mu[j] == mu_n(params, int(n))


class TestStreamEdgeCases:
    def test_mu0_exact_zero_at_c0(self):
        # second factor's denominator vanishes at a = -b; the exact-zero
        # shortcut must keep it untouched
        assert mu_n(JacobiParams(0.5, -0.5, 0.0), 0) == 0.0

    def test_lambda_denominator_pole(self):
        # 2n+2c+a+b+1 = 0 at n = c = 0, a + b = -1
        with pytest.raises(ParameterError):
            lambda_n(JacobiParams(-0.5, -0.5, 0.0), 0)

    def test_negative_index_rejected(self):
        p = JacobiParams(0.3, 0.7, 1.2)
        for n in (-1, np.inf, np.nan, np.array([1.0, np.nan, 3.0])):
            for stream in (lambda_n, mu_n):
                with pytest.raises(ParameterError):
                    stream(p, n)

    def test_overflowing_index_rejected(self):
        # at n = 1e308 the term 2(n + c) overflows, and the streams used
        # to return 0.0 with a RuntimeWarning instead of tending to 1/4
        import warnings

        p = JacobiParams(0.3, 0.7, 1.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stream in (lambda_n, mu_n):
                with pytest.raises(ParameterError, match="finite"):
                    stream(p, 1e308)
                with pytest.raises(ParameterError):
                    stream(p, np.array([1.0, 1e308]))
                assert stream(p, 1e300) == 0.25
            # c so large that 2c itself overflows: no index is admissible
            with pytest.raises(ParameterError):
                lambda_n(JacobiParams(0.3, 0.7, 1e308), 0)

    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_integer_shift_identity(self, c):
        # the c-stream is the plain (c = 0) stream started c steps in
        p_c = JacobiParams(0.5, 0.25, float(c))
        p_0 = JacobiParams(0.5, 0.25, 0.0)
        for n in range(1, 12):
            assert lambda_n(p_c, n) == lambda_n(p_0, n + c)
            assert mu_n(p_c, n) == mu_n(p_0, n + c)

    def test_quarter_limit_with_1_over_n_rate(self, params):
        # fit the constant at n = 100, then demand the 1/n envelope holds
        def dev(n):
            return abs(lambda_n(params, n) - 0.25) + abs(mu_n(params, n) - 0.25)

        c_fit = 100 * dev(100)
        for n in (1_000, 10_000, 100_000, 1_000_000):
            assert dev(n) <= 1.05 * c_fit / n


class TestModelValidation:
    def test_classical_pins_c(self):
        with pytest.raises(ParameterError):
            validate_model(ModelKind.CLASSICAL, JacobiParams(0.5, 0.5, 1.0))

    def test_assoc_i_constraints(self):
        with pytest.raises(ParameterError):
            validate_model(ModelKind.ASSOC_I, JacobiParams(-0.5, 0.5, 0.25))
        validate_model(ModelKind.ASSOC_I, JacobiParams(-0.5, 0.5, 0.75))

    def test_assoc_iii_weaker_constraints(self):
        # fine for III (only shifted constraints), invalid for I
        p = JacobiParams(-0.5, 0.5, 0.25)
        validate_model(ModelKind.ASSOC_III, p)
        with pytest.raises(ParameterError):
            validate_model(ModelKind.ASSOC_III, JacobiParams(-0.9, 0.5, -0.2))


class TestTridiagEntries:
    def test_first_rows_by_kind(self):
        p = JacobiParams(0.25, 0.75, 2.5)  # valid for all associated kinds
        d3, _ = tridiag_entries(ModelKind.ASSOC_III, p, 4)
        d2, _ = tridiag_entries(ModelKind.ASSOC_II, p, 4)
        d1, _ = tridiag_entries(ModelKind.ASSOC_I, p, 4)
        assert d3[0] == lambda_hat0(p)
        assert d2[0] == lambda_n(p, 0)
        assert d1[0] == lambda_n(p, 0) + mu_n(p, 0)

    @pytest.mark.parametrize("ab", [(0.5, 0.25), (1.5, 1.75)])
    def test_classical_equals_assoc_i_at_c0(self, ab):
        # the first model needs b > 0 at c = 0, so test on that shared domain
        p = JacobiParams(ab[0], ab[1], 0.0)
        dc, ec = tridiag_entries(ModelKind.CLASSICAL, p, 12)
        di, ei = tridiag_entries(ModelKind.ASSOC_I, p, 12)
        np.testing.assert_array_equal(dc, di)
        np.testing.assert_array_equal(ec, ei)

    def test_stripping_third_model_gives_first_at_c_plus_1(self, params):
        # removing row/column 1 of the third model's matrix leaves the
        # first model's matrix with c shifted by one
        d3, e3 = tridiag_entries(ModelKind.ASSOC_III, params, 9)
        d1, e1 = tridiag_entries(ModelKind.ASSOC_I, params.shifted(1.0), 8)
        np.testing.assert_allclose(d3[1:], d1, rtol=1e-15)
        np.testing.assert_allclose(e3[1:], e1, rtol=1e-14)

    def test_size_cap(self):
        # refused before anything is allocated: 10**12 used to raise a
        # bare MemoryError
        p = JacobiParams(0.3, 0.7, 1.2)
        for size in (10**12, 2**22 + 1):
            with pytest.raises(ParameterError, match="2\\*\\*22"):
                tridiag_entries(ModelKind.ASSOC_III, p, size)
        d, e = tridiag_entries(ModelKind.ASSOC_III, p, 12001)
        assert d.shape == (12001,) and e.shape == (12000,)

    def test_size_one(self, params):
        d, e = tridiag_entries(ModelKind.ASSOC_III, params, 1)
        assert d.shape == (1,) and e.shape == (0,)
        assert d[0] == lambda_hat0(params)

    @given(
        a=st.floats(-0.9, 3.0),
        b=st.floats(-0.9, 3.0),
        c=st.floats(0.0, 5.0),
        kind=st.sampled_from(list(ModelKind)),
    )
    @settings(max_examples=60, deadline=None)
    def test_entry_bounds(self, a, b, c, kind):
        # Jacobi matrices of probability measures on [0,1]: diagonal in
        # (0, 2), off-diagonal in (0, 1)
        p = JacobiParams(a, b, 0.0 if kind is ModelKind.CLASSICAL else c)
        try:
            validate_model(kind, p)
            d, e = tridiag_entries(kind, p, 30)
        except ParameterError:
            # constraint violations and underflow-degenerate corners must
            # raise rather than return garbage; either way no bad entries
            return
        assert np.all(d > 0.0) and np.all(d < 2.0)
        assert np.all(e > 0.0) and np.all(e < 1.0)


class TestStreamsInOneCheckedPass:
    """tridiag_entries and zeta_n take rows n >= 2 from one unchecked pass
    of the stream terms: the bits of lambda_n and mu_n over the index
    array (tests/oracles.py), and their ParameterError where those raise."""

    def test_random_models_match_the_public_streams(self):
        rng = np.random.default_rng(2601)
        kinds = list(ModelKind)
        checked = 0
        for _ in range(160):
            kind = kinds[rng.integers(len(kinds))]
            a, b = rng.uniform(-0.99, 4.0, 2)
            c = 0.0 if kind is ModelKind.CLASSICAL else float(rng.uniform(-0.99, 6.0))
            p = JacobiParams(float(a), float(b), c)
            try:
                validate_model(kind, p)
            except ParameterError:
                continue
            size = int(rng.integers(1, 3001))
            d, e = tridiag_entries(kind, p, size)
            want_d, want_e = textbook_tridiag_entries(kind, p, size)
            assert d.tobytes() == want_d.tobytes() and e.tobytes() == want_e.tobytes()
            if kind is ModelKind.ASSOC_III:
                assert zeta_n(p, size) == textbook_zeta_n(p, size)
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize(
        "kind", [ModelKind.ASSOC_I, ModelKind.ASSOC_II, ModelKind.ASSOC_III]
    )
    def test_overflowing_index_still_raises(self, kind):
        # at this c, 2(n + c) overflows from n = 1 on; row 0 is still finite
        p = JacobiParams(0.3, 0.7, np.finfo(float).max / 2.0)
        overflow = r"keep 2\(n \+ c\) finite"
        calls = [
            lambda: tridiag_entries(kind, p, 4),
            lambda: textbook_tridiag_entries(kind, p, 4),
        ]
        if kind is ModelKind.ASSOC_III:
            calls += [lambda: zeta_n(p, 3), lambda: textbook_zeta_n(p, 3)]
        for call in calls:
            with pytest.raises(ParameterError, match=overflow):
                call()

    def test_vanishing_denominator_still_raises(self):
        # valid ASSOC_III parameters whose mu_1 denominator 2 + a + b
        # rounds to 0
        a = -1.0 + 2.0**-53
        p = JacobiParams(a, a, 0.0)
        validate_model(ModelKind.ASSOC_III, p)
        with pytest.raises(ParameterError, match="mu_n denominator vanishes"):
            mu_n(p, np.arange(1.0, 4.0))
        for call in (
            lambda: tridiag_entries(ModelKind.ASSOC_III, p, 5),
            lambda: zeta_n(p, 4),
        ):
            with pytest.raises(ParameterError, match="mu_n denominator vanishes"):
                call()
