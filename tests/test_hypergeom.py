"""Log-gamma, pochhammer, gamma ratios, and the Gauss 2F1 evaluator."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betajacobi.errors import (
    ConvergenceError,
    ParameterError,
    PoleError,
    UnsupportedRegionError,
)
import betajacobi.hypergeom as hypergeom
from betajacobi.hypergeom import gamma_ratio, hyp2f1, ln_gamma, pochhammer

from oracles import (
    mp_gamma_ratio,
    mp_hyp2f1,
    mp_ln_gamma,
    textbook_series,
    textbook_series_terminating,
)


class TestLnGamma:
    def test_known_values(self):
        val, sign = ln_gamma(1.0)
        assert sign == 1 and abs(val) < 1e-15
        val, sign = ln_gamma(2.0)
        assert sign == 1 and abs(val) < 1e-15
        val, sign = ln_gamma(0.5)
        assert sign == 1
        assert val == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_reflection_value(self):
        # Gamma(-1.5) = 4 sqrt(pi) / 3, positive
        val, sign = ln_gamma(-1.5)
        assert sign == 1
        assert val == pytest.approx(math.log(4.0 * math.sqrt(math.pi) / 3.0), rel=1e-13)

    def test_sign_alternation(self):
        # Gamma alternates sign between consecutive negative integers
        assert ln_gamma(-0.5)[1] == -1
        assert ln_gamma(-1.5)[1] == 1
        assert ln_gamma(-2.5)[1] == -1

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_poles_raise(self, x):
        with pytest.raises(PoleError):
            ln_gamma(x)

    def test_nonfinite_raises(self):
        with pytest.raises(ParameterError):
            ln_gamma(float("inf"))
        with pytest.raises(ParameterError):
            ln_gamma(float("nan"))

    @given(x=st.floats(-50.0, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_against_mpmath(self, x):
        if abs(x - round(x)) < 1e-3 and x < 0.5:
            return  # pole neighborhood, checked separately below
        val, sign = ln_gamma(x)
        ref_val, ref_sign = mp_ln_gamma(x)
        assert sign == ref_sign
        assert val == pytest.approx(ref_val, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("x", [-1e-5, 1e-5, -3.0 + 1e-6, -7.0 - 1e-7])
    def test_near_pole_accuracy(self, x):
        # conditioning of 1 - frac(x) limits accuracy close to the poles
        val, sign = ln_gamma(x)
        ref_val, ref_sign = mp_ln_gamma(x)
        assert sign == ref_sign
        assert val == pytest.approx(ref_val, rel=1e-9)


class TestPochhammer:
    def test_values(self):
        assert pochhammer(3.0, 4) == 360.0
        assert pochhammer(7.25, 0) == 1.0
        assert pochhammer(-0.5, 3) == pytest.approx(-0.375, rel=1e-15)

    def test_zero_base(self):
        assert pochhammer(0.0, 3) == 0.0

    def test_bad_order(self):
        with pytest.raises(ParameterError):
            pochhammer(1.0, -1)
        with pytest.raises(ParameterError):
            pochhammer(1.0, 2.5)
        # a non-finite base used to come back as NaN or inf
        for q in (float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                pochhammer(q, 3)

    def test_overflow_raises(self):
        # a product past the largest double used to come back as inf
        for q, n in ((1e308, 3), (10.0, 200), (-1e200, 2)):
            with pytest.raises(ConvergenceError, match="not finite"):
                pochhammer(q, n)


class TestGammaRatio:
    def test_simple_ratio(self):
        # Gamma(5)/Gamma(3) = 4*3 = 12
        assert gamma_ratio((5.0,), (3.0,)) == pytest.approx(12.0, rel=1e-14)

    def test_against_mpmath(self):
        cases = [
            ((2.3, 0.7), (1.1, 1.9)),
            ((10.5,), (3.25, 2.75)),
            ((-0.5, 4.0), (1.5,)),
        ]
        for nums, dens in cases:
            assert gamma_ratio(nums, dens) == pytest.approx(
                mp_gamma_ratio(nums, dens), rel=1e-12
            )

    def test_denominator_pole_is_zero(self):
        assert gamma_ratio((1.5,), (-2.0,)) == 0.0

    def test_numerator_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_ratio((-3.0,), (1.5,))

    def test_overflow_raises(self):
        with pytest.raises(ConvergenceError):
            gamma_ratio((200.0,), ())

    def test_overflow_on_both_sides_raises(self):
        # both log-gammas overflow to inf, and inf - inf used to give NaN
        for nums, dens in (((1e308,), (1e308,)), ((1e308, 0.5), (3e307,))):
            with pytest.raises(ConvergenceError):
                gamma_ratio(nums, dens)


class TestHyp2F1Basics:
    def test_at_zero(self):
        val, err = hyp2f1(0.3, 0.7, 1.2, 0.0)
        assert val == 1.0 and err == 0.0

    def test_log_identity(self):
        # 2F1(1,1;2;x) = -log(1-x)/x
        val, err = hyp2f1(1.0, 1.0, 2.0, 0.5)
        assert val == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        assert err < 1e-10

    def test_terminating_exact(self):
        # alpha = -3 gives a cubic; sum the four terms by hand
        alpha, beta, gamma, x = -3.0, 1.5, 0.8, 0.4
        expect = 1.0
        term = 1.0
        for k in range(3):
            term = term * ((alpha + k) * (beta + k)) / ((gamma + k) * (k + 1.0)) * x
            expect += term
        val, _ = hyp2f1(alpha, beta, gamma, x)
        assert val == expect

    def test_terminating_ignores_cut(self):
        # polynomial case evaluates anywhere, even past x = 1
        val, _ = hyp2f1(-2.0, 1.5, 0.7, 3.0)
        expect = 1.0 + (-2.0 * 1.5 / 0.7) * 3.0
        expect += ((-2.0 * -1.0) * (1.5 * 2.5)) / ((0.7 * 1.7) * 2.0) * 9.0
        assert val == pytest.approx(expect, rel=1e-14)

    def test_terminating_past_term_cap_raises_at_once(self):
        # a degree-10^10 polynomial used to be summed term by term
        cap = hypergeom._MAX_TERMS
        t0 = time.perf_counter()
        for alpha in (-(cap + 1.0), -1e10):
            with pytest.raises(ConvergenceError, match="term cap"):
                hyp2f1(alpha, 0.7, 1.2, 0.5)
        assert time.perf_counter() - t0 < 0.1
        # the cap itself is still summed
        val, _ = hyp2f1(-float(cap), 0.7, 1.2, 1e-6)
        assert val == pytest.approx(1.0 - cap * 0.7 / 1.2 * 1e-6, rel=1e-2)

    def test_cut_raises(self):
        for x in (1.0, 1.5, 10.0):
            with pytest.raises(UnsupportedRegionError):
                hyp2f1(0.3, 0.7, 1.2, x)

    def test_gamma_pole_raises(self):
        with pytest.raises(PoleError):
            hyp2f1(1.0, 1.0, -2.0, 0.3)
        # termination at order 5 comes after the (gamma)_k factor dies
        with pytest.raises(PoleError):
            hyp2f1(-5.0, 1.0, -2.0, 0.3)
        # termination at order 2 beats the gamma pole at order 3
        val, _ = hyp2f1(-2.0, 1.0, -2.5, 0.3)
        assert math.isfinite(val)

    def test_nonfinite_params_raise(self):
        with pytest.raises(ParameterError):
            hyp2f1(float("nan"), 1.0, 2.0, 0.3)
        # a non-finite argument too, on the terminating series as well
        for x in (float("nan"), float("inf"), complex(0.0, float("inf"))):
            for alpha in (0.3, -2.0):
                with pytest.raises(ParameterError):
                    hyp2f1(alpha, 0.7, 1.2, x)

    def test_far_region_raises(self):
        # |x|, |x/(x-1)|, |1-x| all over the series cap
        with pytest.raises(UnsupportedRegionError):
            hyp2f1(0.3, 0.7, 1.15, -5.0)

    @pytest.mark.parametrize(
        "args",
        [
            (1e308, 1.0, 1.0, 0.5),  # direct: (inf, nan), the stop test took inf
            (-60.0, 1e300, 1.0, 3.0),  # terminating: (nan, nan)
            (-700.5, 0.5, 1.5, -2.0),  # Pfaff: (1 - x)**(-alpha) raised OverflowError
            (0.5, 1e12 + 0.25, 1.5, 0.8),  # 1 - x: w**gab raised OverflowError
            (0.5, 1e12 + 0.25, 1.5, 0.8 + 0.05j),  # the same, complex
        ],
    )
    def test_overflowing_value_raises(self, args):
        with pytest.raises(ConvergenceError, match="not finite"):
            hyp2f1(*args)


class TestHyp2F1Accuracy:
    @pytest.mark.parametrize("x", [0.35, -0.6, 0.2 + 0.4j, -0.3 - 0.5j])
    def test_direct_series_vs_mpmath(self, x):
        val, err = hyp2f1(0.3, 0.7, 1.2, x)
        ref = mp_hyp2f1(0.3, 0.7, 1.2, x)
        assert abs(val - ref) <= 1e-12 * abs(ref)
        assert err < 1e-10

    @pytest.mark.parametrize("x", [-2.0, -1.5, -1.0 + 0.5j])
    def test_pfaff_region_vs_mpmath(self, x):
        # |x| over the cap but x/(x-1) inside it
        val, _ = hyp2f1(0.4, 1.1, 2.3, x)
        ref = mp_hyp2f1(0.4, 1.1, 2.3, x)
        assert abs(val - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("x", [0.95, 0.99, 0.8 + 0.1j])
    def test_near_one_vs_mpmath(self, x):
        # only the 1-x connection formula reaches these
        val, _ = hyp2f1(0.3, 0.7, 1.15, x)
        ref = mp_hyp2f1(0.3, 0.7, 1.15, x)
        assert abs(val - ref) <= 1e-9 * abs(ref)

    def test_conjugation_symmetry(self):
        for x in (0.2 + 0.4j, -1.8 + 0.3j, 0.9 + 0.05j):
            v_up, _ = hyp2f1(0.3, 0.7, 1.15, x)
            v_dn, _ = hyp2f1(0.3, 0.7, 1.15, x.conjugate())
            assert v_dn == pytest.approx(v_up.conjugate(), rel=1e-13)

    @given(
        alpha=st.floats(-2.0, 3.0),
        beta=st.floats(0.1, 3.0),
        gamma=st.floats(0.6, 4.0),
        x=st.floats(-0.6, 0.6),
    )
    @settings(max_examples=60, deadline=None)
    def test_contiguous_relation(self, alpha, beta, gamma, x):
        # (g-a) F(a-1) + (2a - g + (b-a) x) F(a) + a (x-1) F(a+1) = 0
        try:
            fm, _ = hyp2f1(alpha - 1.0, beta, gamma, x)
            f0, _ = hyp2f1(alpha, beta, gamma, x)
            fp, _ = hyp2f1(alpha + 1.0, beta, gamma, x)
        except (PoleError, UnsupportedRegionError):
            return
        resid = (
            (gamma - alpha) * fm
            + (2.0 * alpha - gamma + (beta - alpha) * x) * f0
            + alpha * (x - 1.0) * fp
        )
        scale = max(abs(fm), abs(f0), abs(fp), 1.0)
        assert abs(resid) <= 1e-9 * scale

    def test_complex_matches_real_on_axis(self):
        # complex dtype with zero imaginary part reproduces the real value
        v_real, _ = hyp2f1(0.3, 0.7, 1.2, 0.45)
        v_cplx, _ = hyp2f1(0.3, 0.7, 1.2, complex(0.45, 0.0))
        assert v_cplx.imag == 0.0
        assert v_cplx.real == v_real


def _bits(v):
    c = complex(v)
    return type(v).__name__, c.real.hex(), c.imag.hex()


def _outcome(alpha, beta, gamma, x):
    try:
        val, err = hyp2f1(alpha, beta, gamma, x)
    except (ConvergenceError, ParameterError, UnsupportedRegionError) as exc:
        return type(exc).__name__, str(exc)
    return _bits(val), _bits(err)


def _region(alpha, beta, x):
    if any(v <= 0.0 and v == math.floor(v) for v in (alpha, beta)):
        return "terminating"
    if abs(x) <= 0.7:
        return "direct"
    if abs(x / (x - 1.0)) <= 0.7:
        return "pfaff"
    if abs(1.0 - x) <= 0.7:
        return "one_minus_x"
    return "outside"


class TestSeriesLoop:
    """The tuned direct-series loop against the textbook one, bit for bit
    in both value and err: hyp2f1 with hypergeom._series, and with the
    oracle in its place, over a seeded grid reaching every region."""

    def _grid(self):
        rng = np.random.default_rng(16)
        for _ in range(400):
            alpha, beta, gamma = rng.uniform(-4.0, 4.0, 3)
            if rng.random() < 0.15:
                alpha = -float(rng.integers(0, 6))
            r = rng.uniform(0.0, 2.5)
            t = rng.uniform(-math.pi, math.pi)
            x = complex(r * math.cos(t), r * math.sin(t))
            # real arguments along the axis, and near x = 1 for 1 - x
            for arg in (x, x.real, 1.0 - 0.7 * x / max(r, 0.7)):
                yield float(alpha), float(beta), float(gamma), arg

    def test_hyp2f1_bits_match_the_textbook_loop(self, monkeypatch):
        grid = list(self._grid())
        tuned = [_outcome(*args) for args in grid]
        monkeypatch.setattr(hypergeom, "_series", textbook_series)
        textbook = [_outcome(*args) for args in grid]
        assert tuned == textbook
        values = {}
        for (alpha, beta, _, x), out in zip(grid, tuned):
            if len(out[0]) == 3:  # a value, not an exception
                key = (_region(alpha, beta, x), isinstance(x, complex))
                values[key] = values.get(key, 0) + 1
        for region in ("direct", "pfaff", "one_minus_x", "terminating"):
            for cplx in (False, True):
                assert values.get((region, cplx), 0) >= 10, (region, cplx)

    def test_series_bits_match_the_textbook_loop(self):
        # direct calls, a terminating polynomial and |x| at the cap included
        rng = np.random.default_rng(1616)
        cases = [(1.0, -1.0, 1.0, 0.5), (0.5, 0.5, 1.5, 0.7), (2.0, 3.0, 0.1, -0.7j)]
        for _ in range(300):
            alpha, beta, gamma = (float(v) for v in rng.uniform(-6.0, 6.0, 3))
            r, t = rng.uniform(0.0, 0.7), rng.uniform(-math.pi, math.pi)
            cases += [(alpha, beta, gamma, r), (alpha, beta, gamma, -r)]
            cases.append((alpha, beta, gamma, complex(r * math.cos(t), r * math.sin(t))))
        for args in cases + self.SLOW:
            got, want = hypergeom._series(*args), textbook_series(*args)
            assert [_bits(v) for v in got] == [_bits(v) for v in want], args

    # slowly converging sums, so the float index is compared deep into the
    # loop: each takes more than 1000 terms (its value is finite, about
    # 1e222 and 1e205)
    SLOW = [(1000.25, 1000.5, 2000.5, 0.7), (1000.25, 1000.5, 2000.5, -0.7)]

    def test_slow_cases_run_past_a_thousand_terms(self, monkeypatch):
        monkeypatch.setattr(hypergeom, "_MAX_TERMS", 1000)
        for args in self.SLOW:
            with pytest.raises(ConvergenceError, match="term cap"):
                hypergeom._series(*args)

    def test_terminating_bits_match_the_textbook_loop(self):
        # polynomials of degree 0..60 at real and complex x up to |x| = 3
        rng = np.random.default_rng(2929)
        for n_top in range(61):
            for _ in range(12):
                beta, gamma = (float(v) for v in rng.uniform(-6.0, 6.0, 2))
                r, t = rng.uniform(0.0, 3.0), rng.uniform(-math.pi, math.pi)
                for x in (r, -r, complex(r * math.cos(t), r * math.sin(t))):
                    args = (-float(n_top), beta, gamma, x, n_top)
                    got = hypergeom._series_terminating(*args)
                    want = textbook_series_terminating(*args)
                    assert [_bits(v) for v in got] == [_bits(v) for v in want], args
