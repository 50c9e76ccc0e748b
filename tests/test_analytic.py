"""Closed-form transforms, density routes, and the polynomial formulas."""

import math
import time
import warnings

import numpy as np
import pytest

from betajacobi import (
    ConvergenceError,
    ConvergenceWarning,
    DensityProfile,
    JacobiParams,
    ModelKind,
    ParameterError,
    UnsupportedRegionError,
    density_closed,
    density_numeric,
    density_profile,
    gamma_ratio,
    gauss_quadrature,
    lambda_hat0,
    lambda_n,
    mu_n,
    pn_combination,
    pn_explicit,
    pn_recurrence,
    recurrence_rn,
    stieltjes_auto,
    stieltjes_cf,
    stieltjes_closed,
    tridiag_entries,
    wimp_rn,
    zeta_asymptotic,
    zeta_n,
)

from betajacobi.analytic import _degree_free_2f1

from oracles import backward_cf, beta_density, textbook_rn_steps, uniform_stieltjes

P_REF = JacobiParams(0.3, 0.7, 1.2)


class TestStieltjesClosed:
    def test_far_field_expansion(self):
        # S(z) = -1/z - m1/z^2 + O(1/z^3), m1 the head diagonal entry
        z = 40.0 + 25.0j
        s = stieltjes_closed(ModelKind.ASSOC_III, P_REF, z)
        lead = -1.0 / z - lambda_hat0(P_REF) / z**2
        assert abs(s - lead) <= 2.0 / abs(z) ** 3

    def test_uniform_log_oracle(self):
        p = JacobiParams(0.0, 0.0, 0.0)
        for z in (2.0 + 1.0j, -1.5 + 0.5j, 0.3 + 2.0j):
            s = stieltjes_closed(ModelKind.ASSOC_III, p, z)
            assert s == pytest.approx(uniform_stieltjes(z), rel=1e-12)

    def test_agrees_with_continued_fraction(self, params):
        for z in (2.0 + 1.0j, -1.0 + 1.5j, 3.0 - 0.4j):
            closed = stieltjes_closed(ModelKind.ASSOC_III, params, z)
            cf = stieltjes_cf(ModelKind.ASSOC_III, params, z, depth=2000)
            assert closed == pytest.approx(cf, rel=1e-9)

    def test_kinds_differ_off_c0(self):
        z = 2.0 + 1.0j
        s3 = stieltjes_closed(ModelKind.ASSOC_III, P_REF, z)
        s2 = stieltjes_closed(ModelKind.ASSOC_II, P_REF, z)
        s1 = stieltjes_closed(ModelKind.ASSOC_I, P_REF, z)
        assert abs(s3 - s2) > 1e-4
        assert abs(s3 - s1) > 1e-4

    def test_one_level_recursion_identity(self, params):
        # -1/S(z) = z - d1 + e1^2 * S_stripped(z), and stripping the head
        # row leaves the first-kind operator at c+1
        d, e = tridiag_entries(ModelKind.ASSOC_III, params, 2)
        for z in (2.0 + 1.0j, -1.2 + 0.8j):
            s3 = stieltjes_closed(ModelKind.ASSOC_III, params, z)
            s1 = stieltjes_closed(ModelKind.ASSOC_I, params.shifted(1.0), z)
            lhs = -1.0 / s3
            rhs = z - d[0] + e[0] ** 2 * s1
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_zero_z_raises(self):
        with pytest.raises(ParameterError):
            stieltjes_closed(ModelKind.ASSOC_III, P_REF, 0.0)
        # z = inf and i inf used to give nan+nanj labelled closed, and z =
        # nan UnsupportedRegionError
        for z in (complex("inf"), complex(0.0, float("inf")), complex("nan")):
            with pytest.raises(ParameterError):
                stieltjes_closed(ModelKind.ASSOC_III, P_REF, z)
            with pytest.raises(ParameterError):
                stieltjes_auto(ModelKind.ASSOC_III, P_REF, z)
        # real z in (0, 1] is on the support: the closed form refuses it
        # (it used to raise UnsupportedRegionError from its cut), and so
        # does the fallback fraction (it used to return a real number)
        for z in (0.25, 0.5, 1.0):
            with pytest.raises(ParameterError, match="on the support"):
                stieltjes_closed(ModelKind.ASSOC_III, P_REF, z)
            with pytest.raises(ParameterError, match="on the support"):
                stieltjes_auto(ModelKind.ASSOC_III, P_REF, z)

    @pytest.mark.parametrize(
        "z",
        ["2", b"2", True, np.bool_(True), np.array(["2"]), [2.0, "3"], None, object()],
        ids=["str", "bytes", "bool", "np_bool", "str_array", "mixed_list", "none", "object"],
    )
    def test_non_number_z_raises(self, z):
        # '2' used to pass as 2 + 0j through complex(z) and np.asarray,
        # and b'2' raised a bare TypeError in the closed route only
        for route in (stieltjes_closed, stieltjes_cf, stieltjes_auto):
            with pytest.raises(ParameterError, match="z must be a number"):
                route(ModelKind.ASSOC_III, P_REF, z)

    @pytest.mark.parametrize(
        "z",
        [np.array([2.0]), [2.0, 3.0], np.full((2, 2), 2.0 + 0.5j)],
        ids=["one_element", "list", "two_by_two"],
    )
    def test_array_z_raises_in_the_one_point_routes(self, z):
        # complex(z) used to leak a bare TypeError here, while
        # stieltjes_cf takes the same z and returns an array
        for route in (stieltjes_closed, stieltjes_auto):
            with pytest.raises(ParameterError, match="use stieltjes_cf for arrays"):
                route(ModelKind.ASSOC_III, P_REF, z)
        assert np.shape(stieltjes_cf(ModelKind.ASSOC_III, P_REF, z)) == np.shape(z)

    def test_zero_d_array_z_is_one_point(self):
        # -0.5j is past the closed form's regions: auto takes the fraction
        for route, points in ((stieltjes_closed, (2.0, 2.0 + 1.0j)),
                              (stieltjes_auto, (2.0, 2.0 + 1.0j, -0.5j))):
            for z in points:
                want = route(ModelKind.ASSOC_III, P_REF, z)
                assert repr(route(ModelKind.ASSOC_III, P_REF, np.array(z))) == repr(want)

    def test_auto_routes(self):
        val, route = stieltjes_auto(ModelKind.ASSOC_III, P_REF, 2.0 + 1.0j)
        assert route == "closed"
        # 1/z outside every implemented series region falls back
        val2, route2 = stieltjes_auto(ModelKind.ASSOC_III, P_REF, -0.5j)
        assert route2 == "cf"
        assert val2.imag != 0.0

    def test_closed_term_cap_falls_back_to_cf(self, monkeypatch):
        # the closed form's 2F1 used to raise ConvergenceError out of auto.
        # At c = 1e5 its sum turns NaN, which now ends the series at once
        # ("not finite") where it used to run to the term cap
        p = JacobiParams(0.3, 0.7, 1e5)
        z = 2.0 + 1.0j
        with pytest.raises(UnsupportedRegionError, match="not finite"):
            stieltjes_closed(ModelKind.ASSOC_III, p, z)
        val, route = stieltjes_auto(ModelKind.ASSOC_III, p, z)
        assert route == "cf"
        assert val == stieltjes_cf(ModelKind.ASSOC_III, p, z)
        assert val == pytest.approx(-0.4562 + 0.3288j, abs=1e-4)
        # a finite sum past the term cap is unsupported the same way
        import betajacobi.hypergeom as hypergeom

        monkeypatch.setattr(hypergeom, "_MAX_TERMS", 10)
        with pytest.raises(UnsupportedRegionError, match="term cap"):
            stieltjes_closed(ModelKind.ASSOC_III, P_REF, z)

    def test_closed_overflow_falls_back_to_cf(self, monkeypatch):
        # a 2F1 sum that overflows raises ConvergenceError ("not finite")
        # where (inf, nan) used to come back; auto takes the fraction
        import betajacobi.analytic as an

        real_hyp2f1 = an.hyp2f1
        monkeypatch.setattr(an, "hyp2f1", lambda *args: real_hyp2f1(1e308, 1.0, 1.0, 0.5))
        z = 2.0 + 1.0j
        with pytest.raises(UnsupportedRegionError, match="not finite"):
            stieltjes_closed(ModelKind.ASSOC_III, P_REF, z)
        val, route = stieltjes_auto(ModelKind.ASSOC_III, P_REF, z)
        assert route == "cf"
        assert val == stieltjes_cf(ModelKind.ASSOC_III, P_REF, z)

    def test_cf_fallback_near_support(self):
        # the fallback fraction keeps a continuous tail: at depth 2000 a
        # zero tail was off by 6.7e-4 here, at depth 400 by 0.34
        z = 0.5 + 1e-3j
        with pytest.warns(ConvergenceWarning):
            val, route = stieltjes_auto(ModelKind.ASSOC_III, P_REF, z)
        assert route == "cf"
        d, e = tridiag_entries(ModelKind.ASSOC_III, P_REF, 40001)
        want = backward_cf(d, e, z, "limit")
        assert abs(val - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("z", [1e-5j, -1e-5, -1e-6, -1e-4])
    def test_cf_fallback_deepens_at_the_lower_edge(self, z):
        # the fallback depth grows like 12 / sqrt(distance to [0, 1]):
        # at a fixed depth 400 these were off by 1.6e-5, 3.5e-6, 3.3e-4
        # and 1.6e-11, each with only a ConvergenceWarning
        want = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z, depth=400_000, warn_tol=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            val, route = stieltjes_auto(ModelKind.ASSOC_III, P_REF, z)
        assert route == "cf"
        assert abs(val - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("z", [-1e-13, 1e-13j])
    def test_cf_fallback_past_the_size_cap_names_point_and_depth(self, z):
        # depth 12 / sqrt(1e-13) passes 2**22 rows; the error used to be
        # tridiag_entries' "size must be <= 2**22", naming neither
        with pytest.raises(ParameterError, match="1e-13 from the support.*depth 37947331"):
            stieltjes_auto(ModelKind.ASSOC_III, P_REF, z)


class TestBoundarySolutions:
    def test_u_at_origin_is_gamma_normalizer(self):
        from betajacobi import u_of_x

        want = gamma_ratio((P_REF.c + 1.0, P_REF.a + 1.0), (P_REF.c + P_REF.a + 1.0,))
        assert u_of_x(P_REF, 0.0) == want

    def test_v_vanishes_at_c0_and_origin(self):
        from betajacobi import v_of_x

        assert v_of_x(JacobiParams(0.5, 0.5, 0.0), 0.3) == 0.0
        assert v_of_x(P_REF, 0.0) == 0.0
        # x^(1+a) prefactor pulls v to zero near the left edge
        assert abs(v_of_x(P_REF, 1e-8)) < 1e-9

    def test_v_rejects_sine_zero(self):
        from betajacobi import v_of_x

        with pytest.raises(ParameterError):
            v_of_x(JacobiParams(0.0, 0.5, 1.0), 0.3)

    @pytest.mark.parametrize(
        "abc, x",
        [
            ((-0.413, 0.386, -0.438), -0.868),  # returned (0.34-1.22j)
            ((1.08, 4.4e252, 2.0), -0.354),  # raised a bare OverflowError
            ((0.3, 0.7, 1.0), 1.5),  # terminating 2F1, returned (-3.96+5.45j)
        ],
    )
    def test_v_refuses_x_off_the_unit_interval(self, abc, x):
        from betajacobi import v_of_x

        with pytest.raises(ParameterError, match=r"^v_of_x needs x in \[0, 1\]"):
            v_of_x(JacobiParams(*abc), x)

    def test_v_overflow_raises(self):
        from betajacobi import v_of_x

        # the coefficient c / sin(pi a) * gamma ratio overflows: inf * 0
        # came back as NaN at x = 0, -inf just right of it, and pi a past
        # 5.7e307 leaked ValueError (a within 1e-8 of an integer, where
        # 1/sin(pi a) itself blows up, is refused before the product)
        for abc, x in (((30 + 2e-8, 0.5, 3e10 + 0.5), 0.0), ((30 + 2e-8, 0.5, 3e10 + 0.5), 1e-300)):
            with pytest.raises(ConvergenceError, match="not finite"):
                v_of_x(JacobiParams(*abc), x)
        with pytest.raises(ParameterError, match="away from the integers"):
            v_of_x(JacobiParams(5.8e307, 0.5, 1.0), 0.5)

    @pytest.mark.parametrize("a", [1.0, 2.0, 3.0, 5.0, 1.0 + 1e-9, 1e15, 1e-300])
    def test_v_refuses_integer_a(self, a):
        from betajacobi import v_of_x

        # sin(pi a) is -2.4e-16, not 0, at a = 2: v_of_x returned -5.9e15
        # at a = 1, 1.3e15 at a = 2, and 0.0 at a = 1e15
        with pytest.raises(ParameterError, match=r"^v_of_x needs a away from the integers"):
            v_of_x(JacobiParams(a, 0.5, 1.0), 0.3)
        assert v_of_x(JacobiParams(a, 0.5, 0.0), 0.3) == 0.0

    def test_nonfinite_x_raises(self):
        from betajacobi import u_of_x, v_of_x

        for x in (np.nan, np.inf):
            for p in (P_REF, JacobiParams(0.3, 0.7, 0.0)):
                with pytest.raises(ParameterError):
                    u_of_x(p, x)
                with pytest.raises(ParameterError):
                    v_of_x(p, x)


class TestDensityClosed:
    @pytest.mark.parametrize("ab", [(0.5, 0.5), (0.9, 0.2)])
    def test_c0_collapses_to_beta(self, ab):
        a, b = ab
        p = JacobiParams(a, b, 0.0)
        for x in (0.1, 0.35, 0.6, 0.9):
            want = beta_density(a + 1.0, b + 1.0, x)
            assert density_closed(p, x) == pytest.approx(want, rel=1e-10)

    def test_positive_on_interior(self, params):
        if abs(params.a - round(params.a)) <= 1e-8:
            pytest.skip("closed form needs non-integer a")
        if params.c + params.a <= 0.0 or params.c + params.b <= 0.0:
            pytest.skip("outside the closed-form domain")
        vals = density_closed(params, np.array([0.2, 0.5, 0.8]))
        assert np.all(vals > 0.0)

    def test_rejects_endpoints(self):
        with pytest.raises(ParameterError):
            density_closed(P_REF, 0.0)
        with pytest.raises(ParameterError):
            density_closed(P_REF, 1.0)

    def test_rejects_nan_before_hyp2f1(self, monkeypatch):
        # NaN used to reach hyp2f1 and raise UnsupportedRegionError
        import betajacobi.analytic as an

        def unreachable(*args):
            raise AssertionError("hyp2f1 called")

        monkeypatch.setattr(an, "hyp2f1", unreachable)
        for x in (np.nan, [0.5, np.nan]):
            with pytest.raises(ParameterError):
                density_closed(P_REF, x)

    def test_rejects_integer_a(self):
        with pytest.raises(ParameterError):
            density_closed(JacobiParams(1.0, 0.5, 1.0), 0.5)

    def test_term_cap_is_unsupported_at_once(self):
        # a + b + 1 is an integer, so U's 2F1 terminates at degree c + 2:
        # 10^10 terms used to be summed, and at c = 10^6 NaN came back
        t0 = time.perf_counter()
        for c in (1e6, 1e10):
            with pytest.raises(UnsupportedRegionError, match="term cap"):
                density_closed(JacobiParams(0.3, 0.7, c), 0.5)
        assert time.perf_counter() - t0 < 0.5

    def test_nonfinite_value_is_unsupported(self):
        # at c = 1000 the 2F1 sums lose every digit and the value was NaN
        with pytest.raises(UnsupportedRegionError, match="not finite"):
            density_closed(JacobiParams(0.3, 0.7, 1e3), np.array([0.3, 0.5]))

    def test_rejects_invalid_domain(self):
        # c + b <= 0 has no normalizable closed form
        with pytest.raises(ParameterError):
            density_closed(JacobiParams(0.5, -0.8, 0.5), 0.5)


class TestDensityNumeric:
    def test_uniform_center(self):
        p = JacobiParams(0.0, 0.0, 0.0)
        val = density_numeric(ModelKind.ASSOC_III, p, 0.5)
        assert val == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("abc", [(0.5, 0.5, 1.0), (-0.3, 0.8, 2.0)])
    def test_matches_closed_form(self, abc):
        p = JacobiParams(*abc)
        xs = np.array([0.2, 0.5, 0.8])
        want = density_closed(p, xs)
        got = density_numeric(ModelKind.ASSOC_III, p, xs, eps=1e-6)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_bad_eps_raises(self):
        # NaN used to raise a bare ValueError from int(12 / sqrt(eps))
        for eps in (0.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                density_numeric(ModelKind.ASSOC_III, P_REF, 0.5, eps=eps)

    @pytest.mark.parametrize("x", [-0.5, 0.0, 1.0, 1.5, np.nan, [0.5, 1.0]])
    def test_open_interval_domain(self, x, monkeypatch):
        # one domain for both density routes, checked before any fraction
        # is built; at x = -0.5 and 1.0 the numeric route used to return
        # 4.6e-7 and 7.8e-4, and a NaN reported "z must be finite"; the
        # array guard refuses a NaN before the range test
        import betajacobi.analytic as an

        def unreachable(*args, **kwargs):
            raise AssertionError("a continued fraction was built")

        monkeypatch.setattr(an, "_cf_values", unreachable)
        for route in (
            lambda: density_numeric(ModelKind.ASSOC_III, P_REF, x),
            lambda: density_closed(P_REF, x),
        ):
            message = "^x must be finite" if np.isnan(x).any() else r"open interval \(0, 1\)"
            with pytest.raises(ParameterError, match=message):
                route()

    def test_tiny_eps_hits_the_size_cap(self):
        # depth 3 / sqrt(eps) = 3e150 reaches tridiag_entries' cap; it
        # used to raise numpy's "Maximum allowed dimension exceeded"
        with pytest.raises(ParameterError, match="size"):
            density_numeric(ModelKind.ASSOC_III, P_REF, 0.5, eps=1e-300)
        # x = 0.5 runs the bulk depth 3 / sqrt(eps)
        with pytest.raises(ParameterError, match="1e-15 from the support.*depth 94868329"):
            density_numeric(ModelKind.ASSOC_III, P_REF, 0.5, eps=1e-15)

    def test_nonfinite_value_raises(self, monkeypatch):
        # a transform that comes back infinite must not become a density
        import betajacobi.analytic as an

        def overflowed(kind, p, z, depths, warn_tol):
            return np.where(np.real(z) > 0.4, complex(0.0, np.inf), 0.5j)

        monkeypatch.setattr(an, "_cf_values", overflowed)
        with pytest.raises(ConvergenceError, match="inverted transform is not finite"):
            density_numeric(ModelKind.ASSOC_III, P_REF, [0.2, 0.5])


class TestDensityProfile:
    def test_mass_near_one(self):
        grid = np.arange(1, 2001) / 2001.0
        prof, route = density_profile(JacobiParams(0.5, 0.5, 1.0), grid)
        assert route == "closed"
        assert prof.mass == pytest.approx(1.0, abs=1e-3)

    def test_integer_a_falls_back_to_numeric(self):
        grid = np.arange(1, 40) / 40.0
        prof, route = density_profile(JacobiParams(1.0, 0.5, 1.0), grid, eps=1e-5)
        assert route == "numeric"
        assert np.all(prof.values >= 0.0)

    def test_closed_term_cap_falls_back_to_numeric(self):
        # the closed form used to raise ConvergenceError out of the auto route
        p = JacobiParams(0.3, 0.6, 1e3)
        prof, route = density_profile(p, [0.3, 0.5])
        assert route == "numeric"
        np.testing.assert_array_equal(
            prof.values, density_numeric(ModelKind.ASSOC_III, p, [0.3, 0.5])
        )
        # c = 1000 is deep in the arcsine regime: 1 / (pi sqrt(x (1 - x)))
        assert prof.values[1] == pytest.approx(2.0 / math.pi, rel=2e-3)

    def test_closed_method_raises_on_integer_a(self):
        grid = np.arange(1, 10) / 10.0
        with pytest.raises(ParameterError):
            density_profile(JacobiParams(1.0, 0.5, 1.0), grid, method="closed")

    def test_unknown_method_raises(self):
        with pytest.raises(ParameterError):
            density_profile(P_REF, np.array([0.3, 0.6]), method="mystery")

    @pytest.mark.parametrize("method", ["auto", "closed", "numeric"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_grid_raises(self, monkeypatch, method, bad):
        # rejected before a route is picked: neither route runs
        import betajacobi.analytic as an

        def unreachable(*args, **kwargs):
            raise AssertionError("a density route ran")

        monkeypatch.setattr(an, "density_closed", unreachable)
        monkeypatch.setattr(an, "density_numeric", unreachable)
        with pytest.raises(ParameterError, match="finite"):
            density_profile(P_REF, np.array([0.3, bad, 0.6]), method=method)

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            DensityProfile(P_REF, np.array([0.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(ParameterError):
            DensityProfile(P_REF, np.array([0.5, 0.3]), np.array([1.0, 1.0]))
        with pytest.raises(ParameterError):
            DensityProfile(P_REF, np.array([0.3, 0.5]), np.array([1.0, -0.1]))


class TestRnPolynomials:
    def test_degree_zero_and_one(self, params):
        assert recurrence_rn(params, 0, 0.37) == 1.0
        x = 0.37
        lam0 = lambda_n(params, 0)
        mu0 = mu_n(params, 0)
        want = (
            (x - lam0 - mu0)
            * (params.c + params.a + 1.0)
            / ((params.c + 1.0) * lam0)
        )
        assert recurrence_rn(params, 1, x) == pytest.approx(want, rel=1e-14)

    def test_c0_head_is_safe(self):
        # the j = 0 step must not divide by j + c when c = 0
        val = recurrence_rn(JacobiParams(0.5, 0.5, 0.0), 3, 0.4)
        assert math.isfinite(val)

    def test_negative_degree_raises(self):
        with pytest.raises(ParameterError):
            recurrence_rn(P_REF, -1, 0.5)
        # a non-finite x used to return NaN
        for x in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                recurrence_rn(P_REF, 3, x)

    def test_vanishing_denominator_raises(self):
        # lambda_0 = 0 here (c + a + b + 1 = 0), and P_1's head has c + 1 = 0:
        # both used to leak ZeroDivisionError
        with pytest.raises(ParameterError, match="vanishes"):
            recurrence_rn(JacobiParams(0.5, 1.0, -2.5), 2, 0.3)
        with pytest.raises(ParameterError, match="vanishes"):
            pn_recurrence(JacobiParams(0.5, 1.0, -1.0), 3, 0.3)

    def test_overflowing_value_raises(self):
        # R_40(1e10) is past the largest double; pn_combination's sum of
        # two overflowed terms used to come back as NaN
        with pytest.raises(ConvergenceError, match="not finite"):
            recurrence_rn(P_REF, 40, 1e10)
        with pytest.raises(ConvergenceError, match="not finite"):
            pn_combination(JacobiParams(0.0, 0.0, 4.5e102), 1, 0.0)

    @pytest.mark.parametrize(
        "abc",
        [(0.3, 0.7, 1.2), (0.3, 0.2, 1.5), (-0.4, 0.9, 0.6)],
    )
    def test_explicit_formula_agrees(self, abc):
        p = JacobiParams(*abc)
        for n in range(11):
            for x in (0.2, 0.5, 0.8):
                r_rec = recurrence_rn(p, n, x)
                r_exp = wimp_rn(p, n, x)
                assert r_exp == pytest.approx(r_rec, rel=5e-8, abs=1e-12)

    def test_explicit_formula_guards(self):
        with pytest.raises(ParameterError):
            wimp_rn(JacobiParams(1.0, 0.5, 1.0), 3, 0.5)  # integer a
        with pytest.raises(ParameterError):
            wimp_rn(JacobiParams(0.5, -0.5, 0.0), 3, 0.5)  # gamma + 2c = 1


class TestPnPolynomials:
    def test_degree_zero_and_one(self, params):
        assert pn_recurrence(params, 0, 0.42) == 1.0
        x = 0.42
        lam = lambda_hat0(params)
        want = (x - lam) * (params.c + params.a + 1.0) / ((params.c + 1.0) * lam)
        assert pn_recurrence(params, 1, x) == pytest.approx(want, rel=1e-14)

    def test_combination_route_agrees(self, params):
        for n in range(9):
            for x in (0.2, 0.5, 0.8):
                v1 = pn_recurrence(params, n, x)
                v2 = pn_combination(params, n, x)
                assert v2 == pytest.approx(v1, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 4])
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_nonfinite_x_raises(self, n, x):
        # NaN used to come back as NaN (or as 1.0 at degree 0), or as
        # UnsupportedRegionError from hyp2f1 on the explicit routes
        for route in (pn_recurrence, pn_combination, pn_explicit, wimp_rn):
            with pytest.raises(ParameterError):
                route(P_REF, n, x)

    def test_three_routes_agree(self):
        p = JacobiParams(0.3, 0.7, 2.0)
        for n in range(11):
            for x in (0.2, 0.5, 0.8):
                v1 = pn_recurrence(p, n, x)
                v2 = pn_combination(p, n, x)
                v3 = pn_explicit(p, n, x)
                scale = max(abs(v1), 1e-12)
                assert abs(v2 - v1) <= 1e-11 * scale
                assert abs(v3 - v1) <= 5e-7 * scale

    def test_explicit_guards(self):
        with pytest.raises(ParameterError):
            pn_explicit(JacobiParams(2.0, 0.5, 1.0), 3, 0.5)

    def test_orthogonality_under_spectral_rule(self):
        # the M-point rule integrates degree <= 2M-1 exactly, so distinct
        # P's must be orthogonal under it
        p = JacobiParams(0.3, 0.7, 2.0)
        rule = gauss_quadrature(ModelKind.ASSOC_III, p, 8)
        vals = np.array(
            [[pn_recurrence(p, n, float(x)) for x in rule.nodes] for n in range(6)]
        )
        gram = (vals * rule.weights) @ vals.T
        norms = np.sqrt(np.diag(gram))
        off = gram / np.outer(norms, norms) - np.eye(6)
        assert np.max(np.abs(off)) < 1e-8

    def test_zeta_normalizes(self):
        p = JacobiParams(0.3, 0.7, 2.0)
        rule = gauss_quadrature(ModelKind.ASSOC_III, p, 9)
        for n in range(7):
            pn = np.array([pn_recurrence(p, n, float(x)) for x in rule.nodes])
            norm2 = float(np.sum(rule.weights * (pn / zeta_n(p, n)) ** 2))
            assert norm2 == pytest.approx(1.0, rel=1e-6)


def _route_outcome(route, p, n, x):
    try:
        return route(p, n, x).hex()
    except (ParameterError, UnsupportedRegionError) as exc:
        return type(exc).__name__, str(exc)


MEMO_POINTS = [
    (JacobiParams(0.3, 0.7, 1.5), 0.3),
    (P_REF, 0.55),
    (JacobiParams(-0.3, 0.8, 2.0), 0.9),
    (JacobiParams(0.5, -0.25, 1.75), -0.4),
]


class TestDegreeFreeMemo:
    """wimp_rn and pn_explicit evaluate their degree-free 2F1 factors
    through a memo that keeps only the most recent point."""

    def test_sweeps_match_unmemoized_calls(self):
        # each point alone (the memo hits), then two points interleaved
        schedules = [[pt] for pt in MEMO_POINTS] + [MEMO_POINTS[:2], MEMO_POINTS[2:]]
        for points in schedules:
            calls = [
                (route, p, n, x)
                for n in range(11)
                for p, x in points
                for route in (wimp_rn, pn_explicit)
            ]
            _degree_free_2f1.cache_clear()
            warm = [_route_outcome(*call) for call in calls]
            if len(points) == 1:
                assert _degree_free_2f1.cache_info().hits == 40
            cold = []
            for call in calls:
                _degree_free_2f1.cache_clear()
                cold.append(_route_outcome(*call))
            assert warm == cold

    def test_raising_factor_raises_as_unmemoized(self):
        # at x = -5 the first degree-free factor of both routes is outside
        # every 2F1 region; no exception is stored, so every call raises
        msg = (
            "argument -5.0 outside the direct/Pfaff/1-x evaluation regions; "
            "use the continued-fraction route"
        )
        _degree_free_2f1.cache_clear()
        for route in (wimp_rn, pn_explicit):
            for n in (0, 1, 4, 1):
                with pytest.raises(UnsupportedRegionError) as info:
                    route(JacobiParams(0.3, 0.7, 1.5), n, -5.0)
                assert type(info.value) is UnsupportedRegionError
                assert str(info.value) == msg
        assert _degree_free_2f1.cache_info().currsize == 0

    def test_memo_stays_bounded(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            a, b = rng.uniform(0.1, 0.9, 2)
            p = JacobiParams(float(a), float(b), float(rng.uniform(0.5, 2.5)))
            x = float(rng.uniform(0.05, 0.95))
            for n in range(3):
                wimp_rn(p, n, x)
                pn_explicit(p, n, x)
        info = _degree_free_2f1.cache_info()
        assert info.maxsize == 4
        assert info.currsize <= info.maxsize


def _steps_scalar(p, x, j0, n, r_prev, r):
    """The recurrence one step at a time on scalar lambda_n, mu_n."""
    a, c = p.a, p.c
    for j in range(j0, n):
        lam, mu = lambda_n(p, j), mu_n(p, j)
        rhs = (x - lam - mu) * r
        if r_prev != 0.0:
            rhs -= (j + c + a) / (j + c) * mu * r_prev
        r_prev, r = r, rhs * (j + c + a + 1.0) / ((j + c + 1.0) * lam)
    return r


class TestRecurrenceStreams:
    """The recurrences on precomputed coefficient streams against a
    per-step loop on the scalar streams, bit for bit.  The parameter grid
    holds a = b, where the odd degrees vanish at x = 1/2 and only the
    rounding residue is compared."""

    @pytest.mark.parametrize("x", [0.5, 0.2, 0.83, 1.3])
    def test_bitwise_against_scalar_steps(self, params, x):
        a, b, c = params.a, params.b, params.c
        g = params.gamma
        lam0 = lambda_hat0(params)
        up = params.shifted(1.0)
        coef = c * (c + b) * (2.0 * c + g + 1.0) / (
            (c + 1.0) * (2.0 * c + g - 1.0) * (c + g)
        ) - x * c * (2.0 * c + g + 1.0) / ((c + 1.0) * (c + g))
        for n in range(26):
            r = _steps_scalar(params, x, 0, n, 0.0, 1.0)
            assert recurrence_rn(params, n, x) == r
            p1 = (x - lam0) * (c + a + 1.0) / ((c + 1.0) * lam0)
            pn = 1.0 if n == 0 else _steps_scalar(params, x, 1, n, 1.0, p1)
            assert pn_recurrence(params, n, x) == pn
            if n:
                comb = r + coef * _steps_scalar(up, x, 0, n - 1, 0.0, 1.0)
                assert pn_combination(params, n, x) == comb


class TestRecurrenceLoop:
    """The float-indexed recurrence loop against the int-indexed one
    (tests/oracles.py textbook_rn_steps) put in its place, bit for bit, on
    the three routes that run it: a seeded grid of weights a, b > -1 with
    c = 0 (mu_0 = 0) for a third of the points, degrees 0..40."""

    def _grid(self):
        rng = np.random.default_rng(2930)
        for i in range(45):
            a, b = (float(v) for v in rng.uniform(-0.9, 3.0, 2))
            c = 0.0 if i % 3 == 0 else float(rng.uniform(0.0, 4.0))
            for x in (0.5, float(rng.uniform(-0.5, 1.5)), 0.0):
                yield JacobiParams(a, b, c), x

    def _values(self):
        return [
            route(p, n, x).hex()
            for p, x in self._grid()
            for n in range(41)
            for route in (recurrence_rn, pn_recurrence, pn_combination)
        ]

    def test_bits_match_the_textbook_loop(self, monkeypatch):
        import betajacobi.analytic as an

        tuned = self._values()
        monkeypatch.setattr(an, "_rn_steps", textbook_rn_steps)
        assert tuned == self._values()
        assert len(tuned) == 45 * 3 * 41 * 3


class TestZeta:
    def test_head_values(self, params):
        assert zeta_n(params, 0) == 1.0
        want = (
            math.sqrt(mu_n(params, 1) / lambda_hat0(params))
            * (params.c + params.a + 1.0)
            / (params.c + 1.0)
        )
        assert zeta_n(params, 1) == pytest.approx(want, rel=1e-13)

    def test_large_n_shape(self):
        # zeta_n * sqrt(2n) levels off at sqrt of the gamma normalizer
        r_small = zeta_n(P_REF, 100) / zeta_asymptotic(P_REF, 100)
        r_large = zeta_n(P_REF, 10_000) / zeta_asymptotic(P_REF, 10_000)
        assert abs(r_large - 1.0) < 1e-2
        assert abs(r_large - 1.0) < abs(r_small - 1.0)

    @pytest.mark.parametrize("n", [10**2, 10**3, 10**4, 10**5])
    def test_large_n_gap_falls_as_one_over_n(self, n):
        # at the polynomials criterion's parameters zeta_n / zeta_asymptotic
        # - 1 is -1.355 / n to within 2%, so the criterion's bound of 1e-3
        # at n = 10^4 sits a factor 7 above the true gap
        p = JacobiParams(0.3, 0.7, 1.5)
        scaled = n * (zeta_n(p, n) / zeta_asymptotic(p, n) - 1.0)
        assert -1.38 < scaled < -1.32

    def test_validation(self):
        with pytest.raises(ParameterError):
            zeta_n(P_REF, -2)
        with pytest.raises(ParameterError):
            zeta_asymptotic(P_REF, 0)
        # NaN used to pass the n < 1 test and return NaN
        for n in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                zeta_asymptotic(P_REF, n)

    def test_model_check_comes_first(self):
        # zeta_asymptotic leaked "math domain error" and zeta_n(p, 0)
        # returned 1.0 where n = 1 raised
        with pytest.raises(ParameterError, match="assoc-iii requires"):
            zeta_asymptotic(JacobiParams(-0.767, 0.0, -0.569), 5)
        with pytest.raises(ParameterError, match="assoc-iii requires"):
            zeta_n(JacobiParams(-0.767, 0.0, -5.0), 0)

    def test_overflow_raises(self):
        # exp of the log total leaked OverflowError, and log-gammas that
        # overflowed on both sides came back as NaN
        for abc, n in (((1.2e15, 1.2e15, 0.0), 1597), ((0.0, 0.0, 1.2e307), 289)):
            with pytest.raises(ConvergenceError, match="zeta_n is not finite"):
                zeta_n(JacobiParams(*abc), n)

    def test_index_past_the_size_cap_raises_before_allocating(self, monkeypatch):
        # the coefficient arrays are O(n): n = 10**9 used to ask for 8 GB
        # each; the refusal comes before the streams are evaluated
        import betajacobi.analytic as analytic

        def no_streams(*args):
            raise AssertionError("coefficient stream evaluated")

        monkeypatch.setattr(analytic, "_streams", no_streams)
        with pytest.raises(ParameterError, match="index must be <= 2\\*\\*22"):
            zeta_n(P_REF, 2**22 + 1)
