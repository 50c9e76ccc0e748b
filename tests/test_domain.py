"""Out-of-domain inputs of the moment routes and the ensemble samplers:
the operator moments of every model kind, the exact finite-N means and
the stationary recursion refuse a weight a <= -1 or b <= -1, a c outside
the kind's constraints, kappa < 0 and N < 1 with ParameterError, and
never return a number; mc_moments, empirical_measure and sample_model
refuse the same N, kappa and weights, and mc_moments also trials < 2,
k_max < 0 and threads < 1.  The special functions (hyp2f1, gamma_ratio,
pochhammer, ln_gamma) and the five polynomial routes, at any finite
input of any magnitude, return a finite number or raise one of the
package's errors; ln_gamma's inf past about 2.5e305 is the one stated
exception.  The boundary solutions u_of_x and v_of_x and the
normalizers zeta_n and zeta_asymptotic return a finite real there, never
a complex number, or raise one of the package's errors."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betajacobi import (
    ConvergenceError,
    EnsembleConfig,
    JacobiParams,
    ModelKind,
    ParameterError,
    UnsupportedRegionError,
    empirical_measure,
    exact_moment,
    gamma_ratio,
    hyp2f1,
    ln_gamma,
    mc_moments,
    moment11,
    pn_combination,
    pn_explicit,
    pn_recurrence,
    pochhammer,
    recurrence_rn,
    sample_model,
    stationary_uk,
    stieltjes_cf,
    substream,
    tridiag_entries,
    u_of_x,
    v_of_x,
    wimp_rn,
    zeta_asymptotic,
    zeta_n,
)

# any magnitude the parameters admit, and weights a, b > -1
REALS = st.floats(-1e6, 1e6)
WEIGHTS = st.floats(-1.0, 1e6, exclude_min=True)
# the moment routes take weights of any size: near 1e308 the stream terms
# 2(n + c) + a + b + 2 overflow, and the routes refuse them
HUGE_WEIGHTS = st.floats(1e6, 1e308)
BAD_WEIGHTS = st.floats(-1e6, -1.0)


def _bad_c(kind: ModelKind, a: float, b: float):
    """c values outside kind's constraints at admissible a, b (a margin of
    1e-6 keeps rounding of the bound from landing inside them)."""
    if kind is ModelKind.CLASSICAL:  # c = 0 only
        return REALS.filter(lambda c: c != 0.0)
    if kind is ModelKind.ASSOC_III:  # c + 1, c + a + 1, c + b + 1 > 0
        return st.floats(-1e6, -1.0 - min(0.0, a, b) - 1e-6)
    # ASSOC_I and ASSOC_II: c >= 0, c + a > 0, c + b > 0
    return st.floats(-1e6, max(0.0, -a, -b) - 1e-6)


@st.composite
def out_of_domain_calls(draw):
    """(what is wrong, a call of a moment route with that input)."""
    fault = draw(st.sampled_from(["weight", "constraint", "kappa", "N"]))
    a, b = draw(st.one_of(WEIGHTS, HUGE_WEIGHTS)), draw(st.one_of(WEIGHTS, HUGE_WEIGHTS))
    kind = draw(st.sampled_from(list(ModelKind)))
    k = draw(st.integers(0, 8))
    n, kappa = draw(st.integers(1, 50)), draw(st.floats(0.0, 1e3))
    if fault == "weight":
        if draw(st.booleans()):
            a = draw(BAD_WEIGHTS)
        else:
            b = draw(BAD_WEIGHTS)
        c = draw(REALS)
        route = draw(st.sampled_from(["moment11", "exact_moment", "stationary_uk"]))
    elif fault == "constraint":
        route = draw(st.sampled_from(["moment11", "stationary_uk"]))
        if route == "stationary_uk":
            kind = ModelKind.ASSOC_III  # the recursion's own model
        c = draw(_bad_c(kind, a, b))
    else:
        route, c = "exact_moment", 0.0
        if fault == "kappa":
            kappa = draw(st.floats(-1e300, 0.0, exclude_max=True))
        else:
            n = draw(st.integers(-10**6, 0))
    calls = {
        "moment11": lambda: moment11(kind, JacobiParams(a, b, c), k),
        "exact_moment": lambda: exact_moment(n, kappa, a, b, k),
        "stationary_uk": lambda: stationary_uk(JacobiParams(a, b, c), k),
    }
    return f"{fault} via {route}: kind={kind.value} a={a} b={b} c={c} n={n} kappa={kappa}", calls[route]


@settings(max_examples=400, deadline=None)
@given(out_of_domain_calls())
def test_out_of_domain_moment_inputs_raise(case):
    label, call = case
    with pytest.raises(ParameterError):
        got = call()
        pytest.fail(f"{label} returned {got!r}")


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(ModelKind)),
    st.tuples(st.one_of(WEIGHTS, HUGE_WEIGHTS), st.one_of(WEIGHTS, HUGE_WEIGHTS), REALS),
    st.integers(0, 8),
)
def test_moment_routes_at_any_weight_return_finite_or_refuse(kind, abc, k):
    # at (1e308, 1e308, 0) the streams overflowed: NaN entries, a NaN
    # moment11, and stieltjes_cf called z = 2 a pole; the fraction's seed
    # reads the row below its last level, which must be finite too
    p = JacobiParams(*abc)
    calls = {
        "tridiag_entries": lambda: tridiag_entries(kind, p, k + 2),
        "moment11": lambda: moment11(kind, p, k),
        "stieltjes_cf": lambda: stieltjes_cf(kind, p, [2.0, 0.5 + 0.25j], depth=k + 2,
                                             warn_tol=None),
        "stationary_uk": lambda: stationary_uk(p, k).values,
    }
    for route, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                got = call()
            except PACKAGE_ERRORS:
                continue
        values = np.concatenate(got) if route == "tridiag_entries" else np.ravel(got)
        assert np.isfinite(values).all(), (
            f"{route} at {kind.value}, {abc}, k={k} returned {got!r}"
        )


def test_overflowing_weights_are_refused():
    # the streams overflowed to NaN entries, a NaN moment11, and a
    # stieltjes_cf that called z = 2 a pole; the head coefficient alone
    # read 0.0 (it tends to 1/2), so the one-row truncation had a node
    # at 0 and stationary_uk returned [1, 0, 0, 0] through its head check
    p = JacobiParams(1e308, 1e308, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (
            lambda: tridiag_entries(ModelKind.ASSOC_I, p, 4),
            lambda: tridiag_entries(ModelKind.ASSOC_III, p, 1),
            lambda: moment11(ModelKind.ASSOC_III, p, 2),
            lambda: stieltjes_cf(ModelKind.ASSOC_III, p, 2.0),
            lambda: zeta_n(p, 3),
            lambda: stationary_uk(p, 3),
        ):
            with pytest.raises(ParameterError, match="overflow"):
                call()


@st.composite
def out_of_domain_ensemble_calls(draw):
    """(what is wrong, a call of an ensemble sampler with that input)."""
    counts = ["trials", "k_max", "threads"]
    fault = draw(st.sampled_from(["weight", "kappa", "N"] + counts))
    route = draw(st.sampled_from(
        ["mc_moments"] if fault in counts else ["mc_moments", "empirical_measure", "sample_model"]
    ))
    a, b = draw(WEIGHTS), draw(WEIGHTS)
    n, kappa = draw(st.integers(1, 50)), draw(st.floats(0.0, 1e3))
    trials, k_max, threads = draw(st.integers(2, 50)), draw(st.integers(0, 8)), draw(st.integers(1, 4))
    if fault == "weight":
        if draw(st.booleans()):
            a = draw(BAD_WEIGHTS)
        else:
            b = draw(BAD_WEIGHTS)
    elif fault == "kappa":
        kappa = draw(st.floats(-1e300, -5e-324))
    elif fault == "N":
        n = draw(st.integers(-10**6, 0))
    elif fault == "trials":
        trials = draw(st.integers(-10**6, 1))
    elif fault == "k_max":
        k_max = draw(st.integers(-10**6, -1))
    else:
        threads = draw(st.integers(-10**6, 0))

    def cfg():
        return EnsembleConfig(n, 2.0 * kappa, a, b)

    calls = {
        "mc_moments": lambda: mc_moments(cfg(), k_max, trials, 1, threads=threads),
        "empirical_measure": lambda: empirical_measure(cfg(), substream(1, 0)),
        "sample_model": lambda: sample_model(cfg(), substream(1, 0)),
    }
    label = (f"{fault} via {route}: n={n} kappa={kappa} a={a} b={b} trials={trials} "
             f"k_max={k_max} threads={threads}")
    return label, calls[route]


@settings(max_examples=400, deadline=None)
@given(out_of_domain_ensemble_calls())
def test_out_of_domain_ensemble_inputs_raise(case):
    label, call = case
    with pytest.raises(ParameterError):
        got = call()
        pytest.fail(f"{label} returned {got!r}")


# the errors a computation may raise (PoleError is a ParameterError)
PACKAGE_ERRORS = (ParameterError, UnsupportedRegionError, ConvergenceError)
# finite reals of every magnitude, small ones more often
ANY_REAL = st.one_of(st.floats(-8.0, 8.0), st.floats(-1e308, 1e308))
ANY_NUMBER = st.one_of(ANY_REAL, st.builds(complex, ANY_REAL, ANY_REAL))
# weights mostly inside a, b > -1, so that most draws reach the routes
ANY_WEIGHT = st.one_of(st.floats(-1.0, 8.0, exclude_min=True),
                       st.floats(-1.0, 1e308, exclude_min=True), ANY_REAL)
SPECIAL = {f.__name__: f for f in (hyp2f1, gamma_ratio, pochhammer, ln_gamma)}
POLYNOMIALS = {
    f.__name__: f for f in (recurrence_rn, wimp_rn, pn_recurrence, pn_combination, pn_explicit)
}
# the functions of (p, x), and of (p, n) for the normalizers
BOUNDARY = {f.__name__: f for f in (u_of_x, v_of_x, zeta_n, zeta_asymptotic)}


@st.composite
def special_function_calls(draw):
    """(name, arguments) of a call of one of the SPECIAL functions."""
    route = draw(st.sampled_from(sorted(SPECIAL)))
    if route == "hyp2f1":
        args = (draw(ANY_REAL), draw(ANY_REAL), draw(ANY_REAL), draw(ANY_NUMBER))
    elif route == "gamma_ratio":
        reals = st.lists(ANY_REAL, max_size=3).map(tuple)
        args = (draw(reals), draw(reals))
    elif route == "pochhammer":
        args = (draw(ANY_REAL), draw(st.integers(0, 400)))
    else:
        args = (draw(ANY_REAL),)
    return route, args


@settings(max_examples=400, deadline=None)
@given(special_function_calls())
def test_special_functions_never_return_a_nonfinite_number(case):
    route, args = case
    try:
        got = SPECIAL[route](*args)
    except PACKAGE_ERRORS:
        return
    if route == "ln_gamma":
        # log|Gamma(x)| overflows past about 2.5e305, as documented
        got = got[0] if args[0] < 2.5e305 else 0.0
    elif route == "hyp2f1":
        got = got[0]
    assert cmath.isfinite(got), f"{route}{args} returned {got!r}"


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(POLYNOMIALS)),
    st.tuples(ANY_WEIGHT, ANY_WEIGHT, ANY_REAL),
    st.integers(0, 40),
    ANY_REAL,
)
def test_polynomial_routes_never_return_a_nonfinite_number(route, abc, n, x):
    try:
        got = POLYNOMIALS[route](JacobiParams(*abc), n, x)
    except PACKAGE_ERRORS:
        return
    assert math.isfinite(got), f"{route}({abc}, {n}, {x}) returned {got!r}"


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(BOUNDARY)),
    st.tuples(ANY_WEIGHT, ANY_WEIGHT, ANY_REAL),
    st.integers(0, 2000),
    ANY_REAL,
)
def test_boundary_solutions_and_normalizers_return_a_finite_real(route, abc, n, x):
    # v_of_x returned complex numbers and leaked OverflowError off [0, 1],
    # zeta_asymptotic leaked ValueError outside the model's constraints
    arg = n if route == "zeta_n" else x
    try:
        got = BOUNDARY[route](JacobiParams(*abc), arg)
    except PACKAGE_ERRORS:
        return
    assert type(got) is float and math.isfinite(got), f"{route}({abc}, {arg}) returned {got!r}"


# weights of any size the samplers take, and weights just above -1,
# whose Beta shapes are tiny and whose gamma totals can underflow
MC_WEIGHTS = st.one_of(WEIGHTS, st.floats(-1.0, -0.999, exclude_min=True))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 300),
    st.one_of(st.floats(0.0, 1e4), st.floats(0.0, 1e-300)),
    st.tuples(MC_WEIGHTS, MC_WEIGHTS),
    st.integers(0, 12),
    st.integers(2, 50),
    st.sampled_from([1, 2]),
)
def test_mc_moments_at_extreme_valid_inputs_return_finite_or_refuse(
    n, beta, ab, k_max, trials, threads
):
    try:
        means, stderr = mc_moments(EnsembleConfig(n, beta, *ab), k_max, trials, 7,
                                   threads=threads)
    except PACKAGE_ERRORS:
        return
    label = f"mc_moments(N={n}, beta={beta}, (a, b)={ab}, k_max={k_max}, trials={trials})"
    assert means[0] == 1.0 and stderr[0] == 0.0, label
    assert np.isfinite(means.values).all() and np.isfinite(stderr).all(), label
