"""One input policy for reals: every scalar real parameter of the public
API goes through errors.as_real, which accepts ints, floats and numpy
integer and floating scalars alike and refuses a bool, a string, a
complex, None, an array, NaN and +-inf with ParameterError.  Every array
of reals, the array fields of the value types too, goes through
errors.as_real_array, which takes integer and floating dtypes alike and
refuses str, bytes, bool, complex and object dtypes, NaN and +-inf."""

import math
import re
import warnings

import numpy as np
import pytest

import betajacobi as bj
from betajacobi import JacobiParams, ModelKind, ParameterError
from betajacobi.errors import as_real
from test_counts import COUNTS, _bits, _public_parameters

P = JacobiParams(0.3, 0.7, 1.2)
K = ModelKind.ASSOC_III
M = [1.0, 0.5, 0.25]


def _simulate(a=0.5, b=0.5, beta=2.0, x0=0.5, t_end=0.03125, dt=0.00390625):
    return bj.simulate_moments(3, a, b, beta, x0, t_end, dt, 4, 2, seed=1)


def _density_profile(eps):
    return bj.density_profile(P, [0.25, 0.5, 0.75], method="numeric", eps=eps)


# "callable.parameter" -> (call with the real, a valid value exactly
# representable in float32; ints are tried too where it is integral)
REALS = {
    "JacobiParams.a": (lambda v: JacobiParams(v, 0.5, 1.0), 2.0),
    "JacobiParams.b": (lambda v: JacobiParams(0.5, v, 1.0), 0.25),
    "JacobiParams.c": (lambda v: JacobiParams(0.5, 0.5, v), 1.0),
    "JacobiParams.shifted.dc": (lambda v: P.shifted(v), 1.0),
    "EnsembleConfig.beta": (lambda v: bj.EnsembleConfig(3, v, 0.5, 0.5), 2.0),
    "EnsembleConfig.a": (lambda v: bj.EnsembleConfig(3, 2.0, v, 0.5), 0.5),
    "EnsembleConfig.b": (lambda v: bj.EnsembleConfig(3, 2.0, 0.5, v), 3.0),
    "simulate_moments.a": (lambda v: _simulate(a=v), 0.25),
    "simulate_moments.b": (lambda v: _simulate(b=v), 1.0),
    "simulate_moments.beta": (lambda v: _simulate(beta=v), 2.0),
    "simulate_moments.x0": (lambda v: _simulate(x0=v), 0.5),
    "simulate_moments.t_end": (lambda v: _simulate(t_end=v), 0.03125),
    "simulate_moments.dt": (lambda v: _simulate(dt=v), 0.0078125),
    "integrate_moments.t_end": (
        lambda v: bj.integrate_moments(M, P, v, 0.015625), 1.0
    ),
    "integrate_moments.dt": (lambda v: bj.integrate_moments(M, P, 0.5, v), 0.015625),
    "exact_moment.kappa": (lambda v: bj.exact_moment(3, v, 0.5, 0.25, 3), 1.0),
    "exact_moment.a": (lambda v: bj.exact_moment(3, 0.5, v, 0.25, 3), 0.5),
    "exact_moment.b": (lambda v: bj.exact_moment(3, 0.5, 0.5, v, 3), 2.0),
    "limit_pq.n_param": (lambda v: bj.limit_pq(4, v, 1.0, 2.0), 6.0),
    "limit_pq.a_slope": (lambda v: bj.limit_pq(4, 6.0, v, 2.0), 0.5),
    "limit_pq.b_slope": (lambda v: bj.limit_pq(4, 6.0, 1.0, v), 2.0),
    "limit_bidiagonal_squares.n_param": (
        lambda v: bj.limit_bidiagonal_squares(4, v, 1.0, 2.0), 4.5
    ),
    "limit_bidiagonal_squares.a_slope": (
        lambda v: bj.limit_bidiagonal_squares(4, 6.0, v, 2.0), 1.0
    ),
    "limit_bidiagonal_squares.b_slope": (
        lambda v: bj.limit_bidiagonal_squares(4, 6.0, 1.0, v), 0.25
    ),
    "density_numeric.eps": (
        lambda v: bj.density_numeric(K, P, 0.5, eps=v), 0.0009765625
    ),
    "density_profile.eps": (_density_profile, 0.0009765625),
    "u_of_x.x": (lambda v: bj.u_of_x(P, v), 0.25),
    "v_of_x.x": (lambda v: bj.v_of_x(P, v), 0.5),
    "recurrence_rn.x": (lambda v: bj.recurrence_rn(P, 3, v), 0.25),
    "wimp_rn.x": (lambda v: bj.wimp_rn(P, 3, v), 0.25),
    "pn_recurrence.x": (lambda v: bj.pn_recurrence(P, 3, v), 0.75),
    "pn_combination.x": (lambda v: bj.pn_combination(P, 3, v), 0.75),
    "pn_explicit.x": (lambda v: bj.pn_explicit(P, 3, v), 0.375),
    "zeta_asymptotic.n": (lambda v: bj.zeta_asymptotic(P, v), 4.0),
    "ln_gamma.x": (lambda v: bj.ln_gamma(v), 3.0),
    "pochhammer.q": (lambda v: bj.pochhammer(v, 3), 0.5),
    "hyp2f1.alpha": (lambda v: bj.hyp2f1(v, 0.5, 1.5, 0.25), 1.0),
    "hyp2f1.beta": (lambda v: bj.hyp2f1(0.5, v, 1.5, 0.25), 0.75),
    "hyp2f1.gamma": (lambda v: bj.hyp2f1(0.5, 0.75, v, 0.25), 2.0),
    "stieltjes_cf.warn_tol": (
        lambda v: bj.stieltjes_cf(K, P, 2.0 + 0.5j, depth=40, warn_tol=v), 1.0
    ),
}

# real-named parameters that are not scalar reals, with the reason
EXEMPT = {
    "density_closed.x": "an array of points (ARRAYS); both density routes "
    "check that each lies in (0, 1)",
    "density_numeric.x": "an array of points (ARRAYS); both density routes "
    "check that each lies in (0, 1)",
    "hyp2f1.x": "real or complex: a real x goes through as_real, a complex one "
    "part by part (test_hyp2f1_argument)",
}

# parameters of the table for which None is a valid value, with its meaning
NONE_ALLOWED = {"stieltjes_cf.warn_tol": "None skips the depth-halving check"}

REAL_NAMES = {
    "a", "b", "c", "beta", "kappa", "alpha", "gamma", "dc", "eps", "dt",
    "t_end", "x", "x0", "q", "A", "B", "n_param", "a_slope", "b_slope",
    "warn_tol",
}

BAD = [np.nan, np.inf, -np.inf, "0.5", True, None, 1 + 1j, np.array([0.5])]


@pytest.mark.parametrize("label", sorted(REALS))
class TestRealPolicy:
    def test_bad_reals_raise(self, label):
        call, _ = REALS[label]
        name = label.rsplit(".", 1)[1]
        for bad in BAD:
            if bad is None and label in NONE_ALLOWED:
                continue
            # an array may also fail a shape test first (x0 takes arrays)
            match = None if isinstance(bad, np.ndarray) else f"^{name} must be a finite real"
            with pytest.raises(ParameterError, match=match):
                call(bad)

    def test_real_types_agree(self, label):
        call, v = REALS[label]
        assert float(np.float32(v)) == v
        want = _bits(call(float(v)))
        assert _bits(call(np.float64(v))) == want
        assert _bits(call(np.float32(v))) == want
        if v == int(v):
            assert _bits(call(int(v))) == want
            assert _bits(call(np.int64(v))) == want


# "callable.parameter" -> (call with the array, a valid value whose
# entries are exactly representable in float32)
ARRAYS = {
    "lambda_n.n": (lambda v: bj.lambda_n(P, v), [0.0, 1.0, 2.0]),
    "mu_n.n": (lambda v: bj.mu_n(P, v), [0.0, 1.0, 2.0]),
    "SymmetricTridiagonal.diag": (
        lambda v: bj.SymmetricTridiagonal(v, [0.5, 0.5]), [0.25, 0.5, 0.75]
    ),
    "SymmetricTridiagonal.offdiag": (
        lambda v: bj.SymmetricTridiagonal([0.5] * 4, v), [0.25, 0.5, 0.75]
    ),
    "DiscreteMeasure.nodes": (
        lambda v: bj.DiscreteMeasure(v, [0.25, 0.25, 0.5]), [0.25, 0.5, 0.75]
    ),
    "DiscreteMeasure.weights": (
        lambda v: bj.DiscreteMeasure([0.25, 0.5, 0.75], v), [0.25, 0.25, 0.5]
    ),
    "MomentVector.values": (bj.MomentVector, M),
    "DensityProfile.grid": (
        lambda v: bj.DensityProfile(P, v, [1.0, 2.0, 1.0]), [0.25, 0.5, 0.75]
    ),
    "DensityProfile.values": (
        lambda v: bj.DensityProfile(P, [0.25, 0.5, 0.75], v), [1.0, 2.0, 1.0]
    ),
    "BidiagonalFactor.s": (
        lambda v: bj.BidiagonalFactor(v, [0.5, 0.25]), [0.25, 0.5, 0.75]
    ),
    "BidiagonalFactor.t": (
        lambda v: bj.BidiagonalFactor([0.5] * 4, v), [0.25, 0.5, 0.75]
    ),
    "MomentPath.times": (
        lambda v: bj.MomentPath(v, [[1.0, 0.5]] * 3), [0.0, 0.5, 1.0]
    ),
    "MomentPath.moments": (
        lambda v: bj.MomentPath([0.0, 0.5, 1.0], v),
        [[1.0, 0.5], [1.0, 0.25], [1.0, 0.75]],
    ),
    "density_closed.x": (lambda v: bj.density_closed(P, v), [0.25, 0.5]),
    "density_numeric.x": (lambda v: bj.density_numeric(K, P, v), [0.25, 0.5]),
    "density_profile.grid": (lambda v: bj.density_profile(P, v), [0.25, 0.5, 0.75]),
    "simulate_moments.x0": (lambda v: _simulate(x0=v), [0.25, 0.5, 0.75]),
    "integrate_moments.m0": (lambda v: bj.integrate_moments(v, P, 0.5, 0.015625), M),
    "ode_rhs.m": (lambda v: bj.ode_rhs(v, P), M),
}

BAD_ARRAYS = [
    ["0.25", "0.5", "0.75"],
    np.array(["0.25", "0.5", "0.75"]),
    [b"0.25", b"0.5", b"0.75"],
    [False, True, True],
    np.array([1.0, 0.5, 0.25], dtype=object),
    np.array([1.0, 0.5, 0.25], dtype=complex),
    [0.25, "0.5", 0.75],
    [0.25, np.nan, 0.75],
    [np.inf, 0.5, -np.inf],
]

# array-named parameters that are not real arrays, with the reason
ARRAY_EXEMPT = {
    "stieltjes_cf.z": "complex points: spectral._support_distance checks each",
    "stieltjes_closed.z": "complex points: spectral._support_distance checks each",
    "stieltjes_auto.z": "complex points: spectral._support_distance checks each",
    "gamma_ratio.nums": "a sequence of scalars, each through ln_gamma's as_real",
    "gamma_ratio.dens": "a sequence of scalars, each through ln_gamma's as_real",
}

# a parameter with one of these names, or annotated as an ndarray, is an
# array unless a scalar table (REALS, EXEMPT, COUNTS) holds it
ARRAY_NAMES = {
    "n", "m", "m0", "moments", "x", "x0", "z", "grid", "values", "nodes",
    "weights", "diag", "offdiag", "v", "s", "t", "times", "nums", "dens",
}


@pytest.mark.parametrize("label", sorted(ARRAYS))
class TestRealArrayPolicy:
    def test_bad_arrays_raise(self, label):
        # strings, bools and complex numbers used to pass as their float
        # values: density_closed(p, "0.5") returned 0.9212
        call, _ = ARRAYS[label]
        name = label.rsplit(".", 1)[1]
        for bad in BAD_ARRAYS + ["0.5", b"0.5", True]:
            with pytest.raises(
                ParameterError, match=f"{name} must be (a (finite )?real|finite)"
            ):
                call(bad)

    def test_real_dtypes_agree(self, label):
        call, v = ARRAYS[label]
        assert np.array(v, dtype=np.float32).tolist() == v
        want = _bits(call(v))
        assert _bits(call(np.array(v))) == want
        assert _bits(call(np.array(v, dtype=np.float32))) == want


def test_every_real_parameter_is_covered():
    public = set(_public_parameters())
    stale = sorted((set(REALS) | set(EXEMPT) | set(NONE_ALLOWED) | set(ARRAYS)) - public)
    assert not stale, f"entries name no public parameter: {stale}"
    named = {label for label in public if label.rsplit(".", 1)[1] in REAL_NAMES}
    missing = sorted(named - set(REALS) - set(EXEMPT))
    assert not missing, f"real parameters outside the real table: {missing}"


def test_every_array_parameter_is_covered():
    public = _public_parameters()
    stale = sorted((set(ARRAYS) | set(ARRAY_EXEMPT)) - set(public))
    assert not stale, f"entries name no public parameter: {stale}"
    named = {
        label
        for label, p in public.items()
        if label.rsplit(".", 1)[1] in ARRAY_NAMES or "ndarray" in str(p.annotation)
    }
    scalar = set(REALS) | set(EXEMPT) | set(COUNTS)
    missing = sorted(named - set(ARRAYS) - set(ARRAY_EXEMPT) - scalar)
    assert not missing, f"array parameters outside the array table: {missing}"


def test_guard_is_private():
    assert "as_real" not in bj.__all__
    assert "as_real_array" not in bj.__all__


LONG = 10**5


@pytest.mark.parametrize(
    "call",
    [
        lambda: JacobiParams([0.5] * LONG, 0.5),
        lambda: bj.moment11(K, P, [1] * LONG),
        lambda: bj.stieltjes_cf(K, P, ["2"] * LONG),
        lambda: bj.density_closed(P, ["0.5"] * LONG),
    ],
    ids=["as_real", "as_count", "support_distance", "as_real_array"],
)
def test_messages_stay_short(call):
    # each message held the whole repr of the list: 0.3 to 0.7 MB
    with pytest.raises(ParameterError) as info:
        call()
    assert len(str(info.value)) < 200


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda v: JacobiParams(v, 0.5), -1.2345678901234567e-300 - 2.5e-300j),
        (lambda v: JacobiParams(v, 0.5), np.complex128(-1.2345678901234567e-300 - 1j)),
        (lambda v: JacobiParams(v, 0.5), "0.5" * 20),
        (lambda v: bj.moment11(K, P, v), np.float64(2.5000000000000004)),
        (lambda v: bj.density_closed(P, v), np.float32(np.inf)),
    ],
)
def test_scalar_messages_show_the_value(call, value):
    # in full, however long the number's repr
    with pytest.raises(ParameterError, match=f"got {re.escape(repr(value))}$"):
        call(value)


def test_stored_reals_are_floats():
    cfg = bj.EnsembleConfig(np.int64(4), np.float32(0.5), np.int64(1), 0.5)
    assert type(cfg.beta) is float and type(cfg.a) is float
    assert type(cfg.c) is float and cfg.c == 1.0
    for v in (True, np.array(0.5)):
        with pytest.raises(ParameterError, match="^beta must be a finite real"):
            bj.EnsembleConfig(3, v, 0.5, 0.5)
    p = JacobiParams(np.int64(1), np.float32(0.5), 2)
    assert [type(v) for v in (p.a, p.b, p.c)] == [float] * 3
    with pytest.raises(ParameterError, match="^a must be a finite real"):
        JacobiParams(True, 0.5)


def test_as_real_fast_path():
    # an exact float passes at one test and comes back as itself
    v = 0.1 + 0.2
    assert as_real("x", v) is v
    zero = as_real("x", -0.0)
    assert zero == 0.0 and math.copysign(1.0, zero) == -1.0

    class Sub(float):
        pass

    for value in (np.float64(0.3), Sub(0.3), np.float32(0.25), 3, np.int64(3), np.uint8(3)):
        got = as_real("x", value)
        assert type(got) is float and got == value
    for bad in (True, np.nan, np.inf, -np.inf, 10**400, Sub("nan")):
        with pytest.raises(ParameterError, match="^x must be a finite real"):
            as_real("x", bad)


def test_hyp2f1_argument():
    # a real x goes through as_real; a complex x is checked part by part
    for bad in ("0.25", True, None, np.array([0.25]), np.array(0.25)):
        with pytest.raises(ParameterError, match="^x must be a finite real"):
            bj.hyp2f1(0.5, 0.75, 1.5, bad)
    for bad in (complex(np.nan, 0.1), complex(0.1, np.inf)):
        with pytest.raises(ParameterError, match=r"^x\.(real|imag) must be a finite real"):
            bj.hyp2f1(0.5, 0.75, 1.5, bad)
    z = 0.25 + 0.125j
    assert _bits(bj.hyp2f1(0.5, 0.75, 1.5, np.complex128(z))) == _bits(
        bj.hyp2f1(0.5, 0.75, 1.5, z)
    )
    assert _bits(bj.hyp2f1(0.5, 0.75, 1.5, np.float32(0.25))) == _bits(
        bj.hyp2f1(0.5, 0.75, 1.5, 0.25)
    )


def test_warn_tol_nan_no_longer_silences_the_check():
    # warn_tol = nan used to turn the convergence check off: the one
    # ConvergenceWarning at this point became none
    z = 0.5 + 1e-3j
    with pytest.warns(bj.ConvergenceWarning):
        bj.stieltjes_cf(K, P, z)
    for bad in (np.nan, -1e-3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="warn_tol"):
                bj.stieltjes_cf(K, P, z, warn_tol=bad)
