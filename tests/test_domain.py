"""Out-of-domain inputs of the moment routes: the operator moments of
every model kind, the exact finite-N means and the stationary recursion
refuse a weight a <= -1 or b <= -1, a c outside the kind's constraints,
kappa < 0 and N < 1 with ParameterError, and never return a number."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betajacobi import (
    JacobiParams,
    ModelKind,
    ParameterError,
    exact_moment,
    moment11,
    stationary_uk,
)

# any magnitude the parameters admit, and weights a, b > -1
REALS = st.floats(-1e6, 1e6)
WEIGHTS = st.floats(-1.0, 1e6, exclude_min=True)
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
    a, b = draw(WEIGHTS), draw(WEIGHTS)
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
