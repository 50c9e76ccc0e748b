"""Jacobi operator truncations: moments, eigenvalues, Gauss rules, CF map."""

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betajacobi import (
    ConvergenceError,
    ConvergenceWarning,
    DiscreteMeasure,
    JacobiParams,
    ModelKind,
    MomentVector,
    ParameterError,
    SymmetricTridiagonal,
    gauss_quadrature,
    jacobi_matrix,
    lambda_hat0,
    moment11,
    stieltjes_cf,
    tridiag_entries,
)
from betajacobi.spectral import (
    DEFAULT_RTOL,
    _cf_depth,
    _cf_eval,
    _cf_values,
    _operator_moments,
    _dstevd,
    _matvec,
    _stevd,
    _support_distance,
    _tail_seed,
    _zgttrf,
)

from oracles import (
    backward_cf,
    frac_beta_moment,
    limit_tail,
    limit_tail_cf,
    per_order_moment11,
    sturm_eigenvalues,
    two_pass_cf_values,
    two_pass_tail_seed,
    uniform_stieltjes,
    zgtsv_cf_eval,
)

P_REF = JacobiParams(0.3, 0.7, 1.2)


class TestTridiagonalContainer:
    def test_length_mismatch_raises(self):
        with pytest.raises(ParameterError):
            SymmetricTridiagonal(np.array([0.5, 0.5]), np.array([0.1, 0.2]))

    def test_nonfinite_raises(self):
        with pytest.raises(ParameterError):
            SymmetricTridiagonal(np.array([np.nan, 0.5]), np.array([0.1]))


class TestDiscreteMeasure:
    def test_moment(self):
        m = DiscreteMeasure(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        assert m.moment(0) == 1.0
        assert m.moment(1) == pytest.approx(0.5)
        assert m.moment(2) == pytest.approx(0.3125)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            DiscreteMeasure(np.array([0.2, 0.8]), np.array([0.6, 0.6]))

    def test_negative_weight_raises(self):
        with pytest.raises(ParameterError):
            DiscreteMeasure(np.array([0.2, 0.8]), np.array([1.5, -0.5]))

    def test_unsorted_nodes_raise(self):
        with pytest.raises(ParameterError):
            DiscreteMeasure(np.array([0.8, 0.2]), np.array([0.5, 0.5]))


class TestMomentVector:
    def test_order_and_indexing(self):
        mv = MomentVector(np.array([1.0, 0.5, 0.3]))
        assert mv[1] == 0.5

    def test_head_must_be_one(self):
        with pytest.raises(ParameterError):
            MomentVector(np.array([0.9, 0.5]))


class TestMoment11:
    def test_zeroth_is_one(self, params):
        assert moment11(ModelKind.ASSOC_III, params, 0) == 1.0

    def test_uniform_second_moment(self):
        # c = 0, a = b = 0 is the uniform measure on [0, 1]
        p = JacobiParams(0.0, 0.0, 0.0)
        val = moment11(ModelKind.CLASSICAL, p, 2)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_classical_matches_beta_moments(self):
        # at c = 0 the measure is Beta(a+1, b+1); moments are exact in
        # Fraction arithmetic
        a, b = 0.5, -0.5
        p = JacobiParams(a, b, 0.0)
        alpha = Fraction(3, 2)
        beta = Fraction(1, 2)
        for k in range(21):
            want = float(frac_beta_moment(alpha, beta, k))
            got = moment11(ModelKind.CLASSICAL, p, k)
            assert got == pytest.approx(want, rel=1e-12)

    def test_first_moment_is_head_entry(self, params):
        assert moment11(ModelKind.ASSOC_III, params, 1) == pytest.approx(
            lambda_hat0(params), rel=1e-15
        )

    def test_truncation_size_is_irrelevant(self, params):
        # the truncation at k // 2 + 2 is exact: <e1, J^k e1> on a larger
        # one gives the same bits
        for k in (3, 8, 15):
            t = jacobi_matrix(ModelKind.ASSOC_III, params, k // 2 + 10)
            v = np.zeros(len(t.diag))
            v[0] = 1.0
            for _ in range(k):
                v = _matvec(t.diag, t.offdiag, v)
            assert moment11(ModelKind.ASSOC_III, params, k) == v[0]

    def test_negative_order_raises(self):
        with pytest.raises(ParameterError):
            moment11(ModelKind.ASSOC_III, P_REF, -1)
        # 2.5 used to be truncated to the k = 2 moment
        for k in (2.5, np.nan, np.inf):
            with pytest.raises(ParameterError):
                moment11(ModelKind.ASSOC_III, P_REF, k)
        # integral values of other types are accepted as they are
        want = moment11(ModelKind.ASSOC_III, P_REF, 2)
        assert moment11(ModelKind.ASSOC_III, P_REF, 2.0) == want
        assert moment11(ModelKind.ASSOC_III, P_REF, np.int64(2)) == want

    def test_moments_decreasing_on_unit_interval(self, params):
        # measure supported in [0, 1] forces m_k nonincreasing
        vals = [moment11(ModelKind.ASSOC_III, params, k) for k in range(13)]
        mv = MomentVector(np.array(vals))
        for k in range(len(mv.values) - 1):
            assert mv[k + 1] <= mv[k] + 1e-15
            assert mv[k + 1] >= 0.0


# one admissible point of every kind, near an edge of its constraints
KIND_POINTS = [
    (ModelKind.CLASSICAL, JacobiParams(-0.9, 2.5, 0.0)),
    (ModelKind.ASSOC_I, JacobiParams(-0.5, 1.7, 0.6)),
    (ModelKind.ASSOC_II, JacobiParams(1.7, -0.5, 0.6)),
    (ModelKind.ASSOC_III, JacobiParams(-0.5, 1.7, -0.4)),
]


class TestOperatorMoments:
    """The whole-row walk behind moment11 against the walk of one order
    at its own truncation (tests/oracles.py::per_order_moment11)."""

    @pytest.mark.parametrize("kind, p", [pytest.param(*kp, id=kp[0].value) for kp in KIND_POINTS])
    @pytest.mark.parametrize("k_max", [0, 1, 2, 3, 80, 300])
    def test_row_is_the_per_order_walk_bit_for_bit(self, kind, p, k_max):
        row = _operator_moments(kind, p, k_max)
        want = np.array([per_order_moment11(kind, p, k) for k in range(k_max + 1)])
        # byte equality: signed zeros too
        assert row.shape == want.shape and row.tobytes() == want.tobytes()
        assert np.float64(moment11(kind, p, k_max)).tobytes() == want[-1].tobytes()


class TestEigenTridiagonal:
    def test_one_by_one(self):
        vals = _stevd(np.array([0.7]), np.array([]))[0]
        np.testing.assert_array_equal(vals, [0.7])

    def test_two_by_two(self):
        vals = _stevd(np.zeros(2), np.ones(1))[0]
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-15)

    def test_against_bisection(self):
        # independent route: Sturm counts plus interval bisection
        t = jacobi_matrix(ModelKind.ASSOC_III, P_REF, 8)
        fast = _stevd(t.diag, t.offdiag)[0]
        slow = sturm_eigenvalues(t.diag, t.offdiag)
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_bits_of_scipys_stevd_wrapper(self, n):
        # one direct dstevd call per matrix, the driver scipy picks for a
        # full spectrum: the values to the bit, the inputs left as they were
        import scipy.linalg

        rng = np.random.default_rng(n)
        d, e = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n - 1)
        d_in, e_in = d.copy(), e.copy()
        want = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="stevd")
        assert _stevd(d, e)[0].tobytes() == want.tobytes()
        assert d.tobytes() == d_in.tobytes() and e.tobytes() == e_in.tobytes()

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: _stevd(np.zeros(4), np.ones(3)),
            lambda: gauss_quadrature(ModelKind.ASSOC_III, P_REF, 4),
        ],
        ids=["_stevd", "gauss_quadrature"],
    )
    def test_lapack_failure_raises(self, monkeypatch, solve):
        import betajacobi.spectral as spectral

        def failing(d, e, compute_v):
            return d.copy(), np.eye(len(d)), 3

        monkeypatch.setattr(spectral, "_dstevd", failing)
        with pytest.raises(ConvergenceError, match="info = 3"):
            solve()


def _bits(outputs):
    return [np.asarray(v).tobytes() for v in outputs]


def _zgttrf_system(n, singular=False):
    rng = np.random.default_rng(n)
    cplx = lambda size: rng.normal(size=size) + 1j * rng.normal(size=size)  # noqa: E731
    # a zero diagonal of odd size is singular: its determinant vanishes
    d = np.zeros(n, dtype=complex) if singular else cplx(n) + 4.0
    return cplx(max(n - 1, 0)), d, cplx(max(n - 1, 0))


def _outcome(routine, args):
    """The bits of a wrapper's outputs, or the message of the ValueError
    it raises."""
    try:
        return _bits(routine(*args))
    except ValueError as exc:
        return str(exc)


class TestLapackBinding:
    """spectral binds scipy's compiled dstevd and zgttrf wrappers without
    importing scipy.linalg; they are the objects scipy.linalg.lapack
    re-exports, so every output keeps its bits."""

    def test_same_objects_as_the_public_routines(self):
        import scipy.linalg.lapack as lapack

        assert _dstevd is lapack.dstevd and _zgttrf is lapack.zgttrf

    @pytest.mark.parametrize("compute_v", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 60, 401])
    def test_dstevd_bits(self, n, compute_v):
        import scipy.linalg.lapack as lapack

        rng = np.random.default_rng(n)
        d, e = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, max(n - 1, 1))
        got = _dstevd(d, e, compute_v=compute_v)
        want = lapack.dstevd(d, e, compute_v=compute_v)
        assert got[2] == want[2] == 0
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize(
        "n, singular", [(1, False), (2, False), (60, False), (401, False), (5, True)]
    )
    def test_zgttrf_bits(self, n, singular):
        # the wrapper refuses fewer than three rows (so _cf_eval pads a
        # shallower fraction); whatever it does, both bindings do alike
        import scipy.linalg.lapack as lapack

        args = _zgttrf_system(n, singular)
        assert _outcome(_zgttrf, args) == _outcome(lapack.zgttrf, args)
        if n >= 3:
            assert (_zgttrf(*args)[-1] > 0) is singular

    def test_fallback_binds_the_public_routines(self):
        # a loader that refuses the extension file sends spectral to the
        # public scipy.linalg.lapack import, with the same bits
        import betajacobi

        src = str(Path(betajacobi.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            # importlib.abc reads the class by name, so it comes first
            "import importlib.abc, importlib.machinery, sys\n"
            "refused = []\n"
            "class Refusing(importlib.machinery.ExtensionFileLoader):\n"
            "    def create_module(self, spec):\n"
            "        refused.append(spec.name)\n"
            "        raise ImportError('refused')\n"
            "importlib.machinery.ExtensionFileLoader = Refusing\n"
            "import numpy as np\n"
            "import betajacobi.spectral as sp\n"
            "assert refused == ['scipy.linalg._flapack'], refused\n"
            "assert 'scipy.linalg' in sys.modules\n"
            "import scipy.linalg.lapack as lapack\n"
            "assert sp._dstevd is lapack.dstevd and sp._zgttrf is lapack.zgttrf\n"
            "from betajacobi import JacobiParams, ModelKind\n"
            "g = sp.gauss_quadrature(ModelKind.ASSOC_III, JacobiParams(0.3, 0.7, 1.2), 60)\n"
            "s = sp.stieltjes_cf(ModelKind.ASSOC_III, JacobiParams(0.3, 0.7, 1.2),\n"
            "                    np.array([2 + 1j, 0.5 + 1e-3j]))\n"
            "print((g.nodes.tobytes() + g.weights.tobytes() + s.tobytes()).hex())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        g = gauss_quadrature(ModelKind.ASSOC_III, P_REF, 60)
        with pytest.warns(ConvergenceWarning):
            s = stieltjes_cf(ModelKind.ASSOC_III, P_REF, np.array([2 + 1j, 0.5 + 1e-3j]))
        assert out.stdout.strip() == (g.nodes.tobytes() + g.weights.tobytes() + s.tobytes()).hex()


class TestGaussQuadrature:
    def test_single_point_rule(self, params):
        rule = gauss_quadrature(ModelKind.ASSOC_III, params, 1)
        assert rule.nodes[0] == pytest.approx(lambda_hat0(params), rel=1e-14)
        assert rule.weights[0] == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_exactness_through_degree(self, params, m):
        rule = gauss_quadrature(ModelKind.ASSOC_III, params, m)
        for k in range(2 * m):
            want = moment11(ModelKind.ASSOC_III, params, k)
            assert rule.moment(k) == pytest.approx(want, abs=1e-12)

    def test_nodes_inside_unit_interval(self, params):
        rule = gauss_quadrature(ModelKind.ASSOC_III, params, 14)
        assert np.all(rule.nodes >= -1e-12)
        assert np.all(rule.nodes <= 1.0 + 1e-12)

    def test_positive_weights(self):
        rule = gauss_quadrature(ModelKind.ASSOC_I, JacobiParams(0.5, 0.5, 1.0), 3)
        assert np.all(rule.weights > 0.0)
        assert np.all((rule.nodes > 0.0) & (rule.nodes < 1.0))

    @pytest.mark.parametrize("m", [1, 2, 9, 40])
    def test_bits_of_scipys_stevd_wrapper(self, m):
        # nodes and first eigenvector components from one dstevd call with
        # vectors: the bits of scipy's eigh_tridiagonal with that driver
        import scipy.linalg

        d, e = tridiag_entries(ModelKind.ASSOC_III, P_REF, m)
        rule = gauss_quadrature(ModelKind.ASSOC_III, P_REF, m)
        vals, vecs = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stevd")
        assert rule.nodes.tobytes() == vals.tobytes()
        assert rule.weights.tobytes() == (vecs[0] ** 2).tobytes()
        assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-12)

    def test_zero_points_raises(self):
        with pytest.raises(ParameterError):
            gauss_quadrature(ModelKind.ASSOC_III, P_REF, 0)
        # 2.5 used to give a 2-point rule
        for m in (2.5, np.nan):
            with pytest.raises(ParameterError):
                gauss_quadrature(ModelKind.ASSOC_III, P_REF, m)


class TestStieltjesCF:
    def test_far_field_decay(self):
        z = 1e6j
        s = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z)
        assert abs(s - (-1.0 / z)) <= 1e-6 * abs(1.0 / z)

    def test_uniform_oracle(self):
        # c = 0, a = b = 0: compare against log((1-z)/(-z)) directly
        p = JacobiParams(0.0, 0.0, 0.0)
        for z in (0.5 + 0.5j, -0.3 + 0.2j, 1.4 + 0.05j):
            s = stieltjes_cf(ModelKind.ASSOC_III, p, z, depth=400)
            assert s == pytest.approx(uniform_stieltjes(z), rel=1e-9)

    def test_moment_expansion(self):
        # S(z) = -sum m_k / z^{k+1} for large |z|
        z = 10.0j
        s = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z)
        acc = 0.0 + 0.0j
        for k in range(25):
            acc -= moment11(ModelKind.ASSOC_III, P_REF, k) / z ** (k + 1)
        assert abs(s - acc) <= 1e-8 * abs(s)

    @given(
        re=st.floats(-1.0, 2.0),
        im=st.floats(0.05, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_herglotz_upper_half_plane(self, re, im):
        z = complex(re, im)
        s = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z, warn_tol=None)
        assert s.imag > 0.0

    def test_conjugate_symmetry(self):
        z = 0.4 + 0.3j
        up = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z)
        dn = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z.conjugate())
        assert dn == pytest.approx(up.conjugate(), rel=1e-14)

    def test_array_input_matches_scalars(self):
        zs = np.array([0.5 + 0.5j, 2.0 + 0.1j, -1.0 + 1.0j])
        vec = stieltjes_cf(ModelKind.ASSOC_III, P_REF, zs)
        for zi, vi in zip(zs, vec):
            assert vi == stieltjes_cf(ModelKind.ASSOC_III, P_REF, complex(zi))

    def test_shallow_depth_warns_near_support(self):
        with pytest.warns(ConvergenceWarning):
            stieltjes_cf(ModelKind.ASSOC_III, P_REF, 0.5 + 1e-4j, depth=8)

    def test_limit_tail_helps_on_support_edge(self):
        # z hugging the support: a zero tail sees the truncation's atoms,
        # the seeded tail converges (quadratically in depth) to the smooth
        # transform
        z = 0.5 + 1e-7j
        near = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z, depth=3200, warn_tol=None)
        deep = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z, depth=6400, warn_tol=None)
        d, e = tridiag_entries(ModelKind.ASSOC_III, P_REF, 6401)
        atoms = backward_cf(d, e, z, "zero")
        assert near == pytest.approx(deep, rel=1e-7)
        assert deep.imag > 0.0
        assert abs(atoms - deep) > 0.5 * abs(deep)

    @pytest.mark.parametrize("z", [1e155, 1e200, -1e200, 1e308, 1e-3 + 1e200j])
    def test_far_field_past_the_square_overflow(self, z):
        # w * w in the tail root overflowed from |z| = 1.3e154 on: NaN
        # with RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z)
        assert abs(s - (-1.0 / z)) <= 1e-12 * abs(1.0 / z)

    def test_min_depth_enforced(self):
        with pytest.raises(ParameterError):
            stieltjes_cf(ModelKind.ASSOC_III, P_REF, 1.0j, depth=1)

    @pytest.mark.parametrize("depth", [2, 3, 400, 12000])
    def test_matches_backward_recursion(self, depth):
        # the tridiagonal solve against the level-by-level fraction, far
        # from the support, on the real axis off it (also just off it),
        # and hugging it
        zs = np.array(
            [0.5 + 0.5j, 2.0 + 1.0j, -1.0 + 0.25j, 1.4 - 0.3j, -0.5, 1.5,
             0.3 + 1e-6j, 0.8 + 1e-6j, 0.05 - 1e-6j, -1e-3, 1.0 + 1e-3]
        )
        d, e = tridiag_entries(ModelKind.ASSOC_III, P_REF, depth + 2)
        want = np.array([backward_cf(d[:-1], e, z, "local") for z in zs])
        opts = dict(depth=depth, warn_tol=None)
        vec = stieltjes_cf(ModelKind.ASSOC_III, P_REF, zs, **opts)
        assert vec.shape == zs.shape
        np.testing.assert_allclose(vec, want, rtol=1e-12, atol=0.0)
        for z, w in zip(zs[[0, 4, 6]], want[[0, 4, 6]]):
            s = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z, **opts)
            assert isinstance(s, complex)
            assert abs(s - w) <= 1e-12 * abs(w)

    @pytest.mark.parametrize(
        "z",
        [np.nan, complex(np.inf, 1.0), complex(0.5, np.nan), np.array([0.5j, np.inf])],
    )
    def test_nonfinite_z_raises(self, z):
        # nan used to come back as nan+nanj and inf+1j as -0j
        with pytest.raises(ParameterError):
            stieltjes_cf(ModelKind.ASSOC_III, P_REF, z)

    @pytest.mark.parametrize("warn_tol", [DEFAULT_RTOL, None])
    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_z_gives_empty_result(self, warn_tol, shape):
        # the default depth-halving check used to take the max of nothing
        z = np.empty(shape, dtype=complex)
        s = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z, warn_tol=warn_tol)
        assert s.shape == shape and s.dtype == complex

    @pytest.mark.parametrize(
        "z", [0.0, 0.25, 1.0, complex(0.5, -0.0), np.array([2.0j, 0.7]), np.array([[1.5, 0.0]])]
    )
    def test_real_z_on_support_raises(self, z):
        # with the zero tail 0.25 used to give 4.24 and a warning; with the
        # limit tail it would give S(x + i0) without one
        with pytest.raises(ParameterError, match="on the support"):
            stieltjes_cf(ModelKind.CLASSICAL, JacobiParams(0.0, 0.0, 0.0), z)

    def test_singular_solve_raises(self, monkeypatch):
        import betajacobi.spectral as spectral

        levels = []

        def singular(dl, d, du, **kw):
            levels.append(len(d))
            return dl, d, du, du[:-1], np.arange(1, len(d) + 1, dtype=np.int32), 2

        monkeypatch.setattr(spectral, "_zgttrf", singular)
        pole = r"z = \(0\.5\+0\.5j\) is a pole of the "
        with pytest.raises(ConvergenceError, match=pole + r"7-level.*\(depth 7\)"):
            stieltjes_cf(ModelKind.ASSOC_III, P_REF, 0.5 + 0.5j, depth=7)
        assert levels == [7]

    def test_nonfinite_value_raises(self, monkeypatch):
        # a factorization that overflows without a zero pivot gives NaN,
        # which must not come back as a transform value
        import betajacobi.spectral as spectral

        factor = spectral._zgttrf

        def overflowing(dl, d, du, **kw):
            at_2_2j = d[-1].imag == -2.0  # the top row, d_1 - z
            out = factor(dl, d, du, **kw)
            if at_2_2j:
                out[1][:] = np.nan  # the pivots
            return out

        monkeypatch.setattr(spectral, "_zgttrf", overflowing)
        with pytest.raises(ConvergenceError, match=r"7-level.*not finite at z = \(2\+2j\)"):
            stieltjes_cf(ModelKind.ASSOC_III, P_REF, [2.0 + 1.0j, 2.0 + 2.0j], depth=7)


# one model per kind; at the ASSOC_III one (a = b = -0.9, c = -0.05) the
# last elimination step swaps rows at 0.5 + 1e-6j
KERNEL_MODELS = [
    (ModelKind.CLASSICAL, JacobiParams(0.3, 0.7, 0.0)),
    (ModelKind.ASSOC_I, JacobiParams(0.3, 0.7, 1.2)),
    (ModelKind.ASSOC_II, JacobiParams(-0.4, 2.5, 0.6)),
    (ModelKind.ASSOC_III, JacobiParams(-0.9, -0.9, -0.05)),
]
KERNEL_Z = np.array(
    [
        # far from the support
        2.0 + 1.0j, -1.0 + 0.25j, 0.5 + 0.5j, 1.4 - 0.3j, 1e6j,
        # within 1e-6 of it, in both half-planes
        0.5 + 1e-6j, 0.3 + 1e-7j, 0.8 - 1e-6j, 0.05 - 1e-7j, -1e-7 + 1e-7j, 1.0 - 5e-7j,
        # real, off it
        -0.5, 1.5, -1e-6, 1.0 + 1e-6,
        # |z - 1/2| > 1e153, where the tail is -1/w
        1e154, -1e200, 1e308, 1e-3 + 1e200j, 5e153 - 5e153j,
    ]
)


class TestResolventKernel:
    """_cf_eval reads each point's entry off zgttrf's last pivot: the bits
    of a full zgtsv solve of the same system (tests/oracles.py::zgtsv_cf_eval)."""

    @pytest.mark.parametrize("depth", [2, 3, 7, 400, 12000])
    @pytest.mark.parametrize("kind, p", KERNEL_MODELS, ids=[k.value for k, _ in KERNEL_MODELS])
    def test_bits_of_the_full_solve(self, kind, p, depth):
        # the full depth and the half depth of the convergence check,
        # each seeded at its own next level: 1 and 3 levels too, below
        # the wrapper's three rows and at them
        d, e = tridiag_entries(kind, p, depth + 2)
        e2 = e**2
        for levels in (depth, depth // 2):
            seed = _tail_seed(d, e2, KERNEL_Z, levels)
            got = _cf_eval(d, e2, seed, KERNEL_Z, levels, depth)
            want = zgtsv_cf_eval(d, e2, seed, KERNEL_Z, levels, depth)
            assert got.tobytes() == want.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            s = stieltjes_cf(kind, p, KERNEL_Z, depth)
        seed = _tail_seed(d, e2, KERNEL_Z, depth)
        assert s.tobytes() == zgtsv_cf_eval(d, e2, seed, KERNEL_Z, depth, depth).tobytes()

    def test_grid_reaches_a_last_step_interchange(self, monkeypatch):
        import betajacobi.spectral as spectral

        swapped = []

        def spy(dl, d, du, **kw):
            out = _zgttrf(dl, d, du, **kw)
            swapped.append(out[4][-2] == len(d))
            return out

        monkeypatch.setattr(spectral, "_zgttrf", spy)
        kind, p = KERNEL_MODELS[3]
        stieltjes_cf(kind, p, KERNEL_Z, 400, warn_tol=None)
        assert swapped[5] and not swapped[0]

    def test_forced_last_step_interchange(self):
        # rows deepest first: (7, 2, 0.5) - z with z = 2 + 1e-3j, couplings
        # e2 = (1, 0.5) from the top; the second pivot, about -0.1, is
        # smaller than the top coupling 1, so the last step swaps rows
        d = np.array([0.5, 2.0, 7.0])
        e2 = np.array([1.0, 0.5, 0.25])
        z = np.array([2.0 + 1e-3j])
        seed = np.zeros(1, dtype=complex)
        system = (e2[1::-1].astype(complex), (d[::-1] - z[0]).astype(complex), np.ones(2, complex))
        _, piv, _, _, ipiv, info = _zgttrf(*system)
        assert info == 0 and list(ipiv) == [1, 3, 3]
        got = _cf_eval(d, e2, seed, z, 3, 3)
        assert got.tobytes() == zgtsv_cf_eval(d, e2, seed, z, 3, 3).tobytes()
        dense = np.diag(d - z[0]) + np.diag(np.sqrt(e2[:2]), 1) + np.diag(np.sqrt(e2[:2]), -1)
        assert got[0] == pytest.approx(np.linalg.inv(dense)[0, 0], rel=1e-13)
        # with b_n = 1 the entry would be 1 / u_nn
        assert got[0] != 1.0 / complex(piv[-1])


# the accuracy sweep: points x + i d from an edge of the support to the
# middle, at distances d where the bulk depth 3 / sqrt(d) passes 400
SWEEP_X = np.array([1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.5, 0.99, 0.999, 1 - 1e-4, 1 - 1e-6])
SWEEP_D = np.array([1e-4, 1e-5, 1e-6])
# rounding level of the compared fractions: over 40 draws of this sweep,
# the edge points, at their old depth with only the seed changed, came
# out less accurate at 68 of 4000, none past 1.8e-13
SWEEP_FLOOR = 1e-12


# one model per kind, and ASSOC_III also at a weight where the streams
# approach their limits from the other side
CF_VALUES_MODELS = [
    *KERNEL_MODELS,
    (ModelKind.ASSOC_III, JacobiParams(1.9, 0.0, 0.5)),
]


def _sweep_params(kind, rng):
    a, b = rng.uniform(-0.9, 2.0, 2)
    if kind is ModelKind.CLASSICAL:
        c = 0.0
    elif kind is ModelKind.ASSOC_III:
        c = rng.uniform(-0.5, 3.0)
    else:
        c = rng.uniform(max(0.0, -a, -b), 3.0)
    return JacobiParams(a, b, c)


class TestTailSeed:
    """Each fraction's tail is seeded with the fixed point of its next
    level's own coefficients, and runs a quarter of the depth away from
    the edges of the support (spectral._tail_seed, spectral._cf_depth)."""

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_no_point_less_accurate_than_the_limit_root(self, kind):
        # the old route (the limit root at max(400, 12 / sqrt(d))) against
        # the new one, both against the new seed at 20 times the old depth
        p = _sweep_params(kind, np.random.default_rng([31, list(ModelKind).index(kind)]))
        z = (SWEEP_X[:, None] + 1j * SWEEP_D[None, :]).ravel()
        old_depths = np.maximum(400, (12.0 / np.sqrt(_support_distance(z))).astype(np.int64))
        ref = _cf_values(kind, p, z, 20 * old_depths, None)
        old = np.abs(limit_tail_cf(kind, p, z) - ref) / np.abs(ref)
        new = np.abs(_cf_values(kind, p, z, _cf_depth(z), None) - ref) / np.abs(ref)
        worse = new > np.maximum(old, SWEEP_FLOOR)
        assert not worse.any(), list(zip(z[worse], old[worse], new[worse]))
        # the bulk runs a quarter of the old depth and is still more accurate
        bulk = _cf_depth(z) < old_depths
        assert bulk.sum() == 5 and np.all(new[bulk] < old[bulk])

    def test_seed_bits_in_each_case(self):
        # one seed per point: the limit root on the real axis, the next
        # level's root off it, -1/w past |z - 1/2| = 1e153
        d, e = tridiag_entries(ModelKind.ASSOC_III, P_REF, 12)
        e2 = e**2
        x = 10.0 ** np.linspace(-7.0, 3.0, 60)
        real = np.concatenate([-x, 1.0 + x, [-1e150, 1e152]]).astype(complex)
        real = np.concatenate([real, np.conj(real)])  # +0.0 and -0.0 imaginary parts
        off = np.array([2 + 1j, 0.5 + 0.5j, -1 + 0.25j, 1e150 + 1j, 0.5 - 1e-6j, 1e-9j])
        far = np.array([1e154, -1e200, 1e308, 1e-3 + 1e200j, 5e153 - 5e153j, -1e300j])
        z = np.concatenate([real, off, far])
        for level in (2, 10):
            got = _tail_seed(d, e2, z, level)
            want = two_pass_tail_seed(d, e2, z, limit_tail(z), level)
            n = len(real)
            assert got[:n].tobytes() == limit_tail(real).tobytes()
            assert got[n : -len(far)].tobytes() == want[n : -len(far)].tobytes()
            w = far - 0.5
            ulp = np.spacing(np.abs(1.0 / w))
            assert np.all(np.abs(got[-len(far) :] - (-1.0 / w)) <= ulp)

    @pytest.mark.parametrize(
        "kind, p",
        CF_VALUES_MODELS,
        ids=["classical", "assoc-i", "assoc-ii", "assoc-iii", "assoc-iii-b"],
    )
    def test_cf_values_bits_of_the_two_pass_seeds(self, kind, p):
        # every value, and every warning text, of the fraction at its own
        # depth, at fixed depths below and at the wrapper's three rows,
        # with and without the depth-halving check, as off the limit root
        # pass and the next-level overwrite
        rng = np.random.default_rng([33, CF_VALUES_MODELS.index((kind, p))])
        im = 10.0 ** rng.uniform(-5.0, 0.0, 400) * rng.choice([-1.0, 1.0], 400)
        off = rng.uniform(-0.5, 1.5, 400) + 1j * im
        x = 10.0 ** np.linspace(-7.0, 3.0, 60)
        z = np.concatenate([KERNEL_Z, off, -x, 1.0 + x])
        for depths in (_cf_depth(z), *(np.full(len(z), n) for n in (2, 3, 7, 400))):
            for warn_tol in (DEFAULT_RTOL, None):
                with warnings.catch_warnings(record=True) as got_w:
                    warnings.simplefilter("always")
                    got = _cf_values(kind, p, z, depths, warn_tol)
                with warnings.catch_warnings(record=True) as want_w:
                    warnings.simplefilter("always")
                    want = two_pass_cf_values(kind, p, z, depths, warn_tol)
                assert got.tobytes() == want.tobytes()
                assert [str(w.message) for w in got_w] == [str(w.message) for w in want_w]

    @pytest.mark.parametrize("abc", [(1.0, 0.0, 1.2), (1.9, 0.0, 0.5)])
    def test_real_axis_keeps_the_limit_root(self, abc):
        # the band [d - 2e, d + 2e] of level 400 overhangs [0, 1] here, so
        # a local seed would give a real z next to the support an
        # imaginary part
        p = JacobiParams(*abc)
        d, e = tridiag_entries(ModelKind.ASSOC_III, p, 402)
        assert d[400] + 2.0 * e[400] > 1.0
        z = np.array([-1e-9, 1.0 + 1e-9])
        got = stieltjes_cf(ModelKind.ASSOC_III, p, z, depth=400, warn_tol=None)
        want = _cf_eval(d, e**2, limit_tail(z.astype(complex)), z, 400, 400)
        assert got.tobytes() == want.tobytes()
        assert np.all(got.imag == 0.0)

    @pytest.mark.parametrize(
        "z, error, warns",
        [
            # error 7.16e-14 under the limit root, with a depth-halving
            # delta of 8.45e-10 that warned
            (0.5 + 0.01j, 1e-15, False),
            # error 1.55e-8 under the limit root, delta 4.4e-7; now the
            # error is below warn_tol, but the delta, 2.7e-9, still warns
            (0.2 + 0.002j, 1e-10, True),
        ],
    )
    def test_depth_halving_points(self, z, error, warns):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z)
        deep = stieltjes_cf(ModelKind.ASSOC_III, P_REF, z, depth=60000, warn_tol=None)
        assert abs(s - deep) <= error * abs(deep)
        assert any(w.category is ConvergenceWarning for w in caught) == warns

    def test_depth_rule(self):
        # within 1000 d of an edge, or outside [0, 1], 12 / sqrt(d);
        # elsewhere 3 / sqrt(d); never below 400
        z = np.array([0.5 + 1e-6j, 1e-3 + 1e-6j, 1.1e-3 + 1e-6j, 1 - 1e-3 + 1e-6j,
                      -1e-6, 1.0 + 1e-6j, 0.5 + 1e-3j, 2.0 + 1.0j, 1e-4j])
        assert _cf_depth(z).tolist() == [3000, 12000, 3000, 12000, 12000, 12000, 400, 400, 1200]
        assert _cf_depth([]).tolist() == []


class TestJacobiMatrix:
    def test_entries_match_streams(self, params):
        t = jacobi_matrix(ModelKind.ASSOC_III, params, 6)
        d, e = tridiag_entries(ModelKind.ASSOC_III, params, 6)
        np.testing.assert_array_equal(t.diag, d)
        np.testing.assert_array_equal(t.offdiag, e)
