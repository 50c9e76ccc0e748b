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
from betajacobi.spectral import DEFAULT_RTOL, _dstevd, _limit_tail, _stevd, _zgtsv

from oracles import backward_cf, frac_beta_moment, sturm_eigenvalues, uniform_stieltjes

P_REF = JacobiParams(0.3, 0.7, 1.2)


class TestTridiagonalContainer:
    def test_dense_and_matvec_agree(self, rng):
        d = rng.uniform(0.2, 1.8, 6)
        e = rng.uniform(0.1, 0.9, 5)
        t = SymmetricTridiagonal(d, e)
        v = rng.standard_normal(6)
        np.testing.assert_allclose(t.matvec(v), t.dense() @ v, rtol=1e-14)

    def test_size(self):
        t = SymmetricTridiagonal(np.array([0.5]), np.array([]))
        assert t.size == 1

    def test_length_mismatch_raises(self):
        with pytest.raises(ParameterError):
            SymmetricTridiagonal(np.array([0.5, 0.5]), np.array([0.1, 0.2]))

    def test_nonfinite_raises(self):
        with pytest.raises(ParameterError):
            SymmetricTridiagonal(np.array([np.nan, 0.5]), np.array([0.1]))

    @pytest.mark.parametrize(
        "v",
        [np.ones((2, 2)), [1.0], [1.0, 2.0, 3.0], 1.0],
        ids=["2x2", "short", "long", "0d"],
    )
    def test_matvec_refuses_misshaped_vectors(self, v):
        # a 2x2 v used to give a broadcast 2x2 "product", a short one a
        # bare ValueError
        t = SymmetricTridiagonal([1.0, 2.0], [0.5])
        with pytest.raises(ParameterError, match="^v must be a 1-d vector of length 2"):
            t.matvec(v)


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
        assert mv.order == 2
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
            v = np.zeros(t.size)
            v[0] = 1.0
            for _ in range(k):
                v = t.matvec(v)
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
        for k in range(mv.order):
            assert mv[k + 1] <= mv[k] + 1e-15
            assert mv[k + 1] >= 0.0


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


def _zgtsv_system(n, singular=False):
    rng = np.random.default_rng(n)
    cplx = lambda size: rng.normal(size=size) + 1j * rng.normal(size=size)  # noqa: E731
    m = max(n - 1, 1)  # the wrapper wants the off-diagonals at least one long
    d = np.zeros(n, dtype=complex) if singular else cplx(n) + 4.0
    return cplx(m), d, cplx(m), cplx((n, 2))


class TestLapackBinding:
    """spectral binds scipy's compiled dstevd and zgtsv wrappers without
    importing scipy.linalg; they are the objects scipy.linalg.lapack
    re-exports, so every output keeps its bits."""

    def test_same_objects_as_the_public_routines(self):
        import scipy.linalg.lapack as lapack

        assert _dstevd is lapack.dstevd and _zgtsv is lapack.zgtsv

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
    def test_zgtsv_bits(self, n, singular):
        import scipy.linalg.lapack as lapack

        args = _zgtsv_system(n, singular)
        got = _zgtsv(*args)
        want = lapack.zgtsv(*args)
        assert (got[-1] > 0) is singular and got[-1] == want[-1]
        assert _bits(got) == _bits(want)

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
            "assert sp._dstevd is lapack.dstevd and sp._zgtsv is lapack.zgtsv\n"
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

    def test_limit_tail_bits_below_the_far_field(self):
        # the squared-w root, as before the far-field branch
        zc = np.array([2 + 1j, 0.5 + 0.5j, -1 + 0.25j, 1e150 + 1j])
        w = zc - 0.5
        disc = np.sqrt(w * w - 0.25 + 0j)
        s, alt = 8.0 * (-w + disc), 8.0 * (-w - disc)
        pick_alt = np.where(
            zc.imag != 0.0, s.imag * np.sign(zc.imag) <= 0.0, np.abs(alt) < np.abs(s)
        )
        assert _limit_tail(zc).tobytes() == np.where(pick_alt, alt, s).tobytes()

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
        d, e = tridiag_entries(ModelKind.ASSOC_III, P_REF, depth + 1)
        want = np.array([backward_cf(d, e, z, "limit") for z in zs])
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

        def singular(dl, d, du, b, **kw):
            levels.append(len(d))
            return dl, d, du, b, 2

        monkeypatch.setattr(spectral, "_zgtsv", singular)
        pole = r"z = \(0\.5\+0\.5j\) is a pole of the "
        with pytest.raises(ConvergenceError, match=pole + r"7-level.*\(depth 7\)"):
            stieltjes_cf(ModelKind.ASSOC_III, P_REF, 0.5 + 0.5j, depth=7)
        assert levels == [7]

    def test_nonfinite_value_raises(self, monkeypatch):
        # a solve that overflows without a zero pivot gives NaN, which
        # must not come back as a transform value
        import betajacobi.spectral as spectral

        solve = spectral._zgtsv

        def overflowing(dl, d, du, b, **kw):
            at_2_2j = d[-1].imag == -2.0  # the top row, d_1 - z
            out = solve(dl, d, du, b, **kw)
            if at_2_2j:
                out[3][:] = np.nan
            return out

        monkeypatch.setattr(spectral, "_zgtsv", overflowing)
        with pytest.raises(ConvergenceError, match=r"7-level.*not finite at z = \(2\+2j\)"):
            stieltjes_cf(ModelKind.ASSOC_III, P_REF, [2.0 + 1.0j, 2.0 + 2.0j], depth=7)


class TestJacobiMatrix:
    def test_entries_match_streams(self, params):
        t = jacobi_matrix(ModelKind.ASSOC_III, params, 6)
        d, e = tridiag_entries(ModelKind.ASSOC_III, params, 6)
        np.testing.assert_array_equal(t.diag, d)
        np.testing.assert_array_equal(t.offdiag, e)
