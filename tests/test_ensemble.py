"""Finite-N sampler, exact mean moments, and the frozen-limit matrices."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betajacobi import (
    BidiagonalFactor,
    ConvergenceError,
    EnsembleConfig,
    JacobiParams,
    ModelKind,
    ParameterError,
    empirical_measure,
    exact_moment,
    limit_bidiagonal_squares,
    limit_pq,
    mc_moments,
    moment11,
    sample_model,
    substream,
    to_tridiagonal,
    tridiag_entries,
)
import betajacobi.ensemble as ens
from betajacobi.ensemble import (
    MAX_EXACT_K,
    _beta_rows,
    _bidiagonal_squares,
    _draw_pq,
    _shape_arrays,
    _trace_moments,
    _tridiagonal_from_squares,
)
from betajacobi.spectral import _stevd

from oracles import (
    all_start_moment,
    dense_bbt,
    per_order_rooted_walks,
    per_trial_spectrum,
    quadrature_moment,
    textbook_squares,
)

CFG = EnsembleConfig(6, 2.0, 0.5, 0.5)


class TestConfig:
    def test_kappa_and_c(self):
        cfg = EnsembleConfig(10, 3.0, 0.2, 0.4)
        assert cfg.kappa == 1.5
        assert cfg.c == 15.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            EnsembleConfig(0, 2.0, 0.5, 0.5)
        with pytest.raises(ParameterError):
            EnsembleConfig(4, -1.0, 0.5, 0.5)
        with pytest.raises(ParameterError):
            EnsembleConfig(4, 2.0, -1.0, 0.5)

    def test_size_cap(self):
        # N above the cap of tridiag_entries used to fail only when the
        # sampler allocated, with numpy's memory error
        assert EnsembleConfig(2**22, 2.0, 0.5, 0.5).N == 2**22
        with pytest.raises(ParameterError, match=r"2\*\*22"):
            EnsembleConfig(2**22 + 1, 2.0, 0.5, 0.5)
        with pytest.raises(ParameterError, match=r"2\*\*22"):
            mc_moments(EnsembleConfig(10**12, 0.0, 0.0, 0.0), 2, 2, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["a", "b"])
    def test_nonfinite_weights_raise(self, bad, which):
        weights = {"a": 0.5, "b": 0.5, which: bad}
        with pytest.raises(ParameterError):
            EnsembleConfig(4, 2.0, **weights)

    def test_overflowing_beta_refused(self):
        # twice the largest Beta shape sum, 2((N - 1) beta + |a| + |b| + 2),
        # must stay finite; these calls used to return NaN, fail with
        # "s entries must lie in [0, 1]" and with a ConvergenceError
        msg = r"beta = 8e\+307, a = .* overflow the Beta shapes at N = 8"
        with pytest.raises(ParameterError, match=msg):
            exact_moment(8, 4e307, 0.5, -0.3, 3)
        with pytest.raises(ParameterError, match=msg):
            sample_model(EnsembleConfig(8, 8e307, 0.5, 0.5), substream(1, 0))
        with pytest.raises(ParameterError, match=msg):
            mc_moments(EnsembleConfig(8, 8e307, 0.5, 0.5), 2, 10, seed=1)
        # the largest shape sum 8e307 + 3 at N = 2 still samples
        cfg = EnsembleConfig(2, 8e307, 0.5, 0.5)
        assert np.all(np.isfinite(sample_model(cfg, substream(1, 0)).s))
        assert np.all(np.isfinite(mc_moments(cfg, 2, 10, seed=1)[0].values))
        # any finite beta at N = 1, where beta enters no shape
        assert EnsembleConfig(1, 1e308, 0.5, 0.5).beta == 1e308
        with pytest.raises(ParameterError, match="overflow the Beta shapes at N = 1"):
            EnsembleConfig(1, 0.0, 1e308, 0.5)

    def test_factor_validation(self):
        with pytest.raises(ParameterError):
            BidiagonalFactor(np.array([0.5, 0.5]), np.array([]))
        with pytest.raises(ParameterError):
            BidiagonalFactor(np.array([0.5, 1.5]), np.array([0.3]))


class TestStreams:
    def test_reproducible(self):
        a = substream(123, 7).uniform(size=5)
        b = substream(123, 7).uniform(size=5)
        np.testing.assert_array_equal(a, b)

    def test_indices_independent(self):
        a = substream(123, 0).uniform(size=5)
        b = substream(123, 1).uniform(size=5)
        assert not np.array_equal(a, b)

    def test_negative_index_raises(self):
        with pytest.raises(ParameterError):
            substream(123, -1)

    def test_index_stays_below_the_chunk_keys(self):
        # substream(11, 2**64) used to draw the stream of substream(11, 0),
        # and 2**62 + j the stream of mc_moments' chunk j
        for index in (2**64, 2**62):
            with pytest.raises(ParameterError, match=f"got {index}$"):
                substream(11, index)
        top = substream(11, 2**62 - 1).random(4)
        assert top.tobytes() != substream(11, 0).random(4).tobytes()
        fresh = ens._stream(ens._fold_seed(11), 2**62 - 1)
        assert top.tobytes() == fresh.random(4).tobytes()

    @pytest.mark.parametrize("seed", [0, 123, 2**63 + 5])
    def test_rekeyed_generator_is_each_trial_stream(self, seed):
        # one reused generator re-keyed per trial draws the bits of a fresh
        # Philox per trial, whatever the trial before it left behind: the
        # odd float32 count leaves half a 64-bit word, the rest a part-read
        # buffer and a moved counter
        folded = ens._fold_seed(seed)
        indices = range(2**40, 2**40 + 4)
        for i, rng in zip(indices, ens._TrialStreams(folded, indices)):
            fresh = ens._stream(folded, i)
            for draw in (
                lambda g: g.random(3, dtype=np.float32),
                lambda g: g.standard_gamma(np.array([0.3, 2.0, 7.0])),
                lambda g: g.random(5),
            ):
                assert draw(rng).tobytes() == draw(fresh).tobytes()


class TestSampling:
    def test_beta_moments_match(self):
        draws = _beta_rows(np.array([5.0]), np.array([2.0]), substream(42, 0), 20_000)
        draws = draws[:, 0]
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - 5.0 / 7.0) < 3.0 * se
        assert np.all((draws > 0.0) & (draws < 1.0))

    def test_single_point_marginal(self):
        # N = 1 collapses to one Beta(a+1, b+1) variable
        cfg = EnsembleConfig(1, 2.0, 1.0, 0.5)
        rng = substream(7, 0)
        draws = np.array([sample_model(cfg, rng).s[0] ** 2 for _ in range(20_000)])
        want = 2.0 / 3.5  # mean of Beta(2, 1.5)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - want) < 3.0 * se

    def test_factor_shapes(self):
        f = sample_model(CFG, substream(5, 0))
        assert f.s.shape == (6,) and f.t.shape == (5,)

    def test_zero_beta_kills_couplings(self):
        # kappa = 0 makes every q degenerate at 0, so t = 0 identically
        cfg = EnsembleConfig(4, 0.0, 0.5, 0.5)
        f = sample_model(cfg, substream(11, 0))
        np.testing.assert_array_equal(f.t, np.zeros(3))

    @pytest.mark.parametrize("n", [1, 2, 15])
    @pytest.mark.parametrize("beta", [0.0, 0.05, 2.0])
    @pytest.mark.parametrize("ab", [(0.3, 0.7), (-0.999, -0.999)])
    def test_sample_model_is_the_batched_draw(self, n, beta, ab):
        # sample_model and a several-row draw from one stream equal the
        # textbook draw of the oracle, bit for bit; weights near -1 give
        # shapes whose gamma draws underflow to 0/0 and are redrawn
        cfg = EnsembleConfig(n, beta, *ab)
        shapes = _shape_arrays(cfg)
        f = sample_model(cfg, substream(13, 4))
        s2, t2 = textbook_squares(shapes, substream(13, 4), 1)
        np.testing.assert_array_equal(f.s, np.sqrt(s2[0]))
        np.testing.assert_array_equal(f.t, np.sqrt(t2[0]))
        got = _bidiagonal_squares(*_draw_pq(shapes, substream(13, 5), 3))
        want = textbook_squares(shapes, substream(13, 5), 3)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("ab", [(0.3, 0.7), (-0.9999, -0.9999)])
    def test_one_call_draw_leaves_the_stream_where_the_textbook_does(self, ab):
        # the two public one-trial draws, underflowed totals included,
        # take the textbook squares and leave a caller's generator where
        # the textbook draw does
        cfg = EnsembleConfig(3, 2.0, *ab)
        shapes = _shape_arrays(cfg)
        for i in range(20):
            rng, ref = substream(17, i), substream(17, i)
            f = sample_model(cfg, rng)
            s2, t2 = textbook_squares(shapes, ref, 1)
            assert f.s.tobytes() == np.sqrt(s2[0]).tobytes()
            assert f.t.tobytes() == np.sqrt(t2[0]).tobytes()
            assert rng.random() == ref.random()
            rng, ref = substream(17, i), substream(17, i)
            got = empirical_measure(cfg, rng).nodes
            textbook_squares(shapes, ref, 1)
            assert got.tobytes() == per_trial_spectrum(cfg, 17, i).tobytes()
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("shapes", [(5.0, 2.0), (1e-4, 1e-4), (0.3, 1e-3)])
    def test_beta_rows_is_the_textbook_draw(self, shapes, monkeypatch):
        # a many-row draw of one variable is the one-variable case of the
        # oracle; (1e-4, 1e-4) underflows to 0/0 and takes the redraw
        calls = []
        redraw = ens._redraw_empty
        monkeypatch.setattr(
            ens, "_redraw_empty", lambda *args: calls.append(1) or redraw(*args)
        )
        alpha, beta = np.array([shapes[0]]), np.array([shapes[1]])
        got = _beta_rows(alpha, beta, substream(42, 0), 2000)
        one = (alpha, beta, np.empty(0), np.empty(0))
        want = textbook_squares(one, substream(42, 0), 2000)[0]
        assert got.shape == (2000, 1)
        assert got.tobytes() == want.tobytes()
        if shapes == (1e-4, 1e-4):
            assert calls


class TestTridiagonalAssembly:
    def test_hand_example(self):
        f = BidiagonalFactor(np.array([0.6, 0.5]), np.array([0.8]))
        t = to_tridiagonal(f)
        np.testing.assert_allclose(t.diag, [0.36, 0.89], rtol=1e-15)
        np.testing.assert_allclose(t.offdiag, [0.48], rtol=1e-15)

    def test_matches_dense_product(self):
        # J = B B^T checked against the dense matrix product
        for idx in range(4):
            f = sample_model(CFG, substream(13, idx))
            t = to_tridiagonal(f)
            np.testing.assert_allclose(t.dense(), dense_bbt(f.s, f.t), atol=1e-15)

    def test_single_site(self):
        t = to_tridiagonal(BidiagonalFactor(np.array([0.7]), np.array([])))
        assert t.diag[0] == pytest.approx(0.49)
        assert t.offdiag.size == 0

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_one_assembly_for_sampled_and_batched(self, n):
        # the batched Monte Carlo assembly row by row equals to_tridiagonal
        # of the factor with the same squares, up to sqrt(s^2) squared
        cfg = EnsembleConfig(n, 1.5, 0.3, 0.7)
        s2, t2 = _bidiagonal_squares(*_draw_pq(_shape_arrays(cfg), substream(21, 0), 4))
        diags, offs = _tridiagonal_from_squares(s2, t2)
        assert diags.shape == (4, n) and offs.shape == (4, n - 1)
        for r in range(4):
            t = to_tridiagonal(BidiagonalFactor(np.sqrt(s2[r]), np.sqrt(t2[r])))
            np.testing.assert_allclose(t.diag, diags[r], rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(t.offdiag, offs[r], rtol=1e-15, atol=0.0)

class TestEmpiricalMeasure:
    def test_support_and_weights(self):
        m = empirical_measure(CFG, substream(3, 0))
        assert np.all((m.nodes >= 0.0) & (m.nodes <= 1.0))
        np.testing.assert_array_equal(m.weights, np.full(6, 1.0 / 6.0))

    def test_deterministic(self):
        m1 = empirical_measure(CFG, substream(3, 5))
        m2 = empirical_measure(CFG, substream(3, 5))
        np.testing.assert_array_equal(m1.nodes, m2.nodes)

    @pytest.mark.parametrize("n", [1, 2, 6, 40])
    def test_same_spectrum_as_sampled_factor(self, n):
        # the squares are drawn from the same stream as sample_model; only
        # the sqrt-then-square round trip of the factor differs
        cfg = EnsembleConfig(n, 2.0 / n, 0.5, 0.25)
        for idx in range(5):
            m = empirical_measure(cfg, substream(8, idx))
            t = to_tridiagonal(sample_model(cfg, substream(8, idx)))
            want = np.sort(_stevd(t.diag, t.offdiag)[0])
            np.testing.assert_allclose(m.nodes, want, rtol=0.0, atol=1e-14)

    @given(
        n=st.integers(1, 6),
        beta=st.floats(0.0, 4.0),
        a=st.floats(-0.9, 3.0),
        b=st.floats(-0.9, 3.0),
        idx=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_spectrum_contained(self, n, beta, a, b, idx):
        cfg = EnsembleConfig(n, beta, a, b)
        m = empirical_measure(cfg, substream(99, idx))
        assert np.all((m.nodes >= 0.0) & (m.nodes <= 1.0))


# a = b = -0.9999 puts shapes of 1e-4 into the last p (and, at beta = 0,
# the q) draws, where both gammas often underflow to 0 and are redrawn
SPECTRUM_GRID = [
    EnsembleConfig(n, beta, -0.9999, -0.9999)
    for n in (1, 2, 3, 60)
    for beta in (0.0, 2.0 / n, 4.0)
]


def _per_trial(cfg, seed, trials):
    return np.array([per_trial_spectrum(cfg, seed, i) for i in range(trials)])


class TestSpectrumKernel:
    """The block kernel behind empirical_measure and `sample` against the
    one-matrix-at-a-time route (per-trial squares, scipy's stevd
    wrapper), byte for byte."""

    @pytest.mark.parametrize("cfg", SPECTRUM_GRID, ids=repr)
    def test_empirical_measure_is_the_per_trial_route(self, cfg):
        for i in range(4):
            got = empirical_measure(cfg, substream(13, i)).nodes
            assert got.tobytes() == per_trial_spectrum(cfg, 13, i).tobytes()

    @pytest.mark.parametrize("cfg", SPECTRUM_GRID, ids=repr)
    def test_blocks_are_the_per_trial_route(self, cfg, monkeypatch):
        monkeypatch.setattr(ens, "_SPECTRUM_BLOCK", 2 * cfg.N)
        blocks = list(ens._spectrum_blocks(cfg, 13, 7))
        assert [b.shape for b in blocks] == [(2, cfg.N)] * 3 + [(1, cfg.N)]
        assert np.vstack(blocks).tobytes() == _per_trial(cfg, 13, 7).tobytes()

    def test_default_block_size(self):
        cfg = EnsembleConfig(60, 2.0 / 60, 0.5, 0.5)
        blocks = list(ens._spectrum_blocks(cfg, 3, 1100))
        assert [len(b) for b in blocks] == [(1 << 16) // 60, 1100 - (1 << 16) // 60]
        assert np.vstack(blocks)[-3:].tobytes() == np.array(
            [per_trial_spectrum(cfg, 3, i) for i in (1097, 1098, 1099)]
        ).tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_blocks_replay_a_trial_from_its_key(self, n, monkeypatch):
        # a trial of a block whose totals underflowed restarts from its
        # own key, with no state saved for the others, and keeps its bytes
        restarts = []
        stream = ens._stream
        monkeypatch.setattr(
            ens, "_stream", lambda folded, i: restarts.append(i) or stream(folded, i)
        )
        monkeypatch.setattr(ens, "_SPECTRUM_BLOCK", 4 * n)
        cfg = EnsembleConfig(n, 2.0, -0.9999, -0.9999)
        got = np.vstack(list(ens._spectrum_blocks(cfg, 13, 9)))
        assert restarts and set(restarts) < set(range(9))
        monkeypatch.undo()
        assert got.tobytes() == _per_trial(cfg, 13, 9).tobytes()

    def test_grid_takes_the_redraw(self, monkeypatch):
        # the underflow redraw runs inside the blocks, on the trial's own
        # stream, between its p and q draws
        calls = []
        redraw = ens._redraw_empty
        monkeypatch.setattr(
            ens, "_redraw_empty", lambda *args: calls.append(1) or redraw(*args)
        )
        list(ens._spectrum_blocks(EnsembleConfig(1, 2.0, -0.9999, -0.9999), 13, 7))
        assert len(calls) >= 3

    def test_clamp_and_escape(self, monkeypatch):
        j = np.full((2, 6), 0.5), np.full((2, 5), 0.1)
        near = np.r_[-5e-13, np.full(4, 0.5), 1.0 + 5e-13]
        monkeypatch.setattr(ens, "_stevd", lambda d, e: (near.copy(), None))
        got = ens._spectra(*j)
        np.testing.assert_array_equal(got[:, 0], 0.0)
        np.testing.assert_array_equal(got[:, -1], 1.0)
        far = np.r_[np.full(5, 0.5), 1.0 + 1e-9]
        monkeypatch.setattr(ens, "_stevd", lambda d, e: (far.copy(), None))
        with pytest.raises(ConvergenceError, match="escapes"):
            ens._spectra(*j)

    def test_nonfinite_entries_raise(self, monkeypatch):
        def nan_j(s2, t2):
            return np.full_like(s2, np.nan), t2

        monkeypatch.setattr(ens, "_tridiagonal_from_squares", nan_j)
        with pytest.raises(ParameterError, match="finite"):
            empirical_measure(CFG, substream(1, 0))


def _stevd_unreachable(d, e):
    raise AssertionError("an eigensolve ran on the count route")


class TestBinCounts:
    """`sample` histograms from Sturm counts at the bin edges against
    np.histogram of the one-matrix-at-a-time spectra, count for count."""

    @given(
        n=st.integers(1, 80),
        beta=st.sampled_from([0.0, 0.01, 1.0, 4.0]) | st.floats(0.0, 4.0),
        a=st.sampled_from([-0.9999, 0.5, 3.0]) | st.floats(-0.9999, 3.0),
        b=st.sampled_from([-0.9999, 0.5, -0.5]) | st.floats(-0.9999, 3.0),
        trials=st.integers(1, 4),
        seed=st.integers(0, 10**6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_are_the_histogram_of_the_spectra(self, n, beta, a, b, trials, seed,
                                                     data):
        bins = data.draw(st.sampled_from([1, 4 * n, 40]) | st.integers(1, 4 * n + 40))
        cfg = EnsembleConfig(n, beta, a, b)
        want = np.histogram(
            np.concatenate([per_trial_spectrum(cfg, seed, i) for i in range(trials)]),
            bins, (0.0, 1.0),
        )[0]
        with pytest.MonkeyPatch.context() as mp:
            # every bin count takes the count route, at N <= 3 too
            mp.setattr(ens, "_COUNT_BINS_PER_SITE", 10**9)
            mp.setattr(ens, "_SPECTRUM_BLOCK", 2 * n)
            mp.setattr(ens, "_stevd", _stevd_unreachable)
            got, edges = ens._histogram(cfg, seed, trials, bins)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
        assert edges.tobytes() == np.histogram_bin_edges([], bins, (0.0, 1.0)).tobytes()

    def test_crossover(self, monkeypatch):
        # up to 4N bins the counts, past it the eigenvalues
        cfg = EnsembleConfig(5, 0.4, 0.5, 0.5)
        monkeypatch.setattr(ens, "_stevd", _stevd_unreachable)
        counts = ens._histogram(cfg, 3, 6, 20)[0]
        monkeypatch.undo()
        want = np.histogram(_per_trial(cfg, 3, 6), 20, (0.0, 1.0))[0]
        assert counts.tolist() == want.tolist()
        solves = []
        monkeypatch.setattr(ens, "_stevd", lambda d, e: solves.append(1) or _stevd(d, e))
        counts = ens._histogram(cfg, 3, 6, 21)[0]
        assert len(solves) == 6
        assert counts.tolist() == np.histogram(_per_trial(cfg, 3, 6), 21, (0.0, 1.0))[0].tolist()

    # roundoff below 0 and above 1 is clamped into the end bins; between
    # the clamp and the escape tolerance it is dropped, as np.histogram
    # drops what lies outside [0, 1]; 0.25 sits on an interior edge, and
    # the float under it gives a zero pivot, with an exactly 0 coupling
    # to the 0.1 after it
    PLANTED = [-5e-11, -5e-13, 0.0, 0.25, np.nextafter(0.25, 0.0), 0.1, 0.5, 1.0,
               1.0 + 5e-13, 1.0 + 5e-11]

    @staticmethod
    def _plant(diag):
        # two trials of a diagonal J
        return np.vstack([diag, diag]), np.zeros((2, len(diag) - 1))

    @pytest.mark.parametrize("bins", [1, 4, 8, 36])
    def test_planted_entries_follow_the_clamp_and_the_edges(self, bins):
        j = self._plant(np.array(self.PLANTED))
        got = ens._bin_counts(*j, np.linspace(0.0, 1.0, bins + 1))
        vals = ens._spectra(*j)
        want = np.histogram(vals, bins, (0.0, 1.0))[0]
        assert got.tolist() == want.tolist()
        assert got.sum() == 2 * (len(self.PLANTED) - 2)
        assert got[0] >= 2 * 2 and got[-1] >= 2 * 2
        if bins == 4:  # 0.25 opens bin 1; the float just under it stays in bin 0
            assert got.tolist() == [2 * 4, 2 * 1, 2 * 1, 2 * 2]

    @pytest.mark.parametrize("bad", [1.0 + 1e-9, -1e-9])
    def test_planted_escape_raises_as_the_eigen_route(self, bad):
        j = self._plant(np.array([0.0, 0.5, bad]))
        with pytest.raises(ConvergenceError, match="escapes") as counted:
            ens._bin_counts(*j, np.linspace(0.0, 1.0, 11))
        with pytest.raises(ConvergenceError) as solved:
            ens._spectra(*j)
        assert str(counted.value) == str(solved.value)

    def test_nonfinite_entries_raise(self, monkeypatch):
        # the count route's J is checked as the eigensolve route's is
        def nan_j(s2, t2):
            return np.full_like(s2, np.nan), t2

        monkeypatch.setattr(ens, "_tridiagonal_from_squares", nan_j)
        monkeypatch.setattr(ens, "_stevd", _stevd_unreachable)
        with pytest.raises(ParameterError, match="finite"):
            ens._histogram(EnsembleConfig(2, 2.0, 0.5, 0.5), 1, 2, 4)


def _random_tridiagonals(rng, m, n):
    # J = B B^T from bidiagonal entries in [0, 1], as the sampler builds it:
    # positive semidefinite with nonnegative entries, so no trace cancels
    s = rng.uniform(0.0, 1.0, (m, n))
    t = rng.uniform(0.0, 1.0, (m, n - 1))
    diags = s**2
    diags[:, 1:] += t**2
    return diags, s[:, :-1] * t


def _eigen_moments(diags, offs, k_max):
    out = np.empty((len(diags), k_max + 1))
    for r in range(len(diags)):
        vals = _stevd(diags[r], offs[r])[0]
        out[r] = [np.mean(vals**k) for k in range(k_max + 1)]
    return out


def _assert_trace_route_matches(n, k_max, seed, m=6):
    diags, offs = _random_tridiagonals(np.random.default_rng(seed), m, n)
    got = _trace_moments(diags, offs, k_max)
    want = _eigen_moments(diags, offs, k_max)
    assert got.shape == (m, k_max + 1)
    np.testing.assert_array_equal(got[:, 0], 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestTraceMoments:
    """The band-power trace kernel against the eigenvalue route."""

    @pytest.mark.parametrize(
        "n, k_max",
        [
            (1, 0), (1, 5),
            (2, 0), (2, 1), (2, 2), (2, 7),
            (5, 3), (5, 4),  # odd and even k_max
            (4, 4), (4, 9),  # k_max >= N: bandwidth saturates
            (30, 8),
        ],
    )
    def test_matches_eigen_powers(self, n, k_max):
        _assert_trace_route_matches(n, k_max, seed=1000 * n + k_max)

    @given(n=st.integers(1, 25), k_max=st.integers(0, 12), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_eigen_powers(self, n, k_max, seed):
        _assert_trace_route_matches(n, k_max, seed, m=3)


class TestMcMoments:
    def test_thread_count_is_invisible(self):
        # trials span multiple chunks; per-chunk streams make the result
        # a pure function of the seed
        cfg = EnsembleConfig(4, 2.0, 0.5, 0.5)
        m1, s1 = mc_moments(cfg, 3, 70_000, seed=17, threads=1)
        m3, s3 = mc_moments(cfg, 3, 70_000, seed=17, threads=3)
        np.testing.assert_array_equal(m1.values, m3.values)
        np.testing.assert_array_equal(s1, s3)

    def test_single_site_mean(self):
        cfg = EnsembleConfig(1, 2.0, 0.0, 0.0)
        means, stderr = mc_moments(cfg, 1, 20_000, seed=23)
        assert means[0] == 1.0 and stderr[0] == 0.0
        assert abs(means[1] - 0.5) < 3.0 * stderr[1]

    def test_matches_exact_small_n(self):
        cfg = EnsembleConfig(3, 2.0, 0.5, 0.25)
        means, stderr = mc_moments(cfg, 4, 40_000, seed=31)
        for k in range(1, 5):
            want = exact_moment(3, 1.0, 0.5, 0.25, k)
            assert abs(means[k] - want) < 4.0 * stderr[k]

    def test_chunk_merge_matches_pooled_trials(self, monkeypatch):
        # per-chunk (count, mean, M2) merged in chunk order equals the
        # mean and standard error of all trials' moments at once, the last
        # chunk short; the thread count changes no bit
        import betajacobi.ensemble as ens

        monkeypatch.setattr(ens, "_CHUNK", 100)
        cfg, k_max, trials, seed = EnsembleConfig(4, 1.5, 0.3, 0.7), 3, 1050, 5
        means, stderr = mc_moments(cfg, k_max, trials, seed)
        folded, shapes = ens._fold_seed(seed), _shape_arrays(cfg)
        rows = []
        for lo in range(0, trials, 100):
            rng = ens._stream(folded, ens._CHUNK_KEY_BASE + lo // 100)
            squares = textbook_squares(shapes, rng, min(100, trials - lo))
            rows.append(_trace_moments(*_tridiagonal_from_squares(*squares), k_max))
        per_trial = np.vstack(rows)
        want_se = per_trial.std(axis=0, ddof=1) / np.sqrt(trials)
        np.testing.assert_allclose(means.values[1:], per_trial.mean(axis=0)[1:], rtol=1e-13)
        np.testing.assert_allclose(stderr[1:], want_se[1:], rtol=1e-12)
        m3, s3 = mc_moments(cfg, k_max, trials, seed, threads=3)
        np.testing.assert_array_equal(m3.values, means.values)
        np.testing.assert_array_equal(s3, stderr)

    def test_chunks_are_bounded_in_n(self, monkeypatch):
        # a chunk used to hold _CHUNK trials at every N; now it holds at
        # most _CHUNK_ENTRIES matrix entries, and the chunks still cover
        # the trials in order, each drawn from its own keyed stream
        monkeypatch.setattr(ens, "_CHUNK_ENTRIES", 64)
        sizes = []
        chunk = ens._mc_chunk
        monkeypatch.setattr(
            ens, "_mc_chunk",
            lambda shapes, rng, lo, hi, k_max: sizes.append((lo, hi))
            or chunk(shapes, rng, lo, hi, k_max),
        )
        cfg, k_max, trials, seed = EnsembleConfig(10, 1.5, 0.3, 0.7), 3, 40, 5
        means, _ = mc_moments(cfg, k_max, trials, seed, threads=2)
        sizes.sort()  # on two threads, chunks may start out of order
        assert all((hi - lo) * cfg.N <= 64 for lo, hi in sizes)
        assert sizes == [(lo, min(lo + 6, trials)) for lo in range(0, trials, 6)]
        folded, shapes = ens._fold_seed(seed), _shape_arrays(cfg)
        rows = [
            _trace_moments(*_tridiagonal_from_squares(*textbook_squares(
                shapes, ens._stream(folded, ens._CHUNK_KEY_BASE + i), hi - lo
            )), k_max)
            for i, (lo, hi) in enumerate(sizes)
        ]
        np.testing.assert_allclose(
            means.values[1:], np.vstack(rows).mean(axis=0)[1:], rtol=1e-13
        )
        # one trial per chunk once N alone passes the cap
        sizes.clear()
        mc_moments(EnsembleConfig(100, 1.5, 0.3, 0.7), 1, 3, seed)
        assert sizes == [(0, 1), (1, 2), (2, 3)]

    def test_memory_does_not_grow_with_trials(self, monkeypatch):
        # a (trials, k_max + 1) array used to hold every trial's moments
        import tracemalloc

        import betajacobi.ensemble as ens

        monkeypatch.setattr(ens, "_CHUNK", 256)
        peaks = []
        for chunks in (4, 64):
            tracemalloc.start()
            mc_moments(EnsembleConfig(4, 2.0, 0.5, 0.5), 3, 256 * chunks, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # 64 chunks' moments alone would be 64 * 256 * 4 * 8 bytes = 512 kB
        assert peaks[1] < peaks[0] + 64_000

    @pytest.mark.parametrize(
        "n, trials, chunk",
        [
            (1, 20001, 10000),  # a one-trial last chunk
            (2, 9001, 5000),
            (3, 6000, 6000),
            (60, 300, ens._CHUNK),
            (200, 81, ens._CHUNK),  # a lone last trial joins the block before
            (200, 95, ens._CHUNK),
            (ens._TRACE_BLOCK + 1, 5, ens._CHUNK),  # N alone fills a block
        ],
    )
    @pytest.mark.parametrize("k_max", [0, 1, 8])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocks_are_the_whole_chunk(self, n, trials, chunk, k_max, threads,
                                        monkeypatch):
        # each chunk drawn by the textbook oracle and traced in one piece
        # gives the bytes of the blocked chunks, short last blocks included
        def whole_chunk(shapes, rng, lo, hi, k_max):
            squares = textbook_squares(shapes, rng, hi - lo)
            moments = _trace_moments(*_tridiagonal_from_squares(*squares), k_max)
            mean = moments.mean(axis=0)
            dev = moments - mean
            return hi - lo, mean, np.einsum("ij,ij->j", dev, dev)

        monkeypatch.setattr(ens, "_CHUNK", chunk)
        cfg = EnsembleConfig(n, 2.0 / n, 0.3, 0.7)
        means, stderr = mc_moments(cfg, k_max, trials, 11, threads=threads)
        monkeypatch.setattr(ens, "_mc_chunk", whole_chunk)
        want_means, want_stderr = mc_moments(cfg, k_max, trials, 11, threads=threads)
        assert means.values.tobytes() == want_means.values.tobytes()
        assert stderr.tobytes() == want_stderr.tobytes()

    def test_memory_does_not_grow_with_k_max(self):
        # band powers of the whole chunk used to be held at once: 24 MiB at
        # k = 1, 87 MiB at k = 16; blocked, the draws set the peak
        import tracemalloc

        cfg = EnsembleConfig(200, 0.01, 0.5, 0.1)
        mc_moments(cfg, 16, 2000, 7)  # fills numpy's one-off caches untraced
        peaks = []
        for k in (1, 16):
            tracemalloc.start()
            mc_moments(cfg, k, 2000, 7)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_chunks_of_a_thread_reuse_their_work_arrays(self):
        # a chunk used to fault in fresh pages for its draws: now the
        # chunks of one thread draw into the same buffers, with the bits
        # a fresh thread gives
        from concurrent.futures import ThreadPoolExecutor

        shapes = _shape_arrays(EnsembleConfig(3, 1.4, 0.2, 0.4))
        slots = ("p", "q", "tot", "j", "moments")

        def two_chunks():
            ens._mc_chunk(shapes, ens._stream(5, 0), 0, 3000, 3)
            bufs = [getattr(ens._SCRATCH, slot) for slot in slots]
            second = ens._mc_chunk(shapes, ens._stream(5, 1), 3000, 6000, 3)
            return second, all(getattr(ens._SCRATCH, s) is b for s, b in zip(slots, bufs))

        with ThreadPoolExecutor(1) as pool:
            second, reused = pool.submit(two_chunks).result()
        with ThreadPoolExecutor(1) as pool:
            fresh = pool.submit(ens._mc_chunk, shapes, ens._stream(5, 1), 3000, 6000, 3)
            fresh = fresh.result()
        assert reused
        assert second[0] == fresh[0] == 3000
        assert second[1].tobytes() == fresh[1].tobytes()
        assert second[2].tobytes() == fresh[2].tobytes()

    def test_nonfinite_trace_in_a_later_block_names_the_chunk(self, monkeypatch):
        calls = []
        trace = ens._trace_moments

        def poisoned(diags, offs, k_max):
            calls.append(len(diags))
            out = trace(diags, offs, k_max)
            if len(calls) == 2:
                out[-1, -1] = np.inf
            return out

        monkeypatch.setattr(ens, "_trace_moments", poisoned)
        monkeypatch.setattr(ens, "_CHUNK", 100)
        # N = 200 puts 40 trials in a block, so trials 0..99 take three
        with pytest.raises(ConvergenceError, match=r"trials 0\.\.99;"):
            mc_moments(EnsembleConfig(200, 0.01, 0.5, 0.1), 2, 250, 3)
        assert calls[:3] == [40, 40, 20]

    def test_trial_guard(self):
        with pytest.raises(ParameterError):
            mc_moments(CFG, 2, 1, seed=1)

    def test_nonfinite_trace_raises(self, monkeypatch):
        import betajacobi.ensemble as ens

        def poisoned(diags, offs, k_max):
            out = np.ones((len(diags), k_max + 1))
            out[0, -1] = np.nan
            return out

        monkeypatch.setattr(ens, "_trace_moments", poisoned)
        with pytest.raises(ConvergenceError):
            mc_moments(CFG, 2, 10, seed=1)


class TestExactMoments:
    def test_single_site_first_moment_fraction(self):
        # N = 1: E[x] = (a+1)/(a+b+2), exact in rational arithmetic
        for a, b in [(0.5, 0.25), (1.0, 0.0), (0.75, 1.5)]:
            want = Fraction(Fraction(a) + 1, Fraction(a) + Fraction(b) + 2)
            assert exact_moment(1, 1.7, a, b, 1) == pytest.approx(
                float(want), rel=1e-15
            )

    def test_single_site_uniform_second(self):
        assert exact_moment(1, 0.5, 0.0, 0.0, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_order_zero(self):
        assert exact_moment(4, 1.0, 0.5, 0.5, 0) == 1.0

    @pytest.mark.parametrize(
        "case",
        [(1.0, 0.5, 0.25, 3), (2.0, 0.3, 0.7, 4), (0.5, -0.25, 1.0, 2)],
    )
    def test_two_site_against_quadrature(self, case):
        kappa, a, b, k = case
        want = quadrature_moment(2, kappa, a, b, k)
        assert exact_moment(2, kappa, a, b, k) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize(
        "n, kappa, a, b, k",
        [(3, 1.0, 0.5, 0.25, k) for k in range(1, 7)]
        + [(3, 0.7, -0.5, 1.7, 5), (4, 0.5, 0.3, -0.25, 3)]
        + [(4, 2.0, -0.9, 0.1, k) for k in range(1, 5)],
    )
    def test_three_and_four_sites_against_quadrature(self, n, kappa, a, b, k):
        want = quadrature_moment(n, kappa, a, b, k)
        assert exact_moment(n, kappa, a, b, k) == pytest.approx(want, rel=1e-12)

    def test_swapped_p_shapes_miss_the_quadrature(self, monkeypatch):
        # a planted defect: a and b swapped in the shapes of p.  The q
        # shapes read a and b only through a + b, so a swap there cannot
        # show.  mc_moments draws from the same _shape_arrays, so it cannot
        # see this defect either; the quadrature builds its own shapes.
        n, kappa, a, b = 5, 0.4, 0.3, 0.7
        want = quadrature_moment(n, kappa, a, b, 1)
        assert exact_moment(n, kappa, a, b, 1) == pytest.approx(want, rel=1e-12)
        shapes = ens._shape_arrays

        def swapped(cfg, sites=None):
            alpha_p, beta_p, alpha_q, beta_q = shapes(cfg, sites)
            return beta_p, alpha_p, alpha_q, beta_q

        monkeypatch.setattr(ens, "_shape_arrays", swapped)
        # m_1 moves from 0.4677 to 0.5323, 1e11 times the tolerance above
        assert abs(exact_moment(n, kappa, a, b, 1) - want) > 0.05

    def test_guards(self):
        with pytest.raises(ParameterError):
            exact_moment(2, 1.0, 0.5, 0.5, 9)
        with pytest.raises(ParameterError):
            exact_moment(2, -0.5, 0.5, 0.5, 2)
        # non-finite parameters used to come back as a NaN moment
        for bad in (np.nan, np.inf):
            for args in ((bad, 0.5, 0.5), (1.0, bad, 0.5), (1.0, 0.5, bad)):
                with pytest.raises(ParameterError):
                    exact_moment(3, *args, 2)

    def test_finite_n_approaches_operator_moments(self):
        # at fixed c = kappa N the mean moments drift toward the limiting
        # measure's as N grows
        c, a, b = 1.2, 0.3, 0.7
        for k in range(1, 5):
            lim = moment11(ModelKind.ASSOC_III, JacobiParams(a, b, c), k)
            devs = [abs(exact_moment(n, c / n, a, b, k) - lim) for n in (2, 4, 8)]
            assert devs[2] < devs[1] < devs[0]
            assert devs[2] < 0.05

    @pytest.mark.parametrize("a, b", [(0.5, 0.25), (-0.999, 0.3), (1.3, -0.6)])
    def test_kappa_zero_is_iid_beta(self, a, b):
        # at kappa = 0 the q variables vanish, J is diagonal with iid
        # Beta(a + 1, b + 1) entries, and m_k = (a + 1)_k / (a + b + 2)_k
        for k in range(MAX_EXACT_K + 1):
            want = np.prod([(a + 1 + r) / (a + b + 2 + r) for r in range(k)])
            for n in (1, 2, 3, 4, 5, 6, 7, 8, 1000, 2**22):
                assert exact_moment(n, 0.0, a, b, k) == pytest.approx(want, rel=2e-15)

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("kappa, a", [(0.7, 0.4), (2.0, -0.5)])
    def test_equal_weights_are_symmetric_about_one_half(self, n, kappa, a):
        # at a = b the law is invariant under l -> 1 - l: m_1 = 1/2 and
        # the odd central moments vanish
        m = [exact_moment(n, kappa, a, a, k) for k in range(8)]
        assert m[1] == pytest.approx(0.5, rel=1e-15)
        for j in (3, 5, 7):
            central = sum(comb(j, i) * (-0.5) ** (j - i) * m[i] for i in range(j + 1))
            assert abs(central) <= 2e-15

    @pytest.mark.parametrize("A, B", [(1.0, 1.0), (0.3, 1.7)])
    def test_large_kappa_reaches_the_frozen_matrix(self, A, B):
        # a = A kappa, b = B kappa at kappa = 1e100 is the frozen limit to
        # rounding; Pochhammer symbols of these shapes overflow a double
        for n in (3, 8, 50):
            s2, t2 = limit_bidiagonal_squares(n, float(n), A, B)
            frozen = to_tridiagonal(BidiagonalFactor(np.sqrt(s2), np.sqrt(t2)))
            d, e = frozen.diag, frozen.offdiag
            dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            for k in range(1, MAX_EXACT_K + 1):
                want = np.trace(np.linalg.matrix_power(dense, k)) / n
                got = exact_moment(n, 1e100, A * 1e100, B * 1e100, k)
                assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize(
        "args, want",
        [
            ((5, 0.001, -0.99, 0.5, 7), 6.411228708980758e-4),
            ((6, 0.05, -0.999, -0.999, 6), 0.4162045701642955),
            ((7, 0.2, 1.3, -0.4, 6), 0.31674963932764777),
            ((8, 0.3, 0.5, 0.5, 8), 0.13449157647443388),
        ],
    )
    def test_pinned_values(self, args, want):
        # values of the symbolic closed-walk expansion this pass replaced
        assert exact_moment(*args) == pytest.approx(want, rel=1e-13)


# (a, b, c) points of the limit measure, c = 0 and a large c among them
LIMIT_POINTS = [
    (0.3, 0.7, 1.2), (0.5, 0.5, 1.0), (-0.5, 1.7, 2.5), (1.7, -0.5, 0.1),
    (0.3, 0.7, 0.0), (0.3, 0.7, 30.0),
]


class TestRootedWalks:
    """exact_moment's walks from the first site against the all-start
    trace of tests/oracles.py, the limit measure, and sampled matrices."""

    @pytest.mark.parametrize(
        "kappa, a, b",
        [(0.15, 0.5, 0.5), (1.0, -0.5, 0.3), (0.4, 0.5, 1.5), (0.0, 0.3, 0.7),
         (2.0, -0.9, 0.1), (1e100, 1e100, 2e100)],
    )
    def test_matches_the_all_start_trace(self, kappa, a, b):
        # and one pass to MAX_EXACT_K gives every order the bits of a pass
        # of its own
        for n in range(1, 9):
            cfg = EnsembleConfig(n, 2.0 * kappa, a, b)
            shapes = _shape_arrays(cfg)
            alpha, beta = np.empty((2, 2 * n - 1))
            alpha[0::2], beta[0::2], alpha[1::2], beta[1::2] = shapes
            row = ens._exact_moments(cfg, MAX_EXACT_K)
            for k in range(MAX_EXACT_K + 1):
                want = all_start_moment(shapes, k)
                assert exact_moment(n, kappa, a, b, k) == pytest.approx(want, rel=2e-15)
                assert row[k].tobytes() == np.float64(per_order_rooted_walks(alpha, beta, k)).tobytes()
                assert exact_moment(n, kappa, a, b, k) == row[k]

    @pytest.mark.parametrize("a, b, c", LIMIT_POINTS)
    def test_constant_chain_is_the_limit_measure(self, a, b, c):
        # at N = infinity with N kappa = c every shape is constant:
        # p ~ Beta(c + a + 1, c + b + 1), q ~ Beta(c, c + a + b + 2)
        alpha = np.resize([c + a + 1.0, c], 12)
        beta = np.resize([c + b + 1.0, c + a + b + 2.0], 12)
        p = JacobiParams(a, b, c)
        row = ens._rooted_walks(alpha, beta, 12)
        for k in range(13):
            want = moment11(ModelKind.ASSOC_III, p, k)
            assert row[k] == pytest.approx(want, rel=5e-15)

    def test_row_on_the_stationary_chain_is_the_per_order_pass(self):
        # the N = infinity chains of the stationary-moments criterion
        for a, b, c in itertools.product((-0.5, 0.3, 1.7), (-0.5, 0.3, 1.7), (0.0, 1.0, 2.5)):
            alpha = np.resize([c + a + 1.0, c], 12)
            beta = np.resize([c + b + 1.0, c + a + b + 2.0], 12)
            want = [per_order_rooted_walks(alpha, beta, k) for k in range(13)]
            assert ens._rooted_walks(alpha, beta, 12).tobytes() == np.array(want).tobytes()

    def test_first_order_in_one_over_n(self):
        # N (E m_1 - u_1) -> c (a - b) / (a + b + 2 + 2c)^2
        a, b, c, n = 0.3, 0.7, 1.2, 10**6
        u1 = moment11(ModelKind.ASSOC_III, JacobiParams(a, b, c), 1)
        got = n * (exact_moment(n, c / n, a, b, 1) - u1)
        assert got == pytest.approx(c * (a - b) / (a + b + 2.0 + 2.0 * c) ** 2, rel=1e-5)

    def test_memory_does_not_grow_with_n(self):
        import tracemalloc

        tracemalloc.start()
        try:
            got = exact_moment(2**22, 1.0, 0.5, 0.5, MAX_EXACT_K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < got < 1.0
        assert peak < 1 << 20

    def test_first_weights_are_dirichlet(self):
        # the weights of J at e1, squared first eigenvector components,
        # are Dirichlet(kappa, ..., kappa): E sum w_i^2 = (kappa + 1) /
        # (N kappa + 1); 30000 draws of each case, 4 standard errors
        for i, (n, kappa) in enumerate([(5, 0.3), (4, 1.0)]):
            cfg = EnsembleConfig(n, 2.0 * kappa, 0.3, 0.7)
            diags, offs = ens._sampled_j(*_draw_pq(_shape_arrays(cfg), substream(41, i), 30_000))
            w2 = np.array([
                np.sum(_stevd(d, e, compute_v=True)[1][0] ** 4) for d, e in zip(diags, offs)
            ])
            want = (kappa + 1.0) / (n * kappa + 1.0)
            assert abs(w2.mean() - want) < 4.0 * w2.std(ddof=1) / np.sqrt(len(w2))

    @pytest.mark.parametrize("n, trials", [(200, 8000), (1000, 3000)])
    def test_sampled_traces_at_large_n(self, n, trials):
        a, b, c = 0.3, 0.7, 1.2
        means, stderr = mc_moments(EnsembleConfig(n, 2.0 * c / n, a, b), 4, trials, seed=43)
        for k in range(1, 5):
            assert abs(means[k] - exact_moment(n, c / n, a, b, k)) < 4.0 * stderr[k]


class TestKappaLimit:
    def test_size_one_head(self):
        p_lim, q_lim = limit_pq(1, 1.0, 2.0, 3.0)
        assert p_lim[0] == pytest.approx(2.0 / 5.0, rel=1e-15)
        assert q_lim.size == 0

    def test_mean_error_is_one_over_kappa(self):
        # Beta means of the graded shapes approach the limit at rate 1/kappa
        n_sites, A, B = 5, 1.5, 2.5
        p_lim, q_lim = limit_pq(n_sites, float(n_sites), A, B)

        def mean_err(kappa: float) -> float:
            cfg = EnsembleConfig(n_sites, 2.0 * kappa, A * kappa, B * kappa)
            n = np.arange(1, n_sites + 1, dtype=float)
            alpha = (n_sites - n) * kappa + A * kappa + 1.0
            beta = (n_sites - n) * kappa + B * kappa + 1.0
            assert cfg.kappa == kappa
            return float(np.max(np.abs(alpha / (alpha + beta) - p_lim)))

        e1, e2 = mean_err(100.0), mean_err(200.0)
        assert abs(e1 / e2 - 2.0) < 0.2

    def test_substitution_reproduces_third_kind(self):
        # negating (c, a, b) in the limit formulas reproduces the
        # operator entries of the third associated model
        p = JacobiParams(0.3, 0.7, 1.2)
        s2, t2 = limit_bidiagonal_squares(8, -p.c, -p.a, -p.b)
        t = to_tridiagonal(BidiagonalFactor(np.sqrt(s2), np.sqrt(t2)))
        d, e = tridiag_entries(ModelKind.ASSOC_III, p, 8)
        np.testing.assert_allclose(t.diag, d, atol=1e-12)
        np.testing.assert_allclose(t.offdiag, e, atol=1e-12)

    def test_limit_matrix_spectrum_in_box(self):
        s2, t2 = limit_bidiagonal_squares(12, 12.0, 1.5, 2.5)
        t = to_tridiagonal(BidiagonalFactor(np.sqrt(s2), np.sqrt(t2)))
        vals = _stevd(t.diag, t.offdiag)[0]
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_vanishing_denominator_raises(self):
        with pytest.raises(ParameterError):
            limit_pq(2, 1.0, 1.0, 1.0)
        # non-finite inputs used to come back as NaN or all-zero arrays
        with pytest.raises(ParameterError):
            limit_pq(3, np.nan, 0.7, 1.3)
        with pytest.raises(ParameterError):
            limit_bidiagonal_squares(3, 3.0, 0.7, np.inf)
