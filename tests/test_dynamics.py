"""Particle SDE, moment hierarchy ODE, and their cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betajacobi import (
    ConvergenceError,
    JacobiParams,
    ModelKind,
    MomentPath,
    ParameterError,
    integrate_moments,
    lambda_hat0,
    moment11,
    moment_drift_finite_n,
    ode_rhs,
    simulate_moments,
    stationary_uk,
    substream,
)
import betajacobi.dynamics as dyn
from betajacobi.dynamics import (
    EPS_DIV,
    _hierarchy_coefficients,
    _power_means,
    _StepWork,
)
from oracles import (
    convolve_hierarchy,
    dense_interaction,
    pair_buffer_interaction,
    textbook_hierarchy_rhs,
    textbook_integrate_moments,
)

P_REF = JacobiParams(0.3, 0.7, 1.2)


class TestMomentPath:
    def test_shape_and_final(self):
        path = MomentPath(np.array([0.0, 1.0]), np.array([[1.0, 0.5], [1.0, 0.4]]))
        assert path.k_max == 1
        assert path.final()[1] == 0.4

    def test_validation(self):
        with pytest.raises(ParameterError):
            MomentPath(np.array([0.0]), np.array([[1.0, 0.5], [1.0, 0.4]]))
        with pytest.raises(ParameterError):
            MomentPath(np.array([0.0]), np.array([[0.7, 0.5]]))
        # a 2-d times used to pass, a 0-d one to leak TypeError
        for times in ([[0.0]], 0.0):
            with pytest.raises(ParameterError, match="need 1d times"):
                MomentPath(times, [[1.0, 0.5]])

    @pytest.mark.parametrize("row", [[1.0, np.nan], [1.0, np.inf], [np.nan, 0.5]])
    def test_nonfinite_moments_raise(self, row):
        with pytest.raises(ParameterError):
            MomentPath(np.array([0.0]), np.array([row]))


class TestDrift:
    def test_single_particle(self):
        mu, sigma = _StepWork((1,)).drift(np.array([0.5]), 0.0, 0.0, 2.0)
        assert mu[0] == 0.0
        assert sigma[0] == pytest.approx(np.sqrt(0.5))
        mu0, sigma0 = _StepWork((1,)).drift(np.array([0.0]), 0.0, 0.0, 2.0)
        assert mu0[0] == 1.0 and sigma0[0] == 0.0

    def test_two_particle_repulsion(self):
        mu, _ = _StepWork((2,)).drift(np.array([0.25, 0.75]), 0.0, 0.0, 2.0)
        np.testing.assert_allclose(mu, [-0.25, 0.25], rtol=1e-14)

    def test_tied_pair_contributes_nothing(self):
        # coincident particles see each other with zero force; both still
        # feel the third particle
        mu, _ = _StepWork((3,)).drift(np.array([0.3, 0.3, 0.8]), 0.0, 0.0, 2.0)
        assert mu[0] == mu[1]
        assert np.all(np.isfinite(mu))
        solo, _ = _StepWork((2,)).drift(np.array([0.3, 0.8]), 0.0, 0.0, 2.0)
        lone_interaction = 2.0 * 0.3 * 0.7 / (0.3 - 0.8)
        assert mu[0] == pytest.approx(solo[0], rel=1e-14)
        assert mu[0] == pytest.approx(1.0 - 2.0 * 0.3 + lone_interaction, rel=1e-13)

    def test_point_mass_start_is_finite(self):
        mu, _ = _StepWork((5,)).drift(np.full(5, 0.5), 0.0, 0.0, 2.0)
        np.testing.assert_array_equal(mu, np.zeros(5))


def _assert_matches_dense(x):
    # any two summation orders differ by a few ulps of the sum of the
    # terms' magnitudes; |ref| alone is no scale where the terms cancel
    # (the middle of a 200-point grid)
    ref = dense_interaction(x)
    scale = np.maximum(1.0, dense_interaction(x, magnitude=True))
    got = _StepWork(x.shape).interaction(x)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


def _assert_matches_pair_buffer(x):
    # the offset-block kernel takes each element through the operations
    # of the whole-buffer kernel in the same order: the same bytes
    got = _StepWork(x.shape).interaction(x)
    want = pair_buffer_interaction(x, EPS_DIV)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _layout(x, kind):
    """Planted (..., N) configurations from uniform draws x."""
    if kind == "unsorted":
        return x
    x = np.sort(x, axis=-1)
    if kind == "ties":
        x = np.sort(np.round(x * 4.0) / 4.0, axis=-1)
    elif kind == "walls":
        # about a third of each row clamped at 0 or at 1
        x = np.clip(1.6 * x - 0.3, 0.0, 1.0)
    elif kind.startswith("gap_"):
        gap = float(kind[4:]) * EPS_DIV
        half = x.shape[-1] // 2
        x[..., 1 : 2 * half : 2] = x[..., 0 : 2 * half : 2] + gap
    return x


class TestInteraction:
    @pytest.mark.parametrize("batch", [(), (2,), (3, 4)])
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 200])
    def test_matches_dense_oracle(self, n, batch):
        x = np.sort(substream(21, n).uniform(size=batch + (n,)), axis=-1)
        _assert_matches_dense(x)

    @pytest.mark.parametrize(
        "kind", ["sorted", "unsorted", "ties", "walls", "gap_0.25", "gap_0.5"]
    )
    @pytest.mark.parametrize("batch", [(), (2,), (3, 4)])
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 200])
    def test_bytes_match_pair_buffer_kernel(self, n, batch, kind):
        x = _layout(substream(25, n).uniform(size=batch + (n,)), kind)
        _assert_matches_pair_buffer(x)

    @pytest.mark.parametrize("n", [2, 3, 6, 40])
    def test_fix_ups_stop_at_the_first_offset_past_eps_div(self, n):
        # gaps of 0.4 EPS_DIV: offsets 1 and 2 are clipped, offset 3 and on
        # are not; the same stacked with another sorted row, reversed
        # (unsorted), with a wall pair and with a NaN
        stair = 0.3 + np.arange(n) * (0.4 * EPS_DIV)
        for x in [
            stair,
            np.vstack([stair, np.linspace(0.0, 1.0, n) ** 8]),
            np.vstack([stair, stair[::-1]]),
            np.concatenate([[0.0, 0.0], stair[2:]]),
            np.where(np.arange(n) == n // 2, np.nan, stair),
        ]:
            _assert_matches_pair_buffer(x)
        # unsorted: every offset-2 gap is above EPS_DIV, yet the offset-3
        # pair is tied, so only sorted rows may end the fix-ups early
        _assert_matches_pair_buffer(np.array([0.2, 0.1, 0.3, 0.2]))
        cap = 1.0 / EPS_DIV
        want = {2: [-cap, cap], 3: [-2.0 * cap, 0.0, 2.0 * cap]}
        if n in want:
            got = _StepWork(stair.shape).interaction(stair)
            np.testing.assert_array_equal(got, want[n])

    def test_unsorted_input(self):
        x = substream(22, 0).uniform(size=(3, 40))
        _assert_matches_dense(x)
        _assert_matches_dense(x[0])

    def test_exact_ties_contribute_zero(self):
        x = np.array([0.8, 0.3, 0.3, 0.8, 0.1, 0.8])
        got = _StepWork(x.shape).interaction(x)
        _assert_matches_dense(x)
        # each tied group sees only the particles outside it
        want = 3 / (0.3 - 0.8) + 1 / (0.3 - 0.1)
        assert got[1] == got[2] == pytest.approx(want, rel=1e-14)
        assert got[0] == got[3] == got[5]

    def test_point_mass_start(self):
        for batch in [(), (2,), (3, 4)]:
            got = _StepWork(batch + (5,)).interaction(np.full(batch + (5,), 0.5))
            np.testing.assert_array_equal(got, np.zeros(batch + (5,)))

    def test_pair_clamped_to_each_wall(self):
        x = np.array([[0.0, 0.0, 0.4, 1.0, 1.0], [0.0, 0.2, 0.4, 0.6, 1.0]])
        got = _StepWork(x.shape).interaction(x)
        _assert_matches_dense(x)
        assert got[0, 0] == got[0, 1]
        assert got[0, 3] == got[0, 4]
        assert np.all(np.isfinite(got))

    def test_gaps_below_eps_div_are_clipped(self):
        x = np.array([0.3, 0.3 + 0.25 * EPS_DIV, 0.7, 0.7 + 0.5 * EPS_DIV])
        got = _StepWork(x.shape).interaction(x)
        _assert_matches_dense(x)
        cap = 1.0 / EPS_DIV
        # the clipped pair dominates; the far pair adds a few units
        assert got[0] == pytest.approx(-cap, abs=10.0)
        assert got[1] == pytest.approx(cap, abs=10.0)
        # a lone pair gets exactly the cap, with opposite signs
        pair = _StepWork((2,)).interaction(np.array([0.3, 0.3 + 0.25 * EPS_DIV]))
        np.testing.assert_array_equal(pair, [-cap, cap])

    @given(
        xs=st.lists(
            st.one_of(
                st.floats(0.0, 1.0),
                st.sampled_from([0.0, 0.5, 0.5 + 1e-13, 1.0]),
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_property_against_dense(self, xs):
        x = np.array(xs)
        _assert_matches_dense(x)
        _assert_matches_dense(np.vstack([x, x[::-1]]))
        _assert_matches_pair_buffer(x)
        _assert_matches_pair_buffer(np.sort(x))
        _assert_matches_pair_buffer(np.vstack([x, x[::-1], np.sort(x)]))


class TestPowerMeans:
    @pytest.mark.parametrize("k_max", [0, 1, 2, 8])
    def test_matches_pow(self, k_max):
        x = substream(24, k_max).uniform(size=(400, 40))
        x[0] = 0.0
        x[1] = 1.0
        want = (x[:, :, None] ** np.arange(k_max + 1)).mean(axis=1)
        got = _power_means(x, k_max)
        assert got.shape == (400, k_max + 1)
        np.testing.assert_array_equal(got[:, 0], 1.0)
        assert np.max(np.abs(got - want)) <= 1e-15


class TestEmStep:
    def test_sorts(self):
        out = _StepWork((2,)).step(np.array([0.3, 0.6]), 0.5, 0.5, 2.0, 1e-3, substream(4, 0))
        assert out.shape == (2,)
        assert np.all(np.diff(out) >= 0.0)

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_batched_step_matches_single_steps(self, n):
        # a batch of configurations steps as its rows do one by one
        starts = [np.sort(substream(8, i).uniform(size=n)) for i in range(2)]
        rng = substream(6, 0)
        single = [_StepWork((n,)).step(x.copy(), 0.3, 0.7, 1.5, 1e-3, rng) for x in starts]
        batch = _StepWork((2, n)).step(np.vstack(starts), 0.3, 0.7, 1.5, 1e-3, substream(6, 0))
        for row, x in zip(batch, single):
            np.testing.assert_array_equal(row, x)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 8),
        beta=st.floats(0.0, 4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_stays_in_box(self, seed, n, beta):
        rng = substream(seed, 0)
        x = np.sort(rng.uniform(size=n))
        work = _StepWork(x.shape)
        for _ in range(5):
            work.step(x, 0.5, 0.5, beta, 1e-3, rng)
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.all(np.diff(x) >= 0.0)


class TestSimulateMoments:
    def test_initial_record_is_exact(self):
        path, se = simulate_moments(4, 0.0, 0.0, 2.0, 0.5, 0.01, 1e-3, 50, 3, seed=2)
        np.testing.assert_array_equal(path.moments[0], 0.5 ** np.arange(4.0))
        np.testing.assert_array_equal(se[0], np.zeros(4))
        assert path.times[0] == 0.0
        assert path.times[-1] == pytest.approx(0.01)

    def test_short_time_variance(self):
        # from a point mass the variance grows like sigma^2(x0) t
        paths = 4000
        _, se = simulate_moments(1, 0.0, 0.0, 2.0, 0.5, 0.01, 1e-4, paths, 2, seed=9)
        var = (se[-1, 1] * np.sqrt(paths)) ** 2
        assert var == pytest.approx(2.0 * 0.25 * 0.01, rel=0.15)

    def test_reproducible(self):
        p1, s1 = simulate_moments(3, 0.2, 0.4, 2.0, 0.5, 0.02, 1e-3, 40, 2, seed=5)
        p2, s2 = simulate_moments(3, 0.2, 0.4, 2.0, 0.5, 0.02, 1e-3, 40, 2, seed=5)
        np.testing.assert_array_equal(p1.moments, p2.moments)
        np.testing.assert_array_equal(s1, s2)

    def test_array_start(self):
        x0 = np.array([0.2, 0.5, 0.8])
        path, _ = simulate_moments(3, 0.0, 0.0, 1.0, x0, 0.01, 1e-3, 20, 2, seed=3)
        assert path.moments[0, 1] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "x0, message",
        [
            ([-0.1, 0.5, 0.7], r"positions must lie in \[0, 1\]"),
            ([0.2, 0.5, 1.5], r"positions must lie in \[0, 1\]"),
            ([0.1, np.nan, 0.5], "^x0 must be finite"),
            (1.5, r"positions must lie in \[0, 1\]"),
            ([0.2, 0.5], "x0 must be a scalar or a length-N array"),
            ([], "x0 must be a scalar or a length-N array"),
            (np.full((1, 3), 0.5), "x0 must be a scalar or a length-N array"),
        ],
        ids=["below", "above", "nan", "scalar_above", "short", "empty", "two_d"],
    )
    def test_bad_start_raises(self, x0, message):
        # a start must be one position or N of them, each in [0, 1]
        with pytest.raises(ParameterError, match=message):
            simulate_moments(3, 0.0, 0.0, 1.0, x0, 0.01, 1e-3, 4, 2, seed=3)

    @pytest.mark.parametrize(
        "a, b, beta",
        [(-1.0, 0.7, 1.0), (0.3, -1.5, 1.0), (0.3, 0.7, -0.5), (-2.0, -2.0, 1.0)],
        ids=["a", "b", "beta", "both_weights"],
    )
    def test_out_of_range_parameters_raise(self, a, b, beta):
        # the weight needs a, b > -1 and the ensemble beta >= 0; the
        # particle drift runs only on what EnsembleConfig accepts
        with pytest.raises(ParameterError, match="beta must be >= 0|need a"):
            simulate_moments(3, a, b, beta, 0.5, 0.01, 1e-3, 4, 2, seed=3)

    def test_unsorted_start_runs_sorted(self):
        def run(x0):
            return simulate_moments(3, 0.0, 0.0, 1.0, x0, 0.01, 1e-3, 4, 2, seed=3)

        got, want = run(np.array([0.8, 0.2, 0.5])), run(np.array([0.2, 0.5, 0.8]))
        np.testing.assert_array_equal(got[0].moments, want[0].moments)
        np.testing.assert_array_equal(got[1], want[1])

    def test_guards(self):
        with pytest.raises(ParameterError):
            simulate_moments(2, 0.0, 0.0, 2.0, 0.5, 0.01, 1e-3, 1, 2, seed=1)
        with pytest.raises(ParameterError):
            simulate_moments(2, 0.0, 0.0, 2.0, 1.5, 0.01, 1e-3, 10, 2, seed=1)
        with pytest.raises(ParameterError):
            simulate_moments(2, 0.0, 0.0, 2.0, np.array([0.5]), 0.01, 1e-3, 10, 2, seed=1)
        with pytest.raises(ParameterError):
            simulate_moments(2, 0.0, 0.0, 2.0, 0.5, 0.01, np.nan, 10, 2, seed=1)
        with pytest.raises(ParameterError):
            simulate_moments(2, 0.0, 0.0, 2.0, 0.5, np.nan, 1e-3, 10, 2, seed=1)

    @pytest.mark.parametrize(
        "n, a, b, beta, x0",
        [
            (3, np.nan, 0.0, 2.0, 0.5),  # weight a
            (3, 0.0, np.inf, 2.0, 0.5),  # weight b
            (3, 0.0, 0.0, np.nan, 0.5),  # beta
            (3, 0.0, 0.0, 2.0, np.nan),  # scalar start
            (3, 0.0, 0.0, 2.0, np.array([0.2, np.nan, 0.5])),  # array start
            (0, 0.0, 0.0, 2.0, 0.5),  # no particles
            (10**12, 0.0, 0.0, 2.0, 0.5),  # N above 2**22
        ],
    )
    def test_nonfinite_inputs_raise(self, n, a, b, beta, x0):
        # these used to return NaN moments instead of raising
        with pytest.raises(ParameterError):
            simulate_moments(n, a, b, beta, x0, 0.01, 1e-3, 4, 2, seed=1)

    def test_negative_kmax_raises(self):
        with pytest.raises(ParameterError):
            simulate_moments(2, 0.0, 0.0, 2.0, 0.5, 0.01, 1e-3, 10, -1, seed=1)

    @pytest.mark.parametrize(
        "n, a, b, beta, t_end, paths, k_max, seed",
        [
            (40, 0.0, 0.0, 1.0 / 20.0, 0.005, 400, 1, 11),  # bench `sde`, 50 steps
            (40, 0.3, 0.7, 2.0 * 1.2 / 40, 0.005, 100, 4, 12),  # `dynamics --sde`
            (40, 0.0, 0.0, 1.0 / 20.0, 0.02, 400, 1, 60097),  # the criterion's seed
        ],
        ids=["sde", "cli", "criterion"],
    )
    def test_bytes_match_pair_buffer_replay(self, n, a, b, beta, t_end, paths, k_max, seed):
        # the step on kept work arrays against the step's expressions on
        # fresh arrays with the whole-buffer kernel, from a point mass
        # (every pair tied at the first step)
        dt = 1e-4
        path, se = simulate_moments(n, a, b, beta, 0.5, t_end, dt, paths, k_max, seed)
        steps = int(round(t_end / dt))
        stride = max(1, steps // 200)
        rng = substream(seed, 0)
        x = np.full((paths, n), 0.5)

        def record(xb):
            per_path = _power_means(xb, k_max)
            return per_path.mean(axis=0), per_path.std(axis=0, ddof=1) / np.sqrt(paths)

        rows = [record(x)]
        for step in range(1, steps + 1):
            xx = x * (1.0 - x)
            mu = (a + 1.0) - (a + b + 2.0) * x + beta * xx * pair_buffer_interaction(x)
            sigma = np.sqrt(2.0 * np.maximum(xx, 0.0))
            x = x + mu * dt + sigma * (np.sqrt(dt) * rng.standard_normal(x.shape))
            np.clip(x, 0.0, 1.0, out=x)
            x.sort(axis=-1)
            if step % stride == 0 or step == steps:
                rows.append(record(x))
        assert path.moments.tobytes() == np.vstack([m for m, _ in rows]).tobytes()
        assert se.tobytes() == np.vstack([s for _, s in rows]).tobytes()

    def test_step_memory_is_linear_in_n(self):
        # the whole-buffer kernel's pair gaps alone took 2.4 MiB here
        import tracemalloc

        simulate_moments(40, 0.0, 0.0, 1.0 / 20.0, 0.5, 0.005, 1e-4, 400, 1, seed=3)
        tracemalloc.start()
        try:
            simulate_moments(40, 0.0, 0.0, 1.0 / 20.0, 0.5, 0.005, 1e-4, 400, 1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "t_end, dt", [(1e-5, 1e-4), (0.0025, 1e-3)], ids=["no_step", "short_of_t_end"]
    )
    def test_t_end_off_the_step_grid_raises(self, t_end, dt):
        # both used to return records short of t_end: times == [0.] for
        # 1e-5, and a last record at t = 0.002 for 0.0025
        with pytest.raises(ParameterError, match=rf"t_end = {t_end!r} .* dt = {dt!r}"):
            simulate_moments(2, 0.0, 0.0, 2.0, 0.5, t_end, dt, 10, 2, seed=1)

    def test_generator_one_step_drift(self):
        # path-mean finite difference of m_k over one EM step against the
        # hierarchy drift with its finite-N correction
        n, c, a, b = 6, 1.2, 0.3, 0.7
        beta = 2.0 * c / n
        x0 = np.linspace(0.2, 0.8, n)
        dt = 2e-3
        paths = 100_000
        path, se = simulate_moments(n, a, b, beta, x0, dt, dt, paths, 3, seed=77)
        m0 = path.moments[0]
        for k in (1, 2, 3):
            est = (path.moments[-1, k] - m0[k]) / dt
            pred = moment_drift_finite_n(m0, k, a, b, c, n)
            band = 4.0 * se[-1, k] / dt + 0.02  # noise plus Euler bias
            assert abs(est - pred) <= band


class TestOdeRhs:
    def test_first_component_formula(self):
        # m_1' = -(2c+a+b+2) m_1 + (a+1) + c
        p = JacobiParams(0.3, 0.7, 1.2)
        rhs = ode_rhs(np.array([1.0, 0.4]), p)
        want = -(2 * 1.2 + 0.3 + 0.7 + 2.0) * 0.4 + 1.3 + 1.2
        assert rhs[0] == 0.0
        assert rhs[1] == pytest.approx(want, rel=1e-14)

    def test_symmetric_midpoint_is_stationary(self):
        rhs = ode_rhs(np.array([1.0, 0.5]), JacobiParams(0.0, 0.0, 1.0))
        assert rhs[1] == 0.0

    def test_vanishes_at_stationary_vector(self, params):
        u = stationary_uk(params, 8)
        rhs = ode_rhs(u.values, params)
        assert np.max(np.abs(rhs)) < 1e-12

    def test_order_zero_vector(self):
        np.testing.assert_array_equal(ode_rhs(np.array([1.0]), P_REF), [0.0])

    @pytest.mark.parametrize("k_max", [0, 1, 2, 4, 6, 12, 20])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_convolve_oracle(self, k_max, seed):
        # the float-list kernel against one np.convolve per call; the two
        # sum in different orders, so compare on the terms' magnitude
        rng = np.random.default_rng([seed, k_max])
        m = np.r_[1.0, rng.uniform(-1.0, 1.0, size=k_max)]
        p = JacobiParams(*rng.uniform([-0.9, -0.9, 0.0], [2.0, 2.0, 3.0]))
        got = ode_rhs(m, p)
        ref = convolve_hierarchy(m, p.a, p.b, p.c)
        scale = convolve_hierarchy(m, p.a, p.b, p.c, magnitude=True)
        assert isinstance(got, np.ndarray) and got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)

    @pytest.mark.parametrize(
        "m",
        [[1.0, np.nan], [1.0, 0.5, np.inf], [2.0, 0.5], [[1.0, 0.5]], [], 1.0],
        ids=["nan", "inf", "m0-not-1", "2-d", "empty", "0-d"],
    )
    def test_bad_input_raises(self, m):
        # the checks of integrate_moments; NaN used to come back as NaN,
        # m0 = 2 as a number and 2-d or empty input as a bare ValueError
        with pytest.raises(ParameterError):
            ode_rhs(np.array(m), P_REF)
        with pytest.raises(ParameterError):
            integrate_moments(np.array(m), P_REF, 0.01, 1e-3)


class TestStationaryMoments:
    def test_head_is_spectral_entry(self, params):
        u = stationary_uk(params, 3)
        assert u[0] == 1.0
        assert u[1] == pytest.approx(lambda_hat0(params), abs=1e-12)

    def test_uniform_case(self):
        u = stationary_uk(JacobiParams(0.0, 0.0, 0.0), 10)
        for k in range(11):
            assert u[k] == pytest.approx(1.0 / (k + 1.0), rel=1e-14)

    def test_matches_operator_moments(self, params):
        u = stationary_uk(params, 12)
        for k in range(13):
            want = moment11(ModelKind.ASSOC_III, params, k)
            assert u[k] == pytest.approx(want, abs=1e-10)

    def test_negative_kmax_raises(self):
        with pytest.raises(ParameterError):
            stationary_uk(P_REF, -1)

    def test_outside_the_model_raises(self):
        # c + 1 = -0.2 violates ASSOC_III's constraints, as in moment11;
        # the recursion used to return m_3 = -0.0076 and m_4 = -0.0060,
        # moments no measure on [0, 1] has
        p = JacobiParams(0.3, 0.7, -1.2)
        with pytest.raises(ParameterError):
            moment11(ModelKind.ASSOC_III, p, 4)
        with pytest.raises(ParameterError):
            stationary_uk(p, 4)

    def test_head_mismatch_raises(self, monkeypatch):
        # the u_1 invariant is an explicit check, so it also holds under -O
        import betajacobi.dynamics as dyn

        monkeypatch.setattr(dyn, "lambda_hat0", lambda p: lambda_hat0(p) + 1e-6)
        with pytest.raises(ConvergenceError):
            stationary_uk(P_REF, 3)
        # k_max = 0 has no u_1 to check
        assert stationary_uk(P_REF, 0)[0] == 1.0


class TestIntegrateMoments:
    def test_fixed_point_stays_put(self):
        u = stationary_uk(P_REF, 6)
        path = integrate_moments(u.values, P_REF, 1.0, 1e-3)
        assert np.max(np.abs(path.moments - u.values)) < 1e-10

    def test_relaxes_to_fixed_point(self):
        start = 0.5 ** np.arange(7.0)
        path = integrate_moments(start, P_REF, 30.0, 1e-3)
        u = stationary_uk(P_REF, 6)
        assert np.max(np.abs(path.final().values - u.values)) < 1e-10

    def test_step_halving_consistency(self):
        start = 0.5 ** np.arange(7.0)
        a = integrate_moments(start, P_REF, 2.0, 1e-2).final().values
        b = integrate_moments(start, P_REF, 2.0, 5e-3).final().values
        assert np.max(np.abs(a - b)) < 1e-10

    def test_c0_first_moment_closed_form(self):
        # at c = 0 the m_1 equation closes: exponential relaxation to
        # (a+1)/(a+b+2) at rate a+b+2
        p = JacobiParams(0.4, 0.9, 0.0)
        lam = p.a + p.b + 2.0
        mstar = (p.a + 1.0) / lam
        path = integrate_moments(np.array([1.0, 0.2]), p, 2.0, 1e-3)
        exact = mstar + (0.2 - mstar) * np.exp(-lam * path.times)
        assert np.max(np.abs(path.moments[:, 1] - exact)) < 1e-10

    def test_moment_shape_preserved(self):
        start = 0.5 ** np.arange(7.0)
        path = integrate_moments(start, P_REF, 5.0, 1e-3)
        final = path.final().values
        assert np.all((final >= 0.0) & (final <= 1.0))
        assert np.all(np.diff(final) <= 1e-12)

    def test_blow_up_raises(self):
        m0, p = np.array([1.0, 0.5, 0.3]), JacobiParams(0.0, 0.0, -5.0)
        with pytest.raises(ConvergenceError) as got:
            integrate_moments(m0, p, 5.0, 1e-3)
        # at the step and with the text of the float-list loop
        with pytest.raises(ConvergenceError) as want:
            textbook_integrate_moments(m0, p, 5.0, 1e-3)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("moment hierarchy blew up at t = ")

    def test_guards(self):
        with pytest.raises(ParameterError):
            integrate_moments(np.array([0.5, 0.5]), P_REF, 1.0, 1e-3)
        with pytest.raises(ParameterError):
            integrate_moments(np.array([1.0, 0.5]), P_REF, -1.0, 1e-3)
        with pytest.raises(ParameterError):
            integrate_moments(np.array([1.0, 0.5]), P_REF, 0.01, np.nan)
        with pytest.raises(ParameterError):
            integrate_moments(np.array([1.0, 0.5]), P_REF, np.nan, 1e-3)

    def test_nonfinite_start_raises(self):
        # used to run a step and report a blow-up at t = 0.001
        with pytest.raises(ParameterError, match="finite"):
            integrate_moments(np.array([1.0, np.nan]), P_REF, 1.0, 1e-3)

    def test_step_count_overflow_raises(self):
        # t_end / dt overflows to inf; int(round(inf)) used to raise a bare
        # OverflowError
        with pytest.raises(ParameterError, match="overflows"):
            integrate_moments(np.array([1.0, 0.5]), P_REF, 1e300, 1e-300)
        with pytest.raises(ParameterError, match="overflows"):
            simulate_moments(2, 0.0, 0.0, 2.0, 0.5, 1e300, 1e-300, 10, 2, seed=1)

    @pytest.mark.parametrize(
        "t_end, dt", [(1e-5, 1e-3), (0.0025, 1e-3)], ids=["no_step", "short_of_t_end"]
    )
    def test_t_end_off_the_step_grid_raises(self, t_end, dt):
        # both used to return records short of t_end: times == [0.] for
        # 1e-5, and a last record at t = 0.002 for 0.0025
        with pytest.raises(ParameterError, match=rf"t_end = {t_end!r} .* dt = {dt!r}"):
            integrate_moments(np.array([1.0, 0.5]), P_REF, t_end, dt)

    def test_bitwise_against_rk4_on_ode_rhs(self):
        m = 0.5 ** np.arange(7.0)
        dt, steps = 1e-3, 500
        rows = [m]
        for _ in range(steps):
            k1 = ode_rhs(m, P_REF)
            k2 = ode_rhs(m + 0.5 * dt * k1, P_REF)
            k3 = ode_rhs(m + 0.5 * dt * k2, P_REF)
            k4 = ode_rhs(m + dt * k3, P_REF)
            m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rows.append(m)
        path = integrate_moments(rows[0], P_REF, steps * dt, dt)
        # about 200 records: every second step of 500
        np.testing.assert_array_equal(path.moments, np.vstack(rows[::2]))
        np.testing.assert_array_equal(path.times, np.arange(0, steps + 1, 2) * dt)


def _signed_moments(rng, k_max):
    # m_1..m_K of either sign, a third of them +0.0 or -0.0, after an m_0
    # of 1 or a float next to it (_moment_list admits m_0 to 1e-9)
    m = rng.uniform(-1.0, 1.0, size=k_max)
    pick = rng.integers(0, 6, size=k_max)
    m[pick == 0], m[pick == 1] = 0.0, -0.0
    m0 = rng.choice([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)])
    return np.r_[m0, m]


def _random_params(rng):
    # c = 0 takes every quadratic factor to 0.0, whose products keep the
    # sign of zero
    a, b, c = rng.uniform([-0.9, -0.9, 0.0], [2.0, 2.0, 3.0])
    return JacobiParams(a, b, rng.choice([0.0, c]))


class TestHierarchyKernel:
    """The generated straight-line kernel against the float-list loop it
    replaced (tests/oracles.py), byte for byte."""

    @pytest.mark.parametrize("k_max", range(21))
    def test_rhs_bytes_match_the_float_loop(self, k_max):
        rng = np.random.default_rng([23, k_max])
        rows = [_signed_moments(rng, k_max) for _ in range(40)]
        # the zeros that make a sum's start at 0.0 show in the result:
        # -0.0 * 1 is -0.0, and 0.0 + -0.0 is 0.0
        rows.append(np.r_[1.0, [-0.0, 0.0] * (k_max // 2), [-0.0] * (k_max % 2)])
        for m in rows:
            p = _random_params(rng)
            want = textbook_hierarchy_rhs(m.tolist(), _hierarchy_coefficients(p, k_max))
            got = ode_rhs(m, p)
            assert got.tobytes() == np.array(want).tobytes()

    # 401 steps: stride 2 and a last step off the stride; 25 steps at
    # stride 1; 600 steps at stride 3, which blow up from K = 16 on
    @pytest.mark.parametrize("t_end, dt", [(0.401, 1e-3), (0.05, 2e-3), (4.8, 8e-3)])
    @pytest.mark.parametrize("k_max", range(21))
    def test_integrate_bytes_match_the_float_loop(self, k_max, t_end, dt):
        rng = np.random.default_rng([29, k_max, int(t_end * 1000)])
        for _ in range(2):
            m0, p = _signed_moments(rng, k_max), _random_params(rng)
            try:
                want = textbook_integrate_moments(m0, p, t_end, dt)
            except ConvergenceError as exc:
                with pytest.raises(ConvergenceError) as got:
                    integrate_moments(m0, p, t_end, dt)
                assert str(got.value) == str(exc)
                continue
            path = integrate_moments(m0, p, t_end, dt)
            assert path.times.tobytes() == want[0].tobytes()
            assert path.moments.tobytes() == want[1].tobytes()
            assert path.final().values.tobytes() == want[1][-1].tobytes()

    def test_order_cap(self):
        top = dyn._MAX_ORDER
        m = 0.5 ** np.arange(top + 1.0)
        assert ode_rhs(m, P_REF).shape == (top + 1,)
        assert integrate_moments(m, P_REF, 2e-4, 1e-4).moments.shape == (3, top + 1)
        over = 0.5 ** np.arange(top + 2.0)
        message = f"^moment hierarchy order k_max must be <= {top}, got {top + 1}$"
        with pytest.raises(ParameterError, match=message):
            ode_rhs(over, P_REF)
        with pytest.raises(ParameterError, match=message):
            integrate_moments(over, P_REF, 2e-4, 1e-4)
        # the finite-N drift reads rows up to k only
        assert np.isfinite(moment_drift_finite_n(over, 2, 0.3, 0.7, 1.2, 10))

    def test_code_is_built_once_per_order(self):
        cache = dyn._hierarchy_code
        assert cache.cache_info().maxsize == 8
        cache.cache_clear()
        m = 0.5 ** np.arange(5.0)
        integrate_moments(m, P_REF, 0.01, 1e-3)
        assert cache.cache_info().misses == 1
        integrate_moments(m, JacobiParams(1.5, -0.5, 0.0), 0.4, 2e-3)
        ode_rhs(m, JacobiParams(0.5, 0.5, 2.5))
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
        code = cache(4)
        a, _ = dyn._hierarchy_kernel(P_REF, 4, 1e-3)
        b, _ = dyn._hierarchy_kernel(JacobiParams(0.5, 0.5, 2.5), 4, 2e-3)
        assert a.__code__ is b.__code__ and a.__code__ in code.co_consts
        # no parameter value is written into the source
        text = dyn._hierarchy_source(4)
        for value in (*sum(_hierarchy_coefficients(P_REF, 4), []), 1e-3, 0.3, 1.2):
            assert repr(value) not in text
        # the cache stays bounded
        for k in range(20):
            cache(k)
        assert cache.cache_info().currsize == 8


class TestFiniteNCorrection:
    def test_correction_fades_with_n(self):
        m = 0.5 ** np.arange(4.0)
        inf_n = ode_rhs(m, P_REF)[2]
        d_small = moment_drift_finite_n(m, 2, 0.3, 0.7, 1.2, 10)
        d_large = moment_drift_finite_n(m, 2, 0.3, 0.7, 1.2, 10_000)
        assert abs(d_large - inf_n) < abs(d_small - inf_n)
        assert d_large == pytest.approx(inf_n, abs=1e-3)

    def test_equals_particle_generator(self):
        # at a configuration without ties the generator applied to
        # (1/N) sum x_i^k is (1/N) sum [k x^(k-1) mu_i + k (k-1) x^(k-1) (1 - x_i)]
        # with mu the drift at beta = 2c/N; the finite-N formula must
        # match it to rounding, with no Monte Carlo band
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n, k = int(rng.integers(2, 12)), int(rng.integers(1, 6))
            a, b = rng.uniform(-0.9, 2.0, 2)
            c = rng.uniform(0.0, 3.0)
            x = np.sort(rng.uniform(0.0, 1.0, n))
            m = [float(np.mean(x**j)) for j in range(k + 1)]
            mu, _ = _StepWork(x.shape).drift(x, a, b, 2.0 * c / n)
            terms = np.concatenate([k * x ** (k - 1) * mu, k * (k - 1) * x ** (k - 1) * (1.0 - x)])
            want = terms.sum() / n
            scale = max(abs(want), np.abs(terms).sum() / n)
            got = moment_drift_finite_n(m, k, a, b, c, n)
            assert abs(got - want) <= 1e-13 * scale, (n, k, a, b, c, got, want)

    def test_k_range_guard(self):
        with pytest.raises(ParameterError):
            moment_drift_finite_n(np.array([1.0, 0.5]), 2, 0.3, 0.7, 1.2, 10)
        # N = 0 used to raise ZeroDivisionError
        for n in (0, np.nan):
            with pytest.raises(ParameterError):
                moment_drift_finite_n(np.array([1.0, 0.5]), 1, 0.3, 0.7, 1.2, n)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_moments_raise(self, bad):
        # used to return NaN, where integrate_moments rejects the same vector
        with pytest.raises(ParameterError, match="finite"):
            moment_drift_finite_n(np.array([1.0, bad]), 1, 0.3, 0.7, 1.2, 10)
        with pytest.raises(ParameterError, match="finite"):
            moment_drift_finite_n(np.array([1.0, 0.5, bad]), 1, 0.3, 0.7, 1.2, 10)
