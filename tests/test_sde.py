"""Unit tests for vve.sde: Brownian streams, schemes, closed form, convergence."""

import math
import mmap
import os
import signal
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from oracles import closed_form_mp, step_terminal_reference
from vve.errors import InvalidGrid, SigmaZeroUnsupported
from vve.model import ModelParams
import vve.sde as sde
from vve.sde import (
    BLOCK_SIZE,
    TILE_ROWS,
    TimeGrid,
    _block_increments,
    _exact_rows,
    _map_blocks,
    _step_terminal,
    _strong_convergence,
    euler_terminal,
    exact_values,
    simulate_euler,
    simulate_exact,
    simulate_milstein,
    strong_convergence,
)

GBM = ModelParams(mu=0.05, sigma=0.2, c1=0.0, s0=100.0)
VVE = ModelParams(mu=0.05, sigma=0.2, c1=5e-4, s0=100.0)


def euler_path(params, dt, db):
    """One Euler row of ``db`` with every state kept: (path from s0, exploded)."""
    out = np.empty((1, 1, db.shape[1] + 1))
    out[..., 0] = params.s0
    exploded = _step_terminal(params, dt, params.s0, db, (False,), out=out)[1]
    return out[0, 0], exploded[0, 0]


def brownian_values(seed, path, steps, dt):
    """B at the grid times of one path: 0, then the partial sums of its increments."""
    block, row = divmod(path, BLOCK_SIZE)
    increments = _block_increments(seed, block, row + 1, steps, dt)[row]
    return np.concatenate([[0.0], np.cumsum(increments)])


class TestTimeGrid:
    def test_dt_and_times(self):
        grid = TimeGrid(1.0, 4)
        assert grid.dt == 0.25
        np.testing.assert_allclose(grid.times, [0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0),
                                               (math.nan, 4), (math.inf, 4)])
    def test_invalid(self, horizon, steps):
        with pytest.raises(InvalidGrid):
            TimeGrid(horizon, steps)


class TestSampleBrownian:
    """Brownian increments: path i of a seed is row i % BLOCK_SIZE of its block's matrix."""

    def test_determinism(self):
        a = _block_increments(42, 0, 1, 64, 1.0 / 64)
        b = _block_increments(42, 0, 1, 64, 1.0 / 64)
        assert np.array_equal(a, b)

    def test_cumulative_starts_at_zero(self):
        # the closed form at c1 = 0 gives back the B it read: 0 at t = 0, then the
        # partial sums of the path's increments
        grid = TimeGrid(1.0, 16)
        paths = simulate_exact(GBM, grid, 4, seed=1).paths
        gamma = GBM.mu - 0.5 * GBM.sigma ** 2
        b = (np.log(paths / GBM.s0) - gamma * grid.times) / GBM.sigma
        assert np.all(b[:, 0] == 0.0)
        np.testing.assert_allclose(b[:, 1:], np.cumsum(_block_increments(1, 0, 4, 16, grid.dt),
                                                       axis=1), rtol=0, atol=1e-13)

    def test_different_paths_differ(self):
        rows = _block_increments(7, 0, 2, 16, 1.0 / 16)
        assert not np.array_equal(rows[0], rows[1])
        assert not np.array_equal(rows[0], _block_increments(7, 1, 1, 16, 1.0 / 16)[0])

    def test_path_independent_of_how_many_requested(self):
        # Path i must not depend on how many rows of its block were drawn, nor on
        # how many paths an ensemble holds: it is a pure function of (seed, i)
        grid = TimeGrid(1.0, 8)
        solo = _block_increments(5, 0, 3, 8, grid.dt)[2]
        batch = _block_increments(5, 0, 10, 8, grid.dt)[2]
        assert np.array_equal(solo, batch)
        i = BLOCK_SIZE + 2  # row 2 of block 1
        b = brownian_values(5, i, 8, grid.dt)
        for n_paths in (i + 1, i + 10):
            path = simulate_exact(VVE, grid, n_paths, seed=5).paths[i]
            assert np.array_equal(path, _exact_rows(VVE, grid.times, b[None, :])[0][0])

    def test_terminal_mean_matches_normal_law(self):
        # B_T ~ Normal(0, T): sample mean of 1e5 draws within 4*sqrt(T/n).
        horizon, n = 1.0, 100_000
        total, count = 0.0, 0
        block = 0
        while count < n:
            rows = min(BLOCK_SIZE, n - count)
            total += _block_increments(123, block, rows, 1, horizon).sum()
            count += rows
            block += 1
        assert abs(total / n) < 4 * math.sqrt(horizon / n)


class TestSimulateEuler:
    def test_shape_and_initial_column(self):
        ens = simulate_euler(GBM, TimeGrid(1.0, 12), 7, seed=0)
        assert ens.paths.shape == (7, 13)
        assert np.all(ens.paths[:, 0] == 100.0)
        assert ens.scheme == "euler"

    def test_zero_drift_zero_diffusion_constant(self):
        # sigma -> 0 limit: the update is below float resolution, paths constant
        p = ModelParams(mu=0.0, sigma=1e-30, c1=0.0, s0=100.0)
        ens = simulate_euler(p, TimeGrid(1.0, 50), 5, seed=0)
        assert np.all(ens.paths == 100.0)

    def test_determinism(self):
        a = simulate_euler(VVE, TimeGrid(1.0, 32), 10, seed=3)
        b = simulate_euler(VVE, TimeGrid(1.0, 32), 10, seed=3)
        assert np.array_equal(a.paths, b.paths)

    def test_gbm_terminal_mean(self):
        # E S_T = s0*exp(mu*T) under GBM; 1e5 paths, 4-standard-error band
        terminal, exploded = euler_terminal(GBM, 1.0, 252, 100_000, seed=1)
        se = terminal.std(ddof=1) / math.sqrt(len(terminal))
        assert exploded == 0.0
        assert abs(terminal.mean() - 100.0 * math.exp(0.05)) < 4 * se

    def test_euler_terminal_matches_full_simulation(self):
        # BLOCK_SIZE + 3 paths cross a block seam
        for n in (20, BLOCK_SIZE + 3):
            ens = simulate_euler(VVE, TimeGrid(1.0, 16), n, seed=4)
            terminal, _ = euler_terminal(VVE, 1.0, 16, n, seed=4)
            assert np.array_equal(terminal, ens.paths[:, -1])

    def test_nonnegative_and_absorbing_at_zero(self):
        # a crafted increment drives the state negative; truncation pins it at 0
        db = np.array([[-1.0, 0.5, 0.5]])
        p = ModelParams(mu=0.0, sigma=5.0, c1=0.0, s0=100.0)
        path, exploded = euler_path(p, 1.0, db)
        np.testing.assert_allclose(path, [100.0, 0.0, 0.0, 0.0])
        assert not exploded

    def test_overflow_flagged_and_frozen(self):
        # superlinear diffusion squares the state each step until it overflows
        db = np.ones((1, 12))
        p = ModelParams(mu=0.0, sigma=0.1, c1=1.0, s0=100.0)
        path, exploded = euler_path(p, 1.0, db)
        assert exploded
        assert np.all(np.isfinite(path))
        assert path[-1] == path[-2]  # every later step overflows too, so the state holds

    def test_overflowed_path_steps_on(self):
        # the guard discards the overflowing step, not the path: the state holds
        # through that step, and the next one (dB = -1) truncates it to 0
        db = np.array([[1.0] * 8 + [-1.0, 1.0]])
        p = ModelParams(mu=0.0, sigma=0.1, c1=1.0, s0=100.0)
        path, exploded = euler_path(p, 1.0, db)
        assert exploded
        assert path[8] == path[7] > 1e250  # step 8 overflowed and was discarded
        assert path[9] == path[10] == 0.0
        terminal, flagged = _step_terminal(p, 1.0, 100.0, db, (False,))
        assert flagged[0, 0] and terminal[0, 0] == 0.0 != path[8]

    def test_invalid_n_paths(self):
        with pytest.raises(InvalidGrid):
            simulate_euler(GBM, TimeGrid(1.0, 4), 0, seed=0)
        for n_paths in (0, -1):
            with pytest.raises(InvalidGrid):
                euler_terminal(GBM, 1.0, 4, n_paths, seed=0)
            with pytest.raises(InvalidGrid):
                strong_convergence(GBM, 1.0, [0.5, 0.25], n_paths, seed=0)

    def test_seed_outside_philox_key_range_refused(self):
        # Philox takes its key modulo 2^64 or through float64: seeds -1 and 2^64 - 1, and
        # 2^63 and 2^63 + 1, drew one stream each
        for seed in (-1, 1.5, 2 ** 63, 2 ** 64 - 1, 2 ** 64):
            with pytest.raises(InvalidGrid, match=r"seed must be an integer in \[0, 2\^63\)"):
                simulate_euler(GBM, TimeGrid(1.0, 4), 2, seed=seed)
            with pytest.raises(InvalidGrid):
                euler_terminal(GBM, 1.0, 4, 2, seed=seed)
            with pytest.raises(InvalidGrid):
                strong_convergence(GBM, 1.0, [0.5, 0.25], 2, seed=seed)
        largest = 2 ** 63 - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = simulate_euler(GBM, TimeGrid(1.0, 4), 2, seed=largest).paths
        assert not np.array_equal(paths, simulate_euler(GBM, TimeGrid(1.0, 4), 2, seed=0).paths)
        assert np.array_equal(paths, simulate_euler(GBM, TimeGrid(1.0, 4), 2,
                                                    seed=np.int64(largest)).paths)


class TestSimulateMilstein:
    def test_constant_paths_degenerate(self):
        p = ModelParams(mu=0.0, sigma=1e-30, c1=0.0, s0=100.0)
        ens = simulate_milstein(p, TimeGrid(1.0, 20), 4, seed=0)
        assert np.all(ens.paths == 100.0)

    def test_gbm_correction_matches_classical_scheme(self):
        # with c1=0 the correction is 0.5*sigma^2*S*(dB^2 - dt)
        grid = TimeGrid(1.0, 3)
        ens = simulate_milstein(GBM, grid, 5, seed=11)
        for i, inc in enumerate(_block_increments(11, 0, 5, 3, grid.dt)):
            s = 100.0
            for k in range(3):
                s = (s + GBM.mu * s * grid.dt + GBM.sigma * s * inc[k]
                     + 0.5 * GBM.sigma ** 2 * s * (inc[k] ** 2 - grid.dt))
                s = max(s, 0.0)
                assert ens.paths[i, k + 1] == pytest.approx(s, rel=1e-15)

    def test_shares_brownian_path_with_euler(self):
        # pathwise comparable: first-step difference is exactly the correction
        grid = TimeGrid(1.0, 8)
        eu = simulate_euler(VVE, grid, 6, seed=2).paths
        mi = simulate_milstein(VVE, grid, 6, seed=2).paths
        for i, db0 in enumerate(_block_increments(2, 0, 6, 8, grid.dt)[:, 0]):
            s = VVE.s0
            b = s * (VVE.sigma + VVE.c1 * s)
            corr = 0.5 * b * (VVE.sigma + 2 * VVE.c1 * s) * (db0 ** 2 - grid.dt)
            assert mi[i, 1] - eu[i, 1] == pytest.approx(corr, rel=1e-12)


class TestExactPath:
    """The closed-form candidate: ``exact_values``, ``simulate_exact`` and its rows."""

    def test_initial_value_exact(self):
        assert simulate_exact(VVE, TimeGrid(1.0, 16), 1, seed=0).paths[0, 0] == 100.0

    def test_gbm_collapse_at_zero_brownian(self):
        # c1=0, B_1=0: S_1 = 100*exp(mu - sigma^2/2) = 100*exp(0.03)
        vals = exact_values(GBM, [0.0, 0.5, 1.0], np.cumsum([0.0, 0.7, -0.7]))[0]
        assert vals[-1] == pytest.approx(100.0 * math.exp(0.03), rel=1e-12)

    def test_gbm_identity_along_path(self):
        grid = TimeGrid(2.0, 128)
        vals = simulate_exact(GBM, grid, 1, seed=5).paths[0]
        gamma = GBM.mu - 0.5 * GBM.sigma ** 2
        b = brownian_values(5, 0, 128, grid.dt)
        expected = 100.0 * np.exp(gamma * grid.times + GBM.sigma * b)
        np.testing.assert_allclose(vals, expected, rtol=1e-12)

    def test_sigma_zero_unsupported(self):
        p = ModelParams(mu=0.05, sigma=0.0, c1=0.001, s0=100.0)
        with pytest.raises(SigmaZeroUnsupported):
            simulate_exact(p, TimeGrid(1.0, 4), 1, seed=0)

    def test_gamma_near_zero(self):
        # the division by mu - sigma^2/2 is removable: exact_values is continuous across
        # mu = sigma^2/2, matching the paper's expression in 50 digits on either side
        t, b = np.array([0.25, 1.0, 2.0]), np.array([-0.5, 0.3, 1.2])
        half_sq = 0.5 * 0.2 ** 2  # gamma = 0 exactly; 0.02 leaves gamma = -3.5e-18
        for mu in (half_sq - 1e-9, half_sq, half_sq + 1e-9, 0.02):
            for c1 in (0.0, 1e-3):
                p = ModelParams(mu=mu, sigma=0.2, c1=c1, s0=100.0)
                expected = [closed_form_mp(mu, 0.2, c1, 100.0, ti, bi) for ti, bi in zip(t, b)]
                np.testing.assert_allclose(exact_values(p, t, b)[0], expected, rtol=1e-12)
        p = ModelParams(mu=half_sq, sigma=0.2, c1=0.001, s0=100.0)
        ens = simulate_exact(p, TimeGrid(1.0, 4), 3, seed=0)
        assert not ens.exploded.any() and np.isfinite(ens.paths).all()

    def test_explosion_flagged_and_truncated(self):
        # large upward Brownian move drives the denominator through zero
        p = ModelParams(mu=0.05, sigma=0.2, c1=0.05, s0=100.0)
        values, exploded = _exact_rows(p, TimeGrid(1.0, 2).times, np.array([[0.0, 3.0, 6.0]]))
        assert exploded[0]
        first = int(np.argmax(np.isnan(values[0])))
        assert first > 0
        assert np.all(np.isnan(values[0, first:]))
        assert np.all(np.isfinite(values[0, :first]))

    @pytest.mark.parametrize("mu,horizon", [(1e300, 1.0), (0.05, 1e300)])
    def test_overflowing_exponential_flagged_without_warning(self, mu, horizon):
        # at c1 = 0 an overflowing e^{gamma t} makes the denominator 0 * inf = NaN
        p = ModelParams(mu=mu, sigma=0.2, c1=0.0, s0=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = simulate_exact(p, TimeGrid(horizon, 8), 8, seed=0)
        assert ens.exploded.all()
        assert np.all(ens.paths[:, 0] == 100.0)
        assert np.all(np.isnan(ens.paths[:, 1:]))

    def test_overflowing_value_flagged(self):
        # sigma s0 E leaves the float range while the denominator stays sigma
        p = ModelParams(mu=0.05, sigma=0.2, c1=0.0, s0=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, exploded = _exact_rows(p, np.array([0.0, 1.0, 2.0]),
                                           np.array([[0.0, 1.0, 0.0], [0.0, 3000.0, 0.0]]))
        assert exploded.tolist() == [False, True]
        assert np.isfinite(values[0]).all() and values[1, 0] == 1e300
        assert np.isnan(values[1, 1:]).all()

    def test_simulate_exact_matches_exact_path(self):
        grid = TimeGrid(1.0, 32)
        # BLOCK_SIZE + 3 paths cross a block seam: check the rows around it
        for n, rows in ((8, range(8)),
                        (BLOCK_SIZE + 3, (0, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 2))):
            ens = simulate_exact(VVE, grid, n, seed=6)
            assert ens.scheme == "exact"
            for i in rows:
                vals = exact_values(VVE, grid.times, brownian_values(6, i, 32, grid.dt))[0]
                np.testing.assert_allclose(ens.paths[i], vals, rtol=1e-14)

    def test_closed_form_gap_does_not_vanish_for_positive_c1(self):
        # Documented defect (see vve.sde docstring): for c1 > 0 the closed
        # form is NOT a solution of the SDE.  The gap to Euler on the same
        # Brownian path stays O(1) under an 8x dt refinement instead of
        # shrinking like sqrt(dt).
        fine = _block_increments(0, 0, 1, 2 ** 13, 2.0 ** -13)[0]
        gaps = {}
        for factor in (8, 1):
            steps = fine.size // factor
            inc = fine.reshape(steps, factor).sum(axis=1)
            ref = exact_values(VVE, 1.0, np.cumsum(inc)[-1])[0]
            eu = _step_terminal(VVE, 1.0 / steps, VVE.s0, inc[None, :], (False,))[0][0, 0]
            gaps[steps] = abs(ref - eu)
        assert all(g > 0.1 for g in gaps.values()), gaps
        ratio = gaps[2 ** 13] / gaps[2 ** 10]
        assert 0.25 < ratio < 4.0, (gaps, ratio)


class TestStrongConvergence:
    LEVELS = [2.0 ** -k for k in range(4, 9)]

    def test_gbm_euler_errors_decrease(self):
        rep = strong_convergence(GBM, 1.0, self.LEVELS, 256, seed=0, scheme="euler")
        assert rep.reference == "exact"
        assert np.all(rep.strong_errors > 0)
        assert np.all(np.diff(rep.strong_errors) < 0)
        assert rep.fitted_slope > 0.25

    def test_milstein_faster_than_euler_on_gbm(self):
        eu = strong_convergence(GBM, 1.0, self.LEVELS, 256, seed=0, scheme="euler")
        mi = strong_convergence(GBM, 1.0, self.LEVELS, 256, seed=0, scheme="milstein")
        assert mi.fitted_slope > eu.fitted_slope
        assert np.all(mi.strong_errors < eu.strong_errors)

    def test_auto_reference_selection(self):
        rep = strong_convergence(VVE, 1.0, [0.25, 0.125], 64, seed=0)
        assert rep.reference == "refined"
        rep = strong_convergence(GBM, 1.0, [0.25, 0.125], 64, seed=0)
        assert rep.reference == "exact"

    def test_refined_reference_recovers_euler_order_for_vve(self):
        rep = strong_convergence(VVE, 1.0, self.LEVELS, 256, seed=0,
                                 scheme="euler", reference="refined")
        assert np.all(np.diff(rep.strong_errors) < 0)
        assert rep.fitted_slope > 0.25

    def test_refined_reference_recovers_milstein_order_for_vve(self):
        rep = strong_convergence(VVE, 1.0, self.LEVELS, 256, seed=0,
                                 scheme="milstein", reference="refined")
        assert 0.8 <= rep.fitted_slope <= 1.2

    def test_dt_level_validation(self):
        with pytest.raises(InvalidGrid):
            strong_convergence(GBM, 1.0, [0.125, 0.25], 16, seed=0)  # increasing
        with pytest.raises(InvalidGrid):
            strong_convergence(GBM, 1.0, [0.5, 0.3], 16, seed=0)  # 0.3 does not divide 1.0
        with pytest.raises(InvalidGrid, match="4 does not divide 10"):
            strong_convergence(GBM, 1.0, [0.5, 0.25, 0.1], 16, seed=0)  # 2, 4 and 10 steps
        # divisors of the finest level's step count need not be dyadic: 2, 6 and 12 steps
        strong_convergence(GBM, 1.0, [1 / 2, 1 / 6, 1 / 12], 16, seed=0)
        with pytest.raises(InvalidGrid):
            strong_convergence(GBM, 1.0, [0.5], 16, seed=0)  # single level
        for horizon in (math.nan, math.inf):
            with pytest.raises(InvalidGrid):
                strong_convergence(GBM, horizon, [0.5, 0.25], 16, seed=0)
        with pytest.raises(InvalidGrid):
            strong_convergence(GBM, 1.0, [math.nan, 0.25], 16, seed=0)
        with pytest.raises(InvalidGrid):
            strong_convergence(GBM, 1.0, [0.5, -0.25], 16, seed=0)

    def test_unknown_scheme_and_reference(self):
        with pytest.raises(InvalidGrid):
            strong_convergence(GBM, 1.0, [0.5, 0.25], 16, seed=0, scheme="heun")
        with pytest.raises(InvalidGrid):
            strong_convergence(GBM, 1.0, [0.5, 0.25], 16, seed=0, reference="other")


class TestBlockEngine:
    """The thread-pool block engine against a serial, block-by-block oracle."""

    N = 2 * BLOCK_SIZE + 3  # three blocks, the last one partial
    GRID = TimeGrid(1.0, 16)
    LEVELS = [0.25, 0.125, 0.0625]
    # a block drawn in halves of 501 and 500 rows; a full block in halves, then a
    # 1-row block; three blocks, the last one partial
    PATH_COUNTS = [1001, BLOCK_SIZE + 1, N]

    def serial_blocks(self, seed, steps, dt, n=N):
        for b, start in enumerate(range(0, n, BLOCK_SIZE)):
            rows = min(BLOCK_SIZE, n - start)
            yield slice(start, start + rows), _block_increments(seed, b, rows, steps, dt)

    @pytest.mark.parametrize("n", PATH_COUNTS)
    def test_euler_terminal_matches_serial_oracle(self, n):
        terminal, fraction = euler_terminal(VVE, 1.0, 16, n, seed=3)
        expected = np.empty(n)
        for rows, db in self.serial_blocks(3, 16, self.GRID.dt, n):
            expected[rows] = step_terminal_reference(VVE, self.GRID.dt, VVE.s0, db, False)[0]
        assert np.array_equal(terminal, expected)
        assert fraction == 0.0

    @pytest.mark.parametrize("n", PATH_COUNTS)
    @pytest.mark.parametrize("simulate,milstein", [(simulate_euler, False),
                                                   (simulate_milstein, True)])
    def test_stepped_ensembles_match_serial_oracle(self, simulate, milstein, n):
        ens = simulate(VVE, self.GRID, n, seed=4)
        expected = np.empty((n, self.GRID.steps + 1))
        expected[:, 0] = VVE.s0
        for rows, db in self.serial_blocks(4, self.GRID.steps, self.GRID.dt, n):
            step_terminal_reference(VVE, self.GRID.dt, VVE.s0, db, milstein,
                                    out=expected[rows])
        assert np.array_equal(ens.paths, expected)

    def test_simulate_exact_matches_serial_oracle(self):
        p = ModelParams(mu=0.05, sigma=0.3, c1=0.05, s0=100.0)  # some rows explode
        ens = simulate_exact(p, self.GRID, self.N, seed=5)
        expected, exploded = [], []
        for _, db in self.serial_blocks(5, self.GRID.steps, self.GRID.dt):
            b = np.concatenate([np.zeros((len(db), 1)), np.cumsum(db, axis=1)], axis=1)
            values, hit = _exact_rows(p, self.GRID.times, b)
            expected.append(values)
            exploded.append(hit)
        assert np.array_equal(ens.paths, np.concatenate(expected), equal_nan=True)
        assert np.array_equal(ens.exploded, np.concatenate(exploded))
        assert ens.exploded.any()

    @pytest.mark.parametrize("params,reference,n_paths,steps", [
        *(pytest.param(params, reference, n, [4, 8, 16], id=f"params{i}-{reference}-{n}")
          for n in PATH_COUNTS
          for i, (params, reference) in enumerate([(GBM, "exact"), (VVE, "refined")])),
        # one block in column windows of whole level steps: 4800 refined steps in
        # windows of 1008 (a unit of 48, above the coarsest group of 24) and a last
        # one of 768; 1200 exact steps in windows of 1044 (a unit of 12) and 156
        pytest.param(VVE, "refined", 1001, [200, 300, 600], id="refined-1001-windows"),
        pytest.param(GBM, "exact", 1001, [200, 300, 1200], id="exact-1001-windows"),
    ])
    def test_strong_convergence_matches_serial_oracle(self, params, reference, n_paths, steps):
        gen_steps = steps[-1] * (8 if reference == "refined" else 1)
        levels = [1.0 / n for n in steps]
        reports = _strong_convergence(params, 1.0, levels, n_paths, 6,
                                      ["euler", "milstein"], reference)
        assert [r.scheme for r in reports] == ["euler", "milstein"]
        for report in reports:
            assert report.reference == reference
            milstein = report.scheme == "milstein"
            errors = np.zeros(len(steps))
            for _, db in self.serial_blocks(6, gen_steps, 1.0 / gen_steps, n_paths):
                if reference == "exact":
                    ref = exact_values(params, 1.0, db.sum(axis=1))[0]
                else:
                    ref = step_terminal_reference(params, 1.0 / gen_steps, params.s0, db,
                                                  milstein)[0]
                for i, n in enumerate(steps):
                    db_level = db.reshape(len(db), n, gen_steps // n).sum(axis=2)
                    term = step_terminal_reference(params, 1.0 / n, params.s0, db_level,
                                                   milstein)[0]
                    errors[i] += np.abs(term - ref).sum()
            errors /= n_paths
            assert np.array_equal(report.strong_errors, errors)
            single = strong_convergence(params, 1.0, levels, n_paths, seed=6,
                                        scheme=report.scheme, reference=reference)
            assert np.array_equal(single.strong_errors, errors)
            assert single.fitted_slope == report.fitted_slope

    def test_error_in_a_block_propagates_and_engine_recovers(self):
        before = euler_terminal(VVE, 1.0, 16, self.N, seed=7)[0]
        no_closed_form = ModelParams(mu=0.05, sigma=0.0, c1=1e-3, s0=100.0)
        with pytest.raises(SigmaZeroUnsupported) as info:
            strong_convergence(no_closed_form, 1.0, self.LEVELS, self.N, seed=0,
                               reference="exact")
        assert type(info.value) is SigmaZeroUnsupported
        assert np.array_equal(euler_terminal(VVE, 1.0, 16, self.N, seed=7)[0], before)

    def test_concurrent_callers_get_sequential_bits(self):
        # more callers than cores, each with its own pool, and frequent thread switches
        n, seeds = 3 * BLOCK_SIZE + 5, (8, 9, 10, 11)
        sequential = [euler_terminal(VVE, 1.0, 32, n, seed)[0] for seed in seeds]
        results = [None] * len(seeds)
        barrier = threading.Barrier(len(seeds))

        def call(i, seed):
            barrier.wait()
            results[i] = euler_terminal(VVE, 1.0, 32, n, seed)[0]

        threads = [threading.Thread(target=call, args=(i, seed)) for i, seed in enumerate(seeds)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, expected in zip(results, sequential):
            assert np.array_equal(got, expected)

    def test_increments_live_in_a_mapping_the_call_releases(self):
        # from malloc, freed buffers this size stayed in the heap, where what was
        # allocated above them decided whether the next call's buffers fit
        mappings, seen = [], {}

        def record(rows, db):
            view = db
            while isinstance(view, np.ndarray):
                view = view.base
            assert isinstance(view.obj, mmap.mmap)  # a memoryview of the mapping
            mappings.append(weakref.ref(view.obj))
            assert len(db) == rows.stop - rows.start
            seen[rows.start] = db.copy()

        assert _map_blocks(record, 13, self.N, 16, self.GRID.dt) is None
        assert len(mappings) == 5  # two halves of each full block, then 3 rows
        assert all(ref() is None for ref in mappings)
        got = np.concatenate([seen[start] for start in sorted(seen)])
        expected = np.concatenate([db for _, db in self.serial_blocks(13, 16, self.GRID.dt)])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("run,buffers,rows", [
        # the default convergence study: 1000 paths, refined 8 x beyond 2048 steps,
        # stepped whole in 16 windows of 1024 columns (a 2 ** 20 increment budget)
        (lambda: _strong_convergence(VVE, 1.0, [1.0 / 2 ** e for e in range(6, 12)], 1000,
                                     16, ["euler", "milstein"], "refined"),
         (1, 1000, 1024), 1000),
        (lambda: euler_terminal(VVE, 1.0, 500, 4 * BLOCK_SIZE, 16),
         (2, BLOCK_SIZE // 2, 500), BLOCK_SIZE // 2),
    ], ids=["convergence", "euler_terminal"])
    def test_blocks_are_drawn_and_stepped_in_halves(self, monkeypatch, run, buffers, rows):
        asked, stepped = [], []
        mapped_buffers, step_terminal = sde._mapped_buffers, sde._step_terminal

        def record_buffers(*args):
            asked.append(args)
            return mapped_buffers(*args)

        def record_steps(params, dt, s0, db, *args, **kwargs):
            stepped.append(len(db))
            return step_terminal(params, dt, s0, db, *args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sde, "_mapped_buffers", record_buffers)
        monkeypatch.setattr(sde, "_step_terminal", record_steps)
        run()
        assert asked == [buffers]
        assert set(stepped) == {rows}

    @pytest.mark.parametrize("n_paths,steps,reference,widths", [
        (1001, [200, 300, 600], "refined", [1008] * 4 + [768]),
        (1001, [200, 300, 1200], "exact", [1044, 156]),
        # two blocks, the second of one row, in the first block's windows
        (BLOCK_SIZE + 1, [16, 32, 64], "refined", [256, 256]),
    ])
    def test_convergence_windows_join_to_the_block_increments(self, monkeypatch, n_paths,
                                                              steps, reference, widths):
        # each window is stepped once ungrouped: by the refined reference, or by the
        # exact study's finest level
        windows, step_terminal = [], sde._step_terminal

        def record(params, dt, s0, db, milstein, group=1):
            if group == 1:
                windows.append(db.copy())
            return step_terminal(params, dt, s0, db, milstein, group=group)

        monkeypatch.setattr(sde, "_step_terminal", record)
        _strong_convergence(VVE, 1.0, [1.0 / n for n in steps], n_paths, 17, ["euler"],
                            reference)
        gen_steps = sum(widths)
        for b, start in enumerate(range(0, n_paths, BLOCK_SIZE)):
            rows = min(BLOCK_SIZE, n_paths - start)
            block = [w for w in windows if len(w) == rows]  # a block's windows come in order
            assert [w.shape[1] for w in block] == widths
            assert np.array_equal(np.concatenate(block, axis=1),
                                  _block_increments(17, b, rows, gen_steps, 1.0 / gen_steps))

    @pytest.mark.parametrize("params,reference", [(GBM, "exact"), (VVE, "refined")])
    def test_strong_convergence_steps_levels_without_a_copy(self, params, reference):
        # numpy reports its data buffers to tracemalloc, and the mapped increment
        # matrix is not among them: no level may copy its summed increments
        levels = [1.0 / n for n in (64, 128, 256, 512, 1024)]
        args = (params, 1.0, levels, 256, 15, ["euler", "milstein"], reference)
        expected = _strong_convergence(*args)  # warm: imports and first-call caches
        tracemalloc.start()
        try:
            reports = _strong_convergence(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024 * 8 // 4  # a quarter of the finest level's increments
        for got, want in zip(reports, expected):
            assert np.array_equal(got.strong_errors, want.strong_errors)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_pool(self):
        # a child forked after the parent ran blocks on threads makes and joins its own
        expected = euler_terminal(VVE, 1.0, 16, self.N, seed=12)[0]
        pid = os.fork()
        if pid == 0:
            signal.alarm(60)  # a child that hangs dies here
            same = np.array_equal(euler_terminal(VVE, 1.0, 16, self.N, seed=12)[0], expected)
            os._exit(0 if same else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_call_leaves_no_thread_behind(self):
        before = threading.active_count()
        euler_terminal(VVE, 1.0, 16, self.N, seed=13)
        assert threading.active_count() == before
        assert not [t for t in threading.enumerate() if t.name.startswith("vve-block")]

    def test_scheme_list_validation(self):
        for scheme in ([], ["euler", "heun"]):
            with pytest.raises(InvalidGrid):
                _strong_convergence(GBM, 1.0, [0.5, 0.25], 16, 0, scheme, "auto")


class TestStepKernel:
    """The stacked, panel-read step kernel against the one-scheme column loop."""

    STACKS = [(False, True), (True, False)]

    def check(self, params, dt, s0, db, milstein, group=1):
        """Kernel states, exploded masks and paths equal the oracle's, scheme by scheme.

        With ``group`` g the kernel reads ``db`` g columns a step, and the oracle
        and the ungrouped kernel step ``db``'s g-column sums.
        """
        rows, steps = len(db), db.shape[1] // group
        summed = db if group == 1 else db.reshape(rows, steps, group).sum(axis=2)
        out = np.full((len(milstein), rows, steps + 1), np.nan)
        out[..., 0] = s0
        states, exploded = _step_terminal(params, dt, s0, db, milstein, out=out, group=group)
        assert states.shape == exploded.shape == (len(milstein), rows)
        for i, m in enumerate(milstein):
            expected = np.empty((rows, steps + 1))
            expected[:, 0] = s0
            ref_states, ref_exploded = step_terminal_reference(params, dt, s0, summed, m,
                                                               out=expected)
            assert np.array_equal(states[i], ref_states)
            assert np.array_equal(exploded[i], ref_exploded)
            assert np.array_equal(out[i], expected)
        runs = [_step_terminal(params, dt, s0, db, milstein, group=group)]
        if group > 1:
            runs.append(_step_terminal(params, dt, s0, summed, milstein))
        for run in runs:
            assert np.array_equal(run[0], states)
            assert np.array_equal(run[1], exploded)
        return exploded

    @pytest.mark.parametrize("milstein", STACKS)
    @pytest.mark.parametrize("steps", [1, 31, 32, 33, 100])  # across the panel seams
    def test_stack_matches_oracle(self, milstein, steps):
        rows = 2 * TILE_ROWS + 37  # two full row tiles of a panel copy and a partial one
        db = _block_increments(13, 0, rows, steps, 1.0 / steps)
        s0 = np.linspace(0.0, 400.0, rows)  # a state at 0 stays there
        self.check(VVE, 1.0 / steps, s0, db, milstein)
        self.check(VVE, 1.0 / steps, VVE.s0, db, milstein)

    @pytest.mark.parametrize("milstein", STACKS)
    @pytest.mark.parametrize("group", [2, 3, 8, 24, 256])
    @pytest.mark.parametrize("steps", [1, 31, 32, 33])  # across the panel seams
    def test_grouped_read_matches_summed_increments(self, milstein, group, steps):
        rows = 2 * TILE_ROWS + 37
        db = _block_increments(14, 0, rows, steps * group, 1.0 / (steps * group))
        self.check(VVE, 1.0 / steps, VVE.s0, db, milstein, group)

    def check_overflow(self, milstein, group):
        # superlinear diffusion at dt = 1: dB = 0.5 squares the Euler state each step
        # until it overflows, while Milstein's correction, -0.375 b b', truncates it to
        # 0; dB = -2 truncates Euler and drives Milstein over
        p = ModelParams(mu=0.0, sigma=0.1, c1=1.0, s0=100.0)
        db = np.repeat([[0.5], [-2.0], [0.0]], 40 * group, axis=1) / group  # exact sums
        exploded = self.check(p, 1.0, p.s0, db, milstein, group)
        euler, mil = milstein.index(False), milstein.index(True)
        assert exploded[euler].tolist() == [True, False, False]
        assert exploded[mil].tolist() == [False, True, False]

    @pytest.mark.parametrize("milstein", STACKS)
    def test_rows_that_overflow_in_one_scheme_only(self, milstein):
        self.check_overflow(milstein, 1)

    @pytest.mark.parametrize("milstein", STACKS)
    def test_grouped_rows_that_overflow_in_one_scheme_only(self, milstein):
        self.check_overflow(milstein, 2)

    @pytest.mark.parametrize("milstein", STACKS)
    @pytest.mark.parametrize("group", [1, 3])
    @pytest.mark.parametrize("at", [0, 31, 32, 69])  # panel edges; 69 ends a partial panel
    def test_panel_with_an_overflow_is_replayed(self, milstein, group, at):
        # at dt = 0 a zero increment holds every state, so the first state to leave
        # the finite range does so at step ``at``: there dB = 1e305 sends b dB over
        # in both schemes, while dB = -1e153 truncates Euler to 0 and sends
        # Milstein's b b' dB^2 over
        p = ModelParams(mu=0.0, sigma=0.1, c1=1.0, s0=100.0)
        db = np.zeros((3, 70 * group))
        db[:2, at * group] = [1e305, -1e153]
        exploded = self.check(p, 0.0, p.s0, db, milstein, group)
        euler, mil = milstein.index(False), milstein.index(True)
        assert exploded[euler].tolist() == [True, False, False]
        assert exploded[mil].tolist() == [True, True, False]
