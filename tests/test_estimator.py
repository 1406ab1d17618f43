import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dolrm.estimator import ArmStatistics

from support import lcb_cost, ucb_reward

# every bound below uses horizon 100, r_max 3.0 and c_min 1.0
T, R_MAX, C_MIN = 100, 3.0, 1.0

sane_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def stats_with(s, a, count, mean_reward=0.0, mean_cost=0.0, shape=(1, 2)):
    stats = ArmStatistics(shape)
    stats.counts[s][a] = count
    stats.mean_rewards[s][a] = mean_reward
    stats.mean_costs[s][a] = mean_cost
    return stats


class TestRecord:
    def test_first_sample_identity(self):
        stats = ArmStatistics([2])
        stats.record(0, 1, 3.2, 1.1)
        assert stats.counts[0][1] == 1
        assert stats.mean_rewards[0][1] == 3.2
        assert stats.mean_costs[0][1] == 1.1

    def test_second_sample_averages(self):
        stats = stats_with(0, 0, count=1, mean_reward=2.0)
        stats.record(0, 0, 4.0, 0.0)
        assert stats.counts[0][0] == 2
        assert stats.mean_rewards[0][0] == 3.0

    def test_incremental_mean_weighting(self):
        stats = stats_with(0, 0, count=3, mean_cost=1.0)
        stats.record(0, 0, 0.0, 2.0)
        assert stats.counts[0][0] == 4
        assert stats.mean_costs[0][0] == 1.25

    def test_rejects_negative_indices(self):
        stats = ArmStatistics([2])
        with pytest.raises(IndexError):
            stats.record(-1, 0, 1.0, 1.0)
        with pytest.raises(IndexError):
            stats.record(0, -1, 1.0, 1.0)

    def test_rejects_out_of_range_indices(self):
        stats = ArmStatistics([2])
        with pytest.raises(IndexError):
            stats.record(0, 2, 1.0, 1.0)
        with pytest.raises(IndexError):
            stats.record(1, 0, 1.0, 1.0)


class TestUcbReward:
    def test_frozen_arithmetic(self):
        stats = stats_with(0, 0, count=4, mean_reward=0.5)
        expected = 0.5 + math.sqrt(math.log(100.0) / 4.0)
        got = ucb_reward(stats, 0, 0, T, R_MAX)
        assert got == expected
        assert got == pytest.approx(1.5729830131446736, rel=1e-15)

    def test_truncates_at_r_max(self):
        stats = stats_with(0, 0, count=1, mean_reward=2.9)
        assert ucb_reward(stats, 0, 0, T, R_MAX) == 3.0

    def test_unpulled_cell_returns_r_max(self):
        assert ucb_reward(ArmStatistics([1]), 0, 0, T, R_MAX) == 3.0

    def test_rejects_negative_indices(self):
        with pytest.raises(IndexError):
            ucb_reward(ArmStatistics([1]), 0, -1, T, R_MAX)


class TestLcbCost:
    def test_truncates_at_c_min(self):
        stats = stats_with(0, 0, count=4, mean_cost=2.0)
        assert lcb_cost(stats, 0, 0, T, C_MIN) == 1.0

    def test_frozen_arithmetic(self):
        stats = stats_with(0, 0, count=400, mean_cost=2.0)
        got = lcb_cost(stats, 0, 0, T, C_MIN)
        assert got == 2.0 - math.sqrt(math.log(100.0) / 400.0)
        assert got == pytest.approx(1.8927016986855327, rel=1e-15)

    def test_unpulled_cell_returns_c_min(self):
        assert lcb_cost(ArmStatistics([1]), 0, 0, T, C_MIN) == 1.0

    def test_rejects_negative_indices(self):
        with pytest.raises(IndexError):
            lcb_cost(ArmStatistics([1]), -1, 0, T, C_MIN)


@given(mean=sane_floats, n=st.integers(min_value=1, max_value=10**9))
def test_estimates_stay_inside_truncation_bounds(mean, n):
    stats = stats_with(0, 0, count=n, mean_reward=mean, mean_cost=mean)
    r_hat = ucb_reward(stats, 0, 0, T, R_MAX)
    c_check = lcb_cost(stats, 0, 0, T, C_MIN)
    assert min(R_MAX, mean) <= r_hat <= R_MAX
    assert C_MIN <= c_check <= max(C_MIN, mean)


@given(mean=sane_floats, n=st.integers(min_value=1, max_value=10**6))
def test_bonus_shrinks_with_more_pulls(mean, n):
    fewer = stats_with(0, 0, count=n, mean_reward=mean, mean_cost=mean)
    more = stats_with(0, 0, count=n + 1, mean_reward=mean, mean_cost=mean)
    assert ucb_reward(more, 0, 0, T, R_MAX) <= ucb_reward(fewer, 0, 0, T, R_MAX)
    assert lcb_cost(more, 0, 0, T, C_MIN) >= lcb_cost(fewer, 0, 0, T, C_MIN)


@given(
    samples=st.lists(st.tuples(sane_floats, sane_floats), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mean_is_order_invariant(samples, seed):
    shuffled = samples.copy()
    random.Random(seed).shuffle(shuffled)
    first, second = ArmStatistics([1]), ArmStatistics([1])
    for r, c in samples:
        first.record(0, 0, r, c)
    for r, c in shuffled:
        second.record(0, 0, r, c)
    assert second.mean_rewards[0][0] == pytest.approx(first.mean_rewards[0][0], abs=1e-9)
    assert second.mean_costs[0][0] == pytest.approx(first.mean_costs[0][0], abs=1e-9)


@given(samples=st.lists(st.tuples(sane_floats, sane_floats), min_size=1, max_size=50))
def test_incremental_mean_matches_batch_recomputation(samples):
    stats = ArmStatistics([1])
    kept = []
    for r, c in samples:
        stats.record(0, 0, r, c)
        kept.append((r, c))
    assert stats.counts[0][0] == len(kept)
    assert stats.mean_rewards[0][0] == pytest.approx(
        math.fsum(r for r, _ in kept) / len(kept), abs=1e-12
    )
    assert stats.mean_costs[0][0] == pytest.approx(
        math.fsum(c for _, c in kept) / len(kept), abs=1e-12
    )


def test_optimistic_estimate_covers_true_mean():
    # fraction of trials where the reward UCB at N=50 sits above the true
    # mean; the bonus at T=1e4 makes this overwhelmingly likely
    true_mean, n, trials = 2.0, 50, 10_000
    rng = np.random.default_rng(123)
    sample_means = true_mean + rng.standard_normal((trials, n)).mean(axis=1)
    covered = 0
    for m in sample_means:
        stats = stats_with(0, 0, count=n, mean_reward=float(m))
        if ucb_reward(stats, 0, 0, 10_000, R_MAX) >= true_mean:
            covered += 1
    assert covered / trials >= 0.95
