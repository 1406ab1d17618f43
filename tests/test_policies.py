import copy
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dolrm.harness
from dolrm.env import EnvironmentSpec, derived_bounds
from dolrm.estimator import ArmStatistics
from dolrm.harness import BLOCK, POLICY_STREAM, make_policy, run_episode, stream_rng
from dolrm.oracle import best_response
from dolrm.policies import (
    DEFAULT_LR_MODE,
    LEARNING_RATE_MODES,
    ClassicUcbPolicy,
    DolRmPolicy,
    FixedMapPolicy,
    OracleRmPolicy,
    PolicyKind,
    ThompsonSamplingPolicy,
    greedy_arm,
    validate_policy_map,
)

from support import (
    BonusAblatedDolRm,
    PerArmDolRm,
    PerCallThompsonSampling,
    ReferenceUcb1,
    StubRng,
    lcb_cost,
    learning_rate,
    ratio_step,
    sample_feedback,
    seven_type_env,
    two_type_env,
    ucb_reward,
)

# exact dyadic floats make argmax comparisons immune to rounding
dyadic = st.integers(min_value=-64, max_value=64).map(lambda k: k / 4.0)
dyadic_positive = st.integers(min_value=1, max_value=64).map(lambda k: k / 4.0)

# Small positive means, so duplicate arms (exact ties) are common; equal
# arrival probabilities, since the property tests draw task types themselves.
cell_mean = st.integers(min_value=1, max_value=12).map(lambda k: k / 4.0)


# Noise of this size leaves each observation finite but overflows a cell's
# running sum, mean * N, within a few hundred pulls; the mean then stays inf.
# The tests pass feedback as Python floats, as run_episode does: numpy
# scalars would warn on the overflow.
OVERFLOW_SIGMA = 1e307


def specs(max_arms, sigmas=(0.0, 1.0)):
    return st.builds(
        lambda arms, sigma: EnvironmentSpec((1.0 / len(arms),) * len(arms), arms, sigma),
        st.lists(
            st.lists(st.tuples(cell_mean, cell_mean), min_size=1, max_size=max_arms),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(sigmas),
    )


# Up to 32 arms: ts's per-decision work and draws grow with the arm count,
# and many small dyadic means give exact ties.
wide_specs = specs(32)
overflow_specs = specs(32, (0.0, 1.0, OVERFLOW_SIGMA))
property_run = settings(deadline=None)
# Specs every in-place update test runs besides the drawn ones.
UPDATE_EXAMPLES = [
    (EnvironmentSpec((1.0,), (((1.0, 1.0),),), 0.0), 1, 0, "singleton type, horizon 1"),
    (
        EnvironmentSpec((0.5, 0.5), (((1.0, 1.0),), ((1.0, 0.5),) * 32), 0.0),
        300,
        1,
        "32 tied arms beside a singleton type, sigma 0",
    ),
    (
        EnvironmentSpec((1.0,), (((1.0, 1.0),),), OVERFLOW_SIGMA),
        300,
        0,
        "running sums overflow",
    ),
]


def with_update_examples(test):
    for spec, horizon, seed, why in UPDATE_EXAMPLES:
        test = example(spec=spec, horizon=horizon, seed=seed).via(why)(test)
    return test


def assert_same_cells(stats, shadow):
    """Equal counts and bit-equal means: float.hex tells -0.0 from 0.0, and NaN matches NaN."""
    assert stats.counts == shadow.counts
    for mine, theirs in ((stats.mean_rewards, shadow.mean_rewards), (stats.mean_costs, shadow.mean_costs)):
        assert [list(map(float.hex, row)) for row in mine] == [list(map(float.hex, row)) for row in theirs]


def ucb_policy(stats, t):
    # an environment with as many arms per type as stats has cells, so a
    # type's arm count and its cells agree
    arms = tuple(((1.0, 1.0),) * len(row) for row in stats.counts)
    policy = ClassicUcbPolicy(EnvironmentSpec((1.0 / len(arms),) * len(arms), arms, 1.0))
    policy.stats = stats
    policy.round = t
    return policy


def ts_policy(stats, rng):
    # c_min of the two-type environment is 1.0
    policy = ThompsonSamplingPolicy(two_type_env(), np.random.default_rng(0))
    policy.stats = stats
    policy.rng = rng
    # refill exactly the 2k normals each decision reads, so a stub queue of
    # 2k values per decision suffices
    policy.chunk = 0
    return policy


class TestLearningRate:
    def test_fixed_rate_is_constant_over_rounds(self):
        assert learning_rate("fixed-sqrtT", 1.0, 10_000, 1) == 0.01
        assert learning_rate("fixed-sqrtT", 1.0, 10_000, 9_999) == 0.01

    def test_decaying_rate(self):
        assert learning_rate("decaying", 1.0, 100, 9) == pytest.approx(0.1, rel=1e-15)

    def test_decaying_rate_scales_with_c_min(self):
        assert learning_rate("decaying", 2.0, 100, 1) == 0.25

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError, match="round index"):
            learning_rate("decaying", 1.0, 100, 0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="learning-rate mode"):
            learning_rate("adagrad", 1.0, 100, 1)


class TestRatioStep:
    def test_interior_step(self):
        assert ratio_step(2.0, 0.01, 3.0, 1.0, 0.5, 3.0) == 2.01

    def test_clips_below(self):
        assert ratio_step(0.6, 1.0, 1.0, 2.0, 0.5, 3.0) == 0.5

    def test_clips_above(self):
        assert ratio_step(2.9, 1.0, 3.0, 0.1, 0.5, 3.0) == 3.0

    def test_zero_rate_is_identity(self):
        assert ratio_step(1.7, 0.0, 3.0, 1.0, 0.5, 3.0) == 1.7


class TestGreedyArm:
    def test_high_theta_prefers_cheap_arm(self):
        assert greedy_arm([3.0, 1.0], [2.0, 1.0], theta=2.6) == 1

    def test_low_theta_prefers_rich_arm(self):
        assert greedy_arm([3.0, 1.0], [2.0, 1.0], theta=1.5) == 0

    def test_singleton(self):
        assert greedy_arm([2.0], [1.0], theta=99.0) == 0

    def test_tie_goes_to_lowest_index(self):
        assert greedy_arm([2.0, 2.0], [1.0, 1.0], theta=0.7) == 0

    @pytest.mark.parametrize(
        "rewards, best",
        [([math.nan, -5.0], 1), ([-math.inf, -5.0], 1), ([-math.inf] * 3, 0)],
    )
    def test_only_a_score_above_minus_inf_wins(self, rewards, best):
        # a leading NaN or -inf loses to a finite score; all -inf plays arm 0
        assert greedy_arm(rewards, [1.0] * len(rewards), theta=1.0) == best

    @given(
        rewards=st.lists(dyadic, min_size=1, max_size=6),
        costs=st.lists(dyadic_positive, min_size=6, max_size=6),
        theta=dyadic,
        kappa=st.sampled_from([0.5, 2.0, 4.0, 8.0]),
    )
    def test_common_scaling_preserves_argmax(self, rewards, costs, theta, kappa):
        costs = costs[: len(rewards)]
        scaled_r = [kappa * r for r in rewards]
        scaled_c = [kappa * c for c in costs]
        assert greedy_arm(scaled_r, scaled_c, theta) == greedy_arm(rewards, costs, theta)


class TestPolicyMap:
    def test_validates_against_environment(self, p08):
        assert validate_policy_map(p08, (0, 1)) is None

    def test_rejects_wrong_length(self, p08):
        with pytest.raises(ValueError, match="1 actions for 2 types"):
            validate_policy_map(p08, (0,))

    def test_rejects_out_of_range_arm(self, p08):
        with pytest.raises(ValueError, match=r"actions\[0\] = 1"):
            validate_policy_map(p08, (1, 0))

    def test_fixed_select(self, p08):
        policy = FixedMapPolicy(p08, (0, 1))
        assert policy.select(0) == 0
        assert policy.select(1) == 1
        with pytest.raises(IndexError):
            policy.select(2)


class TestPolicyKind:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            PolicyKind("epsilon-greedy")

    def test_actions_require_fixed_kind(self):
        with pytest.raises(ValueError, match="'actions' only applies"):
            PolicyKind("dolrm", actions=(0, 1))

    def test_fixed_requires_actions(self):
        with pytest.raises(ValueError, match="needs 'actions'"):
            PolicyKind("fixed")

    @pytest.mark.parametrize("action", [0.7, "1", True], ids=["float", "str", "bool"])
    def test_fixed_actions_must_be_integers(self, action):
        # truncating 0.7 would silently run arm 0, a map nobody asked for
        message = f"actions[1]: expected an integer, got {type(action).__name__}"
        with pytest.raises(ValueError, match=re.escape(message)):
            PolicyKind("fixed", (0, action))

    # built in Python, not parsed: a wrong type is a ValueError naming the
    # field, and no other iterable passes for the actions
    @pytest.mark.parametrize(
        "kind, actions, label, message",
        [
            ("dolrm", None, 5, "label: expected a string, got int"),
            ("fixed", 5, None, "actions: expected a list or tuple, got int"),
            ("fixed", {1: 0, 0: 1}, None, "actions: expected a list or tuple, got dict"),
            ("fixed", {0, 1}, None, "actions: expected a list or tuple, got set"),
            ("fixed", b"\x00\x01", None, "actions: expected a list or tuple, got bytes"),
        ],
        ids=["label-int", "actions-int", "actions-dict", "actions-set", "actions-bytes"],
    )
    def test_mistyped_field_is_a_value_error(self, kind, actions, label, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PolicyKind(kind, actions, label)

    def test_rejects_label_with_bad_characters(self):
        with pytest.raises(ValueError, match="label"):
            PolicyKind("dolrm", label="has spaces")

    def test_name_resolution(self):
        assert PolicyKind("dolrm").name == "dolrm"
        assert PolicyKind("fixed", (0, 1)).name == "fixed-0-1"
        assert PolicyKind("fixed", (0, 1), label="reverse").name == "reverse"


def explored_dolrm(spec, horizon, feedback, theta):
    """A dolrm policy that played one round per (type, reward, cost) of
    ``feedback`` through its own select and update, then was put back to
    round 1 at ``theta``.

    Forced exploration plays each unpulled arm of a type in index order, so
    the k-th entry of a type lands on its k-th arm.
    """
    policy = DolRmPolicy(spec, horizon)
    for s, reward, cost in feedback:
        policy.update(s, policy.select(s), reward, cost)
    policy.theta = theta
    policy.round = 1
    return policy


class TestDolRmPolicy:
    def exact_estimate_policy(self, theta, type1_feedback=((3.0, 2.0), (1.0, 1.0))):
        # horizon 1 makes the bonus sqrt(log 1 / N) exactly 0, so the
        # bounds sit at the means, clipped to [c_min, r_max] = [1, 3]
        feedback = [(0, 3.0, 1.0)] + [(1, r, c) for r, c in type1_feedback]
        return explored_dolrm(two_type_env(), 1, feedback, theta)

    def test_initializes_at_theta_min(self, p08):
        policy = DolRmPolicy(p08, horizon=100)
        assert policy.theta == derived_bounds(p08).theta_min == 0.5

    def test_high_theta_picks_cheap_arm(self):
        assert self.exact_estimate_policy(2.6).select(1) == 1

    def test_low_theta_picks_rich_arm(self):
        assert self.exact_estimate_policy(1.5).select(1) == 0

    def test_singleton_type(self):
        assert self.exact_estimate_policy(0.5).select(0) == 0

    def test_forced_exploration_order(self, p08):
        policy = DolRmPolicy(p08, horizon=100)
        assert policy.select(1) == 0
        policy.update(1, 0, 3.0, 2.0)
        assert policy.select(1) == 1
        policy.update(1, 1, 1.0, 1.0)
        assert policy.stats.counts[1] == [1, 1]

    def test_nan_scored_arm_does_not_block_exploration(self, p08):
        # arm 0's NaN reward makes its score NaN; the unpulled arm 1 still wins
        policy = DolRmPolicy(p08, horizon=100)
        policy.update(1, 0, math.nan, 1.0)
        assert policy.select(1) == 1

    def test_rejects_negative_type(self, p08):
        with pytest.raises(IndexError):
            DolRmPolicy(p08, horizon=100).select(-1)

    def test_update_writes_its_own_cells_alone(self, p08):
        # horizon 2: the bonus sqrt(log 2) leaves both bounds inside [c_min, r_max]
        first = DolRmPolicy(p08, horizon=2)
        second = DolRmPolicy(p08, horizon=2)
        first.update(1, 1, 2.0, 2.5)
        assert first.reward_ucb[1][1] < 3.0 and first.cost_lcb[1][1] > 1.0
        assert second.reward_ucb == [[math.inf], [math.inf, math.inf]]
        assert second.cost_lcb == [[1.0], [1.0, 1.0]]
        assert p08.means == (((3.0,), (3.0, 1.0)), ((1.0,), (2.0, 1.0)))

    def test_update_uses_pre_record_estimates(self, p08):
        policy = explored_dolrm(p08, 100, [(1, 0.0, 2.0), (1, 2.0, 1.0)], theta=2.0)
        assert policy.stats.counts == [[0], [1, 1]]
        # bonus sqrt(log 100) = 2.146: arm 0 scores 2.146 - 2 * 1, arm 1
        # scores 3 - 2 * 1 with r_hat = min(3, 2 + 2.146) = 3 and
        # c_check = max(1, 1 - 2.146) = 1; round 1, decaying -> eta = 0.5
        assert policy.select(1) == 1
        policy.update(1, 1, reward=3.0, cost=2.0)
        assert policy.theta == 2.0 + 0.5 * (3.0 - 2.0 * 1.0)
        assert policy.stats.mean_rewards[1][1] == 2.5
        assert policy.stats.mean_costs[1][1] == 1.5
        assert policy.stats.counts[1][1] == 2
        assert policy.round == 2

    def test_update_on_unpulled_cell_uses_sentinels(self, p08):
        policy = DolRmPolicy(p08, horizon=100)
        policy.theta = 1.0
        # sentinels r_max=3, c_min=1; round 1 decaying -> eta 0.5
        assert policy.select(0) == 0
        policy.update(0, 0, reward=0.0, cost=0.0)
        assert policy.theta == 1.0 + 0.5 * (3.0 - 1.0 * 1.0)

    def test_update_without_select_steps_with_the_cell_sentinels(self, p08):
        policy = DolRmPolicy(p08, horizon=100)
        policy.theta = 1.0
        # sentinels r_max=3, c_min=1; round 1 decaying -> eta 0.5
        policy.update(1, 1, reward=0.0, cost=0.0)
        assert policy.theta == 1.0 + 0.5 * (3.0 - 1.0 * 1.0)
        assert policy.stats.counts == [[0], [0, 1]]

    @pytest.mark.parametrize(
        "mean_reward,mean_cost", [(3.0, math.inf), (3.0, math.nan), (-math.inf, 1.0), (math.nan, 1.0)]
    )
    def test_no_comparable_score_plays_lowest_arm_with_sentinels(self, mean_reward, mean_cost):
        # every score is -inf or NaN, so none beats -inf: arm 0 is played and
        # theta steps with the sentinels r_max=3, c_min=1; round 1 -> eta 0.5
        policy = self.exact_estimate_policy(1.0, [(mean_reward, mean_cost)] * 2)
        assert policy.select(1) == 0
        policy.update(1, 0, reward=3.0, cost=1.0)
        assert policy.theta == 1.0 + 0.5 * (3.0 - 1.0 * 1.0)

    def test_score_that_overflows_only_as_a_difference_steps_with_sentinels(self):
        # r_hat = -1e308 and theta * c_check = 1e308 are finite, and so is
        # their sum, but the score r_hat - theta * c_check is -inf: theta
        # steps with r_max=3, c_min=1; round 1 decaying -> eta 0.5
        policy = self.exact_estimate_policy(1.0, [(-1e308, 1e308), (1.0, 1.0)])
        assert policy.reward_ucb[1][0] == -1e308 and policy.cost_lcb[1][0] == 1e308
        policy.update(1, 0, reward=3.0, cost=1.0)
        assert policy.theta == 1.0 + 0.5 * (3.0 - 1.0 * 1.0)

    @pytest.mark.parametrize("lr_mode", LEARNING_RATE_MODES)
    @property_run
    @given(
        spec=overflow_specs,
        horizon=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @with_update_examples
    def test_update_matches_estimator_composition(self, lr_mode, spec, horizon, seed):
        policy = DolRmPolicy(spec, horizon, lr_mode)
        reference = PerArmDolRm(spec, horizon, lr_mode)
        bounds = derived_bounds(spec)
        shadow = ArmStatistics.for_spec(spec)
        theta = bounds.theta_min
        rng = np.random.default_rng(seed)
        for t in range(1, horizon + 1):
            s = int(rng.integers(spec.num_types))
            cells = range(spec.num_arms(s))
            r_hats = [ucb_reward(shadow, s, b, horizon, bounds.r_max) for b in cells]
            c_checks = [lcb_cost(shadow, s, b, horizon, bounds.c_min) for b in cells]
            unpulled = [b for b in cells if shadow.counts[s][b] == 0]
            a = policy.select(s)
            assert a == (unpulled[0] if unpulled else greedy_arm(r_hats, c_checks, theta))
            assert a == reference.select(s)
            r_hat, c_check = r_hats[a], c_checks[a]
            if not any(r - theta * c > -math.inf for r, c in zip(r_hats, c_checks)):
                # nothing comparable (overflowed means): theta steps with the sentinels
                r_hat, c_check = bounds.r_max, bounds.c_min
            reward, cost = map(float, sample_feedback(spec, s, a, rng))
            theta = ratio_step(
                theta, learning_rate(lr_mode, bounds.c_min, horizon, t), r_hat, c_check,
                bounds.theta_min, bounds.theta_max,
            )
            shadow.record(s, a, reward, cost)
            policy.update(s, a, reward, cost)
            reference.update(s, a, reward, cost)
            assert policy.theta == reference.theta == theta
            assert_same_cells(policy.stats, shadow)
            assert policy.reward_ucb[s][a] == ucb_reward(shadow, s, a, horizon, bounds.r_max)
            assert policy.cost_lcb[s][a] == lcb_cost(shadow, s, a, horizon, bounds.c_min)
        # every other cell kept its bounds: +inf and c_min if it was never pulled
        types = range(spec.num_types)
        assert policy.reward_ucb == [
            [
                ucb_reward(shadow, s, b, horizon, bounds.r_max) if shadow.counts[s][b] else math.inf
                for b in range(spec.num_arms(s))
            ]
            for s in types
        ]
        assert policy.cost_lcb == [
            [lcb_cost(shadow, s, b, horizon, bounds.c_min) for b in range(spec.num_arms(s))]
            for s in types
        ]


    @pytest.mark.parametrize("lr_mode", LEARNING_RATE_MODES)
    @pytest.mark.parametrize("spec", [two_type_env(), seven_type_env()], ids=["p08", "seven-type"])
    def test_unablated_bonus_gives_dolrm_rows(self, monkeypatch, spec, lr_mode):
        # the ablation control at factors (1, 1) is dolrm, over three blocks
        horizon = 2 * BLOCK + 1
        expected = run_episode(spec, PolicyKind("dolrm"), horizon, 5, lr_mode=lr_mode, stride=1)

        def make_unablated(kind, spec, horizon, lr_mode, seed):
            return BonusAblatedDolRm(spec, horizon, lr_mode, 1.0, 1.0)

        monkeypatch.setattr(dolrm.harness, "make_policy", make_unablated)
        trace = run_episode(spec, PolicyKind("dolrm"), horizon, 5, lr_mode=lr_mode, stride=1)
        assert repr(trace.rows) == repr(expected.rows)


class TestFixedMapPolicy:
    def test_plays_its_map_and_ignores_feedback(self, p08):
        policy = FixedMapPolicy(p08, (0, 1))
        assert policy.theta is None
        assert policy.select(1) == 1
        policy.update(1, 1, 5.0, 5.0)
        assert policy.select(1) == 1

    def test_rejects_invalid_map(self, p08):
        with pytest.raises(ValueError):
            FixedMapPolicy(p08, (0, 5))


class TestUcbBaseline:
    def test_larger_bonus_wins_ties_in_means(self):
        stats = ArmStatistics([2])
        stats.counts[0] = [4, 16]
        stats.mean_rewards[0] = [2.0, 2.0]
        assert ucb_policy(stats, t=100).select(0) == 0

    def test_frozen_bonus_arithmetic(self):
        assert math.sqrt(2.0 * math.log(100.0) / 4) == pytest.approx(
            1.5174271293851465, rel=1e-15
        )
        assert math.sqrt(2.0 * math.log(100.0) / 16) == pytest.approx(
            0.7587135646925732, rel=1e-15
        )

    def test_singleton_type(self):
        stats = ArmStatistics([1])
        stats.counts[0] = [5]
        assert ucb_policy(stats, t=10).select(0) == 0

    def test_unpulled_arm_explored_first(self):
        stats = ArmStatistics([3])
        stats.counts[0] = [2, 0, 1]
        assert ucb_policy(stats, t=4).select(0) == 1

    def test_rejects_bad_round_and_type(self):
        stats = ArmStatistics([1])
        with pytest.raises(IndexError):
            ucb_policy(stats, t=1).select(-1)

    def test_update_records_floored_ratio_signal(self, p08):
        policy = ClassicUcbPolicy(p08)
        assert policy.theta is None
        policy.update(1, 0, reward=3.0, cost=2.0)
        assert policy.stats.mean_rewards[1][0] == 1.5
        assert policy.stats.mean_costs[1][0] == 2.0
        # non-positive sampled cost falls back to the floor denominator
        policy.update(1, 1, reward=1.0, cost=-0.5)
        assert policy.stats.mean_rewards[1][1] == 1.0 / ClassicUcbPolicy.cost_floor
        assert policy.stats.mean_costs[1][1] == -0.5
        # a positive cost above the 1e-6 floor is kept as sampled
        policy.update(0, 0, reward=1.0, cost=2e-6)
        assert policy.stats.mean_rewards[0][0] == 1.0 / 2e-6
        assert policy.round == 4

    @property_run
    @given(
        spec=overflow_specs,
        horizon=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @with_update_examples
    def test_matches_ucb1_reference(self, spec, horizon, seed):
        policy = ClassicUcbPolicy(spec)
        reference = ReferenceUcb1(spec, ClassicUcbPolicy.cost_floor)
        rng = np.random.default_rng(seed)
        for _ in range(horizon):
            s = int(rng.integers(spec.num_types))
            a = policy.select(s)
            assert a == reference.select(s)
            reward, cost = map(float, sample_feedback(spec, s, a, rng))
            policy.update(s, a, reward, cost)
            reference.update(s, a, reward, cost)
            assert policy.round == reference.round
            assert_same_cells(policy.stats, reference.stats)


class TestThompsonSampling:
    def degenerate_stats(self):
        stats = ArmStatistics([2])
        stats.counts[0] = [10**16, 10**16]
        stats.mean_rewards[0] = [3.0, 1.0]
        stats.mean_costs[0] = [2.0, 1.0]
        return stats

    def test_degenerate_posterior_picks_higher_mean_ratio(self):
        rng = StubRng(normals=[0.0, 0.0, 0.0, 0.0])
        assert ts_policy(self.degenerate_stats(), rng).select(0) == 0

    def test_zero_reward_draws_tie_break_to_lowest(self):
        stats = ArmStatistics([2])
        stats.counts[0] = [1, 1]
        stats.mean_costs[0] = [2.0, 1.0]
        rng = StubRng(normals=[0.0, 0.0, 0.0, 0.0])
        assert ts_policy(stats, rng).select(0) == 0

    def test_cost_draw_clipped_below(self):
        stats = ArmStatistics([2])
        stats.counts[0] = [1, 1]
        stats.mean_rewards[0] = [1.0, 0.9]
        stats.mean_costs[0] = [0.5, 1.0]
        # raw cost draw for arm 0 would be 0.5 - 5 = -4.5; the clip to c_min
        # keeps its score positive and winning
        rng = StubRng(normals=[0.0, 0.0, -5.0, 0.0])
        assert ts_policy(stats, rng).select(0) == 0

    def test_no_score_above_minus_inf_plays_arm_zero(self):
        # NaN means (overflowed noise) make every score NaN, and NaN beats nothing
        stats = ArmStatistics([2])
        stats.counts[0] = [1, 1]
        stats.mean_rewards[0] = [math.nan, math.nan]
        stats.mean_costs[0] = [math.nan, math.nan]
        assert ts_policy(stats, StubRng(normals=[0.0, 0.0, 0.0, 0.0])).select(0) == 0

    def test_rejects_negative_type(self, p08):
        # type -1 would otherwise read the last type's counts and explore its arm 0
        with pytest.raises(IndexError, match="negative task type -1"):
            ThompsonSamplingPolicy(p08, np.random.default_rng(0)).select(-1)

    def test_singleton_and_forced_exploration(self):
        single = ArmStatistics([1])
        single.counts[0] = [3]
        assert ts_policy(single, StubRng(normals=[0.0, 0.0])).select(0) == 0
        fresh = ArmStatistics([2])
        fresh.counts[0] = [1, 0]
        assert ts_policy(fresh, StubRng()).select(0) == 1

    def test_draw_order_rewards_then_costs(self):
        stats = ArmStatistics([2])
        stats.counts[0] = [1, 1]
        stats.mean_rewards[0] = [1.0, 1.0]
        stats.mean_costs[0] = [1.0, 1.0]
        # reward draws occupy the first two slots: arm 1 gets +1 reward,
        # cost draws (last two) are zero -> arm 1 scores 2/1 vs 1/1
        rng = StubRng(normals=[0.0, 1.0, 0.0, 0.0])
        assert ts_policy(stats, rng).select(0) == 1

    @property_run
    @given(
        spec=overflow_specs,
        horizon=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @with_update_examples
    def test_update_matches_estimator_record(self, spec, horizon, seed):
        policy = ThompsonSamplingPolicy(spec, stream_rng(seed, POLICY_STREAM))
        shadow = ArmStatistics.for_spec(spec)
        rng = np.random.default_rng(seed)
        for _ in range(horizon):
            s = int(rng.integers(spec.num_types))
            a = policy.select(s)
            reward, cost = map(float, sample_feedback(spec, s, a, rng))
            shadow.record(s, a, reward, cost)
            policy.update(s, a, reward, cost)
            assert_same_cells(policy.stats, shadow)

    def test_policy_records_raw_feedback(self, p08):
        policy = ThompsonSamplingPolicy(p08, np.random.default_rng(0))
        assert policy.theta is None
        policy.update(1, 0, 2.5, 1.5)
        assert policy.stats.mean_rewards[1][0] == 2.5
        assert policy.stats.mean_costs[1][0] == 1.5

    @property_run
    @given(
        spec=wide_specs,
        horizon=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk=st.sampled_from([0, 1, 7, 64, ThompsonSamplingPolicy.chunk]),
    )
    @example(
        spec=EnvironmentSpec((1.0,), (((1.0, 1.0),),), 0.0), horizon=1, seed=0, chunk=0
    ).via("singleton type, horizon 1")
    @example(
        spec=EnvironmentSpec((0.5, 0.5), (((1.0, 1.0),), ((1.0, 0.5),) * 32), 0.0),
        horizon=300,
        seed=1,
        chunk=ThompsonSamplingPolicy.chunk,
    ).via("32 tied arms beside a singleton type, sigma 0")
    def test_chunked_draws_match_per_call_reference(self, spec, horizon, seed, chunk):
        policy = ThompsonSamplingPolicy(spec, stream_rng(seed, POLICY_STREAM))
        policy.chunk = chunk
        reference = PerCallThompsonSampling(spec, stream_rng(seed, POLICY_STREAM))
        rng = np.random.default_rng(seed)
        for _ in range(horizon):
            s = int(rng.integers(spec.num_types))
            a = policy.select(s)
            assert a == reference.select(s)
            r, c = spec.arms[s][a]
            reward = r + spec.noise_sigma * rng.standard_normal()
            cost = c + spec.noise_sigma * rng.standard_normal()
            policy.update(s, a, reward, cost)
            reference.update(s, a, reward, cost)


class TestOracleRm:
    def test_estimates_are_the_specs_shared_table(self, p08):
        policy = OracleRmPolicy(p08, horizon=100)
        assert policy.reward_ucb is p08.means[0]
        assert policy.cost_lcb is p08.means[1]

    def test_select_uses_true_means(self, p08):
        policy = OracleRmPolicy(p08, horizon=100)
        policy.theta = 2.6
        assert policy.select(1) == 1
        policy.theta = 1.5
        assert policy.select(1) == 0

    def test_decisions_match_best_response_at_fixed_theta(self, p08):
        policy = OracleRmPolicy(p08, horizon=100)
        for theta in (0.5, 1.0, 2.0, 2.6, 3.0):
            policy.theta = theta
            expected = best_response(p08, theta)
            assert tuple(policy.select(s) for s in range(2)) == expected

    def test_update_ignores_sampled_feedback(self, p08):
        policy = OracleRmPolicy(p08, horizon=100)
        policy.theta = 2.0
        # at theta 2 both arms of type 1 score -1; the tie goes to arm 0,
        # whose true means (3, 2) drive the step; the wild feedback must not
        assert policy.select(1) == 0
        policy.update(1, 0, reward=999.0, cost=-999.0)
        assert policy.theta == 2.0 + 0.5 * (3.0 - 2.0 * 2.0)
        assert policy.round == 2

    def test_update_without_select_steps_with_the_cell_means(self, p08):
        policy = OracleRmPolicy(p08, horizon=100)
        policy.theta = 1.0
        # arm 1 of type 1 has true means (1, 1); round 1 decaying -> eta 0.5
        policy.update(1, 1, reward=999.0, cost=-999.0)
        assert policy.theta == 1.0 + 0.5 * (1.0 - 1.0 * 1.0)

    def test_overflowing_score_steps_with_the_sentinels(self):
        # theta * 1e10 overflows to inf, so the played arm's score is -inf
        # and theta steps with r_max=1e300, c_min=1e-5, as dolrm's does
        spec = EnvironmentSpec((0.5, 0.5), (((1e300, 1e-5),), ((1.0, 1e10),)), 0.0)
        policy = OracleRmPolicy(spec, horizon=10)
        policy.theta = 1e300
        assert policy.select(1) == 0
        policy.update(1, 0, reward=1.0, cost=1e10)
        eta = 1.0 / (1e-5 * 2)
        assert policy.theta == 1e300 + eta * (1e300 - 1e300 * 1e-5)

    @pytest.mark.parametrize("lr_mode", LEARNING_RATE_MODES)
    @property_run
    @given(
        spec=wide_specs,
        horizon=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @with_update_examples
    def test_matches_ratio_step_on_true_means(self, lr_mode, spec, horizon, seed):
        policy = OracleRmPolicy(spec, horizon, lr_mode)
        bounds = derived_bounds(spec)
        theta = bounds.theta_min
        rng = np.random.default_rng(seed)
        for t in range(1, horizon + 1):
            s = int(rng.integers(spec.num_types))
            rewards = [r for r, _ in spec.arms[s]]
            costs = [c for _, c in spec.arms[s]]
            a = policy.select(s)
            # the lowest index among the maximal scores
            scores = [r - theta * c for r, c in zip(rewards, costs)]
            assert a == scores.index(max(scores))
            theta = ratio_step(
                theta, learning_rate(lr_mode, bounds.c_min, horizon, t), rewards[a], costs[a],
                bounds.theta_min, bounds.theta_max,
            )
            policy.update(s, a, rewards[a] + rng.standard_normal(), costs[a])
            assert policy.theta == theta

    def test_rejects_negative_type(self, p08):
        with pytest.raises(IndexError):
            OracleRmPolicy(p08, horizon=100).select(-1)


@pytest.mark.parametrize("kind", ["dolrm", "ts", "oracle-rm"])
@pytest.mark.parametrize("s, a", [(-1, 0), (1, -1)])
def test_in_place_update_rejects_negative_cell(p08, kind, s, a):
    # Python would read index -1 as the last type or arm and use that cell.
    policy = make_policy(PolicyKind(kind), p08, 100, DEFAULT_LR_MODE, 0)
    policy.select(1)
    with pytest.raises(IndexError, match="negative cell index"):
        policy.update(s, a, 1.0, 1.0)
    if kind != "oracle-rm":
        assert policy.stats.counts == [[0], [0, 0]]
        assert policy.stats.mean_rewards == policy.stats.mean_costs == [[0.0], [0.0, 0.0]]
    if kind != "ts":
        assert (policy.theta, policy.round) == (derived_bounds(p08).theta_min, 1)
    if kind == "dolrm":
        assert policy.reward_ucb == [[math.inf], [math.inf, math.inf]]


@pytest.mark.parametrize("kind", ["dolrm", "oracle-rm", "ucb", "fixed"])
def test_select_writes_nothing(kind):
    # ts is left out: each of its decisions consumes draws of its stream.
    spec = seven_type_env()
    policy_kind = PolicyKind(kind, (0,) * 7) if kind == "fixed" else PolicyKind(kind)
    policy = make_policy(policy_kind, spec, 1000, DEFAULT_LR_MODE, 0)
    rng = np.random.default_rng(1)
    # feedback on each type's arms in turn, so the greedy paths run; and no
    # select before the snapshot, so an attribute that select adds shows
    for t in range(60):
        s = int(rng.integers(spec.num_types))
        a = t % spec.num_arms(s)
        policy.update(s, a, *map(float, sample_feedback(spec, s, a, rng)))

    def state():
        # ArmStatistics compares by identity, so its lists stand in for it
        return {
            name: (v.counts, v.mean_rewards, v.mean_costs) if isinstance(v, ArmStatistics) else v
            for name, v in vars(policy).items()
        }

    before = copy.deepcopy(state())
    for _ in range(3):
        for s in range(spec.num_types):
            policy.select(s)
    assert state() == before


class TestMakePolicy:
    def test_builds_each_kind(self, p08):
        assert isinstance(make_policy(PolicyKind("dolrm"), p08, 10, "decaying", 0), DolRmPolicy)
        assert isinstance(make_policy(PolicyKind("fixed", (0, 0)), p08, 10, "decaying", 0), FixedMapPolicy)
        assert isinstance(make_policy(PolicyKind("ucb"), p08, 10, "decaying", 0), ClassicUcbPolicy)
        assert isinstance(make_policy(PolicyKind("ts"), p08, 10, "decaying", 0), ThompsonSamplingPolicy)
        assert isinstance(make_policy(PolicyKind("oracle-rm"), p08, 10, "decaying", 0), OracleRmPolicy)

    def test_ts_draws_the_policy_stream_of_its_seed(self, p08):
        draws = []
        for seed in (3, 4):
            policy = make_policy(PolicyKind("ts"), p08, 10, "decaying", seed)
            draws.append(policy.rng.standard_normal(8).tolist())
            assert draws[-1] == stream_rng(seed, POLICY_STREAM).standard_normal(8).tolist()
        assert draws[0] != draws[1]

    @pytest.mark.parametrize("kind", ["dolrm", "oracle-rm"])
    def test_unknown_lr_mode_fails_when_built(self, p08, kind):
        with pytest.raises(ValueError, match="'adagrad'"):
            make_policy(PolicyKind(kind), p08, 10, "adagrad", 0)


def test_noiseless_learner_concentrates_on_the_optimal_map():
    # Permanent lock-in never happens: the (3,2) arm's mean reward equals
    # r_max, so its truncated optimistic estimate stays pinned at 3.0 and the
    # bonus keeps scheduling rare re-tries. What does hold is concentration:
    # the suboptimal-pull fraction for the two-arm type vanishes.
    from dolrm.harness import run_episode

    trace = run_episode(two_type_env(sigma=0.0), PolicyKind("dolrm"), 20_000, 3, stride=1)
    pairs = [(t, a) for t, s, a, *_ in trace.rows if s == 1]
    suboptimal = [t for t, a in pairs if a == 0]
    late = [a for t, a in pairs if t > 10_000]
    assert len(suboptimal) / len(pairs) < 0.06
    assert sum(1 for a in late if a == 0) / len(late) < 0.02
    assert pairs[-1][1] == 1
