import math

import numpy as np
import pytest

from dolrm.env import EnvironmentSpec, derived_bounds, sample_tasks, validate_env
from dolrm.harness import run_episode
from dolrm.policies import PolicyKind

from support import Feedback, StubRng, sample_feedback, sample_task, two_type_env


class TestValidation:
    def test_two_type_spec_is_valid(self, p08):
        assert validate_env(p08) is p08

    def test_rejects_non_normalized_probs(self):
        spec = EnvironmentSpec((0.5, 0.6), (((1.0, 1.0),), ((1.0, 1.0),)))
        with pytest.raises(ValueError, match=r"arrival_probs sum 1\.1 != 1"):
            validate_env(spec)

    def test_rejects_zero_mean_cost(self):
        spec = EnvironmentSpec((1.0,), (((2.0, 0.0),),))
        with pytest.raises(ValueError, match=r"arms\[0\]\[0\].*mean_cost must be positive"):
            validate_env(spec)

    def test_rejects_negative_mean_cost_at_named_cell(self):
        spec = EnvironmentSpec((0.5, 0.5), (((1.0, 1.0),), ((1.0, 1.0), (1.0, -2.0))))
        with pytest.raises(ValueError, match=r"arms\[1\]\[1\]"):
            validate_env(spec)

    def test_rejects_empty_prob_vector(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_env(EnvironmentSpec((), ()))

    def test_rejects_arm_list_length_mismatch(self):
        spec = EnvironmentSpec((0.5, 0.5), (((1.0, 1.0),),))
        with pytest.raises(ValueError, match="arms has 1 entries"):
            validate_env(spec)

    def test_rejects_negative_probability(self):
        spec = EnvironmentSpec((1.2, -0.2), (((1.0, 1.0),), ((1.0, 1.0),)))
        with pytest.raises(ValueError, match=r"arrival_probs\[1\]"):
            validate_env(spec)

    def test_rejects_type_with_no_arms(self):
        spec = EnvironmentSpec((0.5, 0.5), (((1.0, 1.0),), ()))
        with pytest.raises(ValueError, match=r"arms\[1\] must contain at least one arm"):
            validate_env(spec)

    def test_rejects_negative_noise_sigma(self):
        spec = EnvironmentSpec((1.0,), (((1.0, 1.0),),), noise_sigma=-0.5)
        with pytest.raises(ValueError, match="noise_sigma"):
            validate_env(spec)

    def test_rejects_negative_mean_reward_at_named_cell(self):
        # theta_min = -6 / 4 would exceed theta_max = -4 / 0.5 here, and the
        # learner's theta would sit at theta_min for the whole run
        spec = EnvironmentSpec((0.5, 0.5), (((-4, 0.5), (-6, 4)), ((-4, 4),)), 0)
        with pytest.raises(ValueError, match=r"arms\[0\]\[0\]: mean_reward must be finite and >= 0"):
            validate_env(spec)


class TestDerivedBounds:
    def test_two_type_extremes(self, p08):
        b = derived_bounds(p08)
        assert (b.r_min, b.r_max, b.c_min, b.c_max) == (1.0, 3.0, 1.0, 2.0)
        assert b.theta_min == 0.5
        assert b.theta_max == 3.0

    def test_single_arm_degenerate_interval(self):
        b = derived_bounds(EnvironmentSpec((1.0,), (((5.0, 5.0),),)))
        assert b.theta_min == b.theta_max == 1.0

    def test_two_arm_single_type(self):
        b = derived_bounds(EnvironmentSpec((1.0,), (((2.0, 1.0), (4.0, 2.0)),)))
        assert b.theta_min == 1.0
        assert b.theta_max == 4.0


class TestArrivalSampling:
    def test_inverse_cdf_convention(self, p08):
        assert sample_task(p08, StubRng(uniforms=[0.50])) == 0
        assert sample_task(p08, StubRng(uniforms=[0.95])) == 1

    def test_draw_equal_to_cumulative_goes_right(self, p08):
        # the convention is "first cumulative strictly exceeding the draw"
        assert sample_task(p08, StubRng(uniforms=[0.8])) == 1

    def test_point_mass(self):
        spec = EnvironmentSpec((1.0,), (((1.0, 1.0),),))
        assert sample_task(spec, StubRng(uniforms=[0.0])) == 0
        assert sample_task(spec, StubRng(uniforms=[0.999])) == 0

    def test_rounding_shortfall_falls_back_to_last_type(self):
        third = 1.0 / 3.0
        spec = EnvironmentSpec(
            (third, third, third),
            (((1.0, 1.0),), ((1.0, 1.0),), ((1.0, 1.0),)),
        )
        # cumulative float sum tops out just below 1; a draw above it must
        # still land on a valid index
        assert sample_task(spec, StubRng(uniforms=[0.9999999999999999])) == 2
        assert sample_tasks(spec, 1, StubRng(uniforms=[0.9999999999999999])).tolist() == [2]

    def test_rounding_shortfall_skips_zero_probability_types(self):
        # valid (the sum is within 1e-12 of 1), and the cumulative tops out
        # at 1 - 1e-13: a draw above it must not land on the type that
        # never arrives
        spec = validate_env(
            EnvironmentSpec((0.5, 0.5 - 1e-13, 0.0), (((1.0, 1.0),),) * 3)
        )
        u = 0.99999999999999
        assert sample_tasks(spec, 3, StubRng(uniforms=[u] * 3)).tolist() == [1, 1, 1]
        assert sample_task(spec, StubRng(uniforms=[u])) == 1

    def test_batch_matches_scalar_draws(self, p08):
        n = 200
        batch = sample_tasks(p08, n, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        scalar = [sample_task(p08, rng) for _ in range(n)]
        assert batch.tolist() == scalar

    def test_empirical_frequencies(self, p08):
        n = 1_000_000
        draws = sample_tasks(p08, n, np.random.default_rng(7))
        freq0 = float(np.mean(draws == 0))
        assert abs(freq0 - 0.8) < 2e-3
        assert abs((1.0 - freq0) - 0.2) < 2e-3


class TestFeedbackSampling:
    def test_noiseless_returns_exact_means(self, p08_noiseless):
        assert sample_feedback(p08_noiseless, 1, 0, StubRng()) == Feedback(3.0, 2.0)
        assert sample_feedback(p08_noiseless, 0, 0, StubRng()) == Feedback(3.0, 1.0)

    def test_noiseless_consumes_no_randomness(self, p08_noiseless):
        rng = StubRng()  # any draw attempt would fail the test
        for _ in range(5):
            sample_feedback(p08_noiseless, 1, 1, rng)

    def test_noise_is_additive_and_unclipped(self, p08):
        fb = sample_feedback(p08, 0, 0, StubRng(normals=[0.5, -2.5]))
        assert fb.reward == 3.5
        assert fb.cost == 1.0 - 2.5

    def test_sigma_scales_noise(self):
        spec = two_type_env(sigma=2.0)
        fb = sample_feedback(spec, 1, 1, StubRng(normals=[1.0, -1.0]))
        assert fb.reward == 1.0 + 2.0
        assert fb.cost == 1.0 - 2.0

    def test_reward_noise_drawn_before_cost_noise(self, p08):
        fb = sample_feedback(p08, 0, 0, StubRng(normals=[0.25, 0.75]))
        assert fb == Feedback(3.25, 1.75)

    def test_out_of_range_indices(self, p08):
        with pytest.raises(IndexError, match="task type 5"):
            sample_feedback(p08, 5, 0, StubRng())
        with pytest.raises(IndexError, match="arm 7"):
            sample_feedback(p08, 1, 7, StubRng())

    def test_noiseless_batch(self, p08_noiseless):
        # sigma = 0: the episode's feedback is the exact arm means every round
        trace = run_episode(p08_noiseless, PolicyKind("fixed", (0, 1)), 8, 0, stride=1)
        for s, a, r, c in zip(trace.task_types, trace.arms, trace.rewards, trace.costs):
            assert (r, c) == p08_noiseless.arms[s][a]

    def test_empirical_means(self):
        n = 1_000_000
        spec = EnvironmentSpec((1.0,), (((3.0, 2.0),),), 1.0)
        trace = run_episode(spec, PolicyKind("fixed", (0,)), n, 11)
        assert abs(trace.cum_rewards[-1] / n - 3.0) < 5e-3
        assert abs(trace.cum_costs[-1] / n - 2.0) < 5e-3


def test_spec_canonicalizes_numeric_types():
    spec = EnvironmentSpec((1,), (((2, 1),),))
    assert spec.arrival_probs == (1.0,)
    assert spec.arms == (((2.0, 1.0),),)
    assert isinstance(spec.arms[0][0][0], float)
    assert spec.num_types == 1
    assert spec.num_arms(0) == 1


def test_bounds_are_finite_numbers(p08):
    b = derived_bounds(p08)
    assert math.isfinite(b.theta_min) and math.isfinite(b.theta_max)
    assert b.theta_min <= b.theta_max
