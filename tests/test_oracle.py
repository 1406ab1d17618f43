import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import dolrm.oracle
from dolrm.env import EnvironmentSpec, derived_bounds, validate_env
from dolrm.oracle import best_response, dinkelbach_theta_star, expected_ratio

from support import brute_force_theta_star, cell_gaps, seven_type_env, two_type_env

GREEDY = (0, 0)
REVERSE = (0, 1)


def random_spec(rng):
    num_types = int(rng.integers(1, 6))
    probs = rng.random(num_types) + 0.05
    probs = probs / probs.sum()
    arms = tuple(
        tuple(
            (float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 5.0)))
            for _ in range(int(rng.integers(1, 5)))
        )
        for _ in range(num_types)
    )
    return validate_env(EnvironmentSpec(tuple(float(p) for p in probs), arms, 0.0))


def all_maps(spec):
    return list(itertools.product(*(range(len(arms_s)) for arms_s in spec.arms)))


def replayed_iterates(spec, result):
    """theta_min and the result.iterations iterates that follow it."""
    thetas = [derived_bounds(spec).theta_min]
    for _ in range(result.iterations):
        thetas.append(expected_ratio(spec, best_response(spec, thetas[-1])))
    return thetas


class TestExpectedRatio:
    def test_greedy_map(self, p08):
        assert expected_ratio(p08, GREEDY) == pytest.approx(2.5, abs=1e-12)

    def test_reverse_map(self, p08):
        assert expected_ratio(p08, REVERSE) == pytest.approx(2.6, abs=1e-12)

    def test_flipped_distribution(self):
        spec = two_type_env(p0=0.2)
        assert expected_ratio(spec, GREEDY) == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert expected_ratio(spec, REVERSE) == pytest.approx(1.4, abs=1e-12)


class TestBestResponse:
    def test_low_price_prefers_rich_arm(self, p08):
        assert best_response(p08, 0.5) == (0, 0)

    def test_high_price_prefers_cheap_arm(self, p08):
        assert best_response(p08, 2.5) == (0, 1)

    def test_singleton_types_are_forced(self):
        spec = EnvironmentSpec((0.5, 0.5), (((2.0, 1.0),), ((4.0, 2.0),)))
        assert best_response(spec, 123.0) == (0, 0)


class TestDinkelbach:
    def test_two_type_iteration_trace(self, p08):
        result = dinkelbach_theta_star(p08)
        assert result.theta_star == pytest.approx(2.6, abs=1e-12)
        assert result.policy.actions == (0, 1)
        assert result.iterations == 3
        iterates = replayed_iterates(p08, result)
        for got, want in zip(iterates, (0.5, 2.5, 2.6, 2.6), strict=True):
            assert got == pytest.approx(want, abs=1e-12)
        assert iterates[-1] == result.theta_star

    def test_raises_when_the_update_budget_runs_out(self, p08, monkeypatch):
        # p08 converges on its third update
        monkeypatch.setattr(dolrm.oracle, "DINKELBACH_MAX_ITER", 2)
        with pytest.raises(RuntimeError, match=r"^ratio iteration did not converge within 2 updates$"):
            dinkelbach_theta_star(p08)

    def test_flipped_distribution_prefers_greedy(self):
        result = dinkelbach_theta_star(two_type_env(p0=0.2))
        assert result.theta_star == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert result.policy.actions == (0, 0)

    def test_seven_type_agrees_with_enumeration(self):
        spec = seven_type_env()
        dk = dinkelbach_theta_star(spec)
        bf = brute_force_theta_star(spec)
        assert dk.theta_star == pytest.approx(bf.theta_star, abs=1e-9)
        assert dk.theta_star == pytest.approx(float(Fraction(97, 46)), abs=1e-12)
        assert dk.policy.actions == (0, 1, 0, 0, 0, 0, 0)

    def test_fixed_point_property(self, p08):
        result = dinkelbach_theta_star(p08)
        assert expected_ratio(p08, result.policy.actions) == pytest.approx(
            result.theta_star, abs=1e-12
        )

    def test_result_within_ratio_bounds(self, p08):
        rng = np.random.default_rng(31)
        for spec in [p08] + [random_spec(rng) for _ in range(50)]:
            b = derived_bounds(spec)
            theta = dinkelbach_theta_star(spec).theta_star
            assert b.theta_min <= theta <= b.theta_max


class TestBruteForce:
    def test_two_type_maximum(self, p08):
        result = brute_force_theta_star(p08)
        assert result.theta_star == pytest.approx(2.6, abs=1e-12)
        assert result.policy.actions == (0, 1)
        assert result.iterations == 2

    def test_single_cell(self):
        spec = EnvironmentSpec((1.0,), (((5.0, 2.0),),))
        assert brute_force_theta_star(spec).theta_star == 2.5

    def test_flipped_distribution(self):
        result = brute_force_theta_star(two_type_env(p0=0.2))
        assert result.theta_star == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_enumeration_guard(self):
        # 8**7 = 2 097 152 maps exceed MAX_ENUMERATION; the guard raises before enumerating.
        arms = tuple((float(a + 1), 1.0) for a in range(8))
        spec = EnvironmentSpec((1 / 7,) * 7, (arms,) * 7)
        with pytest.raises(ValueError, match="2097152 policy maps exceed the enumeration guard"):
            brute_force_theta_star(spec)


class TestRandomSpecAgreement:
    def test_dinkelbach_matches_enumeration_on_200_specs(self):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(200):
            spec = random_spec(rng)
            dk = dinkelbach_theta_star(spec)
            bf = brute_force_theta_star(spec)
            assert dk.theta_star == pytest.approx(bf.theta_star, abs=1e-9)
            assert expected_ratio(spec, dk.policy.actions) == pytest.approx(
                expected_ratio(spec, bf.policy.actions), abs=1e-9
            )
        assert time.perf_counter() - start < 5.0

    def test_iterates_climb_and_terminate_quickly(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            spec = random_spec(rng)
            result = dinkelbach_theta_star(spec)
            trace = replayed_iterates(spec, result)
            assert trace[-1] == result.theta_star
            assert all(b >= a - 1e-15 for a, b in zip(trace, trace[1:]))
            improvements = sum(1 for a, b in zip(trace, trace[1:]) if b > a + 1e-15)
            assert improvements <= math.prod(len(arms_s) for arms_s in spec.arms)

    def test_optimum_dominates_every_map(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            spec = random_spec(rng)
            theta_star = dinkelbach_theta_star(spec).theta_star
            for actions in all_maps(spec):
                assert theta_star >= expected_ratio(spec, actions) - 1e-12

    def test_reward_scaling_covariance(self):
        rng = np.random.default_rng(7)
        kappa = 2.5
        for _ in range(50):
            spec = random_spec(rng)
            scaled = EnvironmentSpec(
                spec.arrival_probs,
                tuple(
                    tuple((kappa * r, c) for r, c in arms_s) for arms_s in spec.arms
                ),
                0.0,
            )
            base = dinkelbach_theta_star(spec)
            lifted = dinkelbach_theta_star(scaled)
            assert lifted.theta_star == pytest.approx(kappa * base.theta_star, rel=1e-9)
            assert lifted.policy.actions == base.policy.actions


class TestCellGaps:
    def test_two_type_gaps(self, p08):
        # at theta* = 2.6 type 1's arm 0 scores 3 - 5.2, arm 1 scores 1 - 2.6
        theta_star = dinkelbach_theta_star(p08).theta_star
        assert cell_gaps(p08, theta_star) == [[0.0], [pytest.approx(0.6, abs=1e-12), 0.0]]

    def test_gaps_vanish_on_best_responses_on_200_specs(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            spec = random_spec(rng)
            result = dinkelbach_theta_star(spec)
            for theta in (result.theta_star, float(rng.uniform(0.0, 10.0))):
                gaps = cell_gaps(spec, theta)
                assert all(d >= 0.0 for gaps_s in gaps for d in gaps_s)
                assert all(min(gaps_s) == 0.0 for gaps_s in gaps)
                actions = best_response(spec, theta)
                assert [gaps_s[a] for gaps_s, a in zip(gaps, actions)] == [0.0] * spec.num_types
            gaps = cell_gaps(spec, result.theta_star)
            assert [gaps_s[a] for gaps_s, a in zip(gaps, result.policy.actions)] == [0.0] * spec.num_types
