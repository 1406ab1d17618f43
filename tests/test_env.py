import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from dolrm.env import EnvironmentSpec, derived_bounds, validate_env
from dolrm.harness import run_episode
from dolrm.policies import PolicyKind

from support import Feedback, StubRng, sample_feedback, two_type_env
from test_cli import CLI_ENV


class TestValidation:
    def test_two_type_spec_is_valid(self, p08):
        assert validate_env(p08) is p08

    def test_rejects_non_normalized_probs(self):
        with pytest.raises(ValueError, match=r"arrival_probs sum 1\.1 != 1"):
            EnvironmentSpec((0.5, 0.6), (((1.0, 1.0),), ((1.0, 1.0),)))

    def test_rejects_zero_mean_cost(self):
        with pytest.raises(ValueError, match=r"arms\[0\]\[0\].*mean_cost must be positive"):
            EnvironmentSpec((1.0,), (((2.0, 0.0),),))

    def test_rejects_negative_mean_cost_at_named_cell(self):
        with pytest.raises(ValueError, match=r"arms\[1\]\[1\]"):
            EnvironmentSpec((0.5, 0.5), (((1.0, 1.0),), ((1.0, 1.0), (1.0, -2.0))))

    def test_rejects_empty_prob_vector(self):
        with pytest.raises(ValueError, match="non-empty"):
            EnvironmentSpec((), ())

    def test_rejects_arm_list_length_mismatch(self):
        with pytest.raises(ValueError, match="arms has 1 entries"):
            EnvironmentSpec((0.5, 0.5), (((1.0, 1.0),),))

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match=r"arrival_probs\[1\]"):
            EnvironmentSpec((1.2, -0.2), (((1.0, 1.0),), ((1.0, 1.0),)))

    def test_rejects_type_with_no_arms(self):
        with pytest.raises(ValueError, match=r"arms\[1\] must contain at least one arm"):
            EnvironmentSpec((0.5, 0.5), (((1.0, 1.0),), ()))

    def test_rejects_negative_noise_sigma(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            EnvironmentSpec((1.0,), (((1.0, 1.0),),), noise_sigma=-0.5)

    def test_rejects_negative_mean_reward_at_named_cell(self):
        # theta_min = -6 / 4 would exceed theta_max = -4 / 0.5 here, and the
        # learner's theta would sit at theta_min for the whole run
        with pytest.raises(ValueError, match=r"arms\[0\]\[0\]: mean_reward must be finite and >= 0"):
            EnvironmentSpec((0.5, 0.5), (((-4, 0.5), (-6, 4)), ((-4, 4),)), 0)

    @pytest.mark.parametrize("reward", [0.0, 1.0])
    def test_rejects_mean_cost_whose_reciprocal_overflows(self, reward):
        # 1 / 1e-320 is inf: the learner's step size would be inf and theta
        # NaN (reward 0), or theta_max inf and the oracle unbounded (reward 1)
        with pytest.raises(ValueError, match=r"arms\[0\]\[1\]: mean_cost 1e-320 is too small"):
            EnvironmentSpec((1.0,), (((reward, 1.0), (reward, 1e-320)),), 0)

    def test_accepts_small_mean_cost_with_finite_bounds(self):
        spec = EnvironmentSpec((1.0,), (((1.0, 1e-300), (1.0, 1.0)),), 0)
        assert validate_env(spec) is spec


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
        for _, s, a, r, c, *_ in trace.rows:
            assert (r, c) == p08_noiseless.arms[s][a]

    def test_empirical_means(self):
        n = 1_000_000
        spec = EnvironmentSpec((1.0,), (((3.0, 2.0),),), 1.0)
        trace = run_episode(spec, PolicyKind("fixed", (0,)), n, 11)
        *_, cum_r, cum_c, _, _ = trace.rows[-1]
        assert abs(cum_r / n - 3.0) < 5e-3
        assert abs(cum_c / n - 2.0) < 5e-3


def test_spec_canonicalizes_numeric_types():
    # ints and numpy's real scalars are stored as floats, in every field
    spec = EnvironmentSpec((np.float32(0.5), 0.5), (((2, np.int64(1)),), ((np.float32(1.5), 1),)), 1)
    numbers = [*spec.arrival_probs, *(x for arms_s in spec.arms for pair in arms_s for x in pair), spec.noise_sigma]
    assert [type(x) for x in numbers] == [float] * 7
    assert spec == EnvironmentSpec((0.5, 0.5), (((2.0, 1.0),), ((1.5, 1.0),)), 1.0)
    assert spec.num_types == 2
    assert spec.num_arms(1) == 1


# Each place a spec holds a number, built with ``x`` there, and the index
# path that its error names
NUMBER_PLACES = [
    (lambda x: EnvironmentSpec((x,), (((1.0, 1.0),),)), "arrival_probs[0]"),
    (lambda x: EnvironmentSpec((0.5, 0.5), (((1.0, 1.0),), ((1.0, 1.0), (x, 1.0)))), "arms[1][1][0]"),
    (lambda x: EnvironmentSpec((1.0,), (((1.0, x),),)), "arms[0][0][1]"),
    (lambda x: EnvironmentSpec((1.0,), (((1.0, 1.0),),), x), "noise_sigma"),
]
# float() takes all four, and a bool is an int to Python
NOT_NUMBERS = [True, np.bool_(False), "1.0", b"1"]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=["bool", "numpy-bool", "str", "bytes"])
@pytest.mark.parametrize("build, path", NUMBER_PLACES, ids=[path for _, path in NUMBER_PLACES])
def test_spec_rejects_what_is_not_a_number(build, path, value):
    with pytest.raises(ValueError) as err:
        build(value)
    assert str(err.value) == f"{path}: expected a number, got {type(value).__name__}"


def test_bounds_are_finite_numbers(p08):
    b = derived_bounds(p08)
    assert math.isfinite(b.theta_min) and math.isfinite(b.theta_max)
    assert b.theta_min <= b.theta_max


def test_cached_derivations_leave_equality_and_hash_alone(p08):
    other = two_type_env()
    assert p08.bounds == derived_bounds(p08)
    # tuples all the way down: no reader can write to the shared table
    assert p08.means == (((3.0,), (3.0, 1.0)), ((1.0,), (2.0, 1.0)))
    # one spec with its derivations cached, one without
    for name in ("means", "bounds"):
        assert name in vars(p08) and name in vars(other)
        del vars(other)[name]
    assert p08 == other and hash(p08) == hash(other)
    assert [f.name for f in dataclasses.fields(p08)] == ["arrival_probs", "arms", "noise_sigma"]


def test_model_modules_import_without_numpy():
    # numpy is for the seeded draws and the summary statistics only; the
    # model, the policies, the oracle and config parsing load without it
    code = (
        "import sys\n"
        "import dolrm.env, dolrm.policies, dolrm.oracle, dolrm.config\n"
        "spec = dolrm.env.EnvironmentSpec((0.5, 0.5), (((1.0, 1.0),), ((2.0, 1.0),)))\n"
        "spec.means, spec.bounds\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)[:5]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=CLI_ENV
    )
    assert proc.returncode == 0, proc.stderr
