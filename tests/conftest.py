from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dolrm.env import EnvironmentSpec

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

TWO_TYPE_ARMS = (((3.0, 1.0),), ((3.0, 2.0), (1.0, 1.0)))


def two_type_env(p0: float = 0.8, sigma: float = 1.0) -> EnvironmentSpec:
    return EnvironmentSpec((p0, 1.0 - p0), TWO_TYPE_ARMS, sigma)


def seven_type_env(sigma: float = 1.0) -> EnvironmentSpec:
    return EnvironmentSpec(
        (0.3, 0.1, 0.2, 0.1, 0.05, 0.1, 0.15),
        (
            ((3.0, 1.0),),
            ((3.0, 2.0), (1.0, 1.0)),
            ((2.0, 1.0),),
            ((2.5, 1.5),),
            ((2.0, 1.0), (1.0, 1.0)),
            ((3.0, 2.0), (1.5, 1.5)),
            ((2.5, 1.0),),
        ),
        sigma,
    )


class Feedback(NamedTuple):
    """One round of bandit feedback for the chosen arm."""

    reward: float
    cost: float


def sample_task(spec: EnvironmentSpec, rng) -> int:
    """Scalar reference for dolrm.env.sample_tasks: one task type by inverse CDF.

    Returns the first index whose cumulative probability strictly exceeds a
    single uniform draw.
    """
    u = rng.random()
    acc = 0.0
    for s, p in enumerate(spec.arrival_probs):
        acc += p
        if acc > u:
            return s
    # accumulated rounding can leave the last cumulative at 1 - ulp
    return spec.num_types - 1


def sample_feedback(spec: EnvironmentSpec, s: int, a: int, rng) -> Feedback:
    """Scalar reference for run_episode's bulk noise pre-draw.

    Consumes exactly two standard normals per call (reward noise first, then
    cost noise) so the stream position depends only on the number of calls;
    sigma = 0 returns the exact means and consumes no randomness.
    """
    if not 0 <= s < spec.num_types:
        raise IndexError(f"task type {s} out of range for {spec.num_types} types")
    arms_s = spec.arms[s]
    if not 0 <= a < len(arms_s):
        raise IndexError(f"arm {a} out of range for type {s} with {len(arms_s)} arms")
    r, c = arms_s[a]
    sigma = spec.noise_sigma
    if sigma == 0.0:
        return Feedback(r, c)
    g = rng.standard_normal(2)
    return Feedback(r + sigma * g[0], c + sigma * g[1])


class StubRng:
    """Deterministic stand-in for a Generator, fed from queued values.

    random() pops one float; standard_normal(n) pops n floats and returns
    them as an array. Running out of queued values fails the test.
    """

    def __init__(self, uniforms=(), normals=()):
        self._uniforms = list(uniforms)
        self._normals = list(normals)

    def random(self):
        assert self._uniforms, "stub rng ran out of uniform draws"
        return self._uniforms.pop(0)

    def standard_normal(self, n=None):
        if n is None:
            assert self._normals, "stub rng ran out of normal draws"
            return self._normals.pop(0)
        assert len(self._normals) >= n, "stub rng ran out of normal draws"
        out = np.array(self._normals[:n])
        del self._normals[:n]
        return out


@pytest.fixture
def p08():
    return two_type_env()


@pytest.fixture
def p08_noiseless():
    return two_type_env(sigma=0.0)
