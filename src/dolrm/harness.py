"""One seeded episode: its three random streams, its policy, the decision loop and its trace.

Each episode draws from three streams labeled by (seed, stream): task
arrivals (``sample_tasks``), feedback noise (``feedback_noise``) and the
policy's own draws, which ``make_policy`` hands to ts alone when it builds
the episode's policy. All three are derived here, so a config and a seed fix
an episode; the seed sequence of each (seed, stream) label is memoized, and
each episode still gets fresh generators built from it. An episode runs
``BLOCK`` rounds at a time, each block with its own arrival and noise
draws, so at the default stride nothing it holds grows with the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .env import EnvironmentSpec
from .policies import (DEFAULT_LR_MODE, ClassicUcbPolicy, DolRmPolicy, FixedMapPolicy,
                       OracleRmPolicy, PolicyKind, ThompsonSamplingPolicy)

# Stream labels for the per-episode RNG split. Keeping arrival, feedback and
# policy randomness on separate streams means two policies compared under the
# same seed face the identical arrival sequence and noise realizations, no
# matter how much randomness either policy consumes.
ARRIVAL_STREAM = 0
FEEDBACK_STREAM = 1
POLICY_STREAM = 2

# Rounds per block: an episode holds one block of arrivals and noise as
# Python ints and floats, however long its horizon.
BLOCK = 4096


@lru_cache(maxsize=4096)
def _seed_sequence(seed: int, stream: int) -> np.random.SeedSequence:
    # Hashing the entropy is about half of a generator's set-up, and an
    # experiment asks for each label once per (policy, horizon). Building a
    # generator reads a SeedSequence and never advances it, so sharing one
    # is safe; only ``spawn`` would advance it, and nothing here spawns.
    return np.random.SeedSequence((seed, stream))


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one labeled stream of one episode.

    Every call returns a new generator at the start of its stream.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, stream)))


def sample_tasks(spec: EnvironmentSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n task types by inverse CDF, one uniform per type in stream order.

    Each type is the first index whose cumulative probability strictly
    exceeds its uniform draw, which makes arrival sequences reproducible
    across implementations sharing the uniform stream.
    """
    return _cdf_array(spec.arrival_probs).searchsorted(rng.random(n), side="right")


@lru_cache(maxsize=64)
def _cdf_array(probs: tuple[float, ...]) -> np.ndarray:
    """The left-to-right running sums of ``probs``, +inf from the last arriving type on.

    Accumulated rounding can leave the last positive-probability type's sum
    below 1; the +inf sends every draw above the sums before it to that
    type, with no clamp. Built once per distinct probability vector and
    read-only, so specs with equal vectors share it.
    """
    cdf = np.cumsum(probs)
    last = max(s for s, p in enumerate(probs) if p > 0.0)
    cdf[last:] = math.inf
    cdf.flags.writeable = False
    return cdf


def feedback_noise(rng: np.random.Generator, sigma: float, n: int) -> np.ndarray:
    """The next n rounds' reward and cost noise, interleaved, as 2n floats.

    Successive calls continue one ``standard_normal`` stream, so the blocks
    of an episode are one bulk ``standard_normal((horizon, 2)) * sigma``
    draw, row by row. A product that overflows is +-inf, with no warning.
    At sigma 0 every value is -0.0 and nothing is drawn.
    """
    if sigma == 0.0:
        return np.full(2 * n, -0.0)
    with np.errstate(over="ignore"):
        return rng.standard_normal(2 * n) * sigma


def make_policy(kind: PolicyKind, spec: EnvironmentSpec, horizon: int, lr_mode: str, seed: int):
    """Instantiate the policy described by ``kind`` for one episode of ``seed``.

    Only ``ts`` draws randomness, from the episode's policy stream.
    """
    if kind.kind == "dolrm":
        return DolRmPolicy(spec, horizon, lr_mode)
    if kind.kind == "fixed":
        return FixedMapPolicy(spec, kind.actions)
    if kind.kind == "ucb":
        return ClassicUcbPolicy(spec)
    if kind.kind == "ts":
        return ThompsonSamplingPolicy(spec, stream_rng(seed, POLICY_STREAM))
    return OracleRmPolicy(spec, horizon, lr_mode)


def default_stride(horizon: int) -> int:
    """Default logging stride: every round below horizon 2000, else 1000 to 1500 rows."""
    return max(1, horizon // 1000)


@dataclass
class EpisodeTrace:
    """Row-wise log of one episode.

    Each row is ``(t, type, arm, reward, cost, cum_reward, cum_cost, ratio,
    theta)`` for one logged round, the trace CSV's columns after run_id and
    policy. Rows are kept every ``stride`` rounds and always for the final
    round. ``theta`` is None for policies without a ratio iterate.
    """

    policy: str
    seed: int
    horizon: int
    rows: list[tuple[int, int, int, float, float, float, float, float, Optional[float]]]

    @property
    def rounds(self) -> list[int]:
        return [row[0] for row in self.rows]

    @property
    def final_ratio(self) -> float:
        """The episode's final cumulative reward-to-cost ratio."""
        return self.rows[-1][7]


def run_episode(
    spec: EnvironmentSpec,
    kind: PolicyKind,
    horizon: int,
    seed: int,
    *,
    lr_mode: str = DEFAULT_LR_MODE,
    stride: Optional[int] = None,
) -> EpisodeTrace:
    """Run one seeded episode of ``horizon`` rounds and return its trace.

    Each round: a task type arrives, the policy picks an arm, the
    environment returns noisy feedback, the policy updates. Arrival draws,
    feedback noise and policy randomness come from separate streams derived
    from (seed, stream label), so identical (config, seed) pairs reproduce
    identical traces.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 (got {horizon})")
    if stride is None:
        stride = default_stride(horizon)
    elif stride < 1:
        raise ValueError(f"stride must be >= 1 (got {stride})")

    policy = make_policy(kind, spec, horizon, lr_mode, seed)
    select = policy.select
    update = policy.update
    arrivals = stream_rng(seed, ARRIVAL_STREAM)
    feedback = stream_rng(seed, FEEDBACK_STREAM)
    sigma = spec.noise_sigma
    arms = spec.arms

    rows = []
    cum_r = 0.0
    cum_c = 0.0
    next_row = min(stride, horizon)
    for start in range(0, horizon, BLOCK):
        n = min(BLOCK, horizon - start)
        tasks = sample_tasks(spec, n, arrivals).tolist()
        # Two normals per round, reward noise first: zip pulls noise_r, then
        # noise_c, from the one iterator. Scaling by sigma in numpy gives the
        # same IEEE products as scaling each Python float. At sigma 0 every
        # addend is -0.0, the one value that leaves each mean, -0.0 included,
        # unchanged.
        noise = iter(feedback_noise(feedback, sigma, n).tolist())
        for t, s, noise_r, noise_c in zip(range(start + 1, start + n + 1), tasks, noise, noise):
            a = select(s)
            r, c = arms[s][a]
            r += noise_r
            c += noise_c
            update(s, a, r, c)
            cum_r += r
            cum_c += c
            if t == next_row:
                # an add and a compare: min() is a builtin call per logged row
                next_row = t + stride
                if next_row > horizon:
                    next_row = horizon
                try:
                    ratio = cum_r / cum_c
                except ZeroDivisionError:  # a cumulative cost of exactly 0 has no ratio
                    ratio = math.nan
                rows.append((t, s, a, r, c, cum_r, cum_c, ratio, policy.theta))

    return EpisodeTrace(kind.name, seed, horizon, rows)
