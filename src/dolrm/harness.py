"""One seeded episode: its three random streams, the decision loop and its trace.

Each episode draws from three streams labeled by (seed, stream): task
arrivals (``sample_tasks``), feedback noise (``feedback_noise``) and the
policy's own draws. All three are derived here, so a config and a seed fix
an episode.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Optional

import numpy as np

from .env import EnvironmentSpec
from .policies import DEFAULT_LR_MODE, PolicyKind, make_policy

# Stream labels for the per-episode RNG split. Keeping arrival, feedback and
# policy randomness on separate streams means two policies compared under the
# same seed face the identical arrival sequence and noise realizations, no
# matter how much randomness either policy consumes.
ARRIVAL_STREAM = 0
FEEDBACK_STREAM = 1
POLICY_STREAM = 2

# Rounds of arrivals and feedback noise held as Python objects at a time. An
# episode keeps its arrivals as one int64 array (8 B per round) plus one
# block of Python ints and floats, however long its horizon.
BLOCK = 4096


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one labeled stream of one episode."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def sample_tasks(spec: EnvironmentSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n task types by inverse CDF, one uniform per type in stream order.

    Each type is the first index whose cumulative probability strictly
    exceeds its uniform draw, which makes arrival sequences reproducible
    across implementations sharing the uniform stream. Accumulated rounding
    can leave the last cumulative below 1, so draws above it map to the
    last type with positive probability.
    """
    last = max(s for s, p in enumerate(spec.arrival_probs) if p > 0.0)
    cum = np.cumsum(spec.arrival_probs)
    idx = np.searchsorted(cum, rng.random(n), side="right")
    np.minimum(idx, last, out=idx)
    return idx.astype(np.int64, copy=False)


def feedback_noise(seed: int, sigma: float, horizon: int) -> Iterator[float]:
    """Each round's reward noise, then its cost noise, as one stream of floats.

    The normals are drawn ``BLOCK`` rounds at a time. Successive
    ``standard_normal`` calls continue one stream, so the values are those
    of one bulk ``standard_normal((horizon, 2)) * sigma`` draw, row by row.
    A product that overflows is +-inf, with no warning. At sigma 0 the
    stream is -0.0 forever and draws nothing.
    """
    if sigma == 0.0:
        return repeat(-0.0)
    rng = stream_rng(seed, FEEDBACK_STREAM)

    def blocks():
        for start in range(0, horizon, BLOCK):
            with np.errstate(over="ignore"):
                block = rng.standard_normal(2 * min(BLOCK, horizon - start)) * sigma
            yield block.tolist()

    return chain.from_iterable(blocks())


def default_stride(horizon: int) -> int:
    """Default logging stride: about 1000 rows per episode."""
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

    policy_rng = stream_rng(seed, POLICY_STREAM) if kind.kind == "ts" else None
    policy = make_policy(kind, spec, horizon, lr_mode, policy_rng)
    select = policy.select
    update = policy.update
    task_array = sample_tasks(spec, horizon, stream_rng(seed, ARRIVAL_STREAM))
    tasks = chain.from_iterable(
        task_array[start : start + BLOCK].tolist() for start in range(0, horizon, BLOCK)
    )
    # Two normals per round, reward noise first: zip pulls noise_r, then
    # noise_c, from the one iterator. Scaling by sigma in numpy gives the
    # same IEEE products as scaling each Python float. At sigma 0 every
    # addend is -0.0, the one value that leaves each mean, -0.0 included,
    # unchanged.
    noise = feedback_noise(seed, spec.noise_sigma, horizon)
    arms = spec.arms

    rows = []
    cum_r = 0.0
    cum_c = 0.0
    next_row = min(stride, horizon)
    for t, s, noise_r, noise_c in zip(range(1, horizon + 1), tasks, noise, noise):
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
            rows.append((t, s, a, r, c, cum_r, cum_c, cum_r / cum_c, policy.theta))

    return EpisodeTrace(kind.name, seed, horizon, rows)
