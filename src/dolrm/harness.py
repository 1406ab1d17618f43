"""One seeded episode: its three random streams, the decision loop and its trace.

Each episode draws from three streams labeled by (seed, stream): task
arrivals (``sample_tasks``), feedback noise and the policy's own draws. All
three are derived here, so a config and a seed fix an episode.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .env import EnvironmentSpec, validate_env
from .policies import DEFAULT_LR_MODE, PolicyKind, make_policy

# Stream labels for the per-episode RNG split. Keeping arrival, feedback and
# policy randomness on separate streams means two policies compared under the
# same seed face the identical arrival sequence and noise realizations, no
# matter how much randomness either policy consumes.
ARRIVAL_STREAM = 0
FEEDBACK_STREAM = 1
POLICY_STREAM = 2


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
    draws = rng.random(n)
    idx = np.searchsorted(cum, draws, side="right")
    return np.minimum(idx, last).astype(np.int64)


def default_stride(horizon: int) -> int:
    """Default logging stride: about 1000 rows per episode."""
    return max(1, horizon // 1000)


@dataclass
class EpisodeTrace:
    """Column-wise log of one episode.

    Rows are kept every ``stride`` rounds and always for the final round, so
    ``ratios[-1]`` is the episode's final cumulative reward-to-cost ratio.
    ``thetas`` is None for policies without a ratio iterate.
    """

    policy: str
    seed: int
    horizon: int
    rounds: list[int]
    task_types: list[int]
    arms: list[int]
    rewards: list[float]
    costs: list[float]
    cum_rewards: list[float]
    cum_costs: list[float]
    ratios: list[float]
    thetas: Optional[list[float]]

    @property
    def final_ratio(self) -> float:
        return self.ratios[-1]


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
    spec = validate_env(spec)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 (got {horizon})")
    if stride is None:
        stride = default_stride(horizon)
    elif stride < 1:
        raise ValueError(f"stride must be >= 1 (got {stride})")

    policy = make_policy(kind, spec, horizon, lr_mode, stream_rng(seed, POLICY_STREAM))
    select = policy.select
    update = policy.update
    tasks = sample_tasks(spec, horizon, stream_rng(seed, ARRIVAL_STREAM)).tolist()
    sigma = spec.noise_sigma
    # One bulk draw consumes the feedback stream exactly like per-round
    # draws: two normals per round, reward noise first. Scaling by sigma in
    # numpy gives the same IEEE products as scaling each Python float. At
    # sigma 0 every addend is -0.0, the one value that leaves each mean,
    # -0.0 included, unchanged.
    if sigma > 0.0:
        noise = stream_rng(seed, FEEDBACK_STREAM).standard_normal((horizon, 2)) * sigma
        reward_noise = noise[:, 0].tolist()
        cost_noise = noise[:, 1].tolist()
    else:
        reward_noise = cost_noise = repeat(-0.0)
    arms = spec.arms

    track_theta = policy.theta is not None
    rounds: list[int] = []
    types_col: list[int] = []
    arms_col: list[int] = []
    rewards: list[float] = []
    costs: list[float] = []
    cum_rewards: list[float] = []
    cum_costs: list[float] = []
    ratios: list[float] = []
    thetas: Optional[list[float]] = [] if track_theta else None

    cum_r = 0.0
    cum_c = 0.0
    next_row = min(stride, horizon)
    for t, s, noise_r, noise_c in zip(range(1, horizon + 1), tasks, reward_noise, cost_noise):
        a = select(s)
        r, c = arms[s][a]
        r += noise_r
        c += noise_c
        update(s, a, r, c)
        cum_r += r
        cum_c += c
        if t == next_row:
            next_row = min(t + stride, horizon)
            rounds.append(t)
            types_col.append(s)
            arms_col.append(a)
            rewards.append(r)
            costs.append(c)
            cum_rewards.append(cum_r)
            cum_costs.append(cum_c)
            ratios.append(cum_r / cum_c)
            if track_theta:
                thetas.append(policy.theta)

    return EpisodeTrace(
        policy=kind.name,
        seed=seed,
        horizon=horizon,
        rounds=rounds,
        task_types=types_col,
        arms=arms_col,
        rewards=rewards,
        costs=costs,
        cum_rewards=cum_rewards,
        cum_costs=cum_costs,
        ratios=ratios,
        thetas=thetas,
    )
