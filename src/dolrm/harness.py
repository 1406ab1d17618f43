"""Seeded episode runner, per-cell aggregation of final ratios, and the log-log slope fit."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .env import EnvironmentSpec, sample_tasks, validate_env
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


@dataclass(frozen=True)
class ReplicationSummary:
    """Across-seed statistics of one (policy, horizon) cell.

    The fields, in this order, are the cell's row in summary.json.
    """

    policy: str
    horizon: int
    num_seeds: int
    mean_final_ratio: float
    std_final_ratio: float
    mean_gap: float
    mean_regret: float
    final_ratios: tuple[float, ...]


def summarize_finals(
    policy: str, horizon: int, final_ratios: Sequence[float], theta_star: float
) -> ReplicationSummary:
    """Aggregate per-seed final ratios against the oracle ratio.

    Uses the population standard deviation so a single seed reports 0. The
    mean of per-seed absolute gaps estimates the expected gap; regret is the
    horizon times that mean.
    """
    ratios = np.asarray(final_ratios, dtype=float)
    gaps = np.abs(theta_star - ratios)
    mean_gap = float(gaps.mean())
    return ReplicationSummary(
        policy=policy,
        horizon=horizon,
        num_seeds=len(ratios),
        mean_final_ratio=float(ratios.mean()),
        std_final_ratio=float(ratios.std()),
        mean_gap=mean_gap,
        mean_regret=horizon * mean_gap,
        final_ratios=tuple(float(x) for x in ratios),
    )


def fit_loglog_slope(horizons: Sequence[float], gaps: Sequence[float]) -> float:
    """Least-squares slope of log(gap) against log(horizon)."""
    x = np.log(np.asarray(horizons, dtype=float))
    y = np.log(np.asarray(gaps, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
