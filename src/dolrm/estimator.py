"""Per-(type, arm) statistics and truncated optimistic estimators.

The reward estimator is an upper confidence bound truncated at the largest
mean reward in the system, the cost estimator a lower confidence bound
truncated at the smallest mean cost. Both use the bonus sqrt(log T / N)
with the fixed, known horizon T.
"""

from __future__ import annotations

import math
from typing import Sequence

from .env import EnvironmentSpec


class ArmStatistics:
    """Pull counts and incremental reward/cost means, one cell per (type, arm).

    Means follow the running-average update mean <- (mean*N + x) / (N+1), so
    memory stays O(1) per cell.
    """

    __slots__ = ("counts", "mean_rewards", "mean_costs")

    def __init__(self, arms_per_type: Sequence[int]):
        self.counts: list[list[int]] = [[0] * k for k in arms_per_type]
        self.mean_rewards: list[list[float]] = [[0.0] * k for k in arms_per_type]
        self.mean_costs: list[list[float]] = [[0.0] * k for k in arms_per_type]

    @classmethod
    def for_spec(cls, spec: EnvironmentSpec) -> "ArmStatistics":
        return cls([len(arms_s) for arms_s in spec.arms])

    def record(self, s: int, a: int, reward: float, cost: float) -> None:
        """Fold one observation into the cell's count and running means."""
        if s < 0 or a < 0:
            raise IndexError(f"negative cell index ({s}, {a})")
        n = self.counts[s][a]
        n1 = n + 1
        self.mean_rewards[s][a] = (self.mean_rewards[s][a] * n + reward) / n1
        self.mean_costs[s][a] = (self.mean_costs[s][a] * n + cost) / n1
        self.counts[s][a] = n1


def ucb_reward(stats: ArmStatistics, s: int, a: int, horizon: int, r_max: float) -> float:
    """Optimistic reward estimate min(r_max, mean + sqrt(log T / N)), T = horizon.

    An unpulled cell returns the maximally optimistic sentinel r_max; forced
    exploration keeps that sentinel out of real decisions.
    """
    if s < 0 or a < 0:
        raise IndexError(f"negative cell index ({s}, {a})")
    n = stats.counts[s][a]
    if n == 0:
        return r_max
    return min(r_max, stats.mean_rewards[s][a] + math.sqrt(math.log(horizon) / n))


def lcb_cost(stats: ArmStatistics, s: int, a: int, horizon: int, c_min: float) -> float:
    """Pessimistic cost estimate max(c_min, mean - sqrt(log T / N)), T = horizon.

    An unpulled cell returns the sentinel c_min.
    """
    if s < 0 or a < 0:
        raise IndexError(f"negative cell index ({s}, {a})")
    n = stats.counts[s][a]
    if n == 0:
        return c_min
    return max(c_min, stats.mean_costs[s][a] - math.sqrt(math.log(horizon) / n))
