"""Per-(type, arm) pull counts and running reward/cost means."""

from __future__ import annotations

from typing import Sequence

from .env import EnvironmentSpec


class ArmStatistics:
    """Pull counts and incremental reward/cost means, one cell per (type, arm).

    Means follow the running-average update mean <- (mean*N + x) / (N+1), so
    memory stays O(1) per cell. ucb and ts fold through ``record``; the one
    copy, ``DolRmPolicy.update``, folds in place between its ratio step and
    the refresh of the cell's bounds, saving a nested call per round.
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
        counts = self.counts[s]
        mean_r = self.mean_rewards[s]
        mean_c = self.mean_costs[s]
        n = counts[a]
        n1 = n + 1
        mean_r[a] = (mean_r[a] * n + reward) / n1
        mean_c[a] = (mean_c[a] * n + cost) / n1
        counts[a] = n1

