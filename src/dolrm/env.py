"""Task arrival and bandit-feedback model for reward/cost scheduling.

An environment is a finite set of task types with known arrival
probabilities; each type carries its own finite set of arms (decisions),
and every arm has a non-negative mean reward and a strictly positive mean
cost.
Observations are the means corrupted by additive Gaussian noise.

This module is the model alone: the spec, its validation and what it
derives. A spec validates itself when it is built, so every spec in hand
is valid. Its table of true means and its bounds depend on the spec alone;
a spec derives each once and keeps it outside its fields. It draws nothing
and imports no numpy; the seeded arrival and noise draws live in ``harness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

DEFAULT_NOISE_SIGMA = 1.0


@dataclass(frozen=True)
class EnvironmentSpec:
    """Immutable description of a scheduling environment.

    Args:
        arrival_probs: probability of each task type; must sum to 1.
        arms: per type, a non-empty tuple of (mean_reward, mean_cost) pairs.
        noise_sigma: standard deviation of the additive Gaussian noise
            applied to both reward and cost samples.

    Raises:
        ValueError: if a field breaks a rule of ``validate_env``.
    """

    arrival_probs: tuple[float, ...]
    arms: tuple[tuple[tuple[float, float], ...], ...]
    noise_sigma: float = DEFAULT_NOISE_SIGMA

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "arrival_probs", tuple(float(p) for p in self.arrival_probs)
        )
        object.__setattr__(
            self,
            "arms",
            tuple(
                tuple((float(r), float(c)) for r, c in arms_s) for arms_s in self.arms
            ),
        )
        validate_env(self)

    @property
    def num_types(self) -> int:
        return len(self.arrival_probs)

    def num_arms(self, s: int) -> int:
        return len(self.arms[s])

    # Both derivations are cached in the instance __dict__, so they are not
    # fields: equality, the hash and the config echo see the three fields alone.
    @cached_property
    def means(self) -> tuple[tuple[tuple[float, ...], ...], tuple[tuple[float, ...], ...]]:
        """Per type its arms' mean rewards, then per type their mean costs; read-only, as tuples."""
        rewards = tuple(tuple(r for r, _ in arms_s) for arms_s in self.arms)
        costs = tuple(tuple(c for _, c in arms_s) for arms_s in self.arms)
        return rewards, costs

    @cached_property
    def bounds(self) -> DerivedBounds:
        """``derived_bounds(self)``, computed once per spec."""
        return derived_bounds(self)


@dataclass(frozen=True)
class DerivedBounds:
    """Extremes of the mean rewards/costs and the induced ratio interval.

    theta_min = r_min / c_max and theta_max = r_max / c_min bracket every
    achievable expected reward-to-cost ratio; the ratio iteration is
    initialized at theta_min and projected onto [theta_min, theta_max].
    """

    r_min: float
    r_max: float
    c_min: float
    c_max: float
    theta_min: float
    theta_max: float


def validate_env(spec: EnvironmentSpec) -> EnvironmentSpec:
    """Check structural invariants, returning the spec unchanged if valid.

    Raises:
        ValueError: naming the offending field and index.
    """
    if spec.num_types == 0:
        raise ValueError("arrival_probs must be non-empty")
    if len(spec.arms) != spec.num_types:
        raise ValueError(
            f"arms has {len(spec.arms)} entries but arrival_probs has {spec.num_types}"
        )
    for s, p in enumerate(spec.arrival_probs):
        if not math.isfinite(p) or p < 0.0:
            raise ValueError(f"arrival_probs[{s}] = {p!r} must be finite and >= 0")
    total = math.fsum(spec.arrival_probs)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"arrival_probs sum {total:g} != 1")
    for s, arms_s in enumerate(spec.arms):
        if len(arms_s) == 0:
            raise ValueError(f"arms[{s}] must contain at least one arm")
        for a, (r, c) in enumerate(arms_s):
            # theta_min = r_min / c_max bounds every map's ratio from below
            # only for rewards >= 0; -0.0 passes
            if not math.isfinite(r) or r < 0.0:
                raise ValueError(
                    f"arms[{s}][{a}]: mean_reward must be finite and >= 0 (got {r:g})"
                )
            if not math.isfinite(c) or c <= 0.0:
                raise ValueError(
                    f"arms[{s}][{a}]: mean_cost must be positive (got {c:g})"
                )
    # 1 / c_min scales the ratio steps and r_max / c_min tops the ratio
    # interval; past float range theta turns NaN or the oracle never settles
    b = spec.bounds
    if not math.isfinite(max(b.r_max, 1.0) / b.c_min):
        s, a = next((s, costs.index(b.c_min)) for s, costs in enumerate(spec.means[1]) if b.c_min in costs)
        raise ValueError(
            f"arms[{s}][{a}]: mean_cost {b.c_min!r} is too small (1 / c_min and r_max / c_min must be finite)"
        )
    if not math.isfinite(spec.noise_sigma) or spec.noise_sigma < 0.0:
        raise ValueError(f"noise_sigma must be >= 0 (got {spec.noise_sigma!r})")
    return spec


def derived_bounds(spec: EnvironmentSpec) -> DerivedBounds:
    """Min/max of the mean rewards and costs over all (type, arm) cells."""
    rewards, costs = spec.means
    r_min, r_max = min(map(min, rewards)), max(map(max, rewards))
    c_min, c_max = min(map(min, costs)), max(map(max, costs))
    return DerivedBounds(r_min, r_max, c_min, c_max, r_min / c_max, r_max / c_min)
