"""Exact offline solution of the best stationary reward-to-cost ratio.

The objective max over policy maps of (sum_s p_s r_{s,a(s)}) / (sum_s p_s
c_{s,a(s)}) is linear-fractional over the product of per-type simplices, so
a deterministic map attains the optimum. It is found by the classic
parametric iteration theta <- ratio(best response to theta).
"""

from __future__ import annotations

from dataclasses import dataclass

from .env import EnvironmentSpec
from .policies import PolicyKind, greedy_arm

# Convergence tolerance and update budget of the fixed-point iteration.
DINKELBACH_TOL = 1e-12
DINKELBACH_MAX_ITER = 1000


@dataclass(frozen=True)
class OracleResult:
    """Optimal ratio theta_star, the fixed policy that plays it, and solver bookkeeping.

    ``iterations`` counts fixed-point updates.
    """

    theta_star: float
    policy: PolicyKind
    iterations: int


def expected_ratio(spec: EnvironmentSpec, actions: tuple[int, ...]) -> float:
    """Expected per-round reward over expected per-round cost under a fixed map."""
    num = 0.0
    den = 0.0
    for s, p in enumerate(spec.arrival_probs):
        r, c = spec.arms[s][actions[s]]
        num += p * r
        den += p * c
    return num / den


def best_response(spec: EnvironmentSpec, theta: float) -> tuple[int, ...]:
    """Per-type argmax of r - theta*c over true means (lowest index on ties)."""
    return tuple(greedy_arm(rewards, costs, theta) for rewards, costs in zip(*spec.means))


def dinkelbach_theta_star(spec: EnvironmentSpec) -> OracleResult:
    """Fixed-point iteration theta <- expected_ratio(best_response(theta)).

    Started from theta_min the iterate sequence is non-decreasing and, the
    policy set being finite, reaches the optimum after at most one
    improvement per distinct map. Returns the fixed point, the fixed policy
    of its map and the number of updates performed.
    """
    theta = spec.bounds.theta_min
    for k in range(1, DINKELBACH_MAX_ITER + 1):
        actions = best_response(spec, theta)
        nxt = expected_ratio(spec, actions)
        if abs(nxt - theta) <= DINKELBACH_TOL:
            return OracleResult(nxt, PolicyKind("fixed", actions), k)
        theta = nxt
    raise RuntimeError(f"ratio iteration did not converge within {DINKELBACH_MAX_ITER} updates")
