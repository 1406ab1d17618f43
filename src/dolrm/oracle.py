"""Exact offline solution of the best stationary reward-to-cost ratio.

The objective max over policy maps of (sum_s p_s r_{s,a(s)}) / (sum_s p_s
c_{s,a(s)}) is linear-fractional over the product of per-type simplices, so
a deterministic map attains the optimum. It is found by the classic
parametric iteration theta <- ratio(best response to theta), cross-checked
by brute-force enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .env import EnvironmentSpec, derived_bounds
from .policies import PolicyMap, greedy_arm

# Convergence tolerance and update budget of the fixed-point iteration, and
# the most maps the brute-force cross-check will enumerate.
DINKELBACH_TOL = 1e-12
DINKELBACH_MAX_ITER = 1000
MAX_ENUMERATION = 10**6


@dataclass(frozen=True)
class OracleResult:
    """Optimal ratio theta_star, the map achieving it, and solver bookkeeping.

    ``iterations`` counts fixed-point updates (or maps enumerated, for the
    brute-force solver); ``trace`` holds the iterate sequence when available.
    """

    theta_star: float
    policy: PolicyMap
    iterations: int
    trace: tuple[float, ...] = ()


def expected_ratio(spec: EnvironmentSpec, pmap: PolicyMap) -> float:
    """Expected per-round reward over expected per-round cost under a fixed map."""
    num = 0.0
    den = 0.0
    for s, p in enumerate(spec.arrival_probs):
        r, c = spec.arms[s][pmap.actions[s]]
        num += p * r
        den += p * c
    return num / den


def best_response(spec: EnvironmentSpec, theta: float) -> PolicyMap:
    """Per-type argmax of r - theta*c over true means (lowest index on ties)."""
    actions = []
    for arms_s in spec.arms:
        rewards = [r for r, _ in arms_s]
        costs = [c for _, c in arms_s]
        actions.append(greedy_arm(rewards, costs, theta))
    return PolicyMap(tuple(actions))


def dinkelbach_theta_star(spec: EnvironmentSpec) -> OracleResult:
    """Fixed-point iteration theta <- expected_ratio(best_response(theta)).

    Started from theta_min the iterate sequence is non-decreasing and, the
    policy set being finite, reaches the optimum after at most one
    improvement per distinct map. Returns the fixed point, its map, the
    number of updates performed, and the full iterate trace.
    """
    theta = derived_bounds(spec).theta_min
    trace = [theta]
    for k in range(1, DINKELBACH_MAX_ITER + 1):
        pmap = best_response(spec, theta)
        nxt = expected_ratio(spec, pmap)
        trace.append(nxt)
        if abs(nxt - theta) <= DINKELBACH_TOL:
            return OracleResult(nxt, pmap, k, tuple(trace))
        theta = nxt
    raise RuntimeError(f"ratio iteration did not converge within {DINKELBACH_MAX_ITER} updates")


def brute_force_theta_star(spec: EnvironmentSpec) -> OracleResult:
    """Exhaustive maximum of expected_ratio over every deterministic map.

    Independent of the fixed-point solver on purpose: it exists to
    cross-validate it. Enumeration order is lexicographic in arm indices, so
    the first maximum seen is also the lowest-index tie-break.
    """
    n_maps = 1
    for arms_s in spec.arms:
        n_maps *= len(arms_s)
    if n_maps > MAX_ENUMERATION:
        raise ValueError(f"{n_maps} policy maps exceed the enumeration guard of {MAX_ENUMERATION}")
    probs = spec.arrival_probs
    arms = spec.arms
    n_types = len(probs)
    best_ratio = -math.inf
    best_actions: tuple[int, ...] = ()
    for actions in itertools.product(*(range(len(arms_s)) for arms_s in arms)):
        num = 0.0
        den = 0.0
        for s in range(n_types):
            r, c = arms[s][actions[s]]
            p = probs[s]
            num += p * r
            den += p * c
        ratio = num / den
        if ratio > best_ratio:
            best_ratio = ratio
            best_actions = actions
    return OracleResult(best_ratio, PolicyMap(best_actions), n_maps)
