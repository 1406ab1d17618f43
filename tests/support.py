"""Shared test helpers: the reference environments, the scalar samplers, the
readable references that the fast paths in ``dolrm`` are pinned against
(confidence bounds, the projected ratio step, brute-force enumeration of
the oracle, the per-arm dolrm decision, per-call Thompson sampling, UCB1 on
the ratio signal and the trace CSV line) and a stub generator.

Test modules import these with ``from support import ...``. They live in
their own module, not in ``conftest.py``: ``perfbench/tests`` has a
``conftest.py`` too, both are imported as the module ``conftest``, and in
a run that collects both suites the one collected first is shadowed.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from dolrm.env import EnvironmentSpec
from dolrm.estimator import ArmStatistics
from dolrm.harness import EpisodeTrace
from dolrm.oracle import OracleResult
from dolrm.policies import DolRmPolicy, PolicyKind, ThompsonSamplingPolicy

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
    """Scalar reference for dolrm.harness.sample_tasks: one task type by inverse CDF.

    Returns the first index whose cumulative probability strictly exceeds a
    single uniform draw.
    """
    u = rng.random()
    acc = 0.0
    for s, p in enumerate(spec.arrival_probs):
        acc += p
        if acc > u:
            return s
    # accumulated rounding can leave the last cumulative below 1; such a
    # draw goes to the last type with positive probability
    return max(s for s, p in enumerate(spec.arrival_probs) if p > 0.0)


def sample_feedback(spec: EnvironmentSpec, s: int, a: int, rng) -> Feedback:
    """Scalar reference for the feedback noise run_episode draws per block.

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


def ucb_reward(stats: ArmStatistics, s: int, a: int, horizon: int, r_max: float) -> float:
    """Optimistic reward estimate min(r_max, mean + sqrt(log T / N)), T = horizon.

    An unpulled cell returns r_max, the reward theta steps with on such a
    cell. ``DolRmPolicy`` stores +inf there instead, so its argmax plays the
    cell before any pulled one; forced exploration keeps r_max out of the
    decisions this reference makes.
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


def ratio_step(
    theta: float,
    eta: float,
    r_hat: float,
    c_check: float,
    theta_min: float,
    theta_max: float,
) -> float:
    """One projected stochastic-approximation step toward the root of r - theta*c."""
    nxt = theta + eta * (r_hat - theta * c_check)
    if nxt < theta_min:
        return theta_min
    if nxt > theta_max:
        return theta_max
    return nxt


# The most maps brute_force_theta_star will enumerate.
MAX_ENUMERATION = 10**6


def brute_force_theta_star(spec: EnvironmentSpec) -> OracleResult:
    """Exhaustive maximum of the expected ratio over every deterministic map.

    Independent of the fixed-point solver on purpose: it exists to
    cross-validate it. Enumeration order is lexicographic in arm indices, so
    the first maximum seen is also the lowest-index tie-break.
    ``iterations`` counts the maps enumerated.
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
    return OracleResult(best_ratio, PolicyKind("fixed", best_actions), n_maps)


class PerArmDolRm(DolRmPolicy):
    """Readable reference for DolRmPolicy's cached bounds.

    Rebuilds both confidence bounds of every arm from the statistics on
    each decision, where the policy reads the ones its ``update`` cached.
    """

    def __init__(self, spec: EnvironmentSpec, horizon: int, lr_mode: str):
        super().__init__(spec, horizon, lr_mode)
        self.horizon = horizon

    def select(self, s: int) -> int:
        if s < 0:
            raise IndexError(f"negative task type {s}")
        stats = self.stats
        counts = stats.counts[s]
        r_max = self.r_max
        c_min = self.c_min
        for a, n in enumerate(counts):
            if n == 0:
                return a
        # If no score beats -inf (every one is -inf or NaN), the lowest arm
        # is played.
        best = 0
        best_score = -math.inf
        for a in range(len(counts)):
            bonus = math.sqrt(math.log(self.horizon) / counts[a])
            r_hat = stats.mean_rewards[s][a] + bonus
            if r_hat > r_max:
                r_hat = r_max
            c_check = stats.mean_costs[s][a] - bonus
            if c_check < c_min:
                c_check = c_min
            score = r_hat - self.theta * c_check
            if score > best_score:
                best_score = score
                best = a
        return best


class PerCallThompsonSampling(ThompsonSamplingPolicy):
    """Readable reference for ThompsonSamplingPolicy.select.

    Draws one vector of 2k standard normals from the policy stream per
    decision, rewards in the first k slots and costs in the last k, where
    the policy reads the same numbers from its chunked buffer.
    """

    def select(self, s: int) -> int:
        if s < 0:
            raise IndexError(f"negative task type {s}")
        stats = self.stats
        counts = stats.counts[s]
        for a, n in enumerate(counts):
            if n == 0:
                return a
        k = len(counts)
        mean_r = stats.mean_rewards[s]
        mean_c = stats.mean_costs[s]
        c_min = self.c_min
        z = self.rng.standard_normal(2 * k)
        best = 0
        best_score = -math.inf
        for a in range(k):
            sd = 1.0 / math.sqrt(counts[a])
            c_draw = mean_c[a] + sd * z[k + a]
            if c_draw < c_min:
                c_draw = c_min
            score = (mean_r[a] + sd * z[a]) / c_draw
            if score > best_score:
                best_score = score
                best = a
        return best


class ReferenceUcb1:
    """Readable reference for ClassicUcbPolicy: UCB1 on the floored ratio signal.

    Feeds each observation's rho = R / C, with a cost at or below
    ``cost_floor`` replaced by it, through an ArmStatistics shadow with
    ``record``. It plays the lowest unpulled arm of the arriving type first,
    and otherwise scores every arm, a lone one too, by
    mean + sqrt(2 log t / N), t the 1-based round. The first arm with the
    highest score is played; a NaN score never wins, and if no score beats
    -inf the lowest arm is played.
    """

    def __init__(self, spec: EnvironmentSpec, cost_floor: float):
        self.stats = ArmStatistics.for_spec(spec)
        self.cost_floor = cost_floor
        self.round = 1

    def select(self, s: int) -> int:
        counts = self.stats.counts[s]
        for a, n in enumerate(counts):
            if n == 0:
                return a
        means = self.stats.mean_rewards[s]
        scores = [means[a] + math.sqrt(2.0 * math.log(self.round) / n) for a, n in enumerate(counts)]
        best = 0
        best_score = -math.inf
        for a, score in enumerate(scores):
            if score > best_score:
                best_score = score
                best = a
        return best

    def update(self, s: int, a: int, reward: float, cost: float) -> None:
        denom = cost if cost > self.cost_floor else self.cost_floor
        self.stats.record(s, a, reward / denom, cost)
        self.round += 1


def reference_trace_csv(trace: EpisodeTrace) -> str:
    """Readable reference for dolrm.runner.write_trace's row template.

    Builds each CSV line field by field: ints with str and floats with
    format(x, ".12g"); a theta of None is an empty field.
    """
    run_id = f"{trace.policy}-T{trace.horizon}-seed{trace.seed}"
    lines = ["run_id,policy,t,type,arm,reward,cost,cum_reward,cum_cost,ratio,theta"]
    for t, s, a, reward, cost, cum_r, cum_c, ratio, theta in trace.rows:
        fields = [run_id, trace.policy, str(t), str(s), str(a)]
        fields += [format(x, ".12g") for x in (reward, cost, cum_r, cum_c, ratio)]
        fields.append("" if theta is None else format(theta, ".12g"))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


class StubRng:
    """Deterministic stand-in for a Generator, fed from queued values.

    random() and standard_normal() pop one float; random(n) and
    standard_normal(n) pop n floats and return them as an array. Running
    out of queued values fails the test.
    """

    def __init__(self, uniforms=(), normals=()):
        self._uniforms = list(uniforms)
        self._normals = list(normals)

    def random(self, n=None):
        return self._pop(self._uniforms, n, "uniform")

    def standard_normal(self, n=None):
        return self._pop(self._normals, n, "normal")

    @staticmethod
    def _pop(queue, n, what):
        assert len(queue) >= (1 if n is None else n), f"stub rng ran out of {what} draws"
        if n is None:
            return queue.pop(0)
        out = np.array(queue[:n])
        del queue[:n]
        return out
