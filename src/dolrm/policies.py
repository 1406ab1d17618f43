"""Decision policies: the double-optimistic ratio learner and its baselines.

Every policy exposes the same sequential interface: ``select(s)`` returns an
arm index for the arriving task type and only reads the policy's state;
``update(s, a, reward, cost)`` ingests the feedback of playing arm ``a`` on
type ``s``. The two policies carrying a ratio iterate, dolrm and oracle-rm,
share one decision rule, ``greedy_arm`` over their per-cell estimates, and
step theta in ``update`` with cell (s, a)'s reward and cost estimates before
folding in the feedback. All argmax ties break toward the lowest arm index,
and every policy that learns from data pulls each unseen arm of an arriving
type once before trusting its estimates: dolrm because an unpulled cell's
reward estimate is +inf, ucb and ts by an explicit check. A type with one
arm is played without scoring, except by ts, whose stream contract has it
consume its draws first. Policies carrying a ratio iterate expose it as
``theta``; for the others ``theta`` is None.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .env import EnvironmentSpec, derived_bounds
from .estimator import ArmStatistics

if TYPE_CHECKING:
    import numpy as np

DEFAULT_LR_MODE = "decaying"
LEARNING_RATE_MODES = (DEFAULT_LR_MODE, "fixed-sqrtT")
POLICY_KINDS = ("dolrm", "fixed", "ucb", "ts", "oracle-rm")

_LABEL_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def validate_policy_map(spec: EnvironmentSpec, actions: tuple[int, ...]) -> None:
    """Check that a fixed map names one existing arm per task type."""
    if len(actions) != spec.num_types:
        raise ValueError(f"policy map has {len(actions)} actions for {spec.num_types} types")
    for s, a in enumerate(actions):
        if not 0 <= a < len(spec.arms[s]):
            raise ValueError(
                f"actions[{s}] = {a} out of range for type {s} "
                f"with {len(spec.arms[s])} arms"
            )


def learning_rate(mode: str, c_min: float, horizon: int, t: int) -> float:
    """Step size at round t (1-based) for the ratio iteration.

    "decaying" uses eta_t = 1 / (c_min * (t + 1)); "fixed-sqrtT" uses the
    horizon-tuned constant 1 / (c_min * sqrt(T)) at every round.
    """
    if mode not in LEARNING_RATE_MODES:
        raise ValueError(
            f"unknown learning-rate mode {mode!r}; expected one of {LEARNING_RATE_MODES}"
        )
    if t < 1:
        raise ValueError(f"round index must be >= 1 (got {t})")
    if mode == "decaying":
        return 1.0 / (c_min * (t + 1))
    return 1.0 / (c_min * math.sqrt(horizon))


def greedy_arm(rewards: Sequence[float], costs: Sequence[float], theta: float) -> int:
    """Index maximizing rewards[a] - theta * costs[a]; ties go to the lowest index.

    A NaN score never wins, and arm 0 is returned when no score beats -inf.
    """
    best = 0
    best_score = -math.inf
    for a in range(len(rewards)):
        score = rewards[a] - theta * costs[a]
        if score > best_score:
            best_score = score
            best = a
    return best


@dataclass(frozen=True)
class PolicyKind:
    """Config-level policy selector: which algorithm to run, with parameters.

    ``actions`` is meaningful only for kind "fixed" (one arm index per task
    type). ``label`` overrides the name used in traces and summaries.
    """

    kind: str
    actions: Optional[tuple[int, ...]] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(
                f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}"
            )
        if self.kind == "fixed":
            if self.actions is None:
                raise ValueError("fixed policy needs 'actions' (one arm index per type)")
            object.__setattr__(self, "actions", tuple(int(a) for a in self.actions))
        elif self.actions is not None:
            raise ValueError(f"'actions' only applies to kind 'fixed', not {self.kind!r}")
        if self.label is not None and not _LABEL_RE.match(self.label):
            raise ValueError(
                f"label {self.label!r} may only contain letters, digits, '.', '_', '-'"
            )

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.kind == "fixed":
            return "fixed-" + "-".join(str(a) for a in self.actions)
        return self.kind


class _RatioIterate:
    """Greedy decision and projected ratio step shared by dolrm and oracle-rm.

    Holds theta inside [theta_min, theta_max] and the 1-based round index.
    The subclass keeps a reward and a cost estimate per cell in
    ``reward_ucb`` and ``cost_lcb``. ``select(s)`` plays ``greedy_arm`` over
    type s's estimates at the current theta. ``update(s, a, ...)`` moves
    theta one projected step toward the root of r_hat - theta * c_check with
    cell (s, a)'s estimates; a cell whose score is not finite (an unpulled
    dolrm cell at +inf, or -inf, or NaN) steps with r_max and c_min instead.
    """

    def __init__(self, spec: EnvironmentSpec, horizon: int, lr_mode: str):
        bounds = derived_bounds(spec)
        self.r_max = bounds.r_max
        self.c_min = bounds.c_min
        self.theta_min = bounds.theta_min
        self.theta_max = bounds.theta_max
        self.theta = bounds.theta_min
        self.round = 1
        self._single_arm = [len(arms_s) == 1 for arms_s in spec.arms]
        # Called for either mode so that an unknown mode fails here.
        eta = learning_rate(lr_mode, bounds.c_min, horizon, 1)
        self._fixed_eta = None if lr_mode == "decaying" else eta

    def select(self, s: int) -> int:
        if s < 0:
            raise IndexError(f"negative task type {s}")
        if self._single_arm[s]:
            return 0
        return greedy_arm(self.reward_ucb[s], self.cost_lcb[s], self.theta)

    def update(self, s: int, a: int, reward: float, cost: float) -> None:
        if s < 0 or a < 0:
            raise IndexError(f"negative cell index ({s}, {a})")
        r_hat = self.reward_ucb[s][a]
        c_check = self.cost_lcb[s][a]
        theta = self.theta
        if not -math.inf < r_hat - theta * c_check < math.inf:
            # an unpulled cell (+inf), or an overflowed or NaN score
            r_hat = self.r_max
            c_check = self.c_min
        t = self.round
        eta = self._fixed_eta
        if eta is None:
            eta = 1.0 / (self.c_min * (t + 1))
        theta += eta * (r_hat - theta * c_check)
        if theta < self.theta_min:
            theta = self.theta_min
        elif theta > self.theta_max:
            theta = self.theta_max
        self.theta = theta
        self.round = t + 1


class DolRmPolicy(_RatioIterate):
    """Double-optimistic ratio learner.

    Each round it scores every arm of the arriving type with an optimistic
    reward UCB min(r_max, mean + sqrt(log T / N)) minus theta times a
    pessimistic cost LCB max(c_min, mean - sqrt(log T / N)), T the horizon,
    and plays the best score through ``greedy_arm``. Both bounds depend on
    one cell's statistics alone, so they are kept per cell in ``reward_ucb``
    and ``cost_lcb``. An unpulled cell's reward UCB is +inf, the UCB index of
    an arm never played, so it scores +inf while a pulled cell's score is at
    most r_max: the argmax plays the lowest unpulled arm first.
    ``update(s, a, ...)`` first moves theta with cell (s, a)'s bounds, the
    ones ``select`` scored, and only then folds the observation into that
    cell of ``stats``: it writes the count and running means in place, with
    the expression of ``ArmStatistics.record``, and refreshes the cell's two
    bounds from the new means.
    """

    def __init__(self, spec: EnvironmentSpec, horizon: int, lr_mode: str = DEFAULT_LR_MODE):
        super().__init__(spec, horizon, lr_mode)
        self.stats = ArmStatistics.for_spec(spec)
        self._log_horizon = math.log(horizon)
        self.reward_ucb = [[math.inf] * len(arms_s) for arms_s in spec.arms]
        self.cost_lcb = [[self.c_min] * len(arms_s) for arms_s in spec.arms]

    def update(self, s: int, a: int, reward: float, cost: float) -> None:
        # a direct base call: super() costs a few percent of a round
        _RatioIterate.update(self, s, a, reward, cost)
        stats = self.stats
        counts = stats.counts[s]
        mean_r = stats.mean_rewards[s]
        mean_c = stats.mean_costs[s]
        n = counts[a]
        n1 = n + 1
        r = (mean_r[a] * n + reward) / n1
        c = (mean_c[a] * n + cost) / n1
        mean_r[a] = r
        mean_c[a] = c
        counts[a] = n1
        bonus = math.sqrt(self._log_horizon / n1)
        r_hat = r + bonus
        if r_hat > self.r_max:
            r_hat = self.r_max
        c_check = c - bonus
        if c_check < self.c_min:
            c_check = self.c_min
        self.reward_ucb[s][a] = r_hat
        self.cost_lcb[s][a] = c_check


class FixedMapPolicy:
    """Plays a constant arm per type; no learning, no state."""

    theta = None

    def __init__(self, spec: EnvironmentSpec, actions: tuple[int, ...]):
        validate_policy_map(spec, actions)
        self.actions = actions

    def select(self, s: int) -> int:
        actions = self.actions
        if not 0 <= s < len(actions):
            raise IndexError(f"task type {s} out of range for map of {len(actions)} types")
        return actions[s]

    def update(self, s: int, a: int, reward: float, cost: float) -> None:
        pass


class ClassicUcbPolicy:
    """UCB1 treating the per-sample reward/cost ratio as a scalar reward.

    Each feedback is reduced to the ratio signal rho = R / max(C, cost_floor),
    folded into per-arm means (stored in the reward slot of ArmStatistics).
    Unpulled arms are explored first (lowest index); otherwise it plays the
    largest mean + sqrt(2 log t / N) with t the current round index.
    """

    theta = None
    # Replaces any sampled cost at or below it in the ratio signal.
    cost_floor = 1e-6

    def __init__(self, spec: EnvironmentSpec):
        self.stats = ArmStatistics.for_spec(spec)
        self.round = 1
        self._single_arm = [len(arms_s) == 1 for arms_s in spec.arms]

    def select(self, s: int) -> int:
        if s < 0:
            raise IndexError(f"negative task type {s}")
        if self._single_arm[s]:
            return 0
        t = self.round
        counts = self.stats.counts[s]
        if 0 in counts:
            return counts.index(0)
        means = self.stats.mean_rewards[s]
        two_log_t = 2.0 * math.log(t)
        best = 0
        best_score = -math.inf
        for a in range(len(counts)):
            score = means[a] + math.sqrt(two_log_t / counts[a])
            if score > best_score:
                best_score = score
                best = a
        return best

    def update(self, s: int, a: int, reward: float, cost: float) -> None:
        denom = cost if cost > self.cost_floor else self.cost_floor
        self.stats.record(s, a, reward / denom, cost)
        self.round += 1


class ThompsonSamplingPolicy:
    """Independent Gaussian posteriors on every cell's mean reward and cost.

    The posterior of each cell mean after N pulls is Normal(mean, 1/N) (unit
    noise variance, flat prior); the policy plays the best sampled ratio.
    Stream contract: each decision after forced exploration consumes the
    next 2k standard normals of the policy stream, rewards in the first k
    slots, costs in the last k. Cost draws are clipped below at c_min before
    dividing. The normals are drawn ``chunk`` at a time into a buffer of
    Python floats; successive ``standard_normal`` calls continue one stream
    whatever their sizes, so the chunk size changes no decision.
    ``update`` writes the pulled cell's count and running means in place,
    with the expression of ``ArmStatistics.record``.
    """

    theta = None
    # Normals per refill; 0 refills exactly the 2k one decision reads.
    chunk = 512

    def __init__(self, spec: EnvironmentSpec, rng: np.random.Generator):
        self.stats = ArmStatistics.for_spec(spec)
        self.c_min = derived_bounds(spec).c_min
        self.rng = rng
        self._normals: list[float] = []
        self._next = 0

    def select(self, s: int) -> int:
        if s < 0:
            raise IndexError(f"negative task type {s}")
        stats = self.stats
        counts = stats.counts[s]
        if 0 in counts:
            return counts.index(0)
        k = len(counts)
        z = self._normals
        i = self._next
        end = i + 2 * k
        if end > len(z):
            z = z[i:]
            z += self.rng.standard_normal(max(self.chunk, 2 * k - len(z))).tolist()
            self._normals = z
            i = 0
            end = 2 * k
        self._next = end
        if k == 1:  # a lone arm is played whatever its draws say
            return 0
        mean_r = stats.mean_rewards[s]
        mean_c = stats.mean_costs[s]
        c_min = self.c_min
        sqrt = math.sqrt
        best = 0
        best_score = -math.inf
        for a in range(k):
            sd = 1.0 / sqrt(counts[a])
            c_draw = mean_c[a] + sd * z[i + k + a]
            if c_draw < c_min:
                c_draw = c_min
            score = (mean_r[a] + sd * z[i + a]) / c_draw
            if score > best_score:
                best_score = score
                best = a
        return best

    def update(self, s: int, a: int, reward: float, cost: float) -> None:
        if s < 0 or a < 0:
            raise IndexError(f"negative cell index ({s}, {a})")
        stats = self.stats
        counts = stats.counts[s]
        mean_r = stats.mean_rewards[s]
        mean_c = stats.mean_costs[s]
        n = counts[a]
        n1 = n + 1
        mean_r[a] = (mean_r[a] * n + reward) / n1
        mean_c[a] = (mean_c[a] * n + cost) / n1
        counts[a] = n1


class OracleRmPolicy(_RatioIterate):
    """Ratio iteration driven by the true means (no estimation).

    Its ``reward_ucb`` and ``cost_lcb`` are the true means, bounds of zero
    width; sampled feedback is ignored. It shares the decision rule, the
    step and the learning-rate schedule of the learner it benchmarks,
    isolating the estimation error.
    """

    def __init__(self, spec: EnvironmentSpec, horizon: int, lr_mode: str = DEFAULT_LR_MODE):
        super().__init__(spec, horizon, lr_mode)
        self.reward_ucb = [[r for r, _ in arms_s] for arms_s in spec.arms]
        self.cost_lcb = [[c for _, c in arms_s] for arms_s in spec.arms]


def make_policy(
    kind: PolicyKind,
    spec: EnvironmentSpec,
    horizon: int,
    lr_mode: str,
    rng: Optional[np.random.Generator],
):
    """Instantiate the policy described by ``kind`` for one episode.

    Only ``ts`` draws from ``rng``; the other kinds ignore it.
    """
    if kind.kind == "dolrm":
        return DolRmPolicy(spec, horizon, lr_mode)
    if kind.kind == "fixed":
        return FixedMapPolicy(spec, kind.actions)
    if kind.kind == "ucb":
        return ClassicUcbPolicy(spec)
    if kind.kind == "ts":
        return ThompsonSamplingPolicy(spec, rng)
    return OracleRmPolicy(spec, horizon, lr_mode)
