"""Traced run: spans and per-round counters recorded from outside dolrm.

``Tracer.experiment()`` wraps dolrm's public callables for the duration of one
``run_experiment`` call and restores them afterwards:

- ``dolrm.runner.run_episode``, ``write_trace`` and ``dinkelbach_theta_star``
- ``dolrm.harness.sample_tasks`` and ``make_policy``; the policy it returns
  gets timed ``select`` and ``update`` attributes
- ``dolrm.estimator.ArmStatistics.record``

Coarse boundaries become spans with parent ids: experiment -> oracle,
episode, trace write, summary. Per-round calls are aggregated per episode as
a count and a total time. ``run_episode`` inlines its noise pre-draw, so the
tracer times the same public calls separately just before each episode and
uses that as the draw's cost.

The wrappers cost time of their own, which would otherwise be charged to the
calls they time and to the harness loop around them. Right after each traced
experiment, ``Tracer`` times empty methods through the same wrappers
(``CallFloor``) and takes that cost off every wrapped call of the experiment
(``corrected``). The machine's speed drifts over seconds, so the floor is
measured again for every experiment rather than once per run.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from typing import Optional

import dolrm.estimator
import dolrm.harness
import dolrm.runner
from dolrm.harness import FEEDBACK_STREAM, stream_rng

clock = time.perf_counter_ns

CALIBRATION_CALLS = 20_000
CALIBRATION_BATCHES = 3
WRAPPED_CALLS = ("select", "update", "record")


class Counters:
    """Per-round call counts and nanosecond totals, for one episode or summed."""

    __slots__ = (
        "episodes",
        "rounds",
        "episode_ns",
        "sample_tasks_ns",
        "noise_ns",
        "select_calls",
        "select_ns",
        "optimal_pulls",
        "update_calls",
        "update_ns",
        "record_calls",
        "record_ns",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def add(self, other: "Counters") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def loop_self_ns(self) -> int:
        """Episode time not spent in the draws or the policy calls."""
        return (
            self.episode_ns - self.sample_tasks_ns - self.noise_ns - self.select_ns - self.update_ns
        )

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


@dataclass(frozen=True)
class CallFloor:
    """The tracer's own cost per wrapped call, measured on an empty method.

    ``inside_ns`` is what the wrapper's two clock reads report for an empty
    call; taking it off a call's time leaves the time spent beyond an empty
    call. ``extra_ns`` is everything the wrapper adds over calling the empty
    method directly; taking it off the caller's time leaves the caller's
    untraced time.
    """

    inside_ns: float
    extra_ns: float


class _Empty:
    """A policy and an ArmStatistics stand-in whose methods do nothing."""

    def select(self, s):
        return 0

    def update(self, s, a, reward, cost):
        pass

    def record(self, s, a, reward, cost):
        pass


def _loop_ns(method, args, calls: int) -> float:
    start = clock()
    for _ in range(calls):
        method(*args)
    return (clock() - start) / calls


class Tracer:
    """Spans and counters of the traced experiments of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.kinds: dict[str, Counters] = {}
        self.corrected_kinds: dict[str, Counters] = {}
        self.floors: list[dict[str, CallFloor]] = []
        self._experiment_kinds: dict[str, Counters] = {}
        self.experiments = 0
        self.experiment_ns = 0
        self.oracle_ns = 0
        self.write_trace_ns = 0
        self.summary_ns = 0
        self.trace_rows = 0
        self.trace_bytes = 0
        self._parent: Optional[int] = None
        self._episode: Optional[Counters] = None
        self._oracle_actions: tuple[int, ...] = ()
        self._last_end = 0

    def _calibrate(self) -> dict[str, CallFloor]:
        """Time empty select, update and record calls, direct and through the wrappers."""
        direct = _Empty()
        traced = type("TracedEmpty", (_Empty,), {"record": self._wrap_record(_Empty.record)})()
        self._episode = ep = Counters()
        self._time_policy(traced, ep, optimal=(0,))
        args = {"select": (0,), "update": (0, 0, 1.0, 1.0), "record": (0, 0, 1.0, 1.0)}
        samples: dict[str, list[tuple[float, float]]] = {name: [] for name in WRAPPED_CALLS}
        try:
            for _ in range(CALIBRATION_BATCHES):
                for name in WRAPPED_CALLS:
                    reported = f"{name}_ns"
                    setattr(ep, reported, 0)
                    plain = _loop_ns(getattr(direct, name), args[name], CALIBRATION_CALLS)
                    wrapped = _loop_ns(getattr(traced, name), args[name], CALIBRATION_CALLS)
                    inside = getattr(ep, reported) / CALIBRATION_CALLS
                    samples[name].append((inside, wrapped - plain))
        finally:
            self._episode = None
        return {
            name: CallFloor(
                inside_ns=statistics.median(inside for inside, _ in pairs),
                extra_ns=statistics.median(extra for _, extra in pairs),
            )
            for name, pairs in samples.items()
        }

    @staticmethod
    def corrected(c: Counters, f: dict[str, CallFloor]) -> Counters:
        """``c`` with the wrappers' own cost ``f`` taken off.

        Calls keep only their time beyond an empty call. ``record`` runs
        inside ``update``, so its whole wrapper cost comes off ``update``;
        every wrapper's whole cost comes off the episode. The harness loop's
        self time then keeps the cost of making the calls, as it does untraced.
        """
        out = Counters()
        out.add(c)
        out.select_ns -= c.select_calls * f["select"].inside_ns
        out.update_ns -= c.update_calls * f["update"].inside_ns + c.record_calls * f["record"].extra_ns
        out.record_ns -= c.record_calls * f["record"].inside_ns
        out.episode_ns -= (
            c.select_calls * f["select"].extra_ns
            + c.update_calls * f["update"].extra_ns
            + c.record_calls * f["record"].extra_ns
        )
        return out

    def _span(self, name: str, start: int, end: int, **attrs) -> None:
        self.spans.append(
            {"id": len(self.spans), "parent": self._parent, "name": name, "start_ns": start, "end_ns": end, **attrs}
        )
        self._last_end = end

    @contextlib.contextmanager
    def experiment(self):
        """Trace the run_experiment call made inside the ``with`` block."""
        with contextlib.ExitStack() as stack:
            for owner, name, wrap in (
                (dolrm.runner, "run_episode", self._wrap_run_episode),
                (dolrm.runner, "write_trace", self._wrap_write_trace),
                (dolrm.runner, "dinkelbach_theta_star", self._wrap_oracle),
                (dolrm.harness, "sample_tasks", self._wrap_sample_tasks),
                (dolrm.harness, "make_policy", self._wrap_make_policy),
                (dolrm.estimator.ArmStatistics, "record", self._wrap_record),
            ):
                original = getattr(owner, name)
                setattr(owner, name, wrap(original))
                stack.callback(setattr, owner, name, original)
            self._experiment_kinds = {}
            # The experiment span is appended last, so reserve its id now.
            self.spans.append(None)
            experiment_id = self._parent = len(self.spans) - 1
            start = self._last_end = clock()
            yield
            end = clock()
            summary_start = self._last_end
            self.summary_ns += end - summary_start
            self._span("runner.summary", summary_start, end)
            self._parent = None
            self.spans[experiment_id] = {
                "id": experiment_id, "parent": None, "name": "experiment", "start_ns": start, "end_ns": end,
            }
            self.experiments += 1
            floor = self._calibrate()
            self.floors.append(floor)
            for kind, c in self._experiment_kinds.items():
                self.kinds.setdefault(kind, Counters()).add(c)
                self.corrected_kinds.setdefault(kind, Counters()).add(self.corrected(c, floor))
            self._experiment_kinds = {}
            self.experiment_ns += end - start

    def _wrap_oracle(self, original):
        def dinkelbach_theta_star(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            end = clock()
            self.oracle_ns += end - start
            self._oracle_actions = result.policy.actions
            self._span("oracle.solve", start, end, iterations=result.iterations)
            return result

        return dinkelbach_theta_star

    def _wrap_run_episode(self, original):
        def run_episode(spec, kind, horizon, seed, **kwargs):
            ep = Counters()
            if spec.noise_sigma > 0.0:
                start = clock()
                stream_rng(seed, FEEDBACK_STREAM).standard_normal((horizon, 2)).tolist()
                ep.noise_ns = clock() - start
            self._episode = ep
            try:
                start = clock()
                trace = original(spec, kind, horizon, seed, **kwargs)
                end = clock()
            finally:
                self._episode = None
            ep.episodes = 1
            ep.rounds = horizon
            ep.episode_ns = end - start
            self._experiment_kinds.setdefault(kind.kind, Counters()).add(ep)
            self._span(
                "episode", start, end, policy=kind.name, horizon=horizon, seed=seed, counters=ep.as_dict()
            )
            return trace

        return run_episode

    def _wrap_write_trace(self, original):
        def write_trace(path, trace):
            start = clock()
            original(path, trace)
            end = clock()
            self.write_trace_ns += end - start
            rows = len(trace.rounds)
            size = path.stat().st_size
            self.trace_rows += rows
            self.trace_bytes += size
            self._span("runner.write_trace", start, end, rows=rows, bytes=size)

        return write_trace

    def _wrap_sample_tasks(self, original):
        def sample_tasks(*args, **kwargs):
            start = clock()
            tasks = original(*args, **kwargs)
            self._episode.sample_tasks_ns += clock() - start
            return tasks

        return sample_tasks

    def _wrap_record(self, original):
        def record(stats, s, a, reward, cost):
            start = clock()
            original(stats, s, a, reward, cost)
            end = clock()
            ep = self._episode
            ep.record_ns += end - start
            ep.record_calls += 1

        return record

    def _wrap_make_policy(self, original):
        def make_policy(*args, **kwargs):
            policy = original(*args, **kwargs)
            self._time_policy(policy, self._episode, self._oracle_actions)
            return policy

        return make_policy

    @staticmethod
    def _time_policy(policy, ep: Counters, optimal) -> None:
        """Give ``policy`` timed ``select`` and ``update`` attributes that count into ``ep``."""
        select = policy.select
        update = policy.update

        def traced_select(s):
            start = clock()
            a = select(s)
            end = clock()
            ep.select_ns += end - start
            ep.select_calls += 1
            if a == optimal[s]:
                ep.optimal_pulls += 1
            return a

        def traced_update(s, a, reward, cost):
            start = clock()
            update(s, a, reward, cost)
            end = clock()
            ep.update_ns += end - start
            ep.update_calls += 1

        policy.select = traced_select
        policy.update = traced_update

    def floor_medians(self) -> dict[str, CallFloor]:
        """Each wrapped call's floor, median over the traced experiments."""
        return {
            name: CallFloor(
                inside_ns=statistics.median(f[name].inside_ns for f in self.floors),
                extra_ns=statistics.median(f[name].extra_ns for f in self.floors),
            )
            for name in WRAPPED_CALLS
        }

    def total(self) -> Counters:
        """Corrected counters summed over every policy kind."""
        total = Counters()
        for c in self.corrected_kinds.values():
            total.add(c)
        return total

    def raw_episode_ns(self) -> int:
        return sum(c.episode_ns for c in self.kinds.values())

    def wrappers_ns(self) -> float:
        """The wrappers' own cost inside the episodes, as ``corrected`` took it off."""
        return self.raw_episode_ns() - self.total().episode_ns

    def self_times_ns(self) -> dict[str, float]:
        """Total self time of each layer over the traced experiments."""
        out = {
            "runner.write_trace": self.write_trace_ns,
            "runner.summary": self.summary_ns,
            "oracle.solve": self.oracle_ns,
        }
        for kind, c in sorted(self.corrected_kinds.items()):
            out[f"policies.{kind}.select"] = c.select_ns
            out[f"policies.{kind}.update"] = c.update_ns - c.record_ns
            out[f"harness.{kind}.loop_self"] = c.loop_self_ns
        total = self.total()
        out["env.sample_tasks"] = total.sample_tasks_ns
        out["env.noise_draw"] = total.noise_ns
        out["estimator.record"] = total.record_ns
        # The separate noise draw before each episode is tracing overhead, not runner work.
        out["runner.self"] = (
            self.experiment_ns
            - self.raw_episode_ns()
            - total.noise_ns
            - self.write_trace_ns
            - self.summary_ns
            - self.oracle_ns
        )
        return out
