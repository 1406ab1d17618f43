"""dolrm benchmark: one workload as a closed loop of run_experiment calls.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload p08-headline --seed 0 --seconds 30 --trace 0

One caller in one process and one thread: each ``run_experiment`` starts
after the previous one returns, until ``--seconds`` have passed. Every
experiment goes through the public path ``dolrm.config.parse_config`` ->
``dolrm.runner.run_experiment``, writes into a temporary directory inside
the checkout, and has its trace CSVs and summary.json checked against the
reference digests in ``references/`` before the directory is deleted.

``--trace 0`` prints the end-to-end metrics, scaled to a host of fixed
speed by ``hostspeed.py`` (the unscaled figures are printed too). ``--trace 1`` alternates
untraced and traced experiments and prints the per-layer metrics, the self
time of each layer, and the tracing overhead (traced minus untraced wall
time); its spans are written to ``.perfbench_spans/``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from paths import BENCH, BENCHMARK_JSON, ROOT, SPANS, WORK, use_checkout_sources

use_checkout_sources()

import numpy as np  # noqa: E402

import dolrm  # noqa: E402
import dolrm.runner  # noqa: E402
from dolrm.config import parse_config  # noqa: E402
from dolrm.runner import run_experiment  # noqa: E402

import digests  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, config_sha256, input_set, write_config  # noqa: E402

SETUP_PROBES = 7
KINDS = ("dolrm", "ucb", "ts", "oracle-rm", "fixed")

# Enough episodes for round_ns_p90 to have ten episodes beyond it.
MIN_EPISODES_TIMED = 100
# A run that has not timed MIN_EPISODES_TIMED by then stops anyway, so that it
# ends well within three minutes; it says so in its output.
HARD_STOP_S = 150.0


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())[kind]}


class Tally:
    """Episodes attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def episodes_in(cfg) -> int:
    return len(cfg.policies) * len(cfg.horizons) * len(cfg.seeds)


def rounds_in(cfg) -> int:
    return len(cfg.policies) * len(cfg.seeds) * sum(cfg.horizons)


def run_once(cfg, reference: dict[str, str], tally: Tally, around=contextlib.nullcontext):
    """One run_experiment call inside ``around()``: its wall seconds, or None if it raised.

    The outputs are checked against ``reference`` and deleted afterwards;
    neither step is inside the timed region.
    """
    episodes = episodes_in(cfg)
    tally.attempted += episodes
    try:
        with around():
            start = time.perf_counter()
            bundle = run_experiment(cfg)
            wall = time.perf_counter() - start
        tally.failed += digests.failed_episodes(digests.output_digests(bundle), reference)
        return wall
    except Exception:  # a failing experiment is counted, and the loop goes on
        traceback.print_exc()
        tally.failed += episodes
        return None
    finally:
        shutil.rmtree(cfg.output_dir, ignore_errors=True)


@contextlib.contextmanager
def episode_timer(episodes: list[tuple[int, int, float]], speed: HostSpeed):
    """Two clock reads around the runner's call to run_episode, after a host-speed sample.

    Appends (start ns, end ns, ns per round) for every episode.
    """
    original = dolrm.runner.run_episode

    def run_episode(spec, kind, horizon, seed, **kwargs):
        speed.sample()
        start = time.perf_counter_ns()
        trace = original(spec, kind, horizon, seed, **kwargs)
        end = time.perf_counter_ns()
        episodes.append((start, end, (end - start) / horizon))
        return trace

    dolrm.runner.run_episode = run_episode
    try:
        yield
    finally:
        dolrm.runner.run_episode = original


class SetupProbes:
    """Fresh interpreters that set up the workload, spread over the run.

    One probe runs after each experiment, so a burst of load on the machine
    moves few of the samples; ``finish`` tops them up to ``SETUP_PROBES``.
    ``regions`` holds (start ns, end ns, wall s) of every probe, with a
    host-speed sample on either side.
    """

    def __init__(self, config_path: Path, speed: HostSpeed) -> None:
        self.config_path = config_path
        self.speed = speed
        self.regions: list[tuple[int, int, float]] = []
        self.steps: list[dict] = []

    def probe(self) -> None:
        self.speed.sample()
        start = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(self.config_path)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        end = time.perf_counter_ns()
        self.speed.sample()
        self.regions.append((start, end, (end - start) / 1e9))
        self.steps.append(json.loads(proc.stdout))

    def finish(self) -> None:
        while len(self.regions) < SETUP_PROBES:
            self.probe()

    def median_ms(self, step: str) -> float:
        return statistics.median(p[step] for p in self.steps)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for, in MB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(workload, seed: int, index: int, config: dict, cfg) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dolrm": dolrm.__version__,
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "input_set": index,
        "config_sha256": config_sha256(config),
        "sizes": {
            "policies": [k.name for k in cfg.policies],
            "horizons": list(cfg.horizons),
            "seeds": [cfg.seeds[0], cfg.seeds[-1]],
            "log_stride": cfg.log_stride,
            "episodes_per_experiment": episodes_in(cfg),
            "rounds_per_experiment": rounds_in(cfg),
        },
    }


def closed_loop(seconds: float, experiment, probes: SetupProbes, enough=lambda: True) -> None:
    """Call ``experiment`` back to back, with a set-up probe after each.

    Stops once ``seconds`` have passed and ``enough()`` holds, or at the
    latest after ``max(seconds, HARD_STOP_S)``.
    """
    start = time.perf_counter()
    while True:
        experiment()
        probes.probe()
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and enough()) or elapsed >= max(seconds, HARD_STOP_S):
            break
    probes.finish()


def time_metrics(rounds: int, experiments, episodes, probes, scale=lambda start, end: 1.0) -> dict:
    """The timed end-to-end metrics from (start ns, end ns, time) regions, each time multiplied by ``scale``."""

    def scaled(regions):
        return [value * scale(start, end) for start, end, value in regions]

    per_round = scaled(episodes)
    return {
        "rounds_per_s": statistics.median(rounds / wall for wall in scaled(experiments)),
        "round_ns_p50": float(np.percentile(per_round, 50)),
        "round_ns_p90": float(np.percentile(per_round, 90)),
        "setup_s": statistics.median(scaled(probes)),
    }


def end_to_end(cfg, reference, tally: Tally, seconds: float, probes: SetupProbes):
    speed = probes.speed
    experiments, episodes = [], []

    def experiment():
        spent = speed.spent_ns
        start = time.perf_counter_ns()
        wall = run_once(cfg, reference, tally)
        if wall is not None:
            # The host-speed samples before each episode are not the program's time.
            experiments.append((start, time.perf_counter_ns(), wall - (speed.spent_ns - spent) / 1e9))

    with episode_timer(episodes, speed):
        closed_loop(seconds, experiment, probes, lambda: len(episodes) >= MIN_EPISODES_TIMED)
    if not experiments:
        raise SystemExit("perfbench: every experiment raised; no timings to report")
    args = (rounds_in(cfg), experiments, episodes, probes.regions)
    metrics = {**time_metrics(*args, scale=speed.scale), "peak_rss_mb": peak_rss_mb()}
    lines = [f"experiments {len(experiments)}", f"episodes_timed {len(episodes)}"]
    kernel_ns = speed.kernel_ns
    lines.append(
        f"host_kernel_ns median {statistics.median(kernel_ns)} min {min(kernel_ns)} max {max(kernel_ns)} "
        f"over {len(kernel_ns)} samples"
    )
    units = declared_units("end_to_end")
    lines += [f"unscaled_{name} {value!r} {units[name]}" for name, value in time_metrics(*args).items()]
    if len(episodes) < MIN_EPISODES_TIMED:
        lines.append(
            f"warning: fewer than {MIN_EPISODES_TIMED} episodes timed before the hard stop; "
            "round_ns_p90 rests on fewer than ten episodes beyond it"
        )
    return metrics, lines


def per_layer(cfg, reference, tally: Tally, seconds: float, probes: SetupProbes, tracer: Tracer):
    untraced, traced = [], []

    def experiment():
        for walls, around in ((untraced, contextlib.nullcontext), (traced, tracer.experiment)):
            wall = run_once(cfg, reference, tally, around)
            if wall is not None:
                walls.append(wall)

    closed_loop(seconds, experiment, probes)
    if not traced or not untraced:
        raise SystemExit("perfbench: every experiment raised; no timings to report")

    n = tracer.experiments
    metrics = {
        "cli.import_ms": probes.median_ms("import_ms"),
        "config.parse_ms": probes.median_ms("parse_ms"),
        "oracle.solve_ms": probes.median_ms("solve_ms"),
        "oracle.iterations": probes.steps[0]["iterations"],
    }
    total = tracer.total()
    kinds = tracer.corrected_kinds
    metrics["env.sample_tasks_ns_per_round"] = total.sample_tasks_ns / total.rounds
    metrics["env.noise_draw_ns_per_round"] = total.noise_ns / total.rounds
    metrics["estimator.record_ns"] = total.record_ns / total.record_calls
    for k in KINDS:
        c = kinds[k]
        metrics[f"policies.{k}.select_ns"] = c.select_ns / c.select_calls
        metrics[f"policies.{k}.update_ns"] = c.update_ns / c.update_calls
        metrics[f"policies.{k}.optimal_pull_frac"] = c.optimal_pulls / c.select_calls
    for k in KINDS:
        c = kinds[k]
        metrics[f"harness.{k}.episode_ns_per_round"] = c.episode_ns / c.rounds
        metrics[f"harness.{k}.loop_self_ns_per_round"] = c.loop_self_ns / c.rounds
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics.update(
        {
            "harness.episodes": total.episodes // n,
            "runner.write_trace_ms": tracer.write_trace_ns / n / 1e6,
            "runner.summary_ms": tracer.summary_ns / n / 1e6,
            "runner.trace_rows": tracer.trace_rows // n,
            "runner.trace_bytes": tracer.trace_bytes // n,
            "runner.experiment_ms": tracer.experiment_ns / n / 1e6,
            "tracing.overhead_s": overhead,
        }
    )

    self_ns = tracer.self_times_ns()
    lines = [f"experiments {len(untraced)} untraced, {len(traced)} traced"]
    for name, floor in tracer.floor_medians().items():
        lines.append(
            f"tracing_floor {name} {floor.inside_ns:.1f} ns inside the clock reads, "
            f"{floor.extra_ns:.1f} ns in all per call (median over experiments); taken off the figures below"
        )
    lines.append(
        f"tracing_overhead {overhead!r} s per experiment "
        f"({overhead / statistics.median(untraced):.1%} of untraced wall)"
    )
    lines.append(
        f"tracing_wrappers {tracer.wrappers_ns() / n / 1e6:.3f} ms per experiment "
        f"({tracer.wrappers_ns() / tracer.experiment_ns:.1%} of traced wall), not in any self time"
    )
    for layer, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"self_time {layer} {ns / n / 1e6:.3f} ms per experiment "
            f"({ns / tracer.experiment_ns:.1%} of traced wall)"
        )
    lines.append(f"largest_self_time {max(self_ns, key=self_ns.get)}")
    return metrics, lines


def run_benchmark(workload, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    """Run one workload; return the lines to print and the result object."""
    index = input_set(seed)
    config = workload.build(index)
    reference = digests.load_reference(workload.name, index)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        config_path = write_config(config, work)
        cfg = parse_config(config_path)
        info = stamp(workload, seed, index, config, cfg)
        lines = [
            f"perfbench {workload.name} seed={seed} input_set={index} trace={int(trace)}",
            "stamp " + json.dumps(info),
        ]
        probes = SetupProbes(config_path, HostSpeed())
        tally = Tally()
        if trace:
            tracer = Tracer()
            metrics, extra = per_layer(cfg, reference, tally, seconds, probes, tracer)
            SPANS.mkdir(exist_ok=True)
            spans_path = SPANS / f"{workload.name}-seed{seed}.json"
            spans_path.write_text(
                json.dumps({"stamp": info, "spans": [s for s in tracer.spans if s is not None]})
            )
            extra.append(f"spans {os.path.relpath(spans_path, ROOT)}")
        else:
            metrics, extra = end_to_end(cfg, reference, tally, seconds, probes)
        units = declared_units("per_layer" if trace else "end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    lines += extra
    lines += [f"{name} {metrics[name]!r} {unit}" for name, unit in units.items()]
    lines.append(f"ops_attempted {tally.attempted} count")
    lines.append(f"ops_failed_frac {tally.failed / tally.attempted!r} fraction")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lines, result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
