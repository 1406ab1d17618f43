"""Experiment runner: executes a resolved config and writes all outputs.

Each (policy, horizon) cell's per-seed final ratios become one
``ReplicationSummary`` row; grids of three or more horizons add a log-log
gap slope per policy. This module alone knows every output format.

Layout under the configured output directory:

    resolved_config.json   config echo (re-parseable)
    oracle.json            optimal ratio, optimal map, fixed-map expected ratios
    summary.json           per policy/horizon aggregates plus slope fits
    summary.txt            the same aggregates as an aligned text table
    traces/trace-<policy>-T<horizon>-seed<seed>.csv

Trace CSV columns are fixed: run_id,policy,t,type,arm,reward,cost,
cum_reward,cum_cost,ratio,theta. The theta column is empty for policies
that do not track a ratio iterate. Floats are written with 12 significant
digits so re-runs compare byte for byte. The JSON documents are strict
JSON: an infinite or undefined (NaN) number is written as null.

The traces are written by one forked writer process per run, in the order
the episodes finish, while the next episode runs (``_TraceWriter``). Each
trace crosses to it as one pickle, and the run drops the trace once it is
handed over, so it holds one trace at a time. This needs ``os.fork``, so
POSIX.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from .config import ExperimentConfig, config_echo
from .harness import BLOCK, EpisodeTrace, run_episode
from .oracle import OracleResult, dinkelbach_theta_star, expected_ratio

TRACE_HEADER = "run_id,policy,t,type,arm,reward,cost,cum_reward,cum_cost,ratio,theta"
# One EpisodeTrace row, t through ratio; write_trace puts the run id and the
# policy before it and the theta field after it.
TRACE_ROW_FIELDS = "%d,%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g,"


def _tmp_sibling(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".tmp")


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks to ``path`` through a ``.tmp`` sibling.

    ``path`` appears only once every chunk is written; if a chunk or the
    final rename raises, the ``.tmp`` file is deleted, so a failed write
    leaves no partial file.
    """
    tmp = _tmp_sibling(path)
    try:
        with tmp.open("w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _finite_or_null(doc: Any) -> Any:
    """``doc`` with every inf and NaN replaced by None, which JSON writes as null."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _finite_or_null(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite_or_null(value) for value in doc]
    return doc


def _write_json(path: Path, doc: Any) -> None:
    _write_atomic(path, (json.dumps(_finite_or_null(doc), indent=2, allow_nan=False), "\n"))


def trace_run_id(policy: str, horizon: int, seed: int) -> str:
    return f"{policy}-T{horizon}-seed{seed}"


def write_trace(path: Path, trace: EpisodeTrace) -> None:
    head = f"{trace_run_id(trace.policy, trace.horizon, trace.seed)},{trace.policy},"
    # "%.0s" writes a theta of None as an empty field.
    theta = "%.0s" if trace.rows[-1][8] is None else "%.12g"
    template = head.replace("%", "%%") + TRACE_ROW_FIELDS + theta + "\n"
    rows = trace.rows
    blocks = ("".join(map(template.__mod__, rows[i : i + BLOCK])) for i in range(0, len(rows), BLOCK))
    _write_atomic(path, chain((TRACE_HEADER + "\n",), blocks))


def _write_traces_from(read_fd: int) -> None:
    """The writer child's whole life: write each trace read from the pipe, then exit.

    Never returns: it leaves through ``os._exit``, with status 0 once the
    parent has closed the pipe after whole traces, and 1 after printing the
    traceback of any failure to stderr. It ignores SIGINT, so a Ctrl-C to
    the process group interrupts the parent alone, which then waits here
    until every trace it handed over is written.
    """
    status = 1
    try:
        # imported here, in the child alone, so importing dolrm costs no more
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with os.fdopen(read_fd, "rb") as pipe:
            while pipe.peek(1):  # empty once the parent has closed its end
                write_trace(*pickle.load(pipe))
        status = 0
    except BaseException:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


class _TraceWriter:
    """One forked child that writes the traces it is handed, in order.

    ``write`` pickles a trace to the child whole and returns once the pipe
    has taken it, so the parent runs the next episode while the child
    formats this one through ``write_trace``. ``pickle.dump`` builds the
    whole pickle (about 64 B per row) before it writes; the parent holds it
    only during the hand-over.
    Leaving the ``with`` block closes the pipe and waits until the child has
    written every trace it was handed, whether or not the block raised. A
    failed write then raises, unless the block is already raising: the
    block's exception is never replaced (the child's traceback is on
    stderr either way).
    """

    def __enter__(self) -> "_TraceWriter":
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(write_fd)
            _write_traces_from(read_fd)
        os.close(read_fd)
        self._pid = pid
        self._pipe = os.fdopen(write_fd, "wb")
        return self

    def write(self, path: Path, trace: EpisodeTrace) -> None:
        pickle.dump((path, trace), self._pipe)
        self._pipe.flush()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self._pipe.close()
        except BrokenPipeError:
            pass  # the child has exited; its status says why
        _, status = os.waitpid(self._pid, 0)
        code = os.waitstatus_to_exitcode(status)
        # A write into the pipe of a child that failed raises BrokenPipeError.
        if code and (exc_type is None or issubclass(exc_type, BrokenPipeError)):
            message = f"the trace writer failed (exit status {code}); its traceback is on stderr"
            raise RuntimeError(message) from exc


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
    # An infinite ratio makes the statistics inf or NaN without a numpy
    # warning; `dolrm run` names the seeds of every non-finite ratio instead.
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.abs(theta_star - ratios)
        mean_gap = float(gaps.mean())
        mean_ratio = float(ratios.mean())
        std_ratio = float(ratios.std())
    return ReplicationSummary(
        policy=policy,
        horizon=horizon,
        num_seeds=len(ratios),
        mean_final_ratio=mean_ratio,
        std_final_ratio=std_ratio,
        mean_gap=mean_gap,
        mean_regret=horizon * mean_gap,
        final_ratios=tuple(float(x) for x in ratios),
    )


def fit_loglog_slope(horizons: Sequence[float], gaps: Sequence[float]) -> float:
    """Least-squares slope of log(gap) against log(horizon)."""
    x = np.log(np.asarray(horizons, dtype=float))
    y = np.log(np.asarray(gaps, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


@dataclass(frozen=True)
class OutputBundle:
    """Paths and in-memory results of one run_experiment call."""

    output_dir: Path
    trace_paths: tuple[Path, ...]
    summary_json_path: Path
    summaries: tuple[ReplicationSummary, ...]
    oracle: OracleResult
    gap_slopes: dict[str, Optional[float]]


def _gap_slopes(cfg: ExperimentConfig, summaries: tuple[ReplicationSummary, ...]) -> dict[str, Optional[float]]:
    """Log-log slope of mean gap vs horizon per policy.

    Empty for grids of fewer than three horizons. A policy's slope is None
    unless every one of its mean gaps is finite and above 0: a gap of
    exactly 0 fell below the measurement floor, an infinite or NaN one has
    no logarithm, and either way the log-log fit is undefined.
    """
    if len(cfg.horizons) < 3:
        return {}
    slopes: dict[str, Optional[float]] = {}
    for kind in cfg.policies:
        gaps = [s.mean_gap for s in summaries if s.policy == kind.name]
        defined = all(0.0 < gap < math.inf for gap in gaps)  # NaN fails both
        slopes[kind.name] = fit_loglog_slope(cfg.horizons, gaps) if defined else None
    return slopes


def _summary_table(summaries: tuple[ReplicationSummary, ...], theta_star: float) -> str:
    header = ("policy", "horizon", "seeds", "mean_ratio", "std_ratio", "mean_gap", "mean_regret")
    rows = [header] + [
        (
            s.policy,
            str(s.horizon),
            str(s.num_seeds),
            *(f"{x:.12g}" for x in (s.mean_final_ratio, s.std_final_ratio, s.mean_gap, s.mean_regret)),
        )
        for s in summaries
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [f"optimal ratio: {theta_star:.12g}", ""]
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig) -> OutputBundle:
    """Run every (policy, horizon, seed) episode in cfg and write outputs.

    Each (policy, horizon) cell's final ratios across seeds become one
    summary; grids of three or more horizons also get gap-decay slopes.
    Every trace is written before the JSON outputs and before this returns
    or raises; a failed trace write raises and leaves no summary.
    """
    out_dir = Path(cfg.output_dir)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "resolved_config.json"
    oracle_path = out_dir / "oracle.json"
    summary_json_path = out_dir / "summary.json"
    summary_table_path = out_dir / "summary.txt"
    # An earlier run's outputs go first: neither this run's summary nor, if it
    # fails, its partial traces may stand beside them. So do the .tmp files
    # of a run that was killed mid-write.
    outputs = (config_path, oracle_path, summary_json_path, summary_table_path)
    stale = (
        *outputs,
        *map(_tmp_sibling, outputs),
        *traces_dir.glob("trace-*.csv"),
        *traces_dir.glob("trace-*.csv.tmp"),
    )
    for path in stale:
        path.unlink(missing_ok=True)

    oracle = dinkelbach_theta_star(cfg.environment)
    optimum = {"theta_star": oracle.theta_star, "optimal_actions": list(oracle.policy.actions)}
    fixed_ratios = {
        kind.name: expected_ratio(cfg.environment, kind.actions)
        for kind in cfg.policies
        if kind.kind == "fixed"
    }

    trace_paths = []
    summaries = []
    with _TraceWriter() as writer:
        for kind in cfg.policies:
            for horizon in cfg.horizons:
                finals = []
                for seed in cfg.seeds:
                    trace = run_episode(
                        cfg.environment,
                        kind,
                        horizon,
                        seed,
                        lr_mode=cfg.lr_mode,
                        stride=cfg.log_stride,
                    )
                    path = traces_dir / f"trace-{trace_run_id(kind.name, horizon, seed)}.csv"
                    writer.write(path, trace)
                    trace_paths.append(path)
                    finals.append(trace.final_ratio)
                    del trace  # the writer has it; the next episode runs without it
                summaries.append(summarize_finals(kind.name, horizon, finals, oracle.theta_star))
    summaries = tuple(summaries)
    gap_slopes = _gap_slopes(cfg, summaries)

    _write_json(config_path, config_echo(cfg))
    _write_json(
        oracle_path,
        {**optimum, "iterations": oracle.iterations, "fixed_map_expected_ratios": fixed_ratios},
    )
    _write_json(
        summary_json_path,
        {
            "environment": cfg.environment_name,
            **optimum,
            "fixed_map_expected_ratios": fixed_ratios,
            "results": [asdict(s) for s in summaries],
            "gap_slopes": gap_slopes,
        },
    )
    _write_atomic(summary_table_path, (_summary_table(summaries, oracle.theta_star),))

    return OutputBundle(
        output_dir=out_dir,
        trace_paths=tuple(trace_paths),
        summary_json_path=summary_json_path,
        summaries=summaries,
        oracle=oracle,
        gap_slopes=gap_slopes,
    )
