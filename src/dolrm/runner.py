"""Experiment runner: executes a resolved config and writes all outputs.

Layout under the configured output directory:

    resolved_config.json   config echo (re-parseable)
    oracle.json            optimal ratio, optimal map, fixed-map expected ratios
    summary.json           per policy/horizon aggregates plus slope fits
    summary.txt            the same aggregates as an aligned text table
    traces/trace-<policy>-T<horizon>-seed<seed>.csv

Trace CSV columns are fixed: run_id,policy,t,type,arm,reward,cost,
cum_reward,cum_cost,ratio,theta. The theta column is empty for policies
that do not track a ratio iterate. Floats are written with 12 significant
digits so re-runs compare byte for byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .config import ExperimentConfig, config_echo
from .env import EnvironmentSpec
from .harness import EpisodeTrace, ReplicationSummary, fit_loglog_slope, run_episode, summarize_finals
from .oracle import OracleResult, dinkelbach_theta_star, expected_ratio
from .policies import PolicyKind, PolicyMap

TRACE_HEADER = "run_id,policy,t,type,arm,reward,cost,cum_reward,cum_cost,ratio,theta"


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def trace_run_id(policy: str, horizon: int, seed: int) -> str:
    return f"{policy}-T{horizon}-seed{seed}"


def write_trace(path: Path, trace: EpisodeTrace) -> None:
    run_id = trace_run_id(trace.policy, trace.horizon, trace.seed)
    lines = [TRACE_HEADER]
    thetas = trace.thetas
    for i in range(len(trace.rounds)):
        theta = "" if thetas is None else _fmt(thetas[i])
        lines.append(
            f"{run_id},{trace.policy},{trace.rounds[i]},{trace.task_types[i]},"
            f"{trace.arms[i]},{_fmt(trace.rewards[i])},{_fmt(trace.costs[i])},"
            f"{_fmt(trace.cum_rewards[i])},{_fmt(trace.cum_costs[i])},"
            f"{_fmt(trace.ratios[i])},{theta}"
        )
    _write_atomic(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class OutputBundle:
    """Paths and in-memory results of one run_experiment call."""

    output_dir: Path
    trace_paths: tuple[Path, ...]
    summary_table_path: Path
    summary_json_path: Path
    oracle_path: Path
    config_path: Path
    summaries: tuple[ReplicationSummary, ...]
    oracle: OracleResult
    gap_slopes: dict[str, Optional[float]]


def _fixed_map_ratios(env: EnvironmentSpec, policies: tuple[PolicyKind, ...]) -> dict[str, float]:
    out = {}
    for kind in policies:
        if kind.kind == "fixed":
            out[kind.name] = expected_ratio(env, PolicyMap(kind.actions))
    return out


def _summary_rows(summaries: tuple[ReplicationSummary, ...]) -> list[dict]:
    rows = []
    for s in summaries:
        rows.append(
            {
                "policy": s.policy,
                "horizon": s.horizon,
                "num_seeds": len(s.seeds),
                "mean_final_ratio": s.mean_final_ratio,
                "std_final_ratio": s.std_final_ratio,
                "mean_gap": s.mean_gap,
                "mean_regret": s.mean_regret,
                "final_ratios": list(s.final_ratios),
            }
        )
    return rows


def _gap_slopes(cfg: ExperimentConfig, summaries: tuple[ReplicationSummary, ...]) -> dict[str, Optional[float]]:
    """Log-log slope of mean gap vs horizon per policy.

    Empty for grids of fewer than three horizons. A policy's slope is None
    when one of its mean gaps is exactly 0: convergence fell below the
    measurement floor and the log-log fit is undefined.
    """
    if len(cfg.horizons) < 3:
        return {}
    slopes: dict[str, Optional[float]] = {}
    for kind in cfg.policies:
        gaps = [s.mean_gap for s in summaries if s.policy == kind.name]
        slopes[kind.name] = fit_loglog_slope(cfg.horizons, gaps) if min(gaps) > 0.0 else None
    return slopes


def _summary_table(summaries: tuple[ReplicationSummary, ...], theta_star: float) -> str:
    header = ("policy", "horizon", "seeds", "mean_ratio", "std_ratio", "mean_gap", "mean_regret")
    rows = [header]
    for s in summaries:
        rows.append(
            (
                s.policy,
                str(s.horizon),
                str(len(s.seeds)),
                _fmt(s.mean_final_ratio),
                _fmt(s.std_final_ratio),
                _fmt(s.mean_gap),
                _fmt(s.mean_regret),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [f"optimal ratio: {_fmt(theta_star)}", ""]
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig) -> OutputBundle:
    """Run every (policy, horizon, seed) episode in cfg and write outputs.

    Each (policy, horizon) cell's final ratios across seeds become one
    summary; grids of three or more horizons also get gap-decay slopes.
    """
    if not cfg.policies:
        raise ValueError("config has no policies to run")
    if not cfg.seeds:
        raise ValueError("config needs at least one seed")
    out_dir = Path(cfg.output_dir)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    oracle = dinkelbach_theta_star(cfg.environment)
    fixed_ratios = _fixed_map_ratios(cfg.environment, cfg.policies)

    trace_paths = []
    summaries = []
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
                path = traces_dir / f"trace-{kind.name}-T{horizon}-seed{seed}.csv"
                write_trace(path, trace)
                trace_paths.append(path)
                finals.append(trace.final_ratio)
            summaries.append(
                summarize_finals(kind.name, horizon, cfg.seeds, finals, oracle.theta_star)
            )
    summaries = tuple(summaries)

    config_path = out_dir / "resolved_config.json"
    _write_atomic(config_path, json.dumps(config_echo(cfg), indent=2) + "\n")

    oracle_path = out_dir / "oracle.json"
    oracle_doc = {
        "theta_star": oracle.theta_star,
        "optimal_actions": list(oracle.policy.actions),
        "iterations": oracle.iterations,
        "fixed_map_expected_ratios": fixed_ratios,
    }
    _write_atomic(oracle_path, json.dumps(oracle_doc, indent=2) + "\n")

    gap_slopes = _gap_slopes(cfg, summaries)
    summary_json_path = out_dir / "summary.json"
    summary_doc = {
        "environment": cfg.environment_name,
        "theta_star": oracle.theta_star,
        "optimal_actions": list(oracle.policy.actions),
        "fixed_map_expected_ratios": fixed_ratios,
        "results": _summary_rows(summaries),
        "gap_slopes": gap_slopes,
    }
    _write_atomic(summary_json_path, json.dumps(summary_doc, indent=2) + "\n")

    summary_table_path = out_dir / "summary.txt"
    _write_atomic(summary_table_path, _summary_table(summaries, oracle.theta_star))

    return OutputBundle(
        output_dir=out_dir,
        trace_paths=tuple(trace_paths),
        summary_table_path=summary_table_path,
        summary_json_path=summary_json_path,
        oracle_path=oracle_path,
        config_path=config_path,
        summaries=summaries,
        oracle=oracle,
        gap_slopes=gap_slopes,
    )
