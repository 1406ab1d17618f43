"""Command line interface.

    dolrm run <config.json>      run the experiment and write outputs
    dolrm oracle <config.json>   print the optimal ratio and decision map
    dolrm presets                list built-in environment presets
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from .config import PRESETS, parse_config
from .oracle import dinkelbach_theta_star
from .runner import run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dolrm",
        description="ratio-optimal online task scheduling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("config", help="path to the experiment config")

    oracle = sub.add_parser("oracle", help="print the optimal ratio for a config's environment")
    oracle.add_argument("config", help="path to the experiment config")

    sub.add_parser("presets", help="list built-in environment presets")
    return parser


def _cmd_run(config_path: str) -> int:
    cfg = parse_config(config_path)
    bundle = run_experiment(cfg)
    print(f"optimal ratio: {bundle.oracle.theta_star!r}")
    for summary in bundle.summaries:
        print(
            f"{summary.policy} T={summary.horizon}: "
            f"mean final ratio {summary.mean_final_ratio:.6g} "
            f"(gap {summary.mean_gap:.3g} over {summary.num_seeds} seeds)"
        )
        undefined = [
            str(seed) for seed, ratio in zip(cfg.seeds, summary.final_ratios) if not math.isfinite(ratio)
        ]
        if undefined:
            print(
                f"warning: {summary.policy} T={summary.horizon}: final ratio is not finite "
                f"for seed(s) {', '.join(undefined)}",
                file=sys.stderr,
            )
    for policy, slope in bundle.gap_slopes.items():
        if slope is not None:
            print(f"gap slope {policy}: {slope:.4f}")
        elif all(math.isfinite(s.mean_gap) for s in bundle.summaries if s.policy == policy):
            print(f"gap slope {policy}: not estimable, a mean gap reached 0 (below measurement floor)")
        else:
            print(f"gap slope {policy}: not estimable, a mean gap is not finite")
    print(f"outputs written to {bundle.output_dir}")
    return 0


def _cmd_oracle(config_path: str) -> int:
    cfg = parse_config(config_path)
    result = dinkelbach_theta_star(cfg.environment)
    print(f"optimal ratio: {result.theta_star!r}")
    print(f"iterations: {result.iterations}")
    print("optimal map: " + ", ".join(
        f"type {s} -> arm {a}" for s, a in enumerate(result.policy.actions)
    ))
    return 0


def _cmd_presets() -> int:
    width = max(len(name) for name in PRESETS)
    for name in sorted(PRESETS):
        print(f"{name.ljust(width)}  {PRESETS[name]['description']}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "oracle":
            return _cmd_oracle(args.config)
        return _cmd_presets()
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
