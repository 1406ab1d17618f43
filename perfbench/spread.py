"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload wide-arms --seeds 0-9 [--out FILE]

Runs ``run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` once per
seed, one after the other, and prints for each metric its median and its
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; the
``unscaled_`` figures (before host-speed scaling) are summarised the same way.
The output file also keeps each run's ``stamp`` line, so two sets can be
checked to have measured the same configs on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from paths import BENCH, BENCHMARK_JSON


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]

    results, stamps, unscaled = [], [], []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        results.append(result)
        stamps.append(next(json.loads(line[len("stamp "):]) for line in lines if line.startswith("stamp ")))
        unscaled.append({
            name: float(value) for name, value, _ in (line.split() for line in lines if line.startswith("unscaled_"))
        })
        values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}", flush=True)

    summary = {
        name: spread([r["metrics"][name]["value"] for r in results]) for name in results[0]["metrics"]
    }
    summary.update({name: spread([u[name] for u in unscaled]) for name in unscaled[0]})
    for name, s in summary.items():
        share = "n/a" if s["spread"] is None else f"{s['spread']:.2%}"
        print(f"{name}: median {s['median']:.6g}, spread {share}")
    if args.out:
        args.out.write_text(
            json.dumps(
                {"workload": args.workload, "seeds": args.seeds, "seconds": seconds, "trace": 0,
                 "all_correct": all(r["correct"] for r in results), "metrics": summary, "stamps": stamps},
                indent=1,
            ) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
