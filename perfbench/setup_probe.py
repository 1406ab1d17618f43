"""Set-up of a fresh interpreter: import dolrm, parse a config, solve the oracle.

Usage: python3 perfbench/setup_probe.py <config.json>

Prints one JSON object with the milliseconds each step took and the
oracle's iteration count. run.py starts this several times per run and
times each process from start to exit as ``setup_s``.
"""

import json
import sys
import time

from paths import use_checkout_sources


def main() -> None:
    use_checkout_sources()
    start = time.perf_counter()
    import dolrm  # noqa: F401  (what the CLI imports first)
    from dolrm.config import parse_config
    from dolrm.oracle import dinkelbach_theta_star

    imported = time.perf_counter()
    cfg = parse_config(sys.argv[1])
    parsed = time.perf_counter()
    result = dinkelbach_theta_star(cfg.environment)
    solved = time.perf_counter()
    print(
        json.dumps(
            {
                "import_ms": (imported - start) * 1e3,
                "parse_ms": (parsed - imported) * 1e3,
                "solve_ms": (solved - parsed) * 1e3,
                "iterations": result.iterations,
            }
        )
    )


if __name__ == "__main__":
    main()
