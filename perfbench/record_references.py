"""Record the reference output digests of every workload and input set.

Usage (from the root of a checkout):

    python3 perfbench/record_references.py [workload ...]

Runs each input set's experiment once and writes the SHA-256 of every trace
CSV and of summary.json to ``references/<workload>.json``. The references
define correct output: record them only on a commit whose outputs are
known to be right, never to make a failing check pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from paths import REFERENCES, WORK, use_checkout_sources

use_checkout_sources()

from dolrm.config import parse_config  # noqa: E402
from dolrm.runner import run_experiment  # noqa: E402

import digests  # noqa: E402
from run import git_commit  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS, config_sha256, write_config  # noqa: E402


def record(workload) -> dict:
    WORK.mkdir(exist_ok=True)
    sets = {}
    configs = {}
    for index in range(INPUT_SETS):
        config = workload.build(index)
        work = Path(tempfile.mkdtemp(prefix=f"ref-{workload.name}-", dir=WORK))
        try:
            cfg = parse_config(write_config(config, work))
            sets[str(index)] = digests.output_digests(run_experiment(cfg))
        finally:
            shutil.rmtree(work)
        configs[str(index)] = config_sha256(config)
        print(f"{workload.name} input set {index}: {len(sets[str(index)])} files", flush=True)
    return {
        "workload": workload.name,
        "git_commit": git_commit(),
        "config_sha256": configs,
        "input_sets": sets,
    }


def main(names) -> None:
    REFERENCES.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        doc = record(WORKLOADS[name])
        digests.reference_path(name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
