"""Standing mutation check: list the known mutants that the tests fail to kill.

Each mutant is one (file, old text, new text) edit. For each, the working
tree is copied into a temporary directory, the edit is applied there (the
old text must occur exactly once), and pytest runs on the copy. A mutant
survives if pytest passes. An unmutated copy runs first, so a suite that
already fails cannot make every mutant look killed.

    python3 scripts/mutants.py                  # pytest -m "not acceptance"
    python3 scripts/mutants.py tests/test_policies.py

It prints one line per mutant and exits 1 if any survives or no longer
applies. It is not part of the test suite: the default run is one suite
run per mutant, with the acceptance tests left out. A change that adds a fast
path adds that path's mutants to ``MUTANTS``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
POLICIES = "src/dolrm/policies.py"
ESTIMATOR = "src/dolrm/estimator.py"
RECORD_FOLD = (
    "        mean_r[a] = (mean_r[a] * n + reward) / n1\n"
    "        mean_c[a] = (mean_c[a] * n + cost) / n1\n"
)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


MUTANTS = [
    Mutant(
        "tie-highest",
        POLICIES,
        "        score = rewards[a] - theta * costs[a]\n        if score > best_score:",
        "        score = rewards[a] - theta * costs[a]\n        if score >= best_score:",
    ),
    Mutant(
        "no-cache-refresh",
        POLICIES,
        "        self.reward_ucb[s][a] = r_hat\n        self.cost_lcb[s][a] = c_check\n",
        "",
    ),
    Mutant(
        "no-ucb-clip",
        POLICIES,
        "        if r_hat > self.r_max:\n            r_hat = self.r_max\n",
        "",
    ),
    Mutant(
        "no-fallback",
        POLICIES,
        "        if not -math.inf < r_hat - theta * c_check < math.inf:",
        "        if False:",
    ),
    Mutant("ucb-cost-floor", POLICIES, "    cost_floor = 1e-6\n", "    cost_floor = 1e-3\n"),
    Mutant(
        "inverted-single-arm",
        POLICIES,
        "        if self._single_arm[s]:\n            return 0\n        return greedy_arm(",
        "        if not self._single_arm[s]:\n            return 0\n        return greedy_arm(",
    ),
    Mutant(
        "no-row-clamp",
        "src/dolrm/harness.py",
        "            if next_row > horizon:\n                next_row = horizon\n",
        "",
    ),
    Mutant(
        "trace-template",
        "src/dolrm/runner.py",
        'TRACE_ROW_FIELDS = "%d,%d,%d,%.12g,',
        'TRACE_ROW_FIELDS = "%d,%d,%d,%.11g,',
    ),
    Mutant(
        "r-max-sentinel",
        POLICIES,
        "        self.reward_ucb = [[math.inf] * len(arms_s)",
        "        self.reward_ucb = [[self.r_max] * len(arms_s)",
    ),
    Mutant(
        "fallback-minus-inf-only",
        POLICIES,
        "        if not -math.inf < r_hat - theta * c_check < math.inf:",
        "        if not r_hat - theta * c_check > -math.inf:",
    ),
    Mutant(
        "greedy-arm-zero-start",
        POLICIES,
        "    best_score = -math.inf\n    for a in range(len(rewards)):",
        "    best_score = rewards[0] - theta * costs[0]\n    for a in range(1, len(rewards)):",
    ),
    Mutant(
        "record-incremental-mean",
        ESTIMATOR,
        RECORD_FOLD,
        "        mean_r[a] = mean_r[a] + (reward - mean_r[a]) / n1\n"
        "        mean_c[a] = mean_c[a] + (cost - mean_c[a]) / n1\n",
    ),
    Mutant(
        "record-count-first",
        ESTIMATOR,
        "        n = counts[a]\n        n1 = n + 1\n" + RECORD_FOLD + "        counts[a] = n1\n",
        "        counts[a] += 1\n        n = counts[a]\n        n1 = n + 1\n" + RECORD_FOLD,
    ),
    Mutant(
        "zero-cost-ratio-inf",
        "src/dolrm/harness.py",
        "                ratio = math.nan\n",
        "                ratio = math.inf\n",
    ),
    # run_episode must call the select the benchmark installs on the instance
    Mutant(
        "harness-class-select",
        "src/dolrm/harness.py",
        "    select = policy.select\n",
        "    select = type(policy).select.__get__(policy)\n",
    ),
]

_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "results", ".perfbench_*"
)


def run_suite(tree: Path, tests: list[str]) -> bool:
    """True if pytest passes on ``tree``."""
    selection = tests or ["-m", "not acceptance"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def apply(tree: Path, mutant: Mutant) -> bool:
    """Apply the edit in ``tree``; False if its old text does not occur exactly once."""
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tests", nargs="*", help='test files to run (default: -m "not acceptance")')
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="dolrm-mutants-") as scratch:
        def fresh_copy(name: str) -> Path:
            tree = Path(scratch) / name
            shutil.copytree(ROOT, tree, ignore=_SKIP)
            return tree

        if not run_suite(fresh_copy("unmutated"), args.tests):
            print("the unmutated tree fails its tests; fix that first", file=sys.stderr)
            return 2
        bad = []
        for mutant in MUTANTS:
            tree = fresh_copy(mutant.name)
            if not apply(tree, mutant):
                verdict = "NOT APPLIED"
            elif run_suite(tree, args.tests):
                verdict = "SURVIVED"
            else:
                verdict = "killed"
            if verdict != "killed":
                bad.append(mutant.name)
            print(f"{mutant.name:<26} {verdict}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
