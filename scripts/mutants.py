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
run per mutant, with the acceptance tests left out. The suite checks only
that every mutant still applies, in ``tests/test_mutant_anchors.py``. A
change that adds a fast path adds that path's mutants to ``MUTANTS``.
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
ENV = "src/dolrm/env.py"
POLICIES = "src/dolrm/policies.py"
ESTIMATOR = "src/dolrm/estimator.py"
HARNESS = "src/dolrm/harness.py"
CONFIG = "src/dolrm/config.py"
ORACLE = "src/dolrm/oracle.py"
RUNNER = "src/dolrm/runner.py"
# Checks that every mutant's old text is in the tree, so it fails on any
# mutated copy; the runs leave it out.
ANCHOR_TEST = "tests/test_mutant_anchors.py"
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
        HARNESS,
        "                if next_row > horizon:\n                    next_row = horizon\n",
        "",
    ),
    Mutant(
        "trace-template",
        RUNNER,
        'TRACE_ROW_FIELDS = "%d,%d,%d,%.12g,',
        'TRACE_ROW_FIELDS = "%d,%d,%d,%.11g,',
    ),
    # dolrm's cells must start at +inf / c_min, not at oracle-rm's true means;
    # left on the spec's shared tuples, its first update raises
    Mutant(
        "dolrm-keeps-true-means",
        POLICIES,
        "        self.reward_ucb = [[math.inf] * len(arms_s) for arms_s in spec.arms]\n"
        "        self.cost_lcb = [[self.c_min] * len(arms_s) for arms_s in spec.arms]\n",
        "",
    ),
    Mutant("means-swaps-columns", ENV, "        return rewards, costs\n", "        return costs, rewards\n"),
    Mutant(
        "oracle-no-convergence-check",
        ORACLE,
        '    raise RuntimeError(f"ratio iteration did not converge within {DINKELBACH_MAX_ITER} updates")\n',
        '    return OracleResult(theta, PolicyKind("fixed", actions), DINKELBACH_MAX_ITER)\n',
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
        HARNESS,
        "                    ratio = math.nan\n",
        "                    ratio = math.inf\n",
    ),
    Mutant(
        "block-t-restart",
        HARNESS,
        "zip(range(start + 1, start + n + 1), tasks,",
        "zip(range(1, n + 1), tasks,",
    ),
    Mutant(
        "noise-stream-per-block",
        HARNESS,
        "feedback_noise(feedback, sigma, n)",
        "feedback_noise(stream_rng(seed, FEEDBACK_STREAM), sigma, n)",
    ),
    Mutant("sigma-zero-plus-zero", HARNESS, "np.full(2 * n, -0.0)", "np.full(2 * n, 0.0)"),
    # memoize the generator, not its seed sequence: episodes share stream state
    Mutant(
        "stream-memo-shares-generator",
        HARNESS,
        "    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, stream)))\n",
        "    return _generator(seed, stream)\n\n\n"
        "@lru_cache(maxsize=4096)\n"
        "def _generator(seed: int, stream: int) -> np.random.Generator:\n"
        "    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, stream)))\n",
    ),
    Mutant("cdf-sentinel-at-last-index", HARNESS, "    cdf[last:] = math.inf\n", "    cdf[-1:] = math.inf\n"),
    # run_episode must call the select the benchmark installs on the instance
    Mutant(
        "harness-class-select",
        HARNESS,
        "    select = policy.select\n",
        "    select = type(policy).select.__get__(policy)\n",
    ),
    # the last block runs past the horizon: no row changes, only the work
    Mutant("block-past-horizon", HARNESS, "n = min(BLOCK, horizon - start)", "n = min(BLOCK, horizon + start)"),
    Mutant("slope-of-infinite-gap", RUNNER, "0.0 < gap < math.inf", "0.0 < gap <= math.inf"),
    Mutant(
        "ts-no-score-plays-arm-1",
        POLICIES,
        "        sqrt = math.sqrt\n        best = 0\n",
        "        sqrt = math.sqrt\n        best = 1\n",
    ),
    Mutant(
        "fallback-on-sum",
        POLICIES,
        "        if not -math.inf < r_hat - theta * c_check < math.inf:",
        "        if not -math.inf < r_hat + theta * c_check < math.inf:",
    ),
    Mutant("cdf-array-writable", HARNESS, "    cdf.flags.writeable = False\n", ""),
    Mutant(
        "ts-accepts-negative-type",
        POLICIES,
        '        if s < 0:\n            raise IndexError(f"negative task type {s}")\n        stats = self.stats\n',
        "        stats = self.stats\n",
    ),
    Mutant(
        "number-accepts-bool",
        CONFIG,
        "    if isinstance(value, bool) or not isinstance(value, (int, float)):\n",
        "    if not isinstance(value, (int, float)):\n",
    ),
    Mutant(
        "config-names-untyped",
        CONFIG,
        '        _as_str(self.environment_name, "environment_name")\n        _as_str(self.output_dir, "output_dir")\n',
        "",
    ),
    Mutant(
        "config-environment-untyped",
        CONFIG,
        "        if not isinstance(self.environment, EnvironmentSpec):\n"
        '            _fail("environment", f"expected an EnvironmentSpec, got {type(self.environment).__name__}")\n'
        "        for i, kind in enumerate(self.policies):\n"
        "            if not isinstance(kind, PolicyKind):\n"
        '                _fail(f"policies[{i}]", f"expected a PolicyKind, got {type(kind).__name__}")\n',
        "        for i, kind in enumerate(self.policies):\n",
    ),
    Mutant(
        "config-sequences-kept",
        CONFIG,
        "            object.__setattr__(self, key, tuple(values))  # a tuple hashes and equals its echo\n",
        "",
    ),
    # ts draws from the policy stream of its own episode's seed
    Mutant("ts-stream-ignores-seed", HARNESS, "stream_rng(seed, POLICY_STREAM)", "stream_rng(0, POLICY_STREAM)"),
    # the step size: each mode's formula and the mode check live in OracleRmPolicy
    Mutant("fixed-eta-formula", POLICIES, "math.sqrt(horizon))", "math.sqrt(horizon + 1))"),
    Mutant(
        "lr-mode-unchecked",
        POLICIES,
        "        if lr_mode not in LEARNING_RATE_MODES:\n"
        "            raise ValueError(\n"
        '                f"unknown learning-rate mode {lr_mode!r}; expected one of {LEARNING_RATE_MODES}"\n'
        "            )\n",
        "",
    ),
    # the trace writer: the run must wait for it, see its failures, let it
    # drain after the run's own error and never replace that error
    Mutant(
        "writer-close-no-wait",
        RUNNER,
        "        _, status = os.waitpid(self._pid, 0)\n        code = os.waitstatus_to_exitcode(status)\n",
        "        code = 0\n",
    ),
    Mutant("writer-takes-sigint", RUNNER, "        signal.signal(signal.SIGINT, signal.SIG_IGN)\n", ""),
    Mutant("writer-exits-0-on-failure", RUNNER, "    status = 1\n    try:\n", "    status = 0\n    try:\n"),
    Mutant(
        "writer-killed-on-error",
        RUNNER,
        "    def __exit__(self, exc_type, exc, tb) -> None:\n",
        "    def __exit__(self, exc_type, exc, tb) -> None:\n"
        "        if exc_type is not None:\n            os.kill(self._pid, 9)\n",
    ),
    Mutant(
        "writer-replaces-run-error",
        RUNNER,
        "        if code and (exc_type is None or issubclass(exc_type, BrokenPipeError)):\n",
        "        if code:\n",
    ),
    # a write into the pipe of a writer that already failed raises
    # BrokenPipeError, which is the writer's failure, not the run's own
    Mutant(
        "writer-broken-pipe-raw",
        RUNNER,
        "        if code and (exc_type is None or issubclass(exc_type, BrokenPipeError)):\n",
        "        if code and exc_type is None:\n",
    ),
    # the run drops each trace once the writer has it, so it holds one at a time
    Mutant(
        "runner-keeps-last-trace",
        RUNNER,
        "                    del trace  # the writer has it; the next episode runs without it\n",
        "",
    ),
    Mutant(
        "writer-leaks-pipe-on-fork-failure",
        RUNNER,
        "        except OSError:\n            os.close(read_fd)\n            os.close(write_fd)\n            raise\n",
        "        except OSError:\n            raise\n",
    ),
]

_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "results", ".perfbench_*"
)


def run_suite(tree: Path, tests: list[str]) -> bool:
    """True if pytest passes on ``tree``."""
    selection = tests or ["-m", "not acceptance"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += [f"--ignore={ANCHOR_TEST}", *selection]
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
            print(f"{mutant.name:<34} {verdict}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
