"""End-to-end acceptance gate.

One test per shipping criterion, each recording a single
"ACCEPTANCE <n> <name>: PASS|FAIL" line in its report's user properties.
The ``pytest_terminal_summary`` hook in conftest.py prints those lines in
an "acceptance" section at the end of every run, so the verdicts are
visible whether or not output is captured. The heavy 20-seed simulations
are shared through module-scoped fixtures.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from dolrm.env import derived_bounds
from dolrm.harness import ARRIVAL_STREAM, POLICY_STREAM, stream_rng
from dolrm.estimator import ArmStatistics
from dolrm.oracle import dinkelbach_theta_star, expected_ratio
from dolrm.policies import (
    ClassicUcbPolicy,
    DolRmPolicy,
    OracleRmPolicy,
    PolicyKind,
    ThompsonSamplingPolicy,
)
from dolrm.runner import run_experiment

from support import (
    brute_force_theta_star,
    lcb_cost,
    sample_task,
    seven_type_env,
    two_type_env,
    ucb_reward,
)
from test_cli import tiny_config
from test_oracle import random_spec

pytestmark = pytest.mark.acceptance

HORIZON = 100_000
SEEDS = tuple(range(20))
LEARNERS = ("dolrm", "ucb", "ts", "oracle-rm")


@pytest.fixture
def criterion(request):
    def check(number: int, name: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        line = f"ACCEPTANCE {number} {name}: {status}{suffix}"
        request.node.user_properties.append(("acceptance", line))
        assert passed, f"acceptance criterion {number} ({name}) failed{suffix}"

    return check


def replicate(tmp_path_factory, spec, kinds, horizons=(HORIZON,)):
    cfg = tiny_config(
        tmp_path_factory.mktemp("acceptance"),
        environment=spec,
        policies=tuple(PolicyKind(kind) for kind in kinds),
        horizons=horizons,
        seeds=SEEDS,
    )
    return run_experiment(cfg)


def replicate_all(tmp_path_factory, spec):
    return {s.policy: s for s in replicate(tmp_path_factory, spec, LEARNERS).summaries}


@pytest.fixture(scope="module")
def p08_spec():
    return two_type_env(p0=0.8)


@pytest.fixture(scope="module")
def p06_spec():
    return two_type_env(p0=0.6)


@pytest.fixture(scope="module")
def p08_star(p08_spec):
    return dinkelbach_theta_star(p08_spec).theta_star


@pytest.fixture(scope="module")
def p06_star(p06_spec):
    return dinkelbach_theta_star(p06_spec).theta_star


@pytest.fixture(scope="module")
def p08_summaries(tmp_path_factory, p08_spec):
    return replicate_all(tmp_path_factory, p08_spec)


@pytest.fixture(scope="module")
def p06_summaries(tmp_path_factory, p06_spec):
    return replicate_all(tmp_path_factory, p06_spec)


@pytest.fixture(scope="module")
def p08_slope_run(tmp_path_factory, p08_spec):
    start = time.perf_counter()
    out = replicate(tmp_path_factory, p08_spec, ("dolrm",), (1_000, 4_000, 16_000, 64_000))
    return out.gap_slopes["dolrm"], time.perf_counter() - start


@pytest.fixture(scope="module")
def seven_type_run(tmp_path_factory):
    return replicate(tmp_path_factory, seven_type_env(), ("dolrm",))


def test_acceptance_1_fixed_map_ratios_exact(criterion, p08_spec):
    greedy = expected_ratio(p08_spec, (0, 0))
    reverse = expected_ratio(p08_spec, (0, 1))
    passed = abs(greedy - 2.5) <= 1e-12 and abs(reverse - 2.6) <= 1e-12
    criterion(1, "fixed-map expected ratios exact", passed,
            f"greedy={greedy!r} reverse={reverse!r}")


def test_acceptance_2_oracle_agreement(criterion, p08_spec):
    start = time.perf_counter()
    cases = [
        (p08_spec, 2.6),
        (two_type_env(p0=0.2), float(Fraction(5, 3))),
        (seven_type_env(), None),
    ]
    ok = True
    for spec, frozen in cases:
        dk = dinkelbach_theta_star(spec)
        bf = brute_force_theta_star(spec)
        ok &= abs(dk.theta_star - bf.theta_star) <= 1e-9
        if frozen is not None:
            ok &= abs(dk.theta_star - frozen) <= 1e-9
    rng = np.random.default_rng(2024)
    for _ in range(200):
        spec = random_spec(rng)
        ok &= (
            abs(
                dinkelbach_theta_star(spec).theta_star
                - brute_force_theta_star(spec).theta_star
            )
            <= 1e-9
        )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    criterion(2, "offline oracle agreement", ok, f"elapsed={elapsed:.3f}s")


def test_acceptance_3_ratio_convergence(criterion, p08_summaries, p06_summaries, p08_star, p06_star):
    gap08 = abs(p08_summaries["dolrm"].mean_final_ratio - p08_star)
    gap06 = abs(p06_summaries["dolrm"].mean_final_ratio - p06_star)
    passed = gap08 <= 0.1 and gap06 <= 0.1
    criterion(3, "learner ratio convergence", passed,
            f"p08 gap={gap08:.4f} p06 gap={gap06:.4f}")


def test_acceptance_4_baseline_ordering(criterion, p08_summaries, p06_summaries):
    details = []
    ok = True
    for name, group in (("p08", p08_summaries), ("p06", p06_summaries)):
        main = group["dolrm"].mean_final_ratio
        ucb = group["ucb"].mean_final_ratio
        ts = group["ts"].mean_final_ratio
        oracle = group["oracle-rm"].mean_final_ratio
        ok &= main > ucb and main > ts and abs(main - oracle) <= 0.05
        details.append(
            f"{name}: dolrm={main:.4f} ucb={ucb:.4f} ts={ts:.4f} oracle={oracle:.4f}"
        )
    criterion(4, "baseline ordering", ok, "; ".join(details))


def test_acceptance_5_gap_decay_slope(criterion, p08_slope_run):
    slope, elapsed = p08_slope_run
    passed = slope is not None and slope <= -0.15 and elapsed < 60.0
    criterion(5, "gap decay slope", passed,
            f"slope={slope:.4f} elapsed={elapsed:.1f}s")


def test_acceptance_6_invariant_fuzz(criterion, p08_spec, tmp_path):
    ok = True

    # ratio iterate containment over one million fuzzed updates; each update
    # reports the arm its select returned, as the policy contract requires
    bounds = derived_bounds(p08_spec)
    policy = DolRmPolicy(p08_spec, horizon=HORIZON)
    rng = np.random.default_rng(314)
    n = 1_000_000
    types = rng.integers(0, 2, n).tolist()
    rewards = rng.uniform(-10.0, 10.0, n).tolist()
    costs = rng.uniform(-10.0, 10.0, n).tolist()
    lo, hi = policy.theta, policy.theta
    for i in range(n):
        s = types[i]
        policy.update(s, policy.select(s), rewards[i], costs[i])
        theta = policy.theta
        if theta < lo:
            lo = theta
        elif theta > hi:
            hi = theta
    ok &= bounds.theta_min <= lo and hi <= bounds.theta_max

    oracle = OracleRmPolicy(p08_spec, horizon=HORIZON)
    for i in range(100_000):
        s = types[i]
        oracle.update(s, oracle.select(s), rewards[i], costs[i])
        ok &= bounds.theta_min <= oracle.theta <= bounds.theta_max

    # estimator truncation and bonus monotonicity under fuzzed statistics
    horizon, r_max, c_min = 10_000, 3.0, 1.0
    means = rng.uniform(-5.0, 5.0, 20_000)
    counts = rng.integers(1, 10**6, 20_000)
    for mean, count in zip(means.tolist(), counts.tolist()):
        stats = ArmStatistics([1])
        stats.counts[0][0] = count
        stats.mean_rewards[0][0] = mean
        stats.mean_costs[0][0] = mean
        r_hat = ucb_reward(stats, 0, 0, horizon, r_max)
        c_check = lcb_cost(stats, 0, 0, horizon, c_min)
        ok &= min(r_max, mean) <= r_hat <= r_max
        ok &= c_min <= c_check <= max(c_min, mean)
        stats.counts[0][0] = count + 1
        ok &= ucb_reward(stats, 0, 0, horizon, r_max) <= r_hat
        ok &= lcb_cost(stats, 0, 0, horizon, c_min) >= c_check

    # forced exploration: each type's first |arms| arrivals sweep its arms
    seven = seven_type_env()
    for learner in (
        DolRmPolicy(seven, horizon=10_000),
        ClassicUcbPolicy(seven),
        ThompsonSamplingPolicy(seven, stream_rng(0, POLICY_STREAM)),
    ):
        arrivals = stream_rng(1, ARRIVAL_STREAM)
        first_picks = {s: [] for s in range(seven.num_types)}
        for _ in range(2_000):
            s = sample_task(seven, arrivals)
            a = learner.select(s)
            learner.update(s, a, 1.0, 1.0)
            if len(first_picks[s]) < seven.num_arms(s):
                first_picks[s].append(a)
        for s, picks in first_picks.items():
            ok &= picks == list(range(seven.num_arms(s)))
        # every round recorded exactly once
        ok &= sum(map(sum, learner.stats.counts)) == 2_000

    # repeated runs produce byte-identical outputs
    cfg_a = tiny_config(tmp_path / "a", environment=two_type_env(p0=0.8), horizons=(500,))
    cfg_b = tiny_config(tmp_path / "b", environment=two_type_env(p0=0.8), horizons=(500,))
    out_a = run_experiment(cfg_a)
    out_b = run_experiment(cfg_b)
    for pa, pb in zip(out_a.trace_paths, out_b.trace_paths):
        ok &= pa.read_bytes() == pb.read_bytes()

    criterion(6, "invariant fuzz suite", ok)


def test_acceptance_7_seven_type_convergence(criterion, seven_type_run):
    (summary,) = seven_type_run.summaries
    star = seven_type_run.oracle.theta_star
    gap = abs(summary.mean_final_ratio - star)
    criterion(7, "seven-type convergence", gap <= 0.1,
            f"mean={summary.mean_final_ratio:.4f} target={star:.4f} gap={gap:.4f}")
