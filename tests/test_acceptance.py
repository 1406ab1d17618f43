"""End-to-end acceptance gate.

One test per shipping criterion, each recording a single
"ACCEPTANCE <n> <name>: PASS|FAIL" line in its report's user properties.
The ``pytest_terminal_summary`` hook in conftest.py prints those lines in
an "acceptance" section at the end of every run, so the verdicts are
visible whether or not output is captured. The heavy 20-seed simulations
are shared through module-scoped fixtures. A negative control checks that
criterion 8's check fails on a skewed ratio step, and controls check that
criterion 9's fails on non-learners and on dolrm with a bonus cut, and
that criterion 10's fails on ucb, ts and the same ablations.
"""

import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from dolrm.env import derived_bounds
from dolrm.harness import ARRIVAL_STREAM, POLICY_STREAM, make_policy, stream_rng
from dolrm.estimator import ArmStatistics
from dolrm.oracle import dinkelbach_theta_star, expected_ratio
from dolrm.policies import (
    ClassicUcbPolicy,
    DolRmPolicy,
    OracleRmPolicy,
    PolicyKind,
    ThompsonSamplingPolicy,
)
from dolrm.runner import fit_loglog_slope, run_experiment, trace_run_id

from support import (
    BonusAblatedDolRm,
    SkewedStepOracleRm,
    brute_force_theta_star,
    cell_gaps,
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
# ACCEPTANCE 8's bound on the mean over seeds of |theta_T - theta*|. The
# oracle-rm bound checks the ratio step alone, the dolrm bound the learner.
THETA_BOUNDS = {"oracle-rm": 0.01, "dolrm": 0.1}
# ACCEPTANCE 5's and 9's grid of horizons on p08.
SLOPE_HORIZONS = (1_000, 4_000, 16_000, 64_000)
# ACCEPTANCE 9's bound on the slope of the paired gap. dolrm's is -0.83; a
# policy that settles on a wrong map, or learns too slowly, stays near 0.
PAIRED_SLOPE_BOUND = -0.65
# Non-learners ACCEPTANCE 9 must reject, run on its grid beside dolrm.
CONTROLS = (PolicyKind("ucb"), PolicyKind("ts"), PolicyKind("fixed", (0, 0)))
# dolrm ablations ACCEPTANCE 9 must reject, by label: the factors (kr, kc) on
# the bonus of the reward UCB and of the cost LCB.
ABLATIONS = {"bonus-1-0": (1.0, 0.0), "bonus-0-1": (0.0, 1.0), "bonus-0-0": (0.0, 0.0)}
# The ablations' shorter grid. Their slopes read -0.109 to +0.002 on it,
# against -0.075 to +0.026 on SLOPE_HORIZONS, and dolrm's -0.83 on both.
ABLATION_HORIZONS = SLOPE_HORIZONS[:3]
# ACCEPTANCE 10's bound on the log-log slope of the mean pseudo-regret.
# dolrm's is +0.15; ucb, ts and the ablations above grow near linearly,
# +0.91 to +1.02.
PSEUDO_REGRET_SLOPE_BOUND = 0.5


@pytest.fixture
def criterion(request):
    def check(number: int, name: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        line = f"ACCEPTANCE {number} {name}: {status}{suffix}"
        request.node.user_properties.append(("acceptance", line))
        assert passed, f"acceptance criterion {number} ({name}) failed{suffix}"

    return check


def replicate(tmp_path_factory, spec, kinds, horizons=(HORIZON,), **overrides):
    """Run ``kinds``, PolicyKinds or kind names, on every horizon and seed."""
    cfg = tiny_config(
        tmp_path_factory.mktemp("acceptance"),
        environment=spec,
        policies=tuple(k if isinstance(k, PolicyKind) else PolicyKind(k) for k in kinds),
        horizons=horizons,
        seeds=SEEDS,
        **overrides,
    )
    return run_experiment(cfg)


def capturing(make, policies):
    """``make`` wrapped to keep each episode's policy in ``policies``.

    Each policy is keyed by its own call's (kind name, horizon, seed), so the
    order in which the runner builds them does not matter.
    """

    def make_and_keep(kind, spec, horizon, lr_mode, seed):
        policies[kind.name, horizon, seed] = policy = make(kind, spec, horizon, lr_mode, seed)
        return policy

    return make_and_keep


def by_policy(bundle):
    return {s.policy: s for s in bundle.summaries}


def final_theta_errors(bundle, policy):
    """|theta_T - theta*| per seed at HORIZON, theta_T read from each trace's last row."""
    errors = []
    for seed in SEEDS:
        path = bundle.output_dir / "traces" / f"trace-{trace_run_id(policy, HORIZON, seed)}.csv"
        theta = float(path.read_text().splitlines()[-1].rsplit(",", 1)[1])
        errors.append(abs(theta - bundle.oracle.theta_star))
    return errors


def theta_check(runs):
    """ACCEPTANCE 8's verdict and detail over named bundles.

    Each ratio policy a bundle ran must keep its mean final-theta error
    within its bound in THETA_BOUNDS.
    """
    passed = True
    details = []
    for name, bundle in runs.items():
        ran = by_policy(bundle)
        for policy, bound in THETA_BOUNDS.items():
            if policy not in ran:
                continue
            errors = final_theta_errors(bundle, policy)
            mean = statistics.fmean(errors)
            worst, seed = max(zip(errors, SEEDS))
            passed &= mean <= bound
            details.append(f"{name} {policy} mean={mean:.4f} worst={worst:.4f} (seed {seed})")
    return passed, "; ".join(details)


def paired_gaps(bundle, policy):
    """ACCEPTANCE 9's per-horizon gaps of ``policy`` and their log-log slope.

    A seed's paired gap is |final ratio of the optimal map - final ratio of
    the policy|. Every kind on a seed sees the same arrivals and noise, so
    the error of R_T / C_T that any settled policy shares cancels. Each gap
    is the mean over seeds, paired through ``final_ratios``. The slope is
    None unless every gap is finite and above 0.
    """
    finals = {(s.policy, s.horizon): s.final_ratios for s in bundle.summaries}
    optimal = bundle.oracle.policy.name
    horizons = sorted({s.horizon for s in bundle.summaries})
    gaps = [
        statistics.fmean(
            abs(o - p) for o, p in zip(finals[optimal, T], finals[policy, T], strict=True)
        )
        for T in horizons
    ]
    slope = fit_loglog_slope(horizons, gaps) if all(0.0 < g < math.inf for g in gaps) else None
    return gaps, slope


def paired_gap_passes(slope):
    return slope is not None and slope <= PAIRED_SLOPE_BOUND


def pseudo_regret(policy, gaps):
    """Sum of N_{s,a} * Delta_{s,a} over the cells, N from the policy's final counts."""
    return math.fsum(
        n * d
        for counts_s, gaps_s in zip(policy.stats.counts, gaps, strict=True)
        for n, d in zip(counts_s, gaps_s, strict=True)
    )


def pseudo_regrets(policies, name, horizons, gaps):
    """ACCEPTANCE 10's mean pseudo-regret over SEEDS per horizon, and its log-log slope.

    The slope is None unless every mean is above 0, as a log-log fit needs.
    """
    means = [
        statistics.fmean(pseudo_regret(policies[name, T, seed], gaps) for seed in SEEDS)
        for T in horizons
    ]
    slope = fit_loglog_slope(horizons, means) if all(m > 0.0 for m in means) else None
    return means, slope


def pseudo_regret_passes(slope):
    return slope is not None and slope <= PSEUDO_REGRET_SLOPE_BOUND


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
def p08_run(tmp_path_factory, p08_spec):
    return replicate(tmp_path_factory, p08_spec, LEARNERS)


@pytest.fixture(scope="module")
def p06_run(tmp_path_factory, p06_spec):
    return replicate(tmp_path_factory, p06_spec, LEARNERS)


@pytest.fixture(scope="module")
def p08_summaries(p08_run):
    return by_policy(p08_run)


@pytest.fixture(scope="module")
def p06_summaries(p06_run):
    return by_policy(p06_run)


@pytest.fixture(scope="module")
def p08_optimal_map(p08_spec):
    return dinkelbach_theta_star(p08_spec).policy


@pytest.fixture(scope="module")
def p08_gaps(p08_spec, p08_star):
    return cell_gaps(p08_spec, p08_star)


@pytest.fixture(scope="module")
def p08_slope_run(tmp_path_factory, p08_spec, p08_optimal_map):
    """The bundle, its wall time and each episode's policy by (name, horizon, seed)."""
    start = time.perf_counter()
    kinds = (PolicyKind("dolrm"), *CONTROLS, p08_optimal_map)
    policies = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("dolrm.harness.make_policy", capturing(make_policy, policies))
        out = replicate(tmp_path_factory, p08_spec, kinds, SLOPE_HORIZONS)
    return out, time.perf_counter() - start, policies


@pytest.fixture(scope="module")
def p08_ablation_run(tmp_path_factory, p08_spec, p08_optimal_map):
    """The bundle and each episode's policy by (name, horizon, seed)."""
    def make_ablation(kind, spec, horizon, lr_mode, seed):
        if kind.label in ABLATIONS:
            return BonusAblatedDolRm(spec, horizon, lr_mode, *ABLATIONS[kind.label])
        return make_policy(kind, spec, horizon, lr_mode, seed)

    kinds = (*(PolicyKind("dolrm", label=label) for label in ABLATIONS), p08_optimal_map)
    policies = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("dolrm.harness.make_policy", capturing(make_ablation, policies))
        return replicate(tmp_path_factory, p08_spec, kinds, ABLATION_HORIZONS), policies


def paired_gap_controls(p08_slope_run, p08_ablation_run):
    """(name, slope) of every control of ACCEPTANCE 9."""
    runs = [(p08_slope_run[0], kind.name) for kind in CONTROLS]
    runs += [(p08_ablation_run[0], label) for label in ABLATIONS]
    return [(name, paired_gaps(run, name)[1]) for run, name in runs]


def pseudo_regret_controls(p08_slope_run, p08_ablation_run, gaps):
    """(name, slope) of every control of ACCEPTANCE 10.

    The fixed maps keep no counts: the optimal map's pseudo-regret is 0 by
    construction and fixed-0-0's is 0.6 per type-1 arrival.
    """
    runs = [(p08_slope_run[2], name, SLOPE_HORIZONS) for name in ("ucb", "ts")]
    runs += [(p08_ablation_run[1], label, ABLATION_HORIZONS) for label in ABLATIONS]
    return [(name, pseudo_regrets(policies, name, horizons, gaps)[1]) for policies, name, horizons in runs]


@pytest.fixture(scope="module")
def seven_type_run(tmp_path_factory):
    return replicate(tmp_path_factory, seven_type_env(), ("dolrm", "oracle-rm"))


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
    bundle, elapsed, _ = p08_slope_run
    slope = bundle.gap_slopes["dolrm"]
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
    summary = by_policy(seven_type_run)["dolrm"]
    star = seven_type_run.oracle.theta_star
    gap = abs(summary.mean_final_ratio - star)
    criterion(7, "seven-type convergence", gap <= 0.1,
            f"mean={summary.mean_final_ratio:.4f} target={star:.4f} gap={gap:.4f}")


def test_acceptance_8_theta_convergence(criterion, p08_run, p06_run, seven_type_run):
    passed, detail = theta_check({"p08": p08_run, "p06": p06_run, "seven-type": seven_type_run})
    criterion(8, "theta convergence", passed, detail)


def test_theta_check_rejects_a_skewed_ratio_step(tmp_path_factory, p08_spec, monkeypatch):
    # the skewed step leaves oracle-rm's mean final ratio on p08 at 2.5993,
    # so the ratio criteria cannot see it; its theta ends near 2.889
    def make_policy(kind, spec, horizon, lr_mode, seed):
        return SkewedStepOracleRm(spec, horizon, lr_mode)

    monkeypatch.setattr("dolrm.harness.make_policy", make_policy)
    run = replicate(tmp_path_factory, p08_spec, ("oracle-rm",))
    passed, detail = theta_check({"p08": run})
    assert not passed, detail
    assert "p08 oracle-rm" in detail


def test_acceptance_9_paired_gap_decay(criterion, p08_slope_run, p08_ablation_run):
    gaps, slope = paired_gaps(p08_slope_run[0], "dolrm")
    controls = ", ".join(
        f"{name}={'none' if s is None else f'{s:+.4f}'}"
        for name, s in paired_gap_controls(p08_slope_run, p08_ablation_run)
    )
    criterion(9, "paired gap decay", paired_gap_passes(slope),
            f"dolrm slope={slope:.4f} gap {gaps[0]:.4f} -> {gaps[-1]:.4f}; "
            f"control slopes: {controls} (bonus-* on T <= {ABLATION_HORIZONS[-1]})")


def test_paired_gap_check_rejects_every_control(p08_slope_run, p08_ablation_run):
    for name, slope in paired_gap_controls(p08_slope_run, p08_ablation_run):
        assert not paired_gap_passes(slope), (name, slope)


def test_acceptance_10_pseudo_regret_slope(criterion, p08_slope_run, p08_ablation_run, p08_gaps):
    regrets, slope = pseudo_regrets(p08_slope_run[2], "dolrm", SLOPE_HORIZONS, p08_gaps)
    controls = ", ".join(
        f"{name}={'none' if s is None else f'{s:+.4f}'}"
        for name, s in pseudo_regret_controls(p08_slope_run, p08_ablation_run, p08_gaps)
    )
    criterion(10, "pseudo-regret slope", pseudo_regret_passes(slope),
            f"dolrm slope={slope:+.4f} regret {regrets[0]:.1f} -> {regrets[-1]:.1f}; "
            f"control slopes: {controls} (bonus-* on T <= {ABLATION_HORIZONS[-1]})")


def test_pseudo_regret_check_rejects_every_control(p08_slope_run, p08_ablation_run, p08_gaps):
    for name, slope in pseudo_regret_controls(p08_slope_run, p08_ablation_run, p08_gaps):
        assert not pseudo_regret_passes(slope), (name, slope)


def test_pseudo_regret_capture_matches_the_trace_rows(tmp_path_factory, p08_spec, p08_gaps, monkeypatch):
    # stride 1 logs every round, so the Delta of each row's cell sums to the
    # pseudo-regret; most seeds' sums differ, so keys on the wrong episodes fail
    kinds = (PolicyKind("dolrm"),)
    policies = {}
    monkeypatch.setattr("dolrm.harness.make_policy", capturing(make_policy, policies))
    bundle = replicate(tmp_path_factory, p08_spec, kinds, (500,), log_stride=1)
    for seed in SEEDS:
        path = bundle.output_dir / "traces" / f"trace-{trace_run_id('dolrm', 500, seed)}.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 500
        total = math.fsum(p08_gaps[int(row[3])][int(row[4])] for row in rows)
        assert total == pytest.approx(pseudo_regret(policies["dolrm", 500, seed], p08_gaps))
