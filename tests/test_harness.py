import json
import math
import tracemalloc

import numpy as np
import pytest

import dolrm.harness
from dolrm.env import EnvironmentSpec, derived_bounds, validate_env
from dolrm.harness import (
    ARRIVAL_STREAM,
    FEEDBACK_STREAM,
    POLICY_STREAM,
    default_stride,
    feedback_noise,
    run_episode,
    sample_tasks,
    stream_rng,
)
from dolrm.policies import (
    POLICY_KINDS,
    ClassicUcbPolicy,
    DolRmPolicy,
    PolicyKind,
    ThompsonSamplingPolicy,
    make_policy,
)
from dolrm.runner import fit_loglog_slope, run_experiment, summarize_finals

from support import PerCallThompsonSampling, StubRng, sample_feedback, sample_task, two_type_env
from test_cli import tiny_config

SINGLETON = EnvironmentSpec((1.0,), (((2.0, 1.0),),), 0.0)
SIGNED_ZERO = EnvironmentSpec((0.5, 0.5), (((-0.0, 0.5),), ((1.5, 0.75), (1.5, 0.75))), 0.0)
DOLRM = PolicyKind("dolrm")
REVERSE = PolicyKind("fixed", (0, 1), "reverse")
GREEDY = PolicyKind("fixed", (0, 0), "greedy")
ONLY = PolicyKind("fixed", (0,), "only")


class TestStreams:
    def test_same_label_reproduces(self):
        a = stream_rng(5, ARRIVAL_STREAM).random(4)
        b = stream_rng(5, ARRIVAL_STREAM).random(4)
        assert a.tolist() == b.tolist()

    def test_labels_are_independent(self):
        draws = {
            stream: stream_rng(5, stream).random()
            for stream in (ARRIVAL_STREAM, FEEDBACK_STREAM, POLICY_STREAM)
        }
        assert len(set(draws.values())) == 3

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            stream_rng(-1, ARRIVAL_STREAM)

    def test_canary_first_draws_and_bonus_constants(self):
        # The golden digests hash outputs built from these numbers. A numpy
        # or libm change that moves one fails here by name, not only as a
        # wall of digest mismatches. Each stream is read with the method the
        # episode uses: uniforms for arrivals, standard normals otherwise.
        assert [x.hex() for x in stream_rng(0, ARRIVAL_STREAM).random(3).tolist()] == [
            "0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5",
        ]
        assert [x.hex() for x in stream_rng(0, FEEDBACK_STREAM).standard_normal(3).tolist()] == [
            "0x1.a5c170234e89ep-4", "-0x1.f607a848d4287p-1", "-0x1.a28c84dd75dedp-1",
        ]
        assert [x.hex() for x in stream_rng(0, POLICY_STREAM).standard_normal(3).tolist()] == [
            "-0x1.331f9acf80706p-1", "-0x1.66ee111f4db30p-2", "-0x1.00ff51e2d2042p+0",
        ]
        # dolrm's bonus sqrt(log T / N), at T = 1e5 and N = 3
        assert math.log(100_000).hex() == "0x1.7069e2aa2aa5bp+3"
        assert math.sqrt(math.log(100_000) / 3).hex() == "0x1.f5805e60e5c75p+0"

    def test_every_kind_draws_the_same_arrivals_and_feedback(self, p08, monkeypatch):
        # Common random numbers: comparing policies seed by seed is fair only
        # if what a policy does never changes the arrivals and noise it meets.
        draws = []

        class RecordingRng:
            def __init__(self, stream, rng):
                self.stream = stream
                self.rng = rng

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def call(*args):
                    out = method(*args)
                    draws[-1].append((self.stream, name, args, out.tolist()))
                    return out

                return call

        policy_streams = []

        def recording_stream_rng(seed, stream):
            rng = stream_rng(seed, stream)
            if stream == POLICY_STREAM:
                policy_streams.append(kind.kind)
                return rng
            return RecordingRng(stream, rng)

        monkeypatch.setattr(dolrm.harness, "stream_rng", recording_stream_rng)
        kinds = [PolicyKind(k, (0, 1) if k == "fixed" else None) for k in POLICY_KINDS]
        task_columns = []
        for kind in kinds:
            draws.append([])
            trace = run_episode(p08, kind, 200, seed=7, stride=1)
            task_columns.append([row[1] for row in trace.rows])
        assert sorted({stream for stream, *_ in draws[0]}) == [ARRIVAL_STREAM, FEEDBACK_STREAM]
        assert all(kind_draws == draws[0] for kind_draws in draws)
        assert all(tasks == task_columns[0] for tasks in task_columns)
        # only ts draws from its own stream, so only ts gets a generator for it
        assert policy_streams == ["ts"]

    def test_default_stride(self):
        assert default_stride(10) == 1
        assert default_stride(999) == 1
        assert default_stride(100_000) == 100


class TestArrivalSampling:
    def test_inverse_cdf_convention(self, p08):
        assert sample_task(p08, StubRng(uniforms=[0.50])) == 0
        assert sample_task(p08, StubRng(uniforms=[0.95])) == 1

    def test_draw_equal_to_cumulative_goes_right(self, p08):
        # the convention is "first cumulative strictly exceeding the draw"
        assert sample_task(p08, StubRng(uniforms=[0.8])) == 1

    def test_point_mass(self):
        spec = EnvironmentSpec((1.0,), (((1.0, 1.0),),))
        assert sample_task(spec, StubRng(uniforms=[0.0])) == 0
        assert sample_task(spec, StubRng(uniforms=[0.999])) == 0

    def test_rounding_shortfall_falls_back_to_last_type(self):
        third = 1.0 / 3.0
        spec = EnvironmentSpec(
            (third, third, third),
            (((1.0, 1.0),), ((1.0, 1.0),), ((1.0, 1.0),)),
        )
        # cumulative float sum tops out just below 1; a draw above it must
        # still land on a valid index
        assert sample_task(spec, StubRng(uniforms=[0.9999999999999999])) == 2
        assert sample_tasks(spec, 1, StubRng(uniforms=[0.9999999999999999])).tolist() == [2]

    def test_rounding_shortfall_skips_zero_probability_types(self):
        # valid (the sum is within 1e-12 of 1), and the cumulative tops out
        # at 1 - 1e-13: a draw above it must not land on the type that
        # never arrives
        spec = validate_env(
            EnvironmentSpec((0.5, 0.5 - 1e-13, 0.0), (((1.0, 1.0),),) * 3)
        )
        u = 0.99999999999999
        assert sample_tasks(spec, 3, StubRng(uniforms=[u] * 3)).tolist() == [1, 1, 1]
        assert sample_task(spec, StubRng(uniforms=[u])) == 1

    def test_batch_matches_scalar_draws(self, p08):
        n = 200
        batch = sample_tasks(p08, n, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        scalar = [sample_task(p08, rng) for _ in range(n)]
        assert batch.tolist() == scalar

    def test_empirical_frequencies(self, p08):
        n = 1_000_000
        draws = sample_tasks(p08, n, np.random.default_rng(7))
        freq0 = float(np.mean(draws == 0))
        assert abs(freq0 - 0.8) < 2e-3
        assert abs((1.0 - freq0) - 0.2) < 2e-3


class TestRunEpisode:
    def test_single_round_singleton(self):
        trace = run_episode(SINGLETON, DOLRM, 1, 0)
        [(t, _, a, _, _, _, _, ratio, theta)] = trace.rows
        assert t == 1
        assert a == 0
        assert ratio == 2.0
        assert trace.final_ratio == 2.0
        assert theta is not None

    def test_noiseless_fixed_maps_approach_expected_ratios(self):
        spec = two_type_env(sigma=0.0)
        rev = run_episode(spec, REVERSE, 100_000, 0).final_ratio
        gre = run_episode(spec, GREEDY, 100_000, 0).final_ratio
        assert abs(rev - 2.6) < 0.02
        assert abs(gre - 2.5) < 0.02

    def test_identical_seed_reproduces_trace(self, p08):
        a = run_episode(p08, DOLRM, 2_000, 9)
        b = run_episode(p08, DOLRM, 2_000, 9)
        assert a.rows == b.rows

    def test_different_seeds_differ(self, p08):
        a = run_episode(p08, DOLRM, 500, 0)
        b = run_episode(p08, DOLRM, 500, 1)
        assert [row[3] for row in a.rows] != [row[3] for row in b.rows]

    def test_cumulative_sums_are_prefix_sums(self, p08):
        trace = run_episode(p08, DOLRM, 500, 2, stride=1)
        assert len(trace.rows) == 500
        run_r = run_c = 0.0
        for _, _, _, r, c, cum_r, cum_c, _, _ in trace.rows:
            run_r += r
            run_c += c
            assert cum_r == pytest.approx(run_r, abs=1e-9)
            assert cum_c == pytest.approx(run_c, abs=1e-9)
        assert trace.rows[-1][5] == pytest.approx(
            math.fsum(row[3] for row in trace.rows), abs=1e-9
        )

    def test_theta_stays_inside_bounds(self, p08):
        b = derived_bounds(p08)
        for kind in (DOLRM, PolicyKind("oracle-rm")):
            trace = run_episode(p08, kind, 5_000, 4, stride=1)
            assert all(b.theta_min <= theta <= b.theta_max for *_, theta in trace.rows)

    def test_theta_absent_for_estimating_baselines(self, p08):
        for kind in (REVERSE, PolicyKind("ucb"), PolicyKind("ts")):
            assert all(theta is None for *_, theta in run_episode(p08, kind, 50, 0).rows)

    def test_stride_controls_logged_rounds(self, p08):
        assert run_episode(p08, DOLRM, 10, 0, stride=1).rounds == list(range(1, 11))
        assert run_episode(p08, DOLRM, 10, 0, stride=3).rounds == [3, 6, 9, 10]
        assert run_episode(p08, DOLRM, 10, 0, stride=7).rounds == [7, 10]
        assert run_episode(p08, DOLRM, 10, 0, stride=9).rounds == [9, 10]
        assert run_episode(p08, DOLRM, 10, 0, stride=10).rounds == [10]
        assert run_episode(p08, DOLRM, 1, 0, stride=5).rounds == [1]

    def test_final_round_always_logged(self, p08):
        trace = run_episode(p08, DOLRM, 1_001, 0, stride=500)
        assert trace.rounds == [500, 1000, 1001]

    def test_rejects_bad_horizon_and_stride(self, p08):
        with pytest.raises(ValueError, match="horizon"):
            run_episode(p08, DOLRM, 0, 0)
        with pytest.raises(ValueError, match="stride"):
            run_episode(p08, DOLRM, 10, 0, stride=0)

    def test_matches_manual_scalar_replay(self, p08, monkeypatch):
        # Every kind, with and without noise, on an environment whose -0.0
        # mean reward must reach the trace unchanged; a stride past the
        # horizon logs the final round only. With blocks of 7 rounds the
        # horizons end inside the first block, on its last round, one past
        # it, inside the third block and inside the fifth.
        monkeypatch.setattr(dolrm.harness, "BLOCK", 7)
        specs = (p08, two_type_env(sigma=0.0), SIGNED_ZERO)
        kinds = (DOLRM, PolicyKind("ucb"), PolicyKind("ts"), PolicyKind("oracle-rm"), REVERSE)
        for horizon in (6, 7, 8, 15, 30):
            for spec in specs:
                for kind in kinds:
                    for stride in (1, 4, horizon + 1):
                        trace = run_episode(spec, kind, horizon, 21, stride=stride)
                        expected = scalar_replay(spec, kind, horizon, 21, stride)
                        # repr tells -0.0 from 0.0
                        assert repr(trace.rows) == repr(expected), (horizon, spec, kind, stride)

    @pytest.mark.parametrize("horizon", [14, 15])
    def test_block_draws_continue_one_bulk_draw(self, monkeypatch, horizon):
        # two full blocks of 7 rounds, then the same plus one round
        monkeypatch.setattr(dolrm.harness, "BLOCK", 7)
        bulk = stream_rng(3, FEEDBACK_STREAM).standard_normal((horizon, 2)) * 1.5
        assert list(feedback_noise(3, 1.5, horizon)) == bulk.ravel().tolist()

    def test_episode_memory_does_not_grow_per_round(self, p08):
        # Only the int64 arrivals (8 B per round, 16 B while sample_tasks
        # searches its uniforms) may grow with the horizon; per-round lists
        # of Python floats and ints would add about 90 B per round.
        run_episode(p08, REVERSE, 1_000, 0)
        peaks = []
        for horizon in (100_000, 400_000):
            tracemalloc.start()
            try:
                run_episode(p08, REVERSE, horizon, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 300_000 < 24


def scalar_replay(spec, kind, horizon, seed, stride):
    """The trace rows of one episode, replayed one round at a time."""
    arrival = stream_rng(seed, ARRIVAL_STREAM)
    feedback = stream_rng(seed, FEEDBACK_STREAM)
    policy_rng = stream_rng(seed, POLICY_STREAM)
    if kind.kind == "ts":
        policy = PerCallThompsonSampling(spec, policy_rng)
    else:
        policy = make_policy(kind, spec, horizon, "decaying", policy_rng)
    rows = []
    cum_r = cum_c = 0.0
    for t in range(1, horizon + 1):
        s = sample_task(spec, arrival)
        a = policy.select(s)
        reward, cost = map(float, sample_feedback(spec, s, a, feedback))
        policy.update(s, a, reward, cost)
        cum_r += reward
        cum_c += cost
        if t % stride == 0 or t == horizon:
            rows.append((t, s, a, reward, cost, cum_r, cum_c, cum_r / cum_c, policy.theta))
    return rows


class TestCountBookkeeping:
    def drive(self, policy, horizon, seed):
        spec = two_type_env()
        arrival = stream_rng(seed, ARRIVAL_STREAM)
        feedback = stream_rng(seed, FEEDBACK_STREAM)
        for _ in range(horizon):
            s = sample_task(spec, arrival)
            a = policy.select(s)
            fb = sample_feedback(spec, s, a, feedback)
            policy.update(s, a, fb.reward, fb.cost)

    def test_every_learning_policy_counts_each_round_once(self, p08):
        horizon = 3_000
        policies = [
            DolRmPolicy(p08, horizon),
            ClassicUcbPolicy(p08),
            ThompsonSamplingPolicy(p08, stream_rng(0, POLICY_STREAM)),
        ]
        for policy in policies:
            self.drive(policy, horizon, seed=0)
            assert sum(map(sum, policy.stats.counts)) == horizon


def experiment(tmp_path, spec, kinds, horizons, seeds):
    cfg = tiny_config(
        tmp_path, environment=spec, policies=kinds, horizons=horizons, seeds=seeds
    )
    return run_experiment(cfg)


class TestReplications:
    def test_single_seed_reports_zero_std(self):
        summary = summarize_finals("x", 200, [2.5], theta_star=2.6)
        assert summary.std_final_ratio == 0.0
        assert summary.num_seeds == 1
        assert len(summary.final_ratios) == 1

    def test_no_arrival_randomness_means_identical_finals(self, tmp_path):
        out = experiment(tmp_path, SINGLETON, (ONLY,), (100,), tuple(range(5)))
        (summary,) = out.summaries
        assert summary.std_final_ratio == 0.0
        assert set(summary.final_ratios) == {2.0}

    def test_rejects_empty_seed_list(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            experiment(tmp_path, two_type_env(), (DOLRM,), (10,), ())
        assert not (tmp_path / "out").exists()

    def test_summary_statistics(self):
        summary = summarize_finals("x", 100, (2.4, 2.8), theta_star=2.6)
        assert summary.mean_final_ratio == pytest.approx(2.6)
        assert summary.std_final_ratio == pytest.approx(0.2)
        assert summary.mean_gap == pytest.approx(0.2)
        assert summary.mean_regret == pytest.approx(20.0)


class TestGapSlope:
    def test_constant_gaps_fit_zero_slope(self):
        assert fit_loglog_slope([10, 100, 1000], [0.3, 0.3, 0.3]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_halving_per_quadrupling_fits_minus_half(self):
        slope = fit_loglog_slope([1_000, 4_000, 16_000], [0.4, 0.2, 0.1])
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_short_grids_report_no_slopes(self, tmp_path):
        out = experiment(tmp_path, SINGLETON, (ONLY,), (10, 20), (0,))
        assert out.gap_slopes == {}
        assert json.loads(out.summary_json_path.read_text())["gap_slopes"] == {}

    def test_zero_gap_reports_measurement_floor(self, tmp_path):
        out = experiment(tmp_path, SINGLETON, (ONLY,), (1, 2, 3), (0,))
        assert out.gap_slopes == {"only": None}
        assert [s.mean_gap for s in out.summaries] == [0.0, 0.0, 0.0]
        assert json.loads(out.summary_json_path.read_text())["gap_slopes"] == {"only": None}

    def test_learner_gap_decays_on_small_grid(self, tmp_path, p08):
        out = experiment(tmp_path, p08, (DOLRM,), (500, 2_000, 8_000), tuple(range(5)))
        gaps = [s.mean_gap for s in out.summaries]
        assert out.gap_slopes["dolrm"] < -0.1
        assert gaps[0] > gaps[-1]
