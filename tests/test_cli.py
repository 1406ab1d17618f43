import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dolrm
import dolrm.runner
from dolrm.config import ExperimentConfig, parse_config
from dolrm.env import EnvironmentSpec
from dolrm.harness import EpisodeTrace, run_episode
from dolrm.policies import PolicyKind
from dolrm.runner import TRACE_HEADER, run_experiment, trace_run_id, write_trace

from support import TWO_TYPE_ARMS, reference_trace_csv

ALL_KINDS = (
    PolicyKind("dolrm"),
    PolicyKind("ucb"),
    PolicyKind("ts"),
    PolicyKind("oracle-rm"),
    PolicyKind("fixed", (0, 0), "greedy"),
    PolicyKind("fixed", (0, 1), "reverse"),
)


def tiny_config(tmp_path, **overrides):
    fields = {
        "environment": EnvironmentSpec((0.8, 0.2), TWO_TYPE_ARMS, 0.0),
        "environment_name": "two-type-p08",
        "policies": ALL_KINDS,
        "horizons": (50,),
        "seeds": (0, 1),
        "lr_mode": "decaying",
        "output_dir": str(tmp_path / "out"),
        "log_stride": None,
    }
    fields.update(overrides)
    return ExperimentConfig(**fields)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runner")
    cfg = tiny_config(tmp)
    return cfg, run_experiment(cfg)


class TestRunExperiment:
    def test_oracle_results(self, bundle):
        _, out = bundle
        assert out.oracle.theta_star == pytest.approx(2.6, abs=1e-12)
        assert out.oracle.policy.actions == (0, 1)

    def test_one_trace_per_policy_seed(self, bundle):
        _, out = bundle
        assert len(out.trace_paths) == len(ALL_KINDS) * 2
        for path in out.trace_paths:
            assert path.exists()

    def test_trace_format(self, bundle):
        _, out = bundle
        path = next(p for p in out.trace_paths if p.name == "trace-dolrm-T50-seed0.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 51  # header + one row per round at stride 1
        first = lines[1].split(",")
        assert first[0] == trace_run_id("dolrm", 50, 0) == "dolrm-T50-seed0"
        assert first[1] == "dolrm"
        assert first[2] == "1"
        assert first[10] != ""

    def test_theta_column_empty_for_non_ratio_policies(self, bundle):
        _, out = bundle
        for name in ("ucb", "ts", "greedy", "reverse"):
            path = next(p for p in out.trace_paths if p.name == f"trace-{name}-T50-seed0.csv")
            rows = path.read_text().splitlines()[1:]
            assert all(row.endswith(",") for row in rows)

    def test_fixed_map_expected_ratios_reported(self, bundle):
        _, out = bundle
        doc = json.loads((out.output_dir / "oracle.json").read_text())
        assert doc["fixed_map_expected_ratios"]["greedy"] == pytest.approx(2.5, abs=1e-12)
        assert doc["fixed_map_expected_ratios"]["reverse"] == pytest.approx(2.6, abs=1e-12)
        assert doc["optimal_actions"] == [0, 1]

    def test_summary_json_mirrors_summaries(self, bundle):
        _, out = bundle
        doc = json.loads(out.summary_json_path.read_text())
        assert doc["theta_star"] == pytest.approx(2.6, abs=1e-12)
        rows = doc["results"]
        assert len(rows) == len(ALL_KINDS)
        by_name = {r["policy"]: r for r in rows}
        for summary in out.summaries:
            row = by_name[summary.policy]
            assert row["mean_final_ratio"] == summary.mean_final_ratio
            assert row["final_ratios"] == list(summary.final_ratios)
            assert row["num_seeds"] == 2

    def test_summary_row_keys_in_order(self, bundle):
        _, out = bundle
        for row in json.loads(out.summary_json_path.read_text())["results"]:
            assert list(row) == [
                "policy",
                "horizon",
                "num_seeds",
                "mean_final_ratio",
                "std_final_ratio",
                "mean_gap",
                "mean_regret",
                "final_ratios",
            ]

    def test_summary_table_is_readable(self, bundle):
        _, out = bundle
        text = (out.output_dir / "summary.txt").read_text()
        assert text.startswith("optimal ratio: 2.6")
        for kind in ALL_KINDS:
            assert kind.name in text

    def test_resolved_config_reparses_identically(self, bundle):
        cfg, out = bundle
        assert parse_config(out.output_dir / "resolved_config.json") == cfg

    def test_rerun_is_byte_identical(self, bundle):
        cfg, out = bundle
        before = {p: p.read_bytes() for p in out.trace_paths}
        before[out.summary_json_path] = out.summary_json_path.read_bytes()
        again = run_experiment(cfg)
        for path, content in before.items():
            assert path.read_bytes() == content
        assert again.trace_paths == out.trace_paths

    def test_no_temp_files_left_behind(self, bundle):
        _, out = bundle
        assert not list(out.output_dir.rglob("*.tmp"))

    def test_single_seed_reports_zero_std(self, tmp_path):
        cfg = tiny_config(tmp_path, policies=(PolicyKind("dolrm"),), seeds=(0,))
        out = run_experiment(cfg)
        assert out.summaries[0].std_final_ratio == 0.0

    def test_empty_policies_rejected_before_running(self, tmp_path):
        with pytest.raises(ValueError, match="no policies"):
            tiny_config(tmp_path, policies=())
        assert not (tmp_path / "out").exists()

    def test_crashed_rerun_leaves_no_summary(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        first = run_experiment(cfg)
        calls = []

        def crash_on_third_episode(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("episode 3 failed")
            return run_episode(*args, **kwargs)

        monkeypatch.setattr("dolrm.runner.run_episode", crash_on_third_episode)
        with pytest.raises(RuntimeError, match="episode 3"):
            run_experiment(cfg)
        for name in ("summary.json", "summary.txt", "oracle.json", "resolved_config.json"):
            assert not (first.output_dir / name).exists()
        # the earlier run's traces are gone too: only the two episodes the
        # crashed run finished left a trace
        assert sorted((first.output_dir / "traces").iterdir()) == sorted(first.trace_paths[:2])

    def test_duplicate_names_rejected_before_running(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate policy name 'dolrm'"):
            tiny_config(
                tmp_path, policies=(PolicyKind("dolrm"), PolicyKind("dolrm")), horizons=(10, 20, 40)
            )
        assert not (tmp_path / "out").exists()

    def test_rerun_replaces_earlier_traces(self, tmp_path):
        run_experiment(tiny_config(tmp_path, policies=(PolicyKind("dolrm"),), seeds=(0, 1, 2)))
        out = run_experiment(tiny_config(tmp_path, policies=(PolicyKind("dolrm"),), seeds=(0,)))
        assert [path.name for path in (out.output_dir / "traces").iterdir()] == [
            "trace-dolrm-T50-seed0.csv"
        ]

    def test_rerun_deletes_a_killed_runs_temp_files(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        (out / "traces").mkdir(parents=True)
        left = ["traces/trace-dolrm-T50-seed7.csv.tmp", "summary.json.tmp", "summary.txt.tmp"]
        left += ["oracle.json.tmp", "resolved_config.json.tmp"]
        for path in map(out.joinpath, left):
            path.write_text("partial")

        # the rerun fails before it writes a file, so it cannot overwrite them
        def crash_on_first_episode(*args, **kwargs):
            raise RuntimeError("episode 1 failed")

        monkeypatch.setattr("dolrm.runner.run_episode", crash_on_first_episode)
        with pytest.raises(RuntimeError, match="episode 1"):
            run_experiment(tiny_config(tmp_path))
        assert not list(out.rglob("*.tmp"))

    def test_gap_slopes_reported_for_horizon_grids(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            policies=(PolicyKind("dolrm"),),
            horizons=(50, 100, 200),
            seeds=(0,),
        )
        out = run_experiment(cfg)
        doc = json.loads(out.summary_json_path.read_text())
        assert "dolrm" in doc["gap_slopes"]


# The child interpreter imports the same dolrm as this one, installed or not.
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(dolrm.__file__).parent.parent), os.environ.get("PYTHONPATH")))
    ),
}


trace_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e300, -1e300]),
    st.floats(),
)
trace_ints = st.integers(min_value=0, max_value=2**63)


@st.composite
def episode_traces(draw):
    # '%' in the policy name must reach the file as itself, not as format text
    policy = draw(st.text(alphabet="ab.-_%sdg0", min_size=1, max_size=8))
    theta = st.none() if draw(st.booleans()) else trace_floats
    row = st.tuples(trace_ints, trace_ints, trace_ints, *[trace_floats] * 5, theta)
    rows = draw(st.lists(row, min_size=1, max_size=20))
    return EpisodeTrace(policy, draw(trace_ints), draw(trace_ints), rows)


@settings(deadline=None)
@given(trace=episode_traces())
def test_write_trace_matches_field_by_field_reference(tmp_path_factory, trace):
    path = tmp_path_factory.getbasetemp() / "trace.csv"
    write_trace(path, trace)
    assert path.read_text() == reference_trace_csv(trace)


def test_failed_trace_write_leaves_no_file(tmp_path, monkeypatch):
    # the bad row is in the second block, after the first was written
    monkeypatch.setattr(dolrm.runner, "BLOCK", 2)
    row = (1, 0, 0, 1.0, 1.0, 1.0, 1.0, 1.0, None)
    trace = EpisodeTrace("p", 0, 3, [row, row, (3, 0, 0, "not a float", *row[4:])])
    with pytest.raises(TypeError):
        write_trace(tmp_path / "trace.csv", trace)
    assert list(tmp_path.iterdir()) == []


def test_failed_rename_leaves_no_temp_file(tmp_path):
    target = tmp_path / "trace.csv"
    target.mkdir()
    trace = EpisodeTrace("p", 0, 1, [(1, 0, 0, 1.0, 1.0, 1.0, 1.0, 1.0, None)])
    with pytest.raises(IsADirectoryError):
        write_trace(target, trace)
    assert list(tmp_path.iterdir()) == [target]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dolrm", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=CLI_ENV,
    )


class TestCommandLine:
    def test_presets_lists_builtins(self):
        proc = run_cli("presets")
        assert proc.returncode == 0
        for name in ("two-type-p08", "two-type-p06", "seven-type"):
            assert name in proc.stdout

    def test_oracle_prints_ratio_and_map(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "environment": "two-type-p08",
                    "policies": [{"kind": "dolrm"}],
                    "horizon": 10,
                }
            )
        )
        proc = run_cli("oracle", str(config))
        assert proc.returncode == 0
        assert "optimal ratio: 2.6" in proc.stdout
        assert "type 0 -> arm 0" in proc.stdout
        assert "type 1 -> arm 1" in proc.stdout

    def test_run_executes_and_reports(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "environment": "two-type-p08",
                    "noise_sigma": 0,
                    "policies": [{"kind": "dolrm"}, {"kind": "fixed", "actions": [0, 1], "label": "reverse"}],
                    "horizon": 200,
                    "seeds": {"count": 2},
                    "output_dir": str(tmp_path / "results"),
                }
            )
        )
        proc = run_cli("run", str(config))
        assert proc.returncode == 0
        assert "outputs written to" in proc.stdout
        assert "gap slope" not in proc.stdout
        assert (tmp_path / "results" / "summary.json").exists()
        assert (tmp_path / "results" / "traces" / "trace-reverse-T200-seed1.csv").exists()

    def test_run_reports_gap_slopes_for_horizon_grids(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "environment": {"arrival_probs": [1.0], "arms": [[[2, 1], [1, 1]]], "noise_sigma": 0},
                    "policies": [{"kind": "dolrm"}, {"kind": "fixed", "actions": [0], "label": "best"}],
                    "horizons": [50, 100, 200],
                    "seeds": {"count": 1},
                    "output_dir": str(tmp_path / "results"),
                }
            )
        )
        proc = run_cli("run", str(config))
        assert proc.returncode == 0
        lines = [line for line in proc.stdout.splitlines() if line.startswith("gap slope")]
        assert len(lines) == 2
        assert re.fullmatch(r"gap slope dolrm: -?\d+\.\d{4}", lines[0])
        assert lines[1] == "gap slope best: not estimable, a mean gap reached 0 (below measurement floor)"

    @pytest.mark.parametrize(
        "sigma,seed,undefined_gaps",
        [(1e308, 0, [False, False, True]), (1.7e308, 56, [True, True, True])],
        ids=["last-gap-nan", "every-gap-nan"],
    )
    def test_run_reports_non_finite_gaps_apart_from_zero_gaps(self, tmp_path, sigma, seed, undefined_gaps):
        # noise this large overflows a sampled reward or cost to +-inf, and
        # a final ratio of inf / inf or of (inf - inf) / c is NaN
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "environment": "two-type-p08",
                    "noise_sigma": sigma,
                    "policies": [{"kind": "fixed", "actions": [0, 1]}],
                    "horizons": [1, 2, 3],
                    "seeds": [seed],
                    "output_dir": str(tmp_path / "results"),
                }
            )
        )
        proc = run_cli("run", str(config))
        assert proc.returncode == 0
        lines = [line for line in proc.stdout.splitlines() if line.startswith("gap slope")]
        assert lines == ["gap slope fixed-0-1: not estimable, a mean gap is not finite"]
        doc = json.loads((tmp_path / "results" / "summary.json").read_text())
        assert [row["mean_gap"] is None for row in doc["results"]] == undefined_gaps
        assert doc["gap_slopes"] == {"fixed-0-1": None}

    def test_non_finite_final_ratios_warn_once_per_cell(self, tmp_path):
        # sigma 1e308 overflows the noise of seed 56 from the first round
        # and that of seed 0 by the third; seed 1 stays finite
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "environment": "two-type-p08",
                    "noise_sigma": 1e308,
                    "policies": [{"kind": "fixed", "actions": [0, 1]}],
                    "horizons": [1, 3],
                    "seeds": [0, 1, 56],
                    "output_dir": str(tmp_path / "results"),
                }
            )
        )
        proc = run_cli("run", str(config))
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "warning: fixed-0-1 T=1: final ratio is not finite for seed(s) 56",
            "warning: fixed-0-1 T=3: final ratio is not finite for seed(s) 0, 56",
        ]
        assert "warning" not in proc.stdout

    def test_zero_cumulative_cost_logs_an_undefined_ratio(self, tmp_path):
        # seed 0's first cost noise is -0.9805271710302613, so the cumulative
        # cost is exactly 0.0 after round 1
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "environment": {
                        "arrival_probs": [1.0],
                        "arms": [[[1.0, 0.9805271710302613]]],
                        "noise_sigma": 1.0,
                    },
                    "policies": [{"kind": "fixed", "actions": [0]}],
                    "horizons": [1, 5],
                    "seeds": [0],
                    "log_stride": 1,
                    "output_dir": str(tmp_path / "results"),
                }
            )
        )
        proc = run_cli("run", str(config))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["warning: fixed-0 T=1: final ratio is not finite for seed(s) 0"]
        for horizon in (1, 5):
            trace = tmp_path / "results" / "traces" / f"trace-fixed-0-T{horizon}-seed0.csv"
            first = trace.read_text().splitlines()[1].split(",")
            assert first[2] == "1"
            assert float(first[8]) == 0.0
            assert first[9] == "nan"
        results = json.loads((tmp_path / "results" / "summary.json").read_text())["results"]
        assert results[0]["final_ratios"] == [None]
        assert results[0]["mean_final_ratio"] is None
        assert math.isfinite(results[1]["mean_final_ratio"])

    def test_bad_config_exits_nonzero_with_diagnostic(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"environment": "no-such-preset", "policies": [{"kind": "dolrm"}], "horizon": 10}))
        proc = run_cli("run", str(config))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "unknown preset" in proc.stderr

    def test_oversized_integer_exits_nonzero_with_diagnostic(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "environment": {"arrival_probs": [1.0], "arms": [[[10**400, 1]]]},
                    "policies": [{"kind": "dolrm"}],
                    "horizon": 10,
                }
            )
        )
        proc = run_cli("oracle", str(config))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: environment.arms[0][0][0]:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command,reward", [("run", 0), ("oracle", 1)])
    def test_overflowing_cost_reciprocal_exits_nonzero_with_diagnostic(self, tmp_path, command, reward):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "environment": {"arrival_probs": [1.0], "arms": [[[reward, 1e-320], [reward, 1]]], "noise_sigma": 0},
                    "policies": [{"kind": "dolrm"}],
                    "horizon": 10,
                    "output_dir": str(tmp_path / "results"),
                }
            )
        )
        proc = run_cli(command, str(config))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: environment: arms[0][0]: mean_cost 1e-320 is too small")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "config,key",
        [
            # theta* = 1e306, so horizon * gap overflows to inf
            (
                {
                    "environment": {"arrival_probs": [1.0], "arms": [[[1, 1e-306], [1, 1]]], "noise_sigma": 0},
                    "policies": [{"kind": "fixed", "actions": [1]}],
                    "horizon": 1000,
                },
                "mean_regret",
            ),
            # the cost means overflow to inf, so every dolrm score is -inf or
            # NaN and the final ratio is NaN
            (
                {
                    "environment": "two-type-p08",
                    "noise_sigma": 1e306,
                    "policies": [{"kind": "dolrm"}],
                    "horizon": 100000,
                    "seeds": [0],
                },
                "mean_final_ratio",
            ),
        ],
        ids=["regret-overflow", "noise-overflow"],
    )
    def test_non_finite_results_are_strict_json_nulls(self, tmp_path, config, key):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "output_dir": str(tmp_path / "results")}))
        proc = run_cli("run", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        docs = {
            name: json.loads((tmp_path / "results" / name).read_text(), parse_constant=reject)
            for name in ("summary.json", "oracle.json", "resolved_config.json")
        }
        assert docs["summary.json"]["results"][0][key] is None

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("oracle", str(tmp_path / "absent.json"))
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2
