import errno
import gc
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dolrm
import dolrm.cli
import dolrm.oracle
import dolrm.runner
from dolrm.config import ExperimentConfig, parse_config
from dolrm.env import EnvironmentSpec
from dolrm.harness import BLOCK, EpisodeTrace, run_episode
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
        monkeypatch.setattr("dolrm.runner.run_episode", crash_on_episode(3))
        with pytest.raises(RuntimeError, match="episode 3"):
            run_experiment(cfg)
        for name in ("summary.json", "summary.txt", "oracle.json", "resolved_config.json"):
            assert not (first.output_dir / name).exists()
        # the earlier run's traces are gone too: only the two episodes the
        # crashed run finished left a trace
        assert sorted((first.output_dir / "traces").iterdir()) == sorted(first.trace_paths[:2])

    def test_summary_json_is_written_last(self, tmp_path, monkeypatch):
        # its presence means the run completed: a failure on any other
        # output leaves no summary.json
        def interrupted_summary_table(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(dolrm.runner, "_summary_table", interrupted_summary_table)
        cfg = tiny_config(tmp_path, policies=(PolicyKind("dolrm"),), seeds=(0,))
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg)
        assert (tmp_path / "out" / "resolved_config.json").exists()
        assert not (tmp_path / "out" / "summary.json").exists()

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


def crash_on_episode(n):
    """A stand-in for run_episode that raises on its n-th call."""
    calls = []

    def crashing_run_episode(*args, **kwargs):
        calls.append(args)
        if len(calls) == n:
            raise RuntimeError(f"episode {n} failed")
        return run_episode(*args, **kwargs)

    return crashing_run_episode


def assert_no_child_left():
    # raises ChildProcessError only when this process has no child at all,
    # running or exited and not yet waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_forks(monkeypatch):
    """Patch os.fork to append each child's pid to the returned list."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def write_a_bad_row(path, trace):
    """write_trace on the trace with a last row that cannot be formatted."""
    *rows, (t, s, a, _, *rest) = trace.rows
    write_trace(path, EpisodeTrace(trace.policy, trace.seed, trace.horizon, [*rows, (t, s, a, "bad", *rest)]))


class TestTraceWriter:
    """run_experiment hands every trace to one forked writer process."""

    # runner.BLOCK sets only write_trace's formatting blocks: None keeps 4096,
    # so the longest trace is formatted in two blocks; 3 cuts the traces of 3
    # and 7 rows into full and partial blocks
    @pytest.mark.parametrize("block", [None, 3])
    def test_traces_match_the_row_reference(self, tmp_path, monkeypatch, block):
        horizons = (1, BLOCK + 1)
        if block is not None:
            monkeypatch.setattr(dolrm.runner, "BLOCK", block)
            horizons = (3, 7)
        kinds = (PolicyKind("dolrm"), PolicyKind("ts"))
        noisy = EnvironmentSpec((0.8, 0.2), TWO_TYPE_ARMS, 1.0)
        cfg = tiny_config(tmp_path, environment=noisy, policies=kinds, horizons=horizons, log_stride=1)
        out = run_experiment(cfg)
        cells = list(itertools.product(kinds, horizons, cfg.seeds))
        assert len(out.trace_paths) == len(cells)
        for path, (kind, horizon, seed) in zip(out.trace_paths, cells):
            trace = run_episode(cfg.environment, kind, horizon, seed, lr_mode=cfg.lr_mode, stride=1)
            assert len(trace.rows) == horizon
            assert path.read_text() == reference_trace_csv(trace)

    def test_the_writer_alone_runs_without_the_cyclic_collector(self, tmp_path, monkeypatch):
        # the child only unpickles and formats rows, so its collector is off;
        # the parent's is left as it was
        def write_trace_without_the_collector(path, trace):
            assert not gc.isenabled(), "the writer's cyclic collector is on"
            write_trace(path, trace)

        monkeypatch.setattr(dolrm.runner, "write_trace", write_trace_without_the_collector)
        assert gc.isenabled()
        threshold = gc.get_threshold()
        out = run_experiment(tiny_config(tmp_path))
        assert gc.isenabled()
        assert gc.get_threshold() == threshold
        assert all(path.is_file() for path in out.trace_paths)

    def test_no_trace_outlives_its_hand_over(self, tmp_path, monkeypatch):
        # the run keeps each trace's path and final ratio, so the previous
        # trace is gone by the time the next episode starts
        traces = []

        def run_episode_once_the_last_trace_died(*args, **kwargs):
            assert not traces or traces[-1]() is None, "the previous trace is still referenced"
            trace = run_episode(*args, **kwargs)
            traces.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr("dolrm.runner.run_episode", run_episode_once_the_last_trace_died)
        cfg = tiny_config(tmp_path, horizons=(3, 50), log_stride=1)
        out = run_experiment(cfg)
        assert len(traces) == len(out.trace_paths) == len(ALL_KINDS) * 2 * 2

    def test_no_writer_outlives_the_run(self, tmp_path, monkeypatch):
        run_experiment(tiny_config(tmp_path))
        assert_no_child_left()
        monkeypatch.setattr("dolrm.runner.run_episode", crash_on_episode(2))
        with pytest.raises(RuntimeError, match="episode 2"):
            run_experiment(tiny_config(tmp_path))
        assert_no_child_left()

    def test_failed_write_raises_and_leaves_no_summary(self, tmp_path, monkeypatch, capfd):
        # the second of two episodes fails to write, after the first was written
        def fail_on_second_trace(path, trace):
            (write_a_bad_row if trace.seed == 1 else write_trace)(path, trace)

        monkeypatch.setattr(dolrm.runner, "write_trace", fail_on_second_trace)
        cfg = tiny_config(tmp_path, policies=(PolicyKind("dolrm"),))
        with pytest.raises(RuntimeError, match="trace writer failed"):
            run_experiment(cfg)
        out = tmp_path / "out"
        assert [path.name for path in out.rglob("*") if path.is_file()] == ["trace-dolrm-T50-seed0.csv"]
        assert "TypeError" in capfd.readouterr().err
        assert_no_child_left()

    def test_a_writer_that_failed_early_is_reported_as_the_writers_failure(self, tmp_path, monkeypatch, capfd):
        # the first trace fails to write and the writer has exited before the
        # second is handed over, so handing it over meets a closed pipe
        writers = record_forks(monkeypatch)
        calls = []

        def run_episode_once_the_writer_exited(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                # WNOWAIT leaves the exited writer for the run to wait for
                deadline = time.monotonic() + 30
                while os.waitid(os.P_PID, writers[0], os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
                    assert time.monotonic() < deadline, "the writer never exited"
                    time.sleep(0.01)
            return run_episode(*args, **kwargs)

        monkeypatch.setattr(dolrm.runner, "write_trace", write_a_bad_row)
        monkeypatch.setattr("dolrm.runner.run_episode", run_episode_once_the_writer_exited)
        with pytest.raises(RuntimeError, match="trace writer failed") as failed:
            run_experiment(tiny_config(tmp_path, policies=(PolicyKind("dolrm"),), seeds=(0, 1, 2)))
        assert isinstance(failed.value.__cause__, BrokenPipeError)
        assert len(calls) == 2
        assert not [path for path in (tmp_path / "out").rglob("*") if path.is_file()]
        assert "TypeError" in capfd.readouterr().err
        assert_no_child_left()

    def test_a_failed_fork_closes_both_pipe_ends(self, tmp_path, monkeypatch):
        fds = []
        pipe = os.pipe

        def recording_pipe():
            ends = pipe()
            fds.extend(ends)
            return ends

        def failing_fork():
            raise OSError(errno.EAGAIN, "no process for the writer")

        monkeypatch.setattr(os, "pipe", recording_pipe)
        monkeypatch.setattr(os, "fork", failing_fork)
        with pytest.raises(OSError, match="no process for the writer"):
            run_experiment(tiny_config(tmp_path))
        assert len(fds) == 2
        for fd in fds:
            with pytest.raises(OSError) as closed:
                os.fstat(fd)
            assert closed.value.errno == errno.EBADF

    def test_failed_write_does_not_replace_the_runs_own_error(self, tmp_path, monkeypatch):
        # the first trace fails to write and the second episode raises; the
        # parent hands over one trace and never writes to the pipe again
        monkeypatch.setattr(dolrm.runner, "write_trace", write_a_bad_row)
        monkeypatch.setattr("dolrm.runner.run_episode", crash_on_episode(2))
        with pytest.raises(RuntimeError, match="episode 2"):
            run_experiment(tiny_config(tmp_path))
        assert not [path for path in (tmp_path / "out").rglob("*") if path.is_file()]
        assert_no_child_left()

    def test_a_failed_run_waits_for_the_traces_it_handed_over(self, tmp_path, monkeypatch):
        # the writer is slower than the episodes, so it is still writing the
        # first trace when the third episode raises
        def slow_write_trace(path, trace):
            time.sleep(0.2)
            write_trace(path, trace)

        monkeypatch.setattr(dolrm.runner, "write_trace", slow_write_trace)
        monkeypatch.setattr("dolrm.runner.run_episode", crash_on_episode(3))
        with pytest.raises(RuntimeError, match="episode 3"):
            run_experiment(tiny_config(tmp_path, policies=(PolicyKind("dolrm"),), seeds=(0, 1, 2)))
        names = sorted(path.name for path in (tmp_path / "out" / "traces").iterdir())
        assert names == ["trace-dolrm-T50-seed0.csv", "trace-dolrm-T50-seed1.csv"]

    def test_writer_finishes_its_trace_through_a_ctrl_c(self, tmp_path, monkeypatch):
        # a Ctrl-C interrupts the whole process group: the writer, caught in
        # the middle of the first trace, ignores it and still writes that trace
        writing = tmp_path / "writing"

        def slow_write_trace(path, trace):
            writing.touch()
            time.sleep(0.2)
            write_trace(path, trace)

        writers = record_forks(monkeypatch)
        calls = []

        def interrupted_run_episode(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                deadline = time.monotonic() + 30
                while not writing.exists():
                    assert time.monotonic() < deadline, "the writer never started the first trace"
                    time.sleep(0.01)
                os.kill(writers[0], signal.SIGINT)
                raise KeyboardInterrupt
            return run_episode(*args, **kwargs)

        monkeypatch.setattr(dolrm.runner, "write_trace", slow_write_trace)
        monkeypatch.setattr("dolrm.runner.run_episode", interrupted_run_episode)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(tiny_config(tmp_path, policies=(PolicyKind("dolrm"),)))
        names = [path.name for path in (tmp_path / "out" / "traces").iterdir()]
        assert names == ["trace-dolrm-T50-seed0.csv"]
        assert_no_child_left()


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

    def test_oracle_that_does_not_converge_exits_nonzero_with_diagnostic(self, tmp_path, monkeypatch, capsys):
        # in process, so the smaller update budget reaches the solver; p08
        # converges on its third update
        monkeypatch.setattr(dolrm.oracle, "DINKELBACH_MAX_ITER", 2)
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"environment": "two-type-p08", "policies": [{"kind": "dolrm"}], "horizon": 10})
        )
        assert dolrm.cli.main(["oracle", str(config)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: ratio iteration did not converge within 2 updates\n"

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

    @pytest.mark.parametrize("command", ["run", "oracle", "presets"])
    def test_no_command_uses_the_locale_encoding(self, tmp_path, command):
        # every text that dolrm reads or writes names its encoding, so an
        # EncodingWarning, here an error, never fires; the writer child
        # inherits the flags, and ucb's traces have an empty theta column
        config = tmp_path / "cfg.json"
        config.write_bytes(
            json.dumps(
                {
                    "environment": {"arrival_probs": [0.8, 0.2], "arms": TWO_TYPE_ARMS},
                    "environment_name": "café",
                    "policies": [{"kind": "dolrm"}, {"kind": "ucb"}],
                    "horizon": 20,
                    "seeds": [0],
                    "log_stride": 1,
                    "output_dir": str(tmp_path / "results"),
                },
                ensure_ascii=False,
            ).encode()
        )
        args = [] if command == "presets" else [str(config)]
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "dolrm", command, *args],
            capture_output=True,
            text=True,
            timeout=120,
            env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        if command == "run":
            echo = json.loads((tmp_path / "results" / "resolved_config.json").read_bytes())
            assert echo["environment_name"] == "café"

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
        assert proc.stderr.startswith("error: environment: arms[0][0][0]:")
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
