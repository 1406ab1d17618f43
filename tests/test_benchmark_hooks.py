"""The names and call shapes that the benchmark in ``perfbench/`` relies on.

``perfbench/run.py`` and ``perfbench/tracer.py`` time a run from outside
dolrm: they replace module and class attributes with wrappers, call the
originals with fixed argument shapes and read fields of what they return.
``perfbench/tests`` is not under ``testpaths``, so these tests patch the
same hooks the same way, and a change to ``src/`` that breaks one fails the
default test run.
"""

import json
from collections import Counter

import dolrm
import dolrm.estimator
import dolrm.harness
import dolrm.runner
from dolrm.config import parse_config
from dolrm.harness import FEEDBACK_STREAM, stream_rng
from dolrm.runner import run_experiment

HORIZON = 40
SEEDS = 2
POLICIES = [
    {"kind": "dolrm"},
    {"kind": "ucb"},
    {"kind": "ts"},
    {"kind": "oracle-rm"},
    {"kind": "fixed", "actions": [0, 1]},
]


def test_module_names_the_benchmark_imports():
    assert isinstance(dolrm.__version__, str)
    assert isinstance(FEEDBACK_STREAM, int)
    assert len(stream_rng(0, FEEDBACK_STREAM).standard_normal((3, 2)).tolist()) == 3
    for owner, name in (
        (dolrm.runner, "run_episode"),
        (dolrm.runner, "write_trace"),
        (dolrm.runner, "dinkelbach_theta_star"),
        (dolrm.harness, "sample_tasks"),
        (dolrm.harness, "make_policy"),
        (dolrm.estimator.ArmStatistics, "record"),
    ):
        assert callable(getattr(owner, name)), name


def test_patched_hooks_see_every_call(tmp_path, monkeypatch):
    calls = Counter()
    rows_written = []
    run_episode = dolrm.runner.run_episode
    write_trace = dolrm.runner.write_trace
    oracle = dolrm.runner.dinkelbach_theta_star
    sample_tasks = dolrm.harness.sample_tasks
    make_policy = dolrm.harness.make_policy
    record = dolrm.estimator.ArmStatistics.record

    def traced_run_episode(spec, kind, horizon, seed, **kwargs):
        assert spec.noise_sigma > 0.0
        calls["episode", kind.kind, kind.name] += 1
        return run_episode(spec, kind, horizon, seed, **kwargs)

    def traced_write_trace(path, trace):
        write_trace(path, trace)
        rows_written.append((len(trace.rounds), len(path.read_text().splitlines()) - 1, path.stat().st_size))

    def traced_oracle(*args, **kwargs):
        result = oracle(*args, **kwargs)
        calls["oracle"] += 1
        assert result.policy.actions == (0, 1)
        assert result.iterations >= 1
        return result

    def traced_sample_tasks(*args, **kwargs):
        calls["sample_tasks"] += 1
        return sample_tasks(*args, **kwargs)

    def traced_make_policy(*args, **kwargs):
        policy = make_policy(*args, **kwargs)
        select = policy.select
        update = policy.update

        def counted_select(s):
            calls["select"] += 1
            return select(s)

        def counted_update(s, a, reward, cost):
            calls["update"] += 1
            update(s, a, reward, cost)

        policy.select = counted_select
        policy.update = counted_update
        return policy

    def traced_record(stats, s, a, reward, cost):
        calls["record"] += 1
        record(stats, s, a, reward, cost)

    monkeypatch.setattr(dolrm.runner, "run_episode", traced_run_episode)
    monkeypatch.setattr(dolrm.runner, "write_trace", traced_write_trace)
    monkeypatch.setattr(dolrm.runner, "dinkelbach_theta_star", traced_oracle)
    monkeypatch.setattr(dolrm.harness, "sample_tasks", traced_sample_tasks)
    monkeypatch.setattr(dolrm.harness, "make_policy", traced_make_policy)
    monkeypatch.setattr(dolrm.estimator.ArmStatistics, "record", traced_record)

    config = tmp_path / "workload.json"
    config.write_text(
        json.dumps(
            {
                "environment": "two-type-p08",
                "policies": POLICIES,
                "horizons": [HORIZON],
                "seeds": {"count": SEEDS},
                "log_stride": 1,
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    cfg = parse_config(config)
    bundle = run_experiment(cfg)

    episodes = len(POLICIES) * SEEDS
    learners = 3  # dolrm, ucb and ts record every round's feedback
    assert calls["oracle"] == 1
    assert {key: n for key, n in calls.items() if key[0] == "episode"} == {
        ("episode", kind.kind, kind.name): SEEDS for kind in cfg.policies
    }
    assert calls["sample_tasks"] == episodes
    assert calls["select"] == calls["update"] == episodes * HORIZON
    assert calls["record"] == learners * SEEDS * HORIZON
    assert len(rows_written) == episodes
    for rows, lines, size in rows_written:
        assert rows == lines == HORIZON
        assert size > 0
    assert len(bundle.trace_paths) == episodes
    for path in (*bundle.trace_paths, bundle.summary_json_path):
        assert path.relative_to(bundle.output_dir).parts
        assert path.is_file()
