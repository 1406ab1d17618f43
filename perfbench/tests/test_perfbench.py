"""The benchmark's own checks, at tiny scale.

Run with: python3 -m pytest perfbench/tests
"""

import hashlib
import json

import pytest

import digests
import hostspeed
import record_references
import run
import workloads
from paths import ROOT
from tracer import Counters, Tracer
from dolrm.config import parse_config
from dolrm.env import EnvironmentSpec, validate_env
from dolrm.runner import run_experiment

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(index: int) -> dict:
    return {
        "environment": "two-type-p08",
        "policies": workloads.LEARNERS + [{"kind": "fixed", "actions": [0, 1], "label": "best-fixed"}],
        "horizon": 300,
        "seeds": {"count": 2, "base": 2 * index},
    }


TINY = workloads.Workload("tiny", _tiny)


@pytest.fixture
def tiny_bench(tmp_path, monkeypatch):
    """TINY registered as a workload, its references recorded, all output under tmp_path."""
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SPANS", tmp_path / "spans")
    monkeypatch.setattr(record_references, "WORK", tmp_path / "work")
    monkeypatch.setattr(digests, "reference_path", lambda name: tmp_path / f"{name}.json")
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    digests.reference_path(TINY.name).write_text(json.dumps(record_references.record(TINY)))
    return tmp_path


def _experiment(tmp_path, index=0):
    cfg = parse_config(workloads.write_config(_tiny(index), tmp_path))
    return cfg, run_experiment(cfg)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny_bench, capsys, trace, kind):
    assert run.main(["--workload", "tiny", "--seed", "19", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    assert [name for name in result["metrics"]] == [m["name"] for m in BENCHMARK[kind]]
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float))
        assert printed[name] == m["unit"]
    assert printed["ops_failed_frac"] == "fraction" and printed["ops_attempted"] == "count"
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["harness.episodes"] == 10
        assert metrics["policies.fixed.optimal_pull_frac"] == 1.0  # [0, 1] is the oracle map
        assert "largest_self_time" in printed
    else:
        assert int(printed["episodes_timed"]) >= run.MIN_EPISODES_TIMED
        for name, m in result["metrics"].items():
            if name != "peak_rss_mb":
                assert printed[f"unscaled_{name}"] == m["unit"]


def test_tracer_floor_takes_the_wrappers_cost_off_an_empty_call():
    floor = Tracer()._calibrate()
    for name, f in floor.items():
        assert 0 < f.inside_ns < f.extra_ns, name
    # An episode of empty calls only: corrected, nothing is left in the calls.
    calls = 10_000
    c = Counters()
    c.select_calls = c.update_calls = calls
    c.select_ns = calls * floor["select"].inside_ns
    c.update_ns = calls * floor["update"].inside_ns
    out = Tracer.corrected(c, floor)
    assert abs(out.select_ns) < 1e-6 * calls and abs(out.update_ns) < 1e-6 * calls


def test_host_speed_scales_a_region_by_the_kernel_samples_around_it():
    speed = hostspeed.HostSpeed()
    speed.sample()
    assert len(speed.kernel_ns) == hostspeed.REPS and speed.spent_ns >= sum(speed.kernel_ns)

    ref, s = hostspeed.REFERENCE_KERNEL_NS, 1_000_000_000
    speed.at_ns, speed.kernel_ns = [1 * s, 2 * s, 10 * s], [ref, 2 * ref, 4 * ref]
    assert speed.scale(2 * s, 2 * s) == pytest.approx(1 / 1.5)  # samples at 1 s and 2 s
    assert speed.scale(9 * s, 10 * s) == pytest.approx(1 / 4)
    with pytest.raises(ValueError):
        speed.scale(5 * s, 6 * s)

    # A host twice as slow as the reference: every time halves, the rate doubles.
    regions = [(0, 1, 2.0), (0, 1, 4.0)]
    raw = run.time_metrics(100, regions, regions, regions)
    scaled = run.time_metrics(100, regions, regions, regions, scale=lambda start, end: 0.5)
    assert scaled["rounds_per_s"] == pytest.approx(2 * raw["rounds_per_s"])
    for name in ("round_ns_p50", "round_ns_p90", "setup_s"):
        assert scaled[name] == pytest.approx(raw[name] / 2)


def test_digest_check_counts_one_corrupted_trace_as_one_failed_op(tmp_path):
    cfg, bundle = _experiment(tmp_path)
    reference = digests.output_digests(bundle)
    assert digests.failed_episodes(reference, reference) == 0

    corrupted = bundle.trace_paths[3]
    corrupted.write_bytes(corrupted.read_bytes().replace(b"\n", b"\r\n", 1))
    assert digests.failed_episodes(digests.output_digests(bundle), reference) == 1

    bundle.summary_json_path.write_text("{}")
    assert digests.failed_episodes(digests.output_digests(bundle), reference) == len(bundle.trace_paths)


def test_run_once_counts_attempted_and_failed_episodes(tmp_path):
    cfg, bundle = _experiment(tmp_path)
    reference = digests.output_digests(bundle)
    tally = run.Tally()
    assert run.run_once(cfg, reference, tally) > 0
    assert (tally.attempted, tally.failed) == (10, 0)
    assert not (tmp_path / "out").exists()

    name = bundle.trace_paths[0].relative_to(bundle.output_dir).as_posix()
    run.run_once(cfg, {**reference, name: hashlib.sha256(b"other").hexdigest()}, tally)
    assert (tally.attempted, tally.failed) == (20, 1)


def test_wide_arms_spec_is_seeded_and_valid():
    wide = workloads.WORKLOADS["wide-arms"]
    first = wide.build(workloads.input_set(5))
    assert first == wide.build(workloads.input_set(5))
    assert first != wide.build(workloads.input_set(6))
    env = first["environment"]
    spec = validate_env(EnvironmentSpec(tuple(env["arrival_probs"]), tuple(env["arms"]), env["noise_sigma"]))
    assert spec.num_types == 8 and all(spec.num_arms(s) == 32 for s in range(8))
    assert all(0.5 <= r <= 3.0 and 0.5 <= c <= 2.0 for arms in spec.arms for r, c in arms)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_references_match_the_workload_configs(name):
    doc = json.loads(digests.reference_path(name).read_text())
    assert set(doc["input_sets"]) == {str(i) for i in range(workloads.INPUT_SETS)}
    for index, sha in doc["config_sha256"].items():
        assert sha == workloads.config_sha256(workloads.WORKLOADS[name].build(int(index)))
