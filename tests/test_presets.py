"""Presets parse through the inline environment parser, and null keys resolve as documented."""

import json

import pytest

from dolrm.config import PRESETS, ConfigError, config_echo, parse_config
from dolrm.policies import PolicyKind

BASE = {"policies": [{"kind": "dolrm"}], "horizon": 100}


def parse(tmp_path, name="config.json", **keys):
    path = tmp_path / name
    path.write_text(json.dumps({**BASE, **keys}))
    return parse_config(path)


@pytest.mark.parametrize("name", sorted(PRESETS))
class TestPreset:
    def test_matches_its_inline_block(self, tmp_path, name):
        by_name = parse(tmp_path, "preset.json", environment=name)
        inline = parse(
            tmp_path,
            "inline.json",
            environment=PRESETS[name]["environment"],
            environment_name=name,
        )
        assert by_name == inline

    def test_echo_round_trips(self, tmp_path, name):
        cfg = parse(tmp_path, environment=name)
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(config_echo(cfg)))
        assert parse_config(echo) == cfg

    def test_top_level_noise_sigma_overrides(self, tmp_path, name):
        assert parse(tmp_path, environment=name).environment.noise_sigma == 1.0
        assert parse(tmp_path, environment=name, noise_sigma=0.25).environment.noise_sigma == 0.25


def test_null_seeds_mean_the_default_seeds(tmp_path):
    assert parse(tmp_path, environment="two-type-p08", seeds=None).seeds == tuple(range(20))


def test_null_policy_keys_are_absent(tmp_path):
    cfg = parse(tmp_path, environment="two-type-p08", policies=[{"kind": "ucb", "actions": None, "label": None}])
    assert cfg.policies == (PolicyKind("ucb"),)


def test_null_environment_is_missing(tmp_path):
    with pytest.raises(ConfigError, match="^environment: missing required key"):
        parse(tmp_path, environment=None)
