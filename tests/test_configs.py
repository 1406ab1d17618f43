"""The checked-in experiment configs under configs/ parse, and their fixed maps are right."""

from pathlib import Path

import pytest

from dolrm.config import parse_config
from dolrm.oracle import dinkelbach_theta_star

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def test_configs_are_present():
    assert {p.name for p in CONFIGS} >= {"synthetic-p08.json", "slope-p08.json"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_parses(path):
    cfg = parse_config(path)
    assert cfg.policies and cfg.horizons and cfg.seeds


def test_synthetic_p08_fixed_maps():
    cfg = parse_config(CONFIG_DIR / "synthetic-p08.json")
    env = cfg.environment
    maps = {k.name: k.actions for k in cfg.policies if k.kind == "fixed"}
    greedy = tuple(
        max(range(len(arms_s)), key=lambda a: arms_s[a][0] / arms_s[a][1])
        for arms_s in env.arms
    )
    assert maps["optimal-map"] == dinkelbach_theta_star(env).policy.actions
    assert maps["greedy"] == greedy
    assert [k.name for k in cfg.policies] == [
        "dolrm", "ucb", "ts", "oracle-rm", "greedy", "optimal-map"
    ]
    assert cfg.horizons == (100_000,)
    assert cfg.seeds == tuple(range(20))


def test_slope_p08_grid():
    cfg = parse_config(CONFIG_DIR / "slope-p08.json")
    assert [k.name for k in cfg.policies] == ["dolrm"]
    assert cfg.horizons == (1_000, 4_000, 16_000, 64_000)
    assert cfg.seeds == tuple(range(20))
