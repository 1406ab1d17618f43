"""The benchmark's workloads: dolrm experiment configs built from the workload seed.

A workload seed selects one of ``INPUT_SETS`` input sets (seed modulo
``INPUT_SETS``). Each input set is a complete experiment config whose output
digests were recorded in ``references/`` at the commit the benchmark was
defined on, so every run can check its output bytes whatever seed it gets.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

INPUT_SETS = 16

# Every workload runs all five policy kinds, so every per-layer metric exists on
# every workload, and the episode percentiles fall inside a kind's group of
# episodes rather than on the edge between two kinds.
LEARNERS = [{"kind": "dolrm"}, {"kind": "ucb"}, {"kind": "ts"}, {"kind": "oracle-rm"}]

WIDE_TYPES = 8
WIDE_ARMS = 32


@dataclass(frozen=True)
class Workload:
    """A named experiment family: ``build(input_set)`` returns its config dict."""

    name: str
    build: Callable[[int], dict]


def input_set(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"workload seed must be >= 0 (got {seed})")
    return seed % INPUT_SETS


def wide_arms_environment(index: int) -> dict:
    """8 types x 32 arms: r ~ U(0.5, 3), c ~ U(0.5, 2), arrivals ~ Dirichlet(1), sigma 1."""
    rng = np.random.default_rng(np.random.SeedSequence((WIDE_TYPES, WIDE_ARMS, index)))
    probs = rng.dirichlet(np.ones(WIDE_TYPES))
    rewards = rng.uniform(0.5, 3.0, (WIDE_TYPES, WIDE_ARMS))
    costs = rng.uniform(0.5, 2.0, (WIDE_TYPES, WIDE_ARMS))
    return {
        "arrival_probs": probs.tolist(),
        "arms": [
            [[r, c] for r, c in zip(rs, cs)] for rs, cs in zip(rewards.tolist(), costs.tolist())
        ],
        "noise_sigma": 1.0,
    }


# The acceptance-scale experiment users actually run. At most two arms and
# about 1000 trace rows per episode, so per-round overhead dominates: the
# method calls, the noise list and ArmStatistics.record.
def _p08_headline(index: int) -> dict:
    return {
        "environment": "two-type-p08",
        "noise_sigma": 1.0,
        "policies": LEARNERS + [{"kind": "fixed", "actions": [0, 1], "label": "best-fixed"}],
        "horizon": 100_000,
        "seeds": {"count": 2, "base": 2 * index},
    }


# Per-arm scoring: every select scores 32 arms and ts draws 64 normals per
# call; forced exploration lasts 256 pulls. Noise and trace-writing changes
# should not show here.
def _wide_arms(index: int) -> dict:
    return {
        "environment": wide_arms_environment(index),
        "environment_name": "wide-arms",
        "policies": LEARNERS + [{"kind": "fixed", "actions": [0] * WIDE_TYPES, "label": "first-arm"}],
        "horizon": 10_000,
        "seeds": {"count": 5, "base": 5 * index},
    }


# Mostly writing output: hundreds of short episodes at log_stride 1, so the
# runner writes traces and the per-episode setup runs over and over. Three
# horizons make the slope fit run.
def _trace_grid(index: int) -> dict:
    return {
        "environment": "seven-type",
        "noise_sigma": 1.0,
        "policies": LEARNERS + [{"kind": "fixed", "actions": [0, 1, 0, 0, 0, 0, 0], "label": "best-fixed"}],
        "horizons": [100, 1_000, 10_000],
        "log_stride": 1,
        "seeds": {"count": 10, "base": 10 * index},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("p08-headline", _p08_headline),
        Workload("wide-arms", _wide_arms),
        Workload("trace-grid", _trace_grid),
    )
}


def write_config(config: dict, work: Path) -> Path:
    """Write ``config`` as ``work/config.json`` with its outputs going to ``work/out``."""
    path = work / "config.json"
    path.write_text(json.dumps({**config, "output_dir": str(work / "out")}))
    return path


def config_sha256(config: dict) -> str:
    """Digest of a config's canonical JSON form, recorded with every result."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
