"""Experiment configuration: JSON parsing, presets, and the resolved echo.

A config file is a single JSON object; see the README for the key
reference. Presets name ready-made environments so the standard synthetic
experiments need no inline environment block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .env import DEFAULT_COST_FLOOR, EnvironmentSpec, validate_env
from .policies import LEARNING_RATE_MODES, PolicyKind, PolicyMap, validate_policy_map

DEFAULT_NOISE_SIGMA = 1.0
DEFAULT_SEED_COUNT = 20
DEFAULT_SEED_BASE = 0
DEFAULT_LR_MODE = "decaying"
DEFAULT_OUTPUT_DIR = "results"

_TWO_TYPE_ARMS = (((3.0, 1.0),), ((3.0, 2.0), (1.0, 1.0)))

PRESETS: dict[str, dict[str, Any]] = {
    "two-type-p08": {
        "arrival_probs": (0.8, 0.2),
        "arms": _TWO_TYPE_ARMS,
        "description": "two task types arriving 80/20; the rarer type chooses between arms (3,2) and (1,1)",
    },
    "two-type-p06": {
        "arrival_probs": (0.6, 0.4),
        "arms": _TWO_TYPE_ARMS,
        "description": "the same two task types with a 60/40 arrival split",
    },
    "seven-type": {
        "arrival_probs": (0.3, 0.1, 0.2, 0.1, 0.05, 0.1, 0.15),
        "arms": (
            ((3.0, 1.0),),
            ((3.0, 2.0), (1.0, 1.0)),
            ((2.0, 1.0),),
            ((2.5, 1.5),),
            ((2.0, 1.0), (1.0, 1.0)),
            ((3.0, 2.0), (1.5, 1.5)),
            ((2.5, 1.0),),
        ),
        "description": "seven task types, three of them offering a two-arm choice",
    },
}

_TOP_LEVEL_KEYS = {
    "environment",
    "environment_name",
    "policies",
    "horizon",
    "horizons",
    "seeds",
    "learning_rate",
    "noise_sigma",
    "output_dir",
    "log_stride",
}


class ConfigError(ValueError):
    """Config problem, annotated with the offending key path."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (presets expanded, defaults filled)."""

    environment: EnvironmentSpec
    environment_name: str
    policies: tuple[PolicyKind, ...]
    horizons: tuple[int, ...]
    seeds: tuple[int, ...]
    lr_mode: str
    output_dir: str
    log_stride: Optional[int]


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _parse_environment(raw: dict, sigma_override: Optional[float]) -> tuple[EnvironmentSpec, str]:
    env = raw.get("environment")
    if env is None:
        _fail("environment", "missing required key (preset name or inline object)")
    if isinstance(env, str):
        if "environment_name" in raw:
            _fail("environment_name", "applies only to an inline environment")
        preset = PRESETS.get(env)
        if preset is None:
            _fail(
                "environment",
                f"unknown preset {env!r} (available: {', '.join(sorted(PRESETS))})",
            )
        name = env
        probs = preset["arrival_probs"]
        arms = preset["arms"]
        sigma = DEFAULT_NOISE_SIGMA if sigma_override is None else sigma_override
        floor = DEFAULT_COST_FLOOR
    elif isinstance(env, dict):
        name = _as_str(raw.get("environment_name", "inline"), "environment_name")
        if "arrival_probs" not in env:
            _fail("environment.arrival_probs", "missing required key")
        if "arms" not in env:
            _fail("environment.arms", "missing required key")
        if not isinstance(env["arrival_probs"], list):
            _fail("environment.arrival_probs", "expected a list of probabilities")
        probs = [
            _as_number(p, f"environment.arrival_probs[{i}]")
            for i, p in enumerate(env["arrival_probs"])
        ]
        if not isinstance(env["arms"], list):
            _fail("environment.arms", "expected a list (one arm list per type)")
        arms = []
        for s, arms_s in enumerate(env["arms"]):
            if not isinstance(arms_s, list):
                _fail(f"environment.arms[{s}]", "expected a list of [reward, cost] pairs")
            parsed = []
            for a, pair in enumerate(arms_s):
                if not isinstance(pair, list) or len(pair) != 2:
                    _fail(f"environment.arms[{s}][{a}]", "expected a [reward, cost] pair")
                parsed.append(
                    (
                        _as_number(pair[0], f"environment.arms[{s}][{a}][0]"),
                        _as_number(pair[1], f"environment.arms[{s}][{a}][1]"),
                    )
                )
            arms.append(tuple(parsed))
        env_sigma = (
            _as_number(env["noise_sigma"], "environment.noise_sigma")
            if "noise_sigma" in env
            else None
        )
        if sigma_override is not None and env_sigma is not None and sigma_override != env_sigma:
            _fail(
                "noise_sigma",
                f"conflicts with environment.noise_sigma ({sigma_override:g} vs {env_sigma:g})",
            )
        if sigma_override is not None:
            sigma = sigma_override
        elif env_sigma is not None:
            sigma = env_sigma
        else:
            sigma = DEFAULT_NOISE_SIGMA
        floor = (
            _as_number(env["cost_floor"], "environment.cost_floor")
            if "cost_floor" in env
            else DEFAULT_COST_FLOOR
        )
        extra = set(env) - {"arrival_probs", "arms", "noise_sigma", "cost_floor"}
        if extra:
            _fail(f"environment.{sorted(extra)[0]}", "unknown key")
    else:
        _fail("environment", f"expected a preset name or object, got {type(env).__name__}")

    spec = EnvironmentSpec(tuple(probs), tuple(arms), sigma, floor)
    try:
        validate_env(spec)
    except ValueError as err:
        raise ConfigError(f"environment: {err}") from None
    return spec, name


def _parse_policies(raw: dict) -> tuple[PolicyKind, ...]:
    entries = raw.get("policies")
    if entries is None:
        _fail("policies", "missing required key")
    if not isinstance(entries, list) or not entries:
        _fail("policies", "expected a non-empty list of policy objects")
    kinds = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            _fail(f"policies[{i}]", f"expected an object, got {type(entry).__name__}")
        extra = set(entry) - {"kind", "actions", "label"}
        if extra:
            _fail(f"policies[{i}].{sorted(extra)[0]}", "unknown key")
        if "kind" not in entry:
            _fail(f"policies[{i}].kind", "missing required key")
        kind = _as_str(entry["kind"], f"policies[{i}].kind")
        actions = None
        if "actions" in entry:
            if not isinstance(entry["actions"], list):
                _fail(f"policies[{i}].actions", "expected a list of arm indices")
            actions = tuple(
                _as_int(a, f"policies[{i}].actions[{j}]") for j, a in enumerate(entry["actions"])
            )
        label = _as_str(entry["label"], f"policies[{i}].label") if "label" in entry else None
        try:
            kinds.append(PolicyKind(kind, actions, label))
        except ValueError as err:
            raise ConfigError(f"policies[{i}]: {err}") from None
    names = [k.name for k in kinds]
    for name in names:
        if names.count(name) > 1:
            _fail("policies", f"duplicate policy name {name!r}; set distinct labels")
    return tuple(kinds)


def _parse_horizons(raw: dict) -> tuple[int, ...]:
    if "horizon" in raw and "horizons" in raw:
        _fail("horizon", "give either 'horizon' or 'horizons', not both")
    if "horizon" in raw:
        horizon = _as_int(raw["horizon"], "horizon")
        if horizon < 1:
            _fail("horizon", f"must be >= 1 (got {horizon})")
        return (horizon,)
    if "horizons" in raw:
        if not isinstance(raw["horizons"], list) or not raw["horizons"]:
            _fail("horizons", "expected a non-empty list of integers")
        grid = tuple(_as_int(h, f"horizons[{i}]") for i, h in enumerate(raw["horizons"]))
        if grid[0] < 1:
            _fail("horizons[0]", f"must be >= 1 (got {grid[0]})")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            _fail("horizons", "must be strictly increasing")
        return grid
    _fail("horizon", "missing required key ('horizon' or 'horizons')")


def _parse_seeds(raw: dict) -> tuple[int, ...]:
    seeds = raw.get("seeds")
    if seeds is None:
        return tuple(range(DEFAULT_SEED_BASE, DEFAULT_SEED_BASE + DEFAULT_SEED_COUNT))
    if isinstance(seeds, list):
        if not seeds:
            _fail("seeds", "expected a non-empty list")
        out = tuple(_as_int(s, f"seeds[{i}]") for i, s in enumerate(seeds))
        if len(set(out)) != len(out):
            _fail("seeds", "seed values must be unique")
        if min(out) < 0:
            _fail("seeds", "seed values must be >= 0")
        return out
    if isinstance(seeds, dict):
        extra = set(seeds) - {"count", "base"}
        if extra:
            _fail(f"seeds.{sorted(extra)[0]}", "unknown key")
        count = _as_int(seeds.get("count", DEFAULT_SEED_COUNT), "seeds.count")
        base = _as_int(seeds.get("base", DEFAULT_SEED_BASE), "seeds.base")
        if count < 1:
            _fail("seeds.count", f"must be >= 1 (got {count})")
        if base < 0:
            _fail("seeds.base", f"must be >= 0 (got {base})")
        return tuple(range(base, base + count))
    _fail("seeds", f"expected a list or a count/base object, got {type(seeds).__name__}")


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and fully resolve a JSON experiment config.

    Raises:
        ConfigError: on unreadable JSON, unknown presets, missing keys, or
            type mismatches, each naming the offending key path.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        _fail(sorted(unknown)[0], "unknown key")

    sigma_override = (
        _as_number(raw["noise_sigma"], "noise_sigma") if "noise_sigma" in raw else None
    )
    environment, env_name = _parse_environment(raw, sigma_override)
    policies = _parse_policies(raw)
    horizons = _parse_horizons(raw)
    seeds = _parse_seeds(raw)

    lr_mode = _as_str(raw.get("learning_rate", DEFAULT_LR_MODE), "learning_rate")
    if lr_mode not in LEARNING_RATE_MODES:
        _fail(
            "learning_rate",
            f"unknown mode {lr_mode!r}; expected one of {LEARNING_RATE_MODES}",
        )

    output_dir = _as_str(raw.get("output_dir", DEFAULT_OUTPUT_DIR), "output_dir")

    log_stride: Optional[int] = None
    if raw.get("log_stride") is not None:
        log_stride = _as_int(raw["log_stride"], "log_stride")
        if log_stride < 1:
            _fail("log_stride", f"must be >= 1 (got {log_stride})")

    for kind in policies:
        if kind.kind == "fixed":
            try:
                validate_policy_map(environment, PolicyMap(kind.actions))
            except ValueError as err:
                raise ConfigError(f"policies: fixed policy {kind.name!r}: {err}") from None

    return ExperimentConfig(
        environment=environment,
        environment_name=env_name,
        policies=policies,
        horizons=horizons,
        seeds=seeds,
        lr_mode=lr_mode,
        output_dir=output_dir,
        log_stride=log_stride,
    )


def policy_kind_echo(kind: PolicyKind) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": kind.kind}
    if kind.actions is not None:
        out["actions"] = list(kind.actions)
    if kind.label is not None:
        out["label"] = kind.label
    return out


def config_echo(cfg: ExperimentConfig) -> dict[str, Any]:
    """JSON-ready resolved form; parsing it back reproduces cfg exactly."""
    env = cfg.environment
    return {
        "environment": {
            "arrival_probs": list(env.arrival_probs),
            "arms": [[list(pair) for pair in arms_s] for arms_s in env.arms],
            "noise_sigma": env.noise_sigma,
            "cost_floor": env.cost_floor,
        },
        "environment_name": cfg.environment_name,
        "policies": [policy_kind_echo(k) for k in cfg.policies],
        "horizons": list(cfg.horizons),
        "seeds": list(cfg.seeds),
        "learning_rate": cfg.lr_mode,
        "output_dir": cfg.output_dir,
        "log_stride": cfg.log_stride,
    }
