"""Experiment configuration: JSON parsing, presets, and the resolved echo.

A config file is a single JSON object; see the README for the key
reference. Presets name ready-made environments so the standard synthetic
experiments need no inline environment block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional, TypeVar

from .env import DEFAULT_NOISE_SIGMA, EnvironmentSpec
from .policies import DEFAULT_LR_MODE, LEARNING_RATE_MODES, PolicyKind, as_int, validate_policy_map

DEFAULT_SEED_COUNT = 20
DEFAULT_SEED_BASE = 0
DEFAULT_OUTPUT_DIR = "results"

_T = TypeVar("_T")

_TWO_TYPE_ARMS = [[[3.0, 1.0]], [[3.0, 2.0], [1.0, 1.0]]]

# Each preset's environment is an inline environment block in its JSON form;
# it goes through the same parser as a block written in a config file.
PRESETS: dict[str, dict[str, Any]] = {
    "two-type-p08": {
        "description": "two task types arriving 80/20; the rarer type chooses between arms (3,2) and (1,1)",
        "environment": {"arrival_probs": [0.8, 0.2], "arms": _TWO_TYPE_ARMS},
    },
    "two-type-p06": {
        "description": "the same two task types with a 60/40 arrival split",
        "environment": {"arrival_probs": [0.6, 0.4], "arms": _TWO_TYPE_ARMS},
    },
    "seven-type": {
        "description": "seven task types, three of them offering a two-arm choice",
        "environment": {
            "arrival_probs": [0.3, 0.1, 0.2, 0.1, 0.05, 0.1, 0.15],
            "arms": [
                [[3.0, 1.0]],
                [[3.0, 2.0], [1.0, 1.0]],
                [[2.0, 1.0]],
                [[2.5, 1.5]],
                [[2.0, 1.0], [1.0, 1.0]],
                [[3.0, 2.0], [1.5, 1.5]],
                [[2.5, 1.0]],
            ],
        },
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
    """Fully resolved experiment description (presets expanded, defaults filled).

    Building one checks every rule of a config, so a config in hand always
    runs. The errors name the config file's keys, whether the config was
    parsed or built in Python.

    Raises:
        ConfigError: naming the key of the first rule broken.
    """

    environment: EnvironmentSpec
    environment_name: str
    policies: tuple[PolicyKind, ...]
    horizons: tuple[int, ...]
    seeds: tuple[int, ...]
    lr_mode: str
    output_dir: str
    log_stride: Optional[int]

    def __post_init__(self) -> None:
        _as_str(self.environment_name, "environment_name")
        _as_str(self.output_dir, "output_dir")
        for key, values in (("policies", self.policies), ("horizons", self.horizons), ("seeds", self.seeds)):
            if not isinstance(values, (list, tuple)):
                _fail(key, f"expected a list or tuple, got {type(values).__name__}")
            if not values:
                _fail(key, f"no {key} to run (expected a non-empty list)")
            object.__setattr__(self, key, tuple(values))  # a tuple hashes and equals its echo
        for key, values in (("horizons", self.horizons), ("seeds", self.seeds)):
            for i, value in enumerate(values):
                as_int(value, f"{key}[{i}]", ConfigError)
        if not isinstance(self.environment, EnvironmentSpec):
            _fail("environment", f"expected an EnvironmentSpec, got {type(self.environment).__name__}")
        for i, kind in enumerate(self.policies):
            if not isinstance(kind, PolicyKind):
                _fail(f"policies[{i}]", f"expected a PolicyKind, got {type(kind).__name__}")
            if kind.kind == "fixed":
                try:
                    validate_policy_map(self.environment, kind.actions)
                except ValueError as err:
                    raise ConfigError(f"policies: fixed policy {kind.name!r}: {err}") from None
        names = [kind.name for kind in self.policies]
        for name in names:
            if names.count(name) > 1:
                _fail("policies", f"duplicate policy name {name!r}; set distinct labels")
        _at_least(self.horizons[0], 1, "horizons[0]")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            _fail("horizons", "must be strictly increasing")
        if len(set(self.seeds)) != len(self.seeds):
            _fail("seeds", "seed values must be unique")
        if min(self.seeds) < 0:
            _fail("seeds", "seed values must be >= 0")
        if self.lr_mode not in LEARNING_RATE_MODES:
            _fail(
                "learning_rate",
                f"unknown mode {self.lr_mode!r}; expected one of {LEARNING_RATE_MODES}",
            )
        if self.log_stride is not None:
            _at_least(as_int(self.log_stride, "log_stride", ConfigError), 1, "log_stride")


def _fail(path: str, message: str) -> NoReturn:
    raise ConfigError(f"{path}: {message}")


def _require(obj: dict, key: str, path: str, hint: str = "") -> Any:
    """obj[key]; an absent key and an explicit null are both missing."""
    value = obj.get(key)
    if value is None:
        _fail(path, "missing required key" + hint)
    return value


def _reject_unknown(obj: dict, allowed: set[str], prefix: str = "") -> None:
    unknown = set(obj) - allowed
    if unknown:
        _fail(prefix + sorted(unknown)[0], "unknown key")


def _list_of(value: Any, path: str, expected: str, item: Callable[[Any, str], _T]) -> tuple[_T, ...]:
    """Each element of a JSON list parsed by item(element, "<path>[<index>]")."""
    if not isinstance(value, list):
        _fail(path, f"expected {expected}")
    return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(value))


def _at_least(value: int, minimum: int, path: str) -> None:
    if value < minimum:
        _fail(path, f"must be >= {minimum} (got {value})")


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        _fail(path, "integer too large for a float")


def _as_is(value: Any, path: str) -> Any:
    return value  # typed where it is built, in PolicyKind or ExperimentConfig


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_pair(value: Any, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "expected a [reward, cost] pair")
    return _as_number(value[0], f"{path}[0]"), _as_number(value[1], f"{path}[1]")


def _parse_environment(raw: dict, sigma_override: Optional[float]) -> tuple[EnvironmentSpec, str]:
    env = _require(raw, "environment", "environment", " (preset name or inline object)")
    if isinstance(env, str):
        if "environment_name" in raw:
            _fail("environment_name", "applies only to an inline environment")
        if env not in PRESETS:
            _fail(
                "environment",
                f"unknown preset {env!r} (available: {', '.join(sorted(PRESETS))})",
            )
        name, env = env, PRESETS[env]["environment"]
    elif isinstance(env, dict):
        name = raw.get("environment_name", "inline")
    else:
        _fail("environment", f"expected a preset name or object, got {type(env).__name__}")

    raw_probs = _require(env, "arrival_probs", "environment.arrival_probs")
    raw_arms = _require(env, "arms", "environment.arms")
    probs = _list_of(raw_probs, "environment.arrival_probs", "a list of probabilities", _as_number)
    arms = _list_of(
        raw_arms,
        "environment.arms",
        "a list (one arm list per type)",
        lambda arms_s, path: _list_of(arms_s, path, "a list of [reward, cost] pairs", _as_pair),
    )
    sigma = sigma_override
    if "noise_sigma" in env:
        env_sigma = _as_number(env["noise_sigma"], "environment.noise_sigma")
        if sigma is None:
            sigma = env_sigma
        elif sigma != env_sigma:
            _fail(
                "noise_sigma",
                f"conflicts with environment.noise_sigma ({sigma:g} vs {env_sigma:g})",
            )
    _reject_unknown(env, {"arrival_probs", "arms", "noise_sigma"}, "environment.")

    try:
        spec = EnvironmentSpec(probs, arms, DEFAULT_NOISE_SIGMA if sigma is None else sigma)
    except ValueError as err:
        raise ConfigError(f"environment: {err}") from None
    return spec, name


def _parse_policy(entry: Any, path: str) -> PolicyKind:
    if not isinstance(entry, dict):
        _fail(path, f"expected an object, got {type(entry).__name__}")
    _reject_unknown(entry, {"kind", "actions", "label"}, f"{path}.")
    kind = _as_str(_require(entry, "kind", f"{path}.kind"), f"{path}.kind")
    actions = (
        _list_of(entry["actions"], f"{path}.actions", "a list of arm indices", _as_is)
        if "actions" in entry
        else None
    )
    label = _as_str(entry["label"], f"{path}.label") if "label" in entry else None
    try:
        return PolicyKind(kind, actions, label)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def _parse_horizons(raw: dict) -> tuple[int, ...]:
    if "horizons" not in raw:
        horizon = _require(raw, "horizon", "horizon", " ('horizon' or 'horizons')")
        return (as_int(horizon, "horizon", ConfigError),)
    if "horizon" in raw:
        _fail("horizon", "give either 'horizon' or 'horizons', not both")
    return _list_of(raw["horizons"], "horizons", "a list of integers", _as_is)


def _parse_seeds(raw: dict) -> tuple[int, ...]:
    seeds = {} if raw.get("seeds") is None else raw["seeds"]
    if isinstance(seeds, list):
        return _list_of(seeds, "seeds", "a list of integers", _as_is)
    if isinstance(seeds, dict):
        _reject_unknown(seeds, {"count", "base"}, "seeds.")
        count = as_int(seeds.get("count", DEFAULT_SEED_COUNT), "seeds.count", ConfigError)
        base = as_int(seeds.get("base", DEFAULT_SEED_BASE), "seeds.base", ConfigError)
        # name the count behind an empty range; a negative base leaves
        # negative seeds, which ExperimentConfig rejects
        _at_least(count, 1, "seeds.count")
        return tuple(range(base, base + count))
    _fail("seeds", f"expected a list or a count/base object, got {type(seeds).__name__}")


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and fully resolve a JSON experiment config.

    Parsing turns JSON into typed values; ``ExperimentConfig`` then checks
    the rules that relate them.

    Raises:
        ConfigError: on unreadable JSON, unknown presets, missing keys, type
            mismatches or a broken rule, each naming the offending key path.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from None
    except ValueError as err:
        # a JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _reject_unknown(raw, _TOP_LEVEL_KEYS)

    sigma_override = (
        _as_number(raw["noise_sigma"], "noise_sigma") if "noise_sigma" in raw else None
    )
    environment, env_name = _parse_environment(raw, sigma_override)
    return ExperimentConfig(
        environment=environment,
        environment_name=env_name,
        policies=_list_of(
            _require(raw, "policies", "policies"), "policies", "a list of policy objects", _parse_policy
        ),
        horizons=_parse_horizons(raw),
        seeds=_parse_seeds(raw),
        lr_mode=_as_str(raw.get("learning_rate", DEFAULT_LR_MODE), "learning_rate"),
        output_dir=raw.get("output_dir", DEFAULT_OUTPUT_DIR),
        log_stride=raw.get("log_stride"),
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
        },
        "environment_name": cfg.environment_name,
        "policies": [policy_kind_echo(k) for k in cfg.policies],
        "horizons": list(cfg.horizons),
        "seeds": list(cfg.seeds),
        "learning_rate": cfg.lr_mode,
        "output_dir": cfg.output_dir,
        "log_stride": cfg.log_stride,
    }
