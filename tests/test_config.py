import json
import math
import re
from dataclasses import asdict

import pytest

from dolrm.config import (
    DEFAULT_LR_MODE,
    DEFAULT_OUTPUT_DIR,
    PRESETS,
    ConfigError,
    ExperimentConfig,
    config_echo,
    parse_config,
)
from dolrm.env import EnvironmentSpec
from dolrm.policies import PolicyKind

from support import TWO_TYPE_ARMS, two_type_env


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MINIMAL = {"environment": "two-type-p08", "policies": [{"kind": "dolrm"}], "horizon": 1000}


def parse(tmp_path, **overrides):
    payload = {**MINIMAL, **overrides}
    return parse_config(write_config(tmp_path, payload))


class TestPresets:
    def test_two_type_p08_expansion(self, tmp_path):
        cfg = parse(tmp_path)
        assert cfg.environment.arrival_probs == (0.8, 0.2)
        assert cfg.environment.arms == (((3.0, 1.0),), ((3.0, 2.0), (1.0, 1.0)))
        assert cfg.environment.noise_sigma == 1.0
        assert cfg.environment_name == "two-type-p08"

    def test_seven_type_probabilities_normalize(self, tmp_path):
        cfg = parse(tmp_path, environment="seven-type")
        assert cfg.environment.num_types == 7
        assert math.fsum(cfg.environment.arrival_probs) == pytest.approx(1.0, abs=1e-12)
        assert [cfg.environment.num_arms(s) for s in range(7)] == [1, 2, 1, 1, 2, 2, 1]

    def test_every_preset_has_a_description(self):
        for name, preset in PRESETS.items():
            assert preset["description"]

    def test_unknown_preset_is_diagnosed(self, tmp_path):
        with pytest.raises(ConfigError, match="environment.*unknown preset 'two-type-p09'"):
            parse(tmp_path, environment="two-type-p09")

    def test_sigma_override_applies_to_preset(self, tmp_path):
        cfg = parse(tmp_path, noise_sigma=0)
        assert cfg.environment.noise_sigma == 0.0

    def test_environment_name_rejected_next_to_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="environment_name.*only to an inline environment"):
            parse(tmp_path, environment_name="custom")


class TestDefaults:
    def test_defaults_fill_in(self, tmp_path):
        cfg = parse(tmp_path)
        assert cfg.seeds == tuple(range(20))
        assert cfg.lr_mode == DEFAULT_LR_MODE == "decaying"
        assert cfg.output_dir == DEFAULT_OUTPUT_DIR
        assert cfg.log_stride is None
        assert cfg.horizons == (1000,)

    def test_seed_count_and_base(self, tmp_path):
        cfg = parse(tmp_path, seeds={"count": 1, "base": 5})
        assert cfg.seeds == (5,)

    def test_explicit_seed_list(self, tmp_path):
        cfg = parse(tmp_path, seeds=[3, 1, 4])
        assert cfg.seeds == (3, 1, 4)


class TestEnvironmentBlock:
    def test_inline_environment(self, tmp_path):
        cfg = parse(
            tmp_path,
            environment={
                "arrival_probs": [0.5, 0.5],
                "arms": [[[2.0, 1.0]], [[4.0, 2.0], [1.0, 1.0]]],
                "noise_sigma": 0.25,
            },
            environment_name="custom",
        )
        assert cfg.environment.arrival_probs == (0.5, 0.5)
        assert cfg.environment.noise_sigma == 0.25
        assert cfg.environment_name == "custom"

    def test_inline_environment_validates(self, tmp_path):
        with pytest.raises(ConfigError, match="environment.*sum"):
            parse(
                tmp_path,
                environment={"arrival_probs": [0.5, 0.6], "arms": [[[1, 1]], [[1, 1]]]},
            )

    def test_sigma_conflict_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="noise_sigma.*conflicts"):
            parse(
                tmp_path,
                noise_sigma=2.0,
                environment={
                    "arrival_probs": [1.0],
                    "arms": [[[1, 1]]],
                    "noise_sigma": 0.5,
                },
            )

    def test_matching_sigma_is_allowed(self, tmp_path):
        cfg = parse(
            tmp_path,
            noise_sigma=0.5,
            environment={
                "arrival_probs": [1.0],
                "arms": [[[1, 1]]],
                "noise_sigma": 0.5,
            },
        )
        assert cfg.environment.noise_sigma == 0.5

    def test_malformed_arm_pair_names_the_cell(self, tmp_path):
        with pytest.raises(ConfigError, match=r"environment\.arms\[0\]\[1\]"):
            parse(
                tmp_path,
                environment={"arrival_probs": [1.0], "arms": [[[1, 1], [2]]]},
            )

    def test_negative_mean_reward_names_the_cell(self, tmp_path):
        with pytest.raises(ConfigError, match=r"environment: arms\[0\]\[1\]: mean_reward"):
            parse(
                tmp_path,
                environment={"arrival_probs": [1.0], "arms": [[[1, 1], [-0.5, 1]]]},
            )

    def test_cost_floor_is_an_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"environment\.cost_floor: unknown key"):
            parse(
                tmp_path,
                environment={"arrival_probs": [1.0], "arms": [[[1, 1]]], "cost_floor": 1e-6},
            )

    def test_unknown_environment_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"environment\.decay"):
            parse(
                tmp_path,
                environment={"arrival_probs": [1.0], "arms": [[[1, 1]]], "decay": 2},
            )


class TestPolicies:
    def test_empty_policy_list_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="policies.*non-empty"):
            parse(tmp_path, policies=[])

    def test_unknown_kind_names_the_entry(self, tmp_path):
        with pytest.raises(ConfigError, match=r"policies\[1\].*unknown policy kind"):
            parse(tmp_path, policies=[{"kind": "dolrm"}, {"kind": "sarsa"}])

    def test_missing_kind(self, tmp_path):
        with pytest.raises(ConfigError, match=r"policies\[0\]\.kind"):
            parse(tmp_path, policies=[{"label": "x"}])

    def test_duplicate_names_need_labels(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate policy name"):
            parse(tmp_path, policies=[{"kind": "dolrm"}, {"kind": "dolrm"}])

    def test_labels_disambiguate(self, tmp_path):
        cfg = parse(
            tmp_path,
            policies=[{"kind": "dolrm", "label": "a"}, {"kind": "dolrm", "label": "b"}],
        )
        assert [k.name for k in cfg.policies] == ["a", "b"]

    def test_fixed_actions_length_checked_against_environment(self, tmp_path):
        with pytest.raises(ConfigError, match="1 actions.*2 types"):
            parse(tmp_path, policies=[{"kind": "fixed", "actions": [0]}])

    def test_fixed_actions_range_checked(self, tmp_path):
        with pytest.raises(ConfigError, match=r"actions\[0\] = 3 out of range"):
            parse(tmp_path, policies=[{"kind": "fixed", "actions": [3, 0]}])

    def test_fixed_actions_must_be_integers(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape("policies[0]: actions[1]: expected an integer, got float")):
            parse(tmp_path, policies=[{"kind": "fixed", "actions": [0, 1.0]}])

    def test_unknown_policy_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"policies\[0\]\.bonus"):
            parse(tmp_path, policies=[{"kind": "dolrm", "bonus": 2}])


class TestHorizonsAndScalars:
    def test_horizon_and_horizons_are_exclusive(self, tmp_path):
        with pytest.raises(ConfigError, match="not both"):
            parse(tmp_path, horizons=[10, 20])

    def test_horizons_grid(self, tmp_path):
        payload = {k: v for k, v in MINIMAL.items() if k != "horizon"}
        payload["horizons"] = [100, 400, 1600]
        cfg = parse_config(write_config(tmp_path, payload))
        assert cfg.horizons == (100, 400, 1600)

    def test_horizons_must_increase(self, tmp_path):
        payload = {k: v for k, v in MINIMAL.items() if k != "horizon"}
        payload["horizons"] = [100, 100]
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config(write_config(tmp_path, payload))

    def test_missing_horizon(self, tmp_path):
        payload = {k: v for k, v in MINIMAL.items() if k != "horizon"}
        with pytest.raises(ConfigError, match="horizon.*missing"):
            parse_config(write_config(tmp_path, payload))

    def test_scalar_horizon_below_one_is_named_as_the_grid_entry(self, tmp_path):
        with pytest.raises(ConfigError, match=r"horizons\[0\]: must be >= 1 \(got 0\)"):
            parse(tmp_path, horizon=0)

    def test_horizon_type_mismatch_names_the_key(self, tmp_path):
        with pytest.raises(ConfigError, match="horizon.*expected an integer, got str"):
            parse(tmp_path, horizon="1000")

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="replications.*unknown key"):
            parse(tmp_path, replications=3)

    def test_bad_learning_rate_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="learning_rate.*unknown mode"):
            parse(tmp_path, learning_rate="constant")

    def test_log_stride_validation(self, tmp_path):
        assert parse(tmp_path, log_stride=None).log_stride is None
        assert parse(tmp_path, log_stride=7).log_stride == 7
        with pytest.raises(ConfigError, match="log_stride"):
            parse(tmp_path, log_stride=0)

    def test_seed_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="seeds.*unique"):
            parse(tmp_path, seeds=[1, 1])
        with pytest.raises(ConfigError, match="seeds.*>= 0"):
            parse(tmp_path, seeds=[-1])
        with pytest.raises(ConfigError, match=r"seeds\.count"):
            parse(tmp_path, seeds={"count": 0})


class TestFileHandling:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.json"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)
        path.write_text('{"horizon": ' + "9" * 5000 + "}")
        with pytest.raises(ConfigError, match=r"bad\.json: not valid JSON \(Exceeds the limit"):
            parse_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config(path)

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


def test_resolved_echo_round_trips(tmp_path):
    cfg = ExperimentConfig(
        environment=EnvironmentSpec(
            (0.25, 0.75), (((2.0, 1.0), (3.0, 2.0)), ((1.5, 0.5),)), 0.5
        ),
        environment_name="custom",
        policies=(
            PolicyKind("dolrm"),
            PolicyKind("fixed", (0, 0), "greedy"),
            PolicyKind("fixed", (1, 0), "alt"),
            PolicyKind("ucb"),
        ),
        horizons=(100, 400, 1600),
        seeds=(0, 2, 4),
        lr_mode="fixed-sqrtT",
        output_dir="out",
        log_stride=7,
    )
    path = write_config(tmp_path, config_echo(cfg), "echo.json")
    assert parse_config(path) == cfg


# The echo of a config file with every kind of key: a preset with a top-level
# sigma, an unlabelled learner (its None-valued keys dropped), a labelled
# fixed map, a seed range, the step-size mode as "learning_rate" and a stride.
PINNED_ECHO = {
    "environment": {
        "arrival_probs": [0.6, 0.4],
        "arms": [[[3.0, 1.0]], [[3.0, 2.0], [1.0, 1.0]]],
        "noise_sigma": 0.5,
    },
    "environment_name": "two-type-p06",
    "policies": [{"kind": "dolrm"}, {"kind": "fixed", "actions": [0, 1], "label": "slow"}],
    "horizons": [10, 20],
    "seeds": [3, 4],
    "learning_rate": "fixed-sqrtT",
    "output_dir": "out",
    "log_stride": 5,
}


def test_echo_is_pinned(tmp_path):
    cfg = parse_config(
        write_config(
            tmp_path,
            {
                "environment": "two-type-p06",
                "noise_sigma": 0.5,
                "policies": [{"kind": "dolrm"}, {"kind": "fixed", "actions": [0, 1], "label": "slow"}],
                "horizons": [10, 20],
                "seeds": {"count": 2, "base": 3},
                "learning_rate": "fixed-sqrtT",
                "output_dir": "out",
                "log_stride": 5,
            },
        )
    )
    # as JSON text, so the key order and each number's type are pinned too
    assert json.dumps(config_echo(cfg)) == json.dumps(PINNED_ECHO)


def test_built_spec_with_an_int_sigma_echoes_as_a_parsed_one(tmp_path):
    spec = EnvironmentSpec((0.8, 0.2), TWO_TYPE_ARMS, 1)
    cfg = ExperimentConfig(**config_fields(tmp_path / "out", environment=spec))
    echo = json.dumps(config_echo(cfg))
    assert '"noise_sigma": 1.0' in echo
    parsed = parse_config(write_config(tmp_path, config_echo(cfg), "echo.json"))
    assert parsed == cfg
    assert json.dumps(config_echo(parsed)) == echo


# One case per rule that ExperimentConfig checks: the fields that break it
# and the start of the error it gives.
BROKEN_RULES = [
    ({"policies": ()}, "policies: no policies to run"),
    ({"policies": (PolicyKind("dolrm"), PolicyKind("dolrm"))}, "policies: duplicate policy name 'dolrm'"),
    ({"policies": (PolicyKind("fixed", (0,)),)}, "policies: fixed policy 'fixed-0': policy map has 1 actions"),
    ({"policies": (PolicyKind("fixed", (3, 0)),)}, "policies: fixed policy 'fixed-3-0': actions[0] = 3 out of range"),
    ({"horizons": ()}, "horizons: no horizons to run"),
    ({"horizons": (0, 10)}, "horizons[0]: must be >= 1 (got 0)"),
    ({"horizons": (50, 50)}, "horizons: must be strictly increasing"),
    ({"horizons": (100, 50)}, "horizons: must be strictly increasing"),
    ({"seeds": ()}, "seeds: no seeds to run"),
    ({"seeds": (0, 0)}, "seeds: seed values must be unique"),
    ({"seeds": (3, -1)}, "seeds: seed values must be >= 0"),
    ({"lr_mode": "adagrad"}, "learning_rate: unknown mode 'adagrad'"),
    ({"log_stride": 0}, "log_stride: must be >= 1 (got 0)"),
    ({"log_stride": 2.5}, "log_stride: expected an integer, got float"),
    ({"horizons": (50.0,)}, "horizons[0]: expected an integer, got float"),
    ({"horizons": (True,)}, "horizons[0]: expected an integer, got bool"),
    ({"seeds": (0, 1.5)}, "seeds[1]: expected an integer, got float"),
    ({"environment_name": None}, "environment_name: expected a string, got NoneType"),
    ({"output_dir": 5}, "output_dir: expected a string, got int"),
]


def config_file(fields):
    """ExperimentConfig's fields as the keys of a config file, each value as given."""
    doc = {("learning_rate" if key == "lr_mode" else key): value for key, value in fields.items()}
    doc["environment"] = asdict(doc["environment"])
    # a None-valued policy key reads as absent
    doc["policies"] = [asdict(kind) for kind in doc["policies"]]
    return doc


def config_fields(out, **overrides):
    """ExperimentConfig's fields for a valid two-type run into ``out``, overridden."""
    return {
        "environment": two_type_env(sigma=0.0),
        "environment_name": "two-type-p08",
        "policies": (PolicyKind("dolrm"),),
        "horizons": (50,),
        "seeds": (0, 1),
        "lr_mode": "decaying",
        "output_dir": str(out),
        "log_stride": None,
        **overrides,
    }


@pytest.mark.parametrize("overrides, message", BROKEN_RULES, ids=[m for _, m in BROKEN_RULES])
def test_each_rule_is_checked_where_the_config_is_built(tmp_path, overrides, message):
    out = tmp_path / "out"
    fields = config_fields(out, **overrides)
    with pytest.raises(ConfigError, match=re.escape(message)) as built:
        ExperimentConfig(**fields)
    path = write_config(tmp_path, config_file(fields))
    with pytest.raises(ConfigError) as parsed:
        parse_config(path)
    assert str(parsed.value) == str(built.value)
    assert not out.exists()


def test_output_dir_given_as_a_path_fails_before_anything_is_written(tmp_path):
    # unchecked, a Path would run every episode and then fail to echo as JSON
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**config_fields(out, output_dir=out))
    assert str(err.value) == f"output_dir: expected a string, got {type(out).__name__}"
    assert not out.exists()


# Wrongly typed fields that no other rule catches; run_experiment would
# read them only after creating the output directory.
UNTYPED_FIELDS = [
    ({"environment": {"arrival_probs": [1.0]}}, "environment: expected an EnvironmentSpec, got dict"),
    ({"policies": ("dolrm",)}, "policies[0]: expected a PolicyKind, got str"),
    ({"seeds": range(2)}, "seeds: expected a list or tuple, got range"),
]


@pytest.mark.parametrize("overrides, message", UNTYPED_FIELDS, ids=[m for _, m in UNTYPED_FIELDS])
def test_untyped_field_fails_before_anything_is_written(tmp_path, overrides, message):
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**config_fields(out, **overrides))
    assert str(err.value) == message
    assert not out.exists()


def test_config_built_with_lists_hashes_and_round_trips(tmp_path):
    fields = config_fields(tmp_path / "out", policies=[PolicyKind("dolrm")], horizons=[50], seeds=[0])
    cfg = ExperimentConfig(**fields)
    assert (cfg.policies, cfg.horizons, cfg.seeds) == ((PolicyKind("dolrm"),), (50,), (0,))
    parsed = parse_config(write_config(tmp_path, config_echo(cfg), "echo.json"))
    assert parsed == cfg
    assert hash(parsed) == hash(cfg)


# One case per JSON type check of parse_config: the config keys that break
# it and the whole error, which starts with the key path.
INLINE_ARMS = [[[1, 1]]]
JSON_TYPE_ERRORS = [
    (
        {"environment": {"arrival_probs": 1.0, "arms": INLINE_ARMS}},
        "environment.arrival_probs: expected a list of probabilities",
    ),
    ({"noise_sigma": "1"}, "noise_sigma: expected a number, got str"),
    # a bool is an int to Python, and True would pass as a sigma of 1.0
    ({"noise_sigma": True}, "noise_sigma: expected a number, got bool"),
    (
        {"environment": {"arrival_probs": [1.0], "arms": [[[1, False]]]}},
        "environment: arms[0][0][1]: expected a number, got bool",
    ),
    (
        {"policies": [{"kind": 3}]},
        "policies[0]: unknown policy kind 3; expected one of ('dolrm', 'fixed', 'ucb', 'ts', 'oracle-rm')",
    ),
    ({"environment": ["two-type-p08"]}, "environment: expected a preset name or object, got list"),
    ({"policies": ["dolrm"]}, "policies[0]: expected an object, got str"),
    ({"seeds": 5}, "seeds: expected a list or a count/base object, got int"),
]


@pytest.mark.parametrize("overrides, message", JSON_TYPE_ERRORS, ids=[m for _, m in JSON_TYPE_ERRORS])
def test_json_type_errors_name_the_key_path(tmp_path, overrides, message):
    with pytest.raises(ConfigError) as err:
        parse(tmp_path, **overrides)
    assert str(err.value) == message
