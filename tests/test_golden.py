"""Byte-level reproducibility: the SHA-256 of everything a small sweep writes.

The sweep runs every preset under both learning-rate modes at sigma 0, 0.7
and the preset's own sigma, plus two inline environments under both
modes: a noiseless one with a ``-0.0`` mean reward and two identical arms
(so every argmax meets an exact tie), and one at sigma 1 whose three
types have 1, 5 and 8 arms, two of them identical (the presets have at
most 2 arms per type). All of it runs through the command line:
``dolrm run`` and ``dolrm oracle`` per config, and ``dolrm presets`` once.
Each config runs dolrm, ucb, ts, oracle-rm and a labelled fixed map at
horizons 1, 50, 500 and 3000, seeds 0-2 and log stride 7. One more config,
``two-type-p08-blocks``, runs the same five kinds on ``two-type-p08`` at
sigma 1, horizon 10 000, seeds 0-1 and the default stride, so each episode
draws its arrivals and noise over two full harness blocks and a partial
one. ``golden/digests.json`` holds the digest of every
output file and of each command's stdout, with the output path replaced by
``<out>``. ``resolved_config.json`` is left out because it echoes the
output path.

Re-record the digests only for a change that alters the random streams or
the output format on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from dolrm.cli import main
from dolrm.config import PRESETS
from dolrm.policies import LEARNING_RATE_MODES

DIGESTS_PATH = Path(__file__).parent / "golden" / "digests.json"
HORIZONS = [1, 50, 500, 3000]
SEEDS = [0, 1, 2]
LOG_STRIDE = 7
SIGMAS = (0.0, 0.7, None)  # None keeps the preset's own sigma
SIGNED_ZERO_ENV = {
    "arrival_probs": [0.5, 0.5],
    "arms": [[[-0.0, 0.5]], [[1.5, 0.75], [1.5, 0.75]]],
    "noise_sigma": 0.0,
}
MANY_ARMS_ENV = {
    "arrival_probs": [0.25, 0.35, 0.4],
    "arms": [
        [[2.0, 1.0]],
        [[3.0, 2.0], [1.0, 0.75], [2.5, 1.5], [1.0, 0.75], [0.5, 0.25]],
        [
            [1.0, 0.5], [2.0, 1.5], [3.0, 2.5], [1.5, 1.0],
            [2.75, 2.0], [0.75, 0.5], [2.25, 1.25], [1.25, 0.75],
        ],
    ],
    "noise_sigma": 1.0,
}
INLINE_ENVS = {"signed-zero": SIGNED_ZERO_ENV, "many-arms": MANY_ARMS_ENV}
# 10 000 rounds are two full blocks of 4096 and a partial one.
BLOCK_SPANNING = {
    "environment": "two-type-p08",
    "noise_sigma": 1.0,
    "horizons": [10_000],
    "seeds": [0, 1],
    "log_stride": None,
}
UNDIGESTED = {"resolved_config.json"}


def sweep_configs():
    """(name, config keys, per-type arm counts) of every sweep config."""
    for preset in sorted(PRESETS):
        arms = [len(arms_s) for arms_s in PRESETS[preset]["environment"]["arms"]]
        for lr_mode in LEARNING_RATE_MODES:
            for sigma in SIGMAS:
                env = {"environment": preset, "learning_rate": lr_mode}
                if sigma is not None:
                    env["noise_sigma"] = sigma
                label = "default" if sigma is None else f"{sigma:g}"
                yield f"{preset}-{lr_mode}-sigma-{label}", env, arms
    for name, inline in INLINE_ENVS.items():
        arms = [len(arms_s) for arms_s in inline["arms"]]
        for lr_mode in LEARNING_RATE_MODES:
            env = {"environment": inline, "environment_name": name, "learning_rate": lr_mode}
            yield f"{name}-{lr_mode}", env, arms
    arms = [len(arms_s) for arms_s in PRESETS["two-type-p08"]["environment"]["arms"]]
    yield "two-type-p08-blocks", BLOCK_SPANNING, arms


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def sweep(work: Path) -> dict[str, str]:
    """Run the sweep under ``work`` and return {output name: SHA-256}."""
    digests = {"presets/stdout": sha256(cli_stdout("presets").encode())}
    for name, env, arms in sweep_configs():
        out_dir = work / name
        config = {
            "horizons": HORIZONS,
            "seeds": SEEDS,
            "log_stride": LOG_STRIDE,
            **env,
            "policies": [
                {"kind": "dolrm"},
                {"kind": "ucb"},
                {"kind": "ts"},
                {"kind": "oracle-rm"},
                {"kind": "fixed", "actions": [k - 1 for k in arms], "label": "last-arms"},
            ],
            "output_dir": str(out_dir),
        }
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(config))
        for command in ("run", "oracle"):
            stdout = cli_stdout(command, str(config_path)).replace(str(out_dir), "<out>")
            digests[f"{name}/stdout-{command}"] = sha256(stdout.encode())
        for path in sorted(out_dir.rglob("*")):
            if path.is_file() and path.name not in UNDIGESTED:
                digests[f"{name}/{path.relative_to(out_dir).as_posix()}"] = sha256(
                    path.read_bytes()
                )
    return digests


def test_sweep_outputs_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS_PATH.read_text())
    actual = sweep(tmp_path)
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    changed = sorted(k for k in expected.keys() & actual.keys() if expected[k] != actual[k])
    assert not (missing or extra or changed), (
        f"{len(changed)} outputs changed, {len(missing)} missing, {len(extra)} unexpected; "
        f"first changed: {changed[:5]}, missing: {missing[:5]}, unexpected: {extra[:5]}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = sweep(Path(work))
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS_PATH}")
