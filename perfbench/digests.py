"""Output digests: SHA-256 of every trace CSV and of summary.json.

``references/<workload>.json`` maps each input set to the digests its
experiment produced at the commit the benchmark was defined on. An episode
counts as failed when its trace differs from the reference; a differing
summary.json fails every episode of the experiment.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from paths import REFERENCES

SUMMARY = "summary.json"


def output_digests(bundle) -> dict[str, str]:
    """Relative path -> SHA-256 for each trace CSV and summary.json of a run_experiment bundle."""
    paths = list(bundle.trace_paths) + [bundle.summary_json_path]
    return {
        p.relative_to(bundle.output_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in paths
    }


def failed_episodes(digests: dict[str, str], reference: dict[str, str]) -> int:
    """Episodes whose outputs differ from the reference (missing files count as differing)."""
    traces = [name for name in reference if name != SUMMARY]
    if digests.get(SUMMARY) != reference[SUMMARY]:
        return len(traces)
    return sum(digests.get(name) != reference[name] for name in traces)


def reference_path(workload: str) -> Path:
    return REFERENCES / f"{workload}.json"


def load_reference(workload: str, index: int) -> dict[str, str]:
    doc = json.loads(reference_path(workload).read_text())
    return doc["input_sets"][str(index)]
