"""Each mutant of ``scripts/mutants.py`` still applies to the tree.

The mutation check itself runs one suite per mutant and stays outside the
suite; this only checks that every mutant's old text occurs exactly once
in its file, so an edit that orphans an anchor fails here, not as a
``NOT APPLIED`` line in the next full run. ``scripts/mutants.py`` leaves
this file out of its runs: in a mutated copy the anchor is gone by design.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_mutant_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
