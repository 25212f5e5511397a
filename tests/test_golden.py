"""Pinned `results` objects of the exact verbs, compared exactly.

`golden/integrate.json` holds the `results` of `integrate --emit` for each of
M1, M2, M3, f and prob.  Regenerate an entry only for a deliberate change of
output, and name the entry and the reason in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from sepprob.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "integrate.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN["entries"]))
def test_integrate_matches_golden(name, capsys):
    entry = GOLDEN["entries"][name]
    assert main(list(entry["argv"])) == 0
    assert json.loads(capsys.readouterr().out)["results"] == entry["results"]


def test_golden_covers_every_emit():
    assert sorted(GOLDEN["entries"]) == ["M1", "M2", "M3", "f", "prob"]
