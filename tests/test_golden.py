"""Pinned `results` and check lists of the CLI, compared exactly.

`golden/integrate.json` holds the `results` of `integrate --emit` for each of
M1, M2, M3, f and prob; `golden/density_oracle.json` the `results` of
`density --check-oracle --points 25 --seed 7`; `golden/verify_all.json` the
ordered check names and pass flags of `verify all --seed 42`;
`golden/sample.json` the `results` of `sample sep` (seeds 3, 5, 7, 11 and 77
at 1 and 2 threads, and two wide tolerance bands) and `sample conditioned`
(a = 0.2 and 0.9), the estimators' bit-level pins.  Regenerate an
entry only for a deliberate change of output, and name the entry and the
reason in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from sepprob.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "integrate.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN["entries"]))
def test_integrate_matches_golden(name, capsys):
    entry = GOLDEN["entries"][name]
    assert main(list(entry["argv"])) == 0
    assert json.loads(capsys.readouterr().out)["results"] == entry["results"]


def test_golden_covers_every_emit():
    assert sorted(GOLDEN["entries"]) == ["M1", "M2", "M3", "f", "prob"]


SAMPLE = json.loads((GOLDEN_DIR / "sample.json").read_text())["entries"]


@pytest.mark.parametrize("entry", SAMPLE, ids=["-".join(a.lstrip("-") for a in e["argv"][1:]) for e in SAMPLE])
def test_sample_matches_golden(entry, capsys):
    assert main(list(entry["argv"])) == 0
    assert json.loads(capsys.readouterr().out)["results"] == entry["results"]


def test_density_oracle_matches_golden(capsys):
    pinned = json.loads((GOLDEN_DIR / "density_oracle.json").read_text())
    assert main(list(pinned["argv"])) == 0
    assert json.loads(capsys.readouterr().out)["results"] == pinned["results"]


def test_verify_all_matches_golden(verify_all_42):
    pinned = json.loads((GOLDEN_DIR / "verify_all.json").read_text())
    code, rep = verify_all_42
    assert pinned["argv"] == ["verify", "all", "--seed", "42"] and code == 0
    assert [{"name": c["name"], "pass": c["pass"]} for c in rep["checks"]] == pinned["checks"]
