"""Every golden entry, run in-process and compared by `golden/check.py`, the runner CI
calls.  Regenerate an entry only for a deliberate change of output, and name the entry
and the reason in CHANGES.md."""

from pathlib import Path

import pytest
from golden.check import load, mismatch

ENTRIES = {f.name: load(f) for f in (Path(__file__).parent / "golden").glob("*.json")}


def assert_golden(entries, cli_run):
    assert [msg for e in entries if (msg := mismatch(e, *cli_run(e["argv"])))] == []


def golden_test(name: str, skip: int | None = None):
    """A test of ``golden/<name>``: one case for the whole file, or with ``skip`` one case per
    entry, named by its argv less the first ``skip`` words."""
    if skip is None:
        return lambda cli_run: assert_golden(ENTRIES[name], cli_run)
    @pytest.mark.parametrize("entry", ENTRIES[name], ids=lambda e: "-".join(a.lstrip("-") for a in e["argv"][skip:]))
    def test(entry, cli_run):
        assert_golden([entry], cli_run)

    return test


test_integrate_matches_golden = golden_test("integrate.json", skip=2)
test_sample_matches_golden = golden_test("sample.json", skip=1)
test_marginal_matches_golden = golden_test("marginal_seed17.json", skip=0)
test_exact_verbs_match_golden = golden_test("exact_verbs.json", skip=0)
test_density_oracle_matches_golden = golden_test("density_oracle.json")
test_verify_all_matches_golden = golden_test("verify_all.json")


def test_golden_covers_every_emit():
    assert len(ENTRIES) == 6 and sorted(e["argv"][-1] for e in ENTRIES["integrate.json"]) == ["M1", "M2", "M3", "f", "prob"]
