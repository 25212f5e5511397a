"""Every golden entry, run in-process and compared by `golden/check.py`, the runner CI
calls.  Regenerate an entry (`golden/check.py --write`) only for a deliberate change of
output, and name the entry and the reason in CHANGES.md.  Every verb has an entry, and a
key of a report's `results` that no entry pins must be listed in COVERED_ELSEWHERE with
its test."""

import argparse
import json
from pathlib import Path

import pytest
from golden.check import numpy_of, load, mismatch

from sepprob.cli import build_parser

DOCS = {f.name: load(f) for f in (Path(__file__).parent / "golden").glob("*.json")}
ENTRIES = {name: doc["entries"] for name, doc in DOCS.items()}


def assert_golden(name, entries, cli_run):
    numpy = numpy_of(DOCS[name])
    assert [msg for e in entries if (msg := mismatch(e, *cli_run(e["argv"]), numpy))] == []


def golden_test(name: str, skip: int | None = None):
    """A test of ``golden/<name>``: one case for the whole file, or with ``skip`` one case per
    entry, named by its argv less the first ``skip`` words."""
    if skip is None:
        return lambda cli_run: assert_golden(name, ENTRIES[name], cli_run)
    @pytest.mark.parametrize("entry", ENTRIES[name], ids=lambda e: "-".join(a.lstrip("-") for a in e["argv"][skip:]))
    def test(entry, cli_run):
        assert_golden(name, [entry], cli_run)

    return test


test_integrate_matches_golden = golden_test("integrate.json", skip=2)
test_sample_matches_golden = golden_test("sample.json", skip=1)
test_marginal_matches_golden = golden_test("marginal_seed17.json", skip=0)
test_exact_verbs_match_golden = golden_test("exact_verbs.json", skip=0)
test_density_oracle_matches_golden = golden_test("density_oracle.json")
test_verify_all_matches_golden = golden_test("verify_all.json")


def test_golden_covers_every_emit():
    assert len(ENTRIES) == 6 and sorted(e["argv"][-1] for e in ENTRIES["integrate.json"]) == ["M1", "M2", "M3", "f", "prob"]


# Keys of a report's `results` that no golden entry pins, by report command,
# each with the test that asserts it.
COVERED_ELSEWHERE = {
    "verify all": {"deep": "test_cli.py::TestVerifyVerb::test_verify_all_deep_reports_deep"},
}


def verb_paths(parser, prefix=()) -> set:
    """Every verb of the CLI, with its sub-verbs: ("volumes",), ("sample", "sep"), ..."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix}
    return set().union(*(verb_paths(p, prefix + (name,)) for name, p in subs[0].choices.items()))


def test_every_results_key_is_pinned_or_covered(cli_run):
    entries = [e for file_entries in ENTRIES.values() for e in file_entries]
    unpinned_verbs = [p for p in verb_paths(build_parser()) if not any(e["argv"][:len(p)] == list(p) for e in entries)]
    assert unpinned_verbs == []
    reported, pinned = {}, {}
    for e in entries:
        if "stdout" not in e:
            rep = json.loads(cli_run(e["argv"])[1])
            reported.setdefault(rep["command"], set()).update(rep["results"])
            pinned.setdefault(rep["command"], set()).update(e.get("results", ()))
    unpinned = {command: keys - pinned[command] for command, keys in reported.items() if keys - pinned[command]}
    assert unpinned == {command: set(keys) for command, keys in COVERED_ELSEWHERE.items()}
