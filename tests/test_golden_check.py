"""Negative control of the golden runner: one corrupted value in a copy of a
golden file is reported, by entry and with the golden and the run's numpy,
in-process and through a command prefix; a failed run is reported with its
exit code and last stderr line."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from golden.check import load, mismatch

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_NUMPY = "1.0.0"


def corrupted_copies(tmp_path):
    """Copies of ``integrate.json`` with the prob entry's value changed, of
    the plain ``verify all`` entry with its first check failing, and of the
    ``density --grid 20`` entry with one digit of its CSV changed, each
    stamped with numpy GOLDEN_NUMPY."""
    integrate = load(GOLDEN / "integrate.json")["entries"]
    prob = next(e for e in integrate if e["argv"][-1] == "prob")
    prob["results"]["prob"] = "8/34"
    verify = load(GOLDEN / "verify_all.json")["entries"][:1]
    verify[0]["checks"][0]["pass"] = False
    grid = [e for e in load(GOLDEN / "exact_verbs.json")["entries"] if e["argv"] == ["density", "--grid", "20"]]
    grid[0]["stdout"] = grid[0]["stdout"].replace("0.78125", "0.78126", 1)
    paths = []
    for name, entries in (("integrate.json", integrate), ("verify_all.json", verify), ("exact_verbs.json", grid)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"source_commit": "corrupted", "versions": {"numpy": GOLDEN_NUMPY}, "entries": entries}))
    return paths, [prob, verify[0], grid[0]]


def test_in_process_mismatch_names_the_entry_and_numpy(tmp_path, cli_run):
    _, corrupted = corrupted_copies(tmp_path)
    for entry in corrupted[:2]:
        msg = mismatch(entry, *cli_run(entry["argv"]), GOLDEN_NUMPY)
        assert msg.startswith(shlex.join(entry["argv"]) + ": exit 0, ")
        assert msg.endswith(f"(golden numpy {GOLDEN_NUMPY}, run numpy {np.__version__})")
    grid = corrupted[2]
    assert mismatch(grid, *cli_run(grid["argv"])) == "density --grid 20: exit 0, stdout differs from the golden one"
    err = "Traceback (most recent call last):\n  ...\nModuleNotFoundError: No module named 'sepprob'\n"
    argv = shlex.join(corrupted[0]["argv"])
    assert mismatch(corrupted[0], 1, "", None, err) == f"{argv}: exit 1, ModuleNotFoundError: No module named 'sepprob'"
    assert mismatch(corrupted[0], 1, "") == f"{argv}: exit 1, no stderr"


@pytest.mark.parametrize("which", [0, 1, 2], ids=["results", "checks", "stdout"])
def test_runner_exits_nonzero_on_the_corrupted_entry(tmp_path, which, child_env):
    paths, corrupted = corrupted_copies(tmp_path)
    cmd = [sys.executable, str(GOLDEN / "check.py"), "--cmd", f"{shlex.quote(sys.executable)} -m sepprob.cli"]
    proc = subprocess.run(cmd + [str(paths[which])], env=child_env, capture_output=True, text=True)
    total = len(load(paths[which])["entries"])
    assert proc.returncode == 1, proc.stderr
    # `integrate` runs without importing numpy, `verify all` with it.
    reason = (f"results differ from the golden ones (golden numpy {GOLDEN_NUMPY}, run numpy None)",
              f"checks differ from the golden ones (golden numpy {GOLDEN_NUMPY}, run numpy {np.__version__})",
              "stdout differs from the golden one")[which]
    assert proc.stdout.splitlines() == [
        f"{paths[which]}: {shlex.join(corrupted[which]['argv'])}: exit 0, {reason}",
        f"{total - 1} of {total} golden entries match",
    ]
