"""Negative control of the golden runner: one corrupted value in a copy of a
golden file is reported, by entry, in-process and through a command prefix."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sepprob
from golden.check import load, mismatch

GOLDEN = Path(__file__).parent / "golden"


def corrupted_copies(tmp_path):
    """Copies of ``integrate.json`` with the prob entry's value changed and of
    the plain ``verify all`` entry with its first check failing."""
    integrate = load(GOLDEN / "integrate.json")
    prob = next(e for e in integrate if e["argv"][-1] == "prob")
    prob["results"]["prob"] = "8/34"
    verify = load(GOLDEN / "verify_all.json")[:1]
    verify[0]["checks"][0]["pass"] = False
    paths = []
    for name, entries in (("integrate.json", integrate), ("verify_all.json", verify)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"source_commit": "corrupted", "entries": entries}))
    return paths, [prob, verify[0]]


def test_in_process_mismatch_names_the_entry_and_numpy(tmp_path, cli_run):
    _, corrupted = corrupted_copies(tmp_path)
    for entry in corrupted:
        msg = mismatch(entry, *cli_run(entry["argv"]))
        assert msg.startswith(shlex.join(entry["argv"]) + ": exit 0, ")
        assert msg.endswith(f"(run with numpy {np.__version__})")
    assert mismatch({**corrupted[0], "results": {}}, 1, "") == f"{shlex.join(corrupted[0]['argv'])}: exit 1, results differ from the golden ones (run with numpy None)"


@pytest.mark.parametrize("which", [0, 1], ids=["results", "checks"])
def test_runner_exits_nonzero_on_the_corrupted_entry(tmp_path, which):
    paths, corrupted = corrupted_copies(tmp_path)
    src = str(Path(sepprob.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, str(GOLDEN / "check.py"), "--cmd", f"{shlex.quote(sys.executable)} -m sepprob.cli"]
    proc = subprocess.run(cmd + [str(paths[which])], env=env, capture_output=True, text=True)
    total = len(load(paths[which]))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{paths[which]}: {shlex.join(corrupted[which]['argv'])}: exit 0, "
        f"{('results', 'checks')[which]} differ from the golden ones (run with numpy {np.__version__})",
        f"{total - 1} of {total} golden entries match",
    ]
