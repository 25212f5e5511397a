"""Negative control of the golden runner's write mode, without numpy: a write
of unchanged outputs changes only the stamps, and a write repairs a
corrupted value that check mode reports.  Check mode names a run that fails
by its exit code and last stderr line."""

import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
EXACT_FILES = ("integrate.json", "exact_verbs.json")


def runner(child_env, *args):
    cmd = [sys.executable, str(GOLDEN / "check.py"), "--cmd", f"{shlex.quote(sys.executable)} -m sepprob.cli"]
    return subprocess.run(cmd + [str(a) for a in args], env=child_env, capture_output=True, text=True)


def entries_text(path) -> str:
    """A golden file's text from its "entries" key on: all of it but the stamps."""
    return Path(path).read_text().split('"entries"', 1)[1]


def test_write_of_unchanged_outputs_changes_only_the_stamps(tmp_path, child_env):
    copies = [shutil.copy(GOLDEN / name, tmp_path / name) for name in EXACT_FILES]
    proc = runner(child_env, "--write", *copies)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{tmp_path / 'integrate.json'}: 0 of 5 entries changed",
                                        f"{tmp_path / 'exact_verbs.json'}: 0 of 6 entries changed"]
    for name in EXACT_FILES:
        assert entries_text(tmp_path / name) == entries_text(GOLDEN / name)
        doc = json.loads((tmp_path / name).read_text())
        assert list(doc) == ["source_commit", "versions", "entries"]
        # The exact verbs never load numpy, so the runs report none.
        assert isinstance(doc["source_commit"], str) and doc["versions"] == {"numpy": None}


def test_check_reports_and_write_repairs_a_corrupted_value(tmp_path, child_env):
    path = tmp_path / "integrate.json"
    doc = json.loads((GOLDEN / "integrate.json").read_text())
    prob = next(e for e in doc["entries"] if e["argv"][-1] == "prob")
    prob["results"]["prob"] = "8/34"
    path.write_text(json.dumps({**doc, "versions": {"numpy": "1.0.0"}}, indent=1) + "\n")
    checked = runner(child_env, path)
    assert checked.returncode == 1
    assert checked.stdout.splitlines() == [
        f"{path}: integrate --emit prob: exit 0, results differ from the golden ones (golden numpy 1.0.0, run numpy None)",
        "4 of 5 golden entries match"]
    written = runner(child_env, "--write", path)
    assert written.returncode == 0, written.stderr
    assert written.stdout.splitlines() == [f"{path}: 1 of 5 entries changed", "  integrate --emit prob"]
    assert entries_text(path) == entries_text(GOLDEN / "integrate.json")
    assert runner(child_env, path).returncode == 0


def test_write_leaves_a_file_with_a_failing_run_as_it_is(tmp_path, child_env):
    path = tmp_path / "usage.json"
    text = json.dumps({"source_commit": "x", "entries": [{"argv": ["volumes", "--n", "0"], "results": {}}]}, indent=1)
    path.write_text(text)
    proc = runner(child_env, "--write", path)
    assert (proc.returncode, proc.stdout) == (1, f"{path}: volumes --n 0: exit 2, file left as it is\n")
    assert path.read_text() == text


def test_check_names_a_failed_run_by_its_last_stderr_line(tmp_path, child_env):
    path = tmp_path / "fails.json"
    path.write_text(json.dumps({"entries": [{"argv": ["volumes", "--n", "4"], "results": {}}]}))
    fail = "import sys; sys.stderr.write('Traceback\\nModuleNotFoundError: stand-in\\n'); sys.exit(3)"
    cmd = [sys.executable, str(GOLDEN / "check.py"), "--cmd", shlex.join([sys.executable, "-c", fail]), str(path)]
    proc = subprocess.run(cmd, env=child_env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.splitlines()) == (
        1, [f"{path}: volumes --n 4: exit 3, ModuleNotFoundError: stand-in", "0 of 1 golden entries match"])
