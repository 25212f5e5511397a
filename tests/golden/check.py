"""Compare golden CLI outputs with fresh runs, or rewrite them from fresh runs:
python tests/golden/check.py [--cmd PREFIX] [--write] FILE.json...
Each file is {"source_commit", "versions": {"numpy"}, "entries": [{"argv", "results" | "checks" | "stdout"}]};
each argv runs as PREFIX argv, by default this interpreter with -m sepprob.cli.  Stdlib only, so it runs
without numpy."""

import argparse
import json
import shlex
import subprocess
import sys
from pathlib import Path


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def numpy_of(doc: dict):
    """The numpy a golden file or a run's report records, None when it
    records none."""
    return doc.get("versions", {}).get("numpy")


def pin_key(entry: dict) -> str:
    return next(k for k in ("stdout", "checks", "results") if k in entry)


def run_pin(entry: dict, out: str) -> tuple:
    """What ``entry`` pins, read from a run's stdout (its `results`, its
    ordered check names and pass flags, or the whole stdout), and the numpy
    that run reports (None for a `stdout` pin)."""
    key = pin_key(entry)
    if key == "stdout":
        return out, None
    rep = json.loads(out or "{}")
    got = rep.get(key)
    if key == "checks" and got is not None:
        got = [{"name": c["name"], "pass": c["pass"]} for c in got]
    return got, numpy_of(rep)


def mismatch(entry: dict, code: int, out: str, numpy=None, err: str = ""):
    """None when a run exits 0 and prints what the entry pins; else a line
    naming the argv and either a failed run's exit code and last stderr line
    ``err``, or, for a JSON report, both the golden file's ``numpy`` and the
    run's (NEP 19 does not promise numpy's random streams across
    releases).  Write mode names a failed run by the same line."""
    if code != 0:
        last = err.strip().splitlines()[-1:] or ["no stderr"]
        return f"{shlex.join(entry['argv'])}: exit {code}, {last[0]}"
    key, (got, run_numpy) = pin_key(entry), run_pin(entry, out)
    if got == entry[key]:
        return None
    if key == "stdout":
        return f"{shlex.join(entry['argv'])}: exit {code}, stdout differs from the golden one"
    return (f"{shlex.join(entry['argv'])}: exit {code}, {key} differ from the golden ones "
            f"(golden numpy {numpy}, run numpy {run_numpy})")


def source_commit() -> str:
    """The commit of the checkout that holds this script, with -dirty when
    its tracked files differ from it; "unknown" outside a git checkout."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=Path(__file__).parent,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def write(path, runs: list) -> list:
    """Rewrite the golden file at ``path`` from its entries' runs, (entry,
    exit code, stdout, stderr) each, stamped with ``source_commit()`` and the
    numpy the runs report; return the argv of every entry whose pin changed."""
    entries, changed, numpy = [], [], None
    for entry, code, out, _ in runs:
        key, (got, run_numpy) = pin_key(entry), run_pin(entry, out)
        numpy = numpy or run_numpy
        entries.append({**entry, key: got})
        if got != entry[key]:
            changed.append(shlex.join(entry["argv"]))
    doc = {"source_commit": source_commit(), "versions": {"numpy": numpy}, "entries": entries}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    return changed


def run(cmd: str, entry: dict) -> tuple:
    """Exit code, stdout and stderr of ``cmd`` followed by the entry's argv."""
    proc = subprocess.run(shlex.split(cmd) + entry["argv"], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split(":")[0])
    ap.add_argument("--cmd", default=f"{shlex.quote(sys.executable)} -m sepprob.cli", help="command prefix of the CLI")
    ap.add_argument("--write", action="store_true",
                    help="rewrite each file's pins from fresh runs and stamp it; a file with a failing run is left as it is")
    ap.add_argument("files", nargs="+")
    args = ap.parse_args(argv)
    docs = {path: load(path) for path in args.files}
    runs = {path: [(e, *run(args.cmd, e)) for e in doc["entries"]] for path, doc in docs.items()}
    if args.write:
        status = 0
        for path, file_runs in runs.items():
            failed = [f"{path}: {mismatch(e, code, out, err=err)}, file left as it is"
                      for e, code, out, err in file_runs if code != 0]
            if failed:
                print(*failed, sep="\n")
                status = 1
            else:
                changed = write(path, file_runs)
                print(f"{path}: {len(changed)} of {len(file_runs)} entries changed", *changed, sep="\n  ")
        return status
    bad = [f"{path}: {msg}" for path, file_runs in runs.items() for e, code, out, err in file_runs
           if (msg := mismatch(e, code, out, numpy_of(docs[path]), err))]
    total = sum(map(len, runs.values()))
    print(*bad, f"{total - len(bad)} of {total} golden entries match", sep="\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
