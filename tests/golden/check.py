"""Compare golden CLI outputs with fresh runs: python tests/golden/check.py [--cmd PREFIX] FILE.json...
Each file is {"source_commit", "entries": [{"argv", "results" | "checks" | "stdout"}]}; each argv runs as
PREFIX argv, by default this interpreter with -m sepprob.cli.  Stdlib only, so it runs without numpy."""

import argparse
import json
import shlex
import subprocess
import sys


def load(path) -> list:
    with open(path) as fh:
        return json.load(fh)["entries"]


def mismatch(entry: dict, code: int, out: str):
    """None when a run exits 0 and prints the entry's `results`, its ordered
    check names and pass flags, or exactly its `stdout`; else a line naming the
    argv and, for a JSON report, the run's numpy (NEP 19 does not promise
    numpy's random streams across releases)."""
    if "stdout" in entry:
        ok = code == 0 and out == entry["stdout"]
        return None if ok else f"{shlex.join(entry['argv'])}: exit {code}, stdout differs from the golden one"
    key = "checks" if "checks" in entry else "results"
    rep = json.loads(out or "{}")
    got = rep.get(key)
    if key == "checks" and got is not None:
        got = [{"name": c["name"], "pass": c["pass"]} for c in got]
    if code == 0 and got == entry[key]:
        return None
    numpy = rep.get("versions", {}).get("numpy")
    return f"{shlex.join(entry['argv'])}: exit {code}, {key} differ from the golden ones (run with numpy {numpy})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split(":")[0])
    ap.add_argument("--cmd", default=f"{shlex.quote(sys.executable)} -m sepprob.cli", help="command prefix of the CLI")
    ap.add_argument("files", nargs="+")
    args = ap.parse_args(argv)
    runs = [(path, e, subprocess.run(shlex.split(args.cmd) + e["argv"], capture_output=True, text=True))
            for path in args.files for e in load(path)]
    bad = [f"{path}: {msg}" for path, e, p in runs if (msg := mismatch(e, p.returncode, p.stdout))]
    print(*bad, f"{len(runs) - len(bad)} of {len(runs)} golden entries match", sep="\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
