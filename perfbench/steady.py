"""Repeat the benchmark over several seeds and report how steady it is.

    python3 perfbench/steady.py --seeds 101-110 [--workloads exact,global_sep] \
        [--out perfbench/results/steady.json]

Runs ``run.py --trace 0`` once per (seed, workload), cycling through the
workloads for each seed so that slow drift of the machine spreads over all
of them.  For every end-to-end metric in BENCHMARK.json it prints the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median next to the metric's bound, plus the per-workload
throughput figures and the failed-operation fraction over all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            detail = json.loads((run.OUT / f"{w}-seed{seed}-trace0.json").read_text())
            runs[w].append({"seed": seed, "wall_s": wall, **result, "ops": detail["ops"]})
            record = detail["record"]
            print(f"{w:<13} seed {seed:<5} {wall:6.1f} s  " + "  ".join(
                f"{k} {v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    print()
    for w in workloads:
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        summary[w] = {"failed": failed, "attempted": attempted, "metrics": {}}
        print(f"{w}: {len(runs[w])} runs, failed {failed}/{attempted}, "
              f"run wall median {statistics.median(r['wall_s'] for r in runs[w]):.1f} s")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rel = (q3 - q1) / med
            summary[w]["metrics"][m["name"]] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                                "spread": rel, "bound": m["bound"]}
            verdict = "ok" if rel < m["bound"] / 3 else "WIDE" if rel < m["bound"] else "OVER BOUND"
            print(f"  {m['name']:<12} median {med:10.4f} {m['unit']:<3} q1 {q1:10.4f} q3 {q3:10.4f}"
                  f"  spread {rel:6.3f}  bound {m['bound']}  {verdict}")
        # Unreported figures, for comparison with the reported ratio.
        for label, per_run in (
            ("op wall s", lambda r: statistics.median(o["seconds"] for o in r["ops"])),
            ("op CPU s", lambda r: statistics.median(o["cpu_s"] for o in r["ops"])),
            ("ref s", lambda r: statistics.median(o["ref_s"] for o in r["ops"])),
        ):
            values = [per_run(r) for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            print(f"  {label:<12} median {med:10.4f} s   q1 {q1:10.4f} q3 {q3:10.4f}"
                  f"  spread {(q3 - q1) / med:6.3f}")
        ops = [run.OpResult(**o) for r in runs[w] for o in r["ops"]]
        for line in run._derived_lines(run.WORKLOADS[w], ops):
            print(line + f"  (over {len(ops)} operations)")
    if args.out:
        slim = {w: [{**{k: v for k, v in r.items() if k != "ops"},
                     "op_s": [o["seconds"] for o in r["ops"]], "op_cpu_s": [o["cpu_s"] for o in r["ops"]],
                     "op_ref_s": [o["ref_s"] for o in r["ops"]]}
                    for r in rs] for w, rs in runs.items()}
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds, "record": record,
                                        "summary": summary, "runs": slim}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
