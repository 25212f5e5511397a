"""sepprob benchmark: four CLI workloads, each operation in a fresh interpreter.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/sepprob``.  With
``--trace 0`` it times untraced operations for ``--seconds`` seconds and
prints the end-to-end metrics; with ``--trace 1`` it runs the workload's
untraced operations once more for comparison, then one traced replay of
every workload's operation, and prints the per-layer metrics.  Every operation's output is
checked (outputs.py).  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Spans and the run record are also written to ``.bench_out/``.

Workloads (one operation = one ``sepprob.cli.main(argv)`` call in a child):

- exact: ``integrate --emit prob`` in a fresh interpreter, so the exact
  pipeline's caches start empty; ``--emit f`` runs untimed in the same child
  for its output check.
- global_sep: ``sample sep --n 262144`` at --threads 1 and then at
  --threads nproc with the same seed; the pair is one operation because the
  check needs both runs.
- conditioned: ``sample conditioned --a A --n 10000``, A cycling through
  0, 0.2 and 0.4.  Runnable by name, but not listed in BENCHMARK.json: its
  run-to-run spread reached the bound on the host it was built on (see
  README.md).  Its layers are still traced on every ``--trace 1`` run.
- marginal_law: ``marginal --spectrum 0.45,0.27,0.18,0.10 --samples 262144
  --bins 50``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
N_SEP = 1 << 18
N_COND = 10_000
N_WALK = 5_000
N_MARGINAL = 1 << 18
BINS = 50
SPECTRUM = "0.45,0.27,0.18,0.10"
SLICE_A = (0.0, 0.2, 0.4)
SETUP_REPS = 10
CHILD_TIMEOUT_S = 60

# Every child times a fixed reference kernel (child.py) in its own process
# before and after its CLI calls: the Python-Fraction kernel for exact, the
# LAPACK kernel on as many threads as the call uses for the sampling
# workloads and for set-up.  The
# host's speed drifts by up to +-25% over minutes, and the reference time
# drifts with it, so times divided by it are steady.  op_ref is an
# operation's time in units of the reference time (summed over its calls);
# setup_s is the set-up time scaled to a host on which the reference takes
# REF_NOMINAL_S.
REF_NOMINAL_S = 0.1

# Children see only the checkout's source, and numerical libraries get one
# thread each so that a run uses at most nproc threads (the --threads pool).
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Every per-layer metric with its unit, as BENCHMARK.json lists them.
PER_LAYER = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@dataclass
class OpResult:
    seconds: float  # timed CLI calls, excluding interpreter start and imports
    wall_s: float  # child processes' wall time, as the parent saw it, less the reference kernels
    rss_mb: float
    failures: list
    parts: dict  # timed seconds per CLI invocation
    numpy: str | None = None
    cpu_s: float = 0.0  # CPU seconds of the timed calls, all threads
    ref_s: float = 0.0  # reference-kernel time in the op's child (mean over children)
    ref_ratio: float = 0.0  # seconds / ref_s, summed over the op's children


def _child(mode: str, spec: dict | None) -> tuple[dict | None, float, list]:
    """Run child.py; return (its JSON record, wall seconds, failures)."""
    cmd = [sys.executable, str(CHILD), mode] + ([json.dumps(spec)] if spec is not None else [])
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t, [f"child {mode} timed out"]
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        return None, wall, [f"child {mode} exit {proc.returncode}: {proc.stderr[-1000:]}"]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if mode == "setup":
        return record, wall, []
    if not str(record["package"]).startswith(str(SRC)):
        return None, wall, [f"imported sepprob from {record['package']}, not {SRC}"]
    return record, wall, []


def _cli(calls: list[tuple[list[str], bool]], ref: dict) -> tuple[list[dict], OpResult]:
    """Run CLI invocations in one child, timing the reference kernel ``ref``
    (child.reference_s's arguments) around them; return their payloads and
    timing."""
    spec = {"calls": [{"argv": argv, "timed": timed} for argv, timed in calls], "ref": ref}
    record, wall, failures = _child("op", spec)
    if record is None:
        return [], OpResult(0.0, wall, 0.0, failures, {})
    payloads = []
    for call in record["calls"]:
        if call["rc"] != 0 or call["payload"] is None:
            failures.append(f"{' '.join(call['argv'])}: rc={call['rc']} {call.get('error', '')}"
                            f"{call['stderr']}")
        payloads.append(call["payload"])
    timed = {" ".join(c["argv"]): c["seconds"] for c in record["calls"] if c["timed"]}
    versions = (payloads[0] or {}).get("versions", {}) if payloads else {}
    cpu = sum(c["cpu_s"] for c in record["calls"] if c["timed"])
    seconds = sum(timed.values())
    wall -= record["ref_total_s"]
    return payloads, OpResult(seconds, wall, record["maxrss_kb"] / 1024.0, failures, timed,
                              versions.get("numpy"), cpu, record["ref_s"], seconds / record["ref_s"])


def _checked(payloads: list, result: OpResult, check: Callable[..., list]) -> OpResult:
    if not result.failures:
        result.failures += check(*payloads)
    return result


def op_exact(seed: int, index: int) -> OpResult:
    payloads, res = _cli([(["integrate", "--emit", "prob"], True), (["integrate", "--emit", "f"], False)],
                         {"kind": "python"})
    return _checked(payloads, res, outputs.check_exact)


def sep_argv(seed: int, threads: int) -> list[str]:
    return ["sample", "sep", "--n", str(N_SEP), "--seed", str(seed), "--threads", str(threads)]


def op_global_sep(seed: int, index: int) -> OpResult:
    p1, r1 = _cli([(sep_argv(seed, 1), True)], {"kind": "lapack", "threads": 1})
    pm, rm = _cli([(sep_argv(seed, NPROC), True)], {"kind": "lapack", "threads": NPROC})
    res = OpResult(r1.seconds + rm.seconds, r1.wall_s + rm.wall_s, max(r1.rss_mb, rm.rss_mb),
                   r1.failures + rm.failures, {"threads_1": r1.seconds, "threads_n": rm.seconds},
                   r1.numpy, r1.cpu_s + rm.cpu_s, (r1.ref_s + rm.ref_s) / 2, r1.ref_ratio + rm.ref_ratio)
    return _checked(p1 + pm, res, outputs.check_sep)


def op_conditioned(seed: int, index: int) -> OpResult:
    a = SLICE_A[index % len(SLICE_A)]
    argv = ["sample", "conditioned", "--a", str(a), "--n", str(N_COND), "--seed", str(seed)]
    payloads, res = _cli([(argv, True)], {"kind": "lapack"})
    res.parts = {f"a={a}": res.seconds}
    return _checked(payloads, res, lambda rep: outputs.check_conditioned(rep, a))


def op_marginal(seed: int, index: int) -> OpResult:
    argv = ["marginal", "--spectrum", SPECTRUM, "--samples", str(N_MARGINAL), "--bins", str(BINS),
            "--seed", str(seed)]
    payloads, res = _cli([(argv, True)], {"kind": "lapack"})
    return _checked(payloads, res, outputs.check_marginal)


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable[[int, int], OpResult]
    twin_ops: int  # CLI operations that one traced replay covers


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact", op_exact, 1),
        Workload("global_sep", op_global_sep, 1),
        Workload("conditioned", op_conditioned, 3),
        Workload("marginal_law", op_marginal, 1),
    )
}


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def machine_record(seed: int, numpy_version: str | None) -> dict:
    """Commit, machine, versions and thread counts recorded with a result."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in (_read(Path("/proc/cpuinfo")) or "").splitlines()
                if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "cpu": cpu,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "threads": [1, NPROC],
        "child_env": {k: CHILD_ENV[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def tail_percentile(values: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    return f"p{100 * (n - 10) // n} {ordered[n - 11]:.4f}" if n > 10 else "no percentile with 10 beyond"


def measure_setup(reps: int) -> tuple[list[float], list[float], list]:
    """Wall time of fresh interpreters that import sepprob and every
    submodule, less the time each then spends on the reference kernel; and
    the reference times."""
    walls, refs, failures = [], [], []
    for _ in range(reps):
        record, wall, bad = _child("setup", None)
        if record is not None:
            walls.append(wall - record["ref_total_s"])
            refs.append(record["ref_s"])
        failures += bad
    return walls, refs, failures


def run_ops(w: Workload, rng: random.Random, seconds: float) -> list[OpResult]:
    """Run operations until the next one would end more than half an
    operation past ``seconds``."""
    results: list[OpResult] = []
    start = time.perf_counter()
    while True:
        results.append(w.op(rng.randrange(1, 2**31), len(results)))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(results)) > seconds:
            return results


def _derived_lines(w: Workload, ops: list[OpResult]) -> list[str]:
    """Per-workload throughput figures for the run's report lines."""
    good = [o for o in ops if not o.failures]
    if not good:
        return []
    if w.name == "exact":
        return [f"  exact_prob_s            {statistics.median(o.seconds for o in good):.4f} s"]
    if w.name == "global_sep":
        t1 = statistics.median(o.parts["threads_1"] for o in good)
        tn = statistics.median(o.parts["threads_n"] for o in good)
        return [f"  sep_states_per_s        {N_SEP / t1:.0f} 1/s  (1 thread, {t1:.4f} s per call)",
                f"  sep_states_per_s_mt     {N_SEP / tn:.0f} 1/s  ({NPROC} threads, {tn:.4f} s per call)"]
    name, items = {"conditioned": ("cond_samples_per_s", N_COND),
                   "marginal_law": ("marginal_samples_per_s", N_MARGINAL)}[w.name]
    rate = items * len(good) / sum(o.seconds for o in good)
    return [f"  {name:<23} {rate:.0f} 1/s  (items over total call time)"]


def untraced(w: Workload, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    rng = random.Random(seed)
    # One unrecorded start fills the OS and bytecode caches; the timed starts
    # are split around the operations so that they sample the whole run.
    _, _, setup_failures = measure_setup(1)
    before, ref_before, bad_before = measure_setup(SETUP_REPS // 2)
    ops = run_ops(w, rng, seconds)
    after, ref_after, bad_after = measure_setup(SETUP_REPS - SETUP_REPS // 2)
    setup_walls, setup_refs = before + after, ref_before + ref_after
    setup_failures += bad_before + bad_after
    failed = sum(1 for o in ops if o.failures)
    samples = {
        "setup_s": ([REF_NOMINAL_S * s / r for s, r in zip(setup_walls, setup_refs)], "s"),
        "op_ref": ([o.ref_ratio for o in ops], "ref"),
        "peak_rss_mb": ([o.rss_mb for o in ops], "MB"),
        # Printed, not reported: the raw figures the two ratios are made from.
        "setup_wall_s": (setup_walls, "s"),
        "setup_ref_s": (setup_refs, "s"),
        "op_s": ([o.seconds for o in ops], "s"),
        "op_ref_s": ([o.ref_s for o in ops], "s"),
    }
    metrics = {k: (statistics.median(v), u) for k, (v, u) in samples.items()}
    lines = [f"workload {w.name}  seed {seed}  ops {len(ops)}  failed {failed}  nproc {NPROC}"]
    for name, (values, unit) in samples.items():
        lines.append(f"  {name:<23} {metrics[name][0]:.4f} {unit}  (median of {len(values)};"
                     f" {tail_percentile(values)})")
    lines += _derived_lines(w, ops)
    lines.append(f"  ops_failed_frac         {failed}/{len(ops)} = {failed / len(ops):.3f}")
    for o in ops:
        for f in o.failures:
            lines.append(f"  FAILED: {f}")
    for f in setup_failures:
        lines.append(f"  SETUP FAILED: {f}")
    detail = {
        "ops": [o.__dict__ for o in ops],
        "setup_s": setup_walls,
        "setup_ref_s": setup_refs,
        "numpy": next((o.numpy for o in ops if o.numpy), None),
        "attempted": len(ops) + SETUP_REPS + 1,
        "failed": failed + len(setup_failures),
    }
    reported = ("setup_s", "op_ref", "peak_rss_mb")
    return {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported}, detail, lines


def _trace_params(kind: str, seed: int) -> dict:
    return {"seed": seed, "n": {"global_sep": N_SEP, "conditioned": N_COND, "marginal_law": N_MARGINAL}.get(kind),
            "nproc": NPROC, "walk_n": N_WALK, "bins": BINS}


def traced(w: Workload, seed: int) -> tuple[dict, dict, list[str]]:
    """Untraced CLI operations covering what one replay of ``w`` does, then
    one traced replay of every workload's operation, so that every layer is
    measured on every run."""
    rng = random.Random(seed)
    op_seed = rng.randrange(1, 2**31)
    twin = [w.op(op_seed, i) for i in range(w.twin_ops)]
    untraced_wall = sum(o.wall_s for o in twin)
    failures = [f for o in twin for f in o.failures]
    records = {}
    for kind in WORKLOADS:
        kind_seed = op_seed if kind == w.name else rng.randrange(1, 2**31)
        spec = {"kind": kind, "params": _trace_params(kind, kind_seed), "op_id": f"{kind}-{kind_seed}"}
        record, wall, bad = _child("trace", spec)
        failures += bad + (record["failures"] if record else [])
        if record:
            record["wall_s"] = wall
            records[kind] = record
    metrics, absent = {}, []
    for kind, rec in records.items():
        absent += rec["absent"]
        for name, value in {**rec["self_s"], **rec["counts"]}.items():
            if name in PER_LAYER and (kind == w.name or not name.startswith("setup.")):
                metrics[name] = {"value": value, "unit": PER_LAYER[name]}
    missing = sorted(set(PER_LAYER) - set(metrics) - set(absent) - {"cli.overhead_s"})
    failures += [f"per-layer metric {name} was not measured" for name in missing]
    lines = [f"workload {w.name}  seed {seed}  traced replay of every workload  nproc {NPROC}"]
    own = records.get(w.name)
    if own:
        overhead = own["wall_s"] - own["top_level_s"]
        metrics["cli.overhead_s"] = {"value": overhead, "unit": "s"}
        lines += [
            f"  traced wall {own['wall_s']:.4f} s = top-level spans {own['top_level_s']:.4f} s"
            f" + cli.overhead_s {overhead:.4f} s",
            f"  tracing overhead {own['wall_s'] - untraced_wall:+.4f} s (traced {own['wall_s']:.4f} s vs"
            f" untraced {untraced_wall:.4f} s over {len(twin)} CLI operation(s));"
            f" replay-only spans account for {own['extra_s']:.4f} s of it",
        ]
    for name in sorted(metrics):
        lines.append(f"  {name:<36} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    for name in absent:
        lines.append(f"  {name:<36} absent (its public function is gone)")
    for f in failures:
        lines.append(f"  FAILED: {f}")
    detail = {
        "twin": [o.__dict__ for o in twin],
        "traces": records,
        "absent": absent,
        "numpy": next((o.numpy for o in twin if o.numpy), None),
        "attempted": len(twin) + len(WORKLOADS),
    }
    failed_ops = sum(1 for o in twin if o.failures) + sum(
        1 for kind in WORKLOADS if kind not in records or records[kind]["failures"])
    detail["failed"] = min(detail["attempted"], failed_ops + bool(missing))
    return metrics, detail, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sepprob" / "cli.py").is_file():
        print(f"error: no sepprob source under {SRC}; run from a sepprob checkout", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    if args.trace:
        metrics, detail, lines = traced(w, args.seed)
    else:
        metrics, detail, lines = untraced(w, args.seed, args.seconds)
    record = machine_record(args.seed, detail.pop("numpy"))
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"record": record, "metrics": metrics, **detail}, indent=1))
    for line in lines:
        print(line)
    print("record " + json.dumps(record))
    print(json.dumps({"correct": detail["failed"] == 0, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
