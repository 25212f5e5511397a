"""One fresh interpreter per benchmark operation.

    python3 perfbench/child.py setup
    python3 perfbench/child.py op '{"calls": [{"argv": [...], "timed": true}, ...]}'
    python3 perfbench/child.py trace '{"kind": "exact", "params": {...}, "op_id": "..."}'

``setup`` imports sepprob and every submodule, times the reference kernel,
prints that time and exits; the parent times the whole process.  ``op``
imports the package, then runs ``sepprob.cli.main`` on each argv in turn
with stdout captured, timing the calls marked ``timed``.  It times the
reference kernel named by ``ref`` just before the calls and again after them (after reading the peak RSS), so that the parent can divide the
operation's time by the host's speed at that moment.
``trace`` replays the operation through the public functions of each module
inside spans (see replay.py).  ``op`` and ``trace`` print one JSON line.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import pkgutil
import resource
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction


def import_all():
    """Import sepprob and all of its submodules; return the package."""
    import sepprob

    for mod in pkgutil.iter_modules(sepprob.__path__):
        importlib.import_module(f"sepprob.{mod.name}")
    return sepprob


def _cpu_s() -> float:
    """User plus system CPU seconds of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _maxrss_kb() -> int:
    """Peak RSS of this process image.  ``ru_maxrss`` would also count the
    parent's RSS at spawn time, so VmHWM is read where Linux provides it."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# The reference kernels.  Their inputs and code never change, so their times
# track only the host's speed, which drifts by up to +-25% over minutes on a
# shared host.  Each workload is divided by the kernel that does work like
# its own: "lapack" solves a fixed batch of symmetric 4x4 eigenproblems
# REF_REPEATS times on each of ``threads`` threads at once (run on as many
# threads as the operation uses, it also tracks how much of the other cores
# the host gives); "python" multiplies dict-of-Fraction polynomials, as the
# exact pipeline does, on one thread.
REF_BATCH, REF_REPEATS = 4096, 16
REF_POLY_SIDE, REF_POLY_POWERS = 6, 3


def _lapack_kernel(threads: int) -> float:
    import numpy as np

    a = np.sin(np.arange(REF_BATCH * 16, dtype=float)).reshape(REF_BATCH, 4, 4)
    a = a + a.transpose(0, 2, 1)
    np.linalg.eigvalsh(a[:64])  # the first call maps LAPACK's pages; not timed

    def solve(_):
        for _ in range(REF_REPEATS):
            np.linalg.eigvalsh(a)

    t = time.perf_counter()
    if threads == 1:
        solve(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(solve, range(threads)))
    return time.perf_counter() - t


def _python_kernel() -> float:
    n = REF_POLY_SIDE
    base = {(i, j): Fraction(i + 2 * j + 1, 3 * i + j + 7) for i in range(n) for j in range(n)}
    t = time.perf_counter()
    p = dict(base)
    for _ in range(REF_POLY_POWERS):
        out: dict = {}
        for (i1, j1), c1 in p.items():
            for (i2, j2), c2 in base.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        p = out
    return time.perf_counter() - t


def reference_s(kind: str = "lapack", threads: int = 1) -> float:
    return _lapack_kernel(threads) if kind == "lapack" else _python_kernel()


def run_op(spec: dict) -> dict:
    sepprob = import_all()
    from sepprob.cli import main

    ref = spec.get("ref", {})
    t = time.perf_counter()
    ref_before = reference_s(**ref)
    ref_total_s = time.perf_counter() - t
    calls = []
    for call in spec["calls"]:
        buf, err = io.StringIO(), io.StringIO()
        record = {"argv": call["argv"], "timed": call["timed"]}
        t, cpu = time.perf_counter(), _cpu_s()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                record["rc"] = main(list(call["argv"]))
        except Exception:  # one failed operation must not stop the benchmark
            record["rc"] = None
            record["error"] = traceback.format_exc()
        record["seconds"] = time.perf_counter() - t
        record["cpu_s"] = _cpu_s() - cpu
        record["stderr"] = err.getvalue()[-2000:]
        try:
            record["payload"] = json.loads(buf.getvalue())
        except ValueError:
            record["payload"] = None
        calls.append(record)
    maxrss_kb = _maxrss_kb()
    t = time.perf_counter()
    ref_s = (ref_before + reference_s(**ref)) / 2
    ref_total_s += time.perf_counter() - t
    return {"calls": calls, "maxrss_kb": maxrss_kb, "ref_s": ref_s, "ref_total_s": ref_total_s,
            "package": sepprob.__file__}


def run_trace(spec: dict) -> dict:
    from spans import Tracer, self_times, top_level

    tr = Tracer(spec["op_id"])
    with tr.span("op"):
        with tr.span("setup.numpy_s"):
            import numpy  # noqa: F401
        with tr.span("setup.sepprob_s"):
            sepprob = import_all()
        import replay

        try:
            counts, failures, absent = replay.REPLAYS[spec["kind"]](tr, spec["params"])
        except Exception:  # reported as a failed traced operation
            counts, failures, absent = {}, [traceback.format_exc()], []
    own = self_times(tr.spans)
    if "sampling.walk_steps" in counts:
        own["sampling.walk_step_ms"] = 1000.0 * own["sampling.walk_s"] / counts["sampling.walk_steps"]
    return {
        "spans": tr.spans,
        "self_s": own,
        "top_level_s": sum(s["end"] - s["start"] for s in top_level(tr.spans)),
        "extra_s": sum(s["end"] - s["start"] for s in top_level(tr.spans) if s["extra"]),
        "counts": counts,
        "failures": failures,
        "absent": absent,
        "maxrss_kb": _maxrss_kb(),
        "package": sepprob.__file__,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import_all()
        t = time.perf_counter()
        ref_s = reference_s()
        sys.stdout.write(json.dumps({"ref_s": ref_s, "ref_total_s": time.perf_counter() - t}) + "\n")
        return 0
    spec = json.loads(argv[1])
    out = run_op(spec) if mode == "op" else run_trace(spec)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
