"""catamp benchmark: seeded workloads, end-to-end metrics and a per-layer trace.

    python3 perfbench/run.py --workload sweeps|cross-check|circuit|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/`` next to
this directory.  Each workload runs in passes (see ``workloads.py``) on one
thread, closed loop with one client: a cell starts when the previous one has
finished.  Passes repeat until the next one would overrun ``--seconds``
(default: ``run_seconds`` of BENCHMARK.json); at least one pass always runs.
``--workload all`` runs each workload in its own child process, one after the
other, so that each reports its own peak memory.

``setup_s`` is the measuring process's own set-up time: from interpreter
start until the library is imported, the workload warmed up and the inputs of
its first pass drawn.  Every time metric is scaled to a reference machine
speed by ``workloads.SpeedProbe``, a fixed kernel timed before each measured
cell; the result file keeps the unscaled values.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every pass
twice, untraced and traced in alternating order, prints the per-layer metrics
of the traced passes and writes their spans to
``perfbench/out/spans-<workload>-seed<N>.jsonl``.  Every run also writes its
metrics and machine information to ``perfbench/out/result-*.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run is correct when every row of
the committed figures matched its reference CSV and, traced, the self times
fit in the traced wall time; failed cells are counted, not fatal.  The inputs
avoid the library's known failures, which each run probes once after its
passes and reports in its ``#`` info line (``workloads.known_defects``).  The
exit code is 0 for a correct run and 1 for an incorrect one or when the
library cannot be imported from ``src/``.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# pin every BLAS/OpenMP pool to one thread before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweeps", "cross-check", "circuit")


def default_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def import_library():
    """Import catamp from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import catamp
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import catamp from {src}: {exc}")
    if Path(catamp.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: catamp was imported from {catamp.__file__}, not {src}")


def machine_info() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            key, *val = line.split()
            if key.endswith("CACHE_SIZE") and val:
                caches[key] = int(val[0])
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches_bytes": caches,
        "machine": platform.machine(),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def set_up(name: str, seed: int, tiny: bool):
    """Build the workload, warm it up and draw the first pass's inputs.

    Returns the workload, those inputs and the set-up seconds since the
    interpreter started, import included.
    """
    import_library()
    import workloads

    wl = workloads.WORKLOADS[name](ROOT, seed, tiny)
    wl.warm_up()
    first = wl.make_pass(0)
    return wl, first, time.perf_counter() - T0


def run_passes(wl, first: list, seconds: float, tracer, probe):
    """Run passes until the next would overrun; returns cells and per-mode walls.

    Untraced passes run ``probe`` before each cell; traced runs pass None.
    """
    cells = []
    wall = {False: 0.0, True: 0.0}
    passes = {False: 0, True: 0}
    start = time.perf_counter()
    index = 0
    while True:
        items = first if index == 0 else wl.make_pass(index)
        modes = (False,) if tracer is None else ((False, True) if index % 2 == 0 else (True, False))
        for traced in modes:
            if traced:
                tracer.install()
            try:
                t = time.perf_counter()
                cells += wl.run_pass(items, None if traced else probe)
                wall[traced] += time.perf_counter() - t
            finally:
                if traced:
                    tracer.uninstall()
            passes[traced] += 1
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            return cells, wall, passes


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    wl, first, setup_s = set_up(name, seed, tiny)
    import spans
    import workloads

    tracer = spans.Tracer() if trace else None
    probe = None if trace else workloads.SpeedProbe()
    cells, wall, passes = run_passes(wl, first, seconds, tracer, probe)

    outcomes = [c[1] for c in cells]
    attempted = len(cells)
    ok = outcomes.count(workloads.OK)
    correct = workloads.MISMATCH not in outcomes
    info = {"passes": passes[trace], "cells": attempted,
            **{o: outcomes.count(o) for o in (workloads.OK, workloads.ERROR, workloads.WRONG,
                                              workloads.MISMATCH)}}
    # after the measured passes, so the probes count in neither set-up nor cells
    info["known_defects"] = workloads.known_defects()
    if trace:
        metrics = spans.layer_metrics(tracer.spans, passes[True], wall[True], wall[False])
        self_sum_ok = metrics["trace.self_sum_frac"][0] <= 1.0 + 1e-9
        correct = correct and self_sum_ok
        info["missing_targets"] = tracer.missing
        info["self_sum_within_wall"] = self_sum_ok
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        lat_ms = sorted(1e3 * c[0] for c in cells)
        cuts = statistics.quantiles(lat_ms, n=10) if len(lat_ms) > 1 else lat_ms * 9
        info["beyond_p90"] = sum(1 for x in lat_ms if x > cuts[8])
        # times scaled to the reference machine speed (see workloads.SpeedProbe)
        slow = probe.slowdown()
        rate = attempted / (wall[False] - probe.spent)
        info["slowdown"] = slow
        info["unscaled"] = {"setup_s": setup_s, "cells_per_s": rate, "cell_p50_ms": cuts[4],
                            "cell_p90_ms": cuts[8]}
        metrics = {
            "setup_s": (setup_s / slow, "s"),
            "cells_per_s": (rate * slow, "1/s"),
            "cell_p50_ms": (cuts[4] / slow, "ms"),
            "cell_p90_ms": (cuts[8] / slow, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {"correct": correct, "attempted": attempted, "failed": attempted - ok,
            "metrics": metrics, "info": info}


def run_all(args) -> int:
    """Run every workload in a child process of its own and merge their results."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd + (["--tiny"] if args.tiny else []), stdout=subprocess.PIPE,
                              text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"perfbench: workload {name} printed no result")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny passes, for the self-test")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    if args.workload == "all":
        return run_all(args)

    name = args.workload
    res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
    machine = machine_info()
    print("# machine " + json.dumps(machine))
    for metric, (value, unit) in res["metrics"].items():
        print(f"{name:12s} {metric:42s} {value:.6g} {unit}")
    print(f"{name:12s} # " + json.dumps(res["info"]))
    OUT.mkdir(exist_ok=True)
    record = dict(res, workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny, machine=machine)
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    final = {key: res[key] for key in ("correct", "attempted", "failed")}
    final["metrics"] = {m: {"value": v, "unit": u} for m, (v, u) in res["metrics"].items()}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
