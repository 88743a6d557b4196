"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 10 [--trace-seed 0] [--out FILE]

Runs ``run.py`` for ``run_seconds`` once per (seed, workload), for seeds
0..N-1 and every workload of BENCHMARK.json, seeds in the outer loop so slow
drift of the machine spreads over every workload.  For each end-to-end metric
it prints the median, the quartiles from ``statistics.quantiles(n=4)`` and the
spread (q3 - q1) / median, against the metric's bound in BENCHMARK.json: every
spread, ``setup_s``'s too, should stay under a third of its bound.
``--trace-seed`` adds one traced run per workload.  ``--out`` writes
everything, with the machine information, as one JSON results file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} printed no result: {done.stderr.strip()[-2000:]}")
    machine = next(json.loads(ln[len("# machine "):]) for ln in lines
                   if ln.startswith("# machine "))
    return json.loads(lines[-1]), machine


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.seeds))

    runs = {w: [] for w in names}
    machine = None
    for seed in seeds:
        for w in names:
            res, machine = run(w, seed, seconds, 0)
            runs[w].append(res)
            print(f"seed {seed} {w}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} "
                  + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                  flush=True)

    report = {"machine": machine, "seconds": seconds, "seeds": seeds, "workloads": {}}
    all_steady = True
    for w in names:
        metrics = {}
        for m in runs[w][0]["metrics"]:
            s = summarise([r["metrics"][m]["value"] for r in runs[w]], bounds.get(m))
            s["unit"] = runs[w][0]["metrics"][m]["unit"]
            metrics[m] = s
            all_steady &= s.get("steady", True)
            print(f"{w:12s} {m:14s} median {s['median']:.5g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f} (bound {s.get('bound')})"
                  + ("" if s.get("steady", True) else "  NOT STEADY"))
        entry = {
            "correct": all(r["correct"] for r in runs[w]),
            "attempted": [r["attempted"] for r in runs[w]],
            "failed": [r["failed"] for r in runs[w]],
            "end_to_end": metrics,
        }
        if args.trace_seed is not None:
            traced, _ = run(w, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, **traced["metrics"]}
        report["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("all spreads below a third of their bounds" if all_steady
          else "some spreads exceed a third of their bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
