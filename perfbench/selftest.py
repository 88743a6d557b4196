"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced, and
checks that each run is correct, fails no cell and prints every metric
BENCHMARK.json names, with its unit, both as a table line and in the final
JSON line.  Checks that
``--workload all`` prints every end-to-end metric of every workload.  Then
checks that the benchmark fails without a result in a directory that holds
only BENCHMARK.json and the benchmark's own files.  Takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


def check_run(workload: str, trace: int, wanted: dict) -> None:
    done = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
               "--trace", str(trace), "--tiny")
    label = f"{workload} --trace {trace}"
    check(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    check(set(result) == RESULT_KEYS, f"{label} result keys {sorted(result)}")
    check(result["correct"] is True, f"{label} is not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label} attempted {result['attempted']}")
    check(result["failed"] == 0, f"{label} failed {result['failed']} cells")
    metrics = result["metrics"]
    check(set(metrics) == set(wanted),
          f"{label} metrics differ: {sorted(set(metrics) ^ set(wanted))}")
    table = {tuple(ln.split()[:2]): ln.split()[-1] for ln in lines[:-1] if len(ln.split()) >= 4}
    for name, unit in wanted.items():
        check(metrics[name]["unit"] == unit, f"{label} {name} unit {metrics[name]['unit']}")
        check(isinstance(metrics[name]["value"], (int, float)), f"{label} {name} value")
        check(table.get((workload, name)) == unit, f"{label} prints no '{name} ... {unit}' line")
    if trace:
        check((HERE / "out" / f"spans-{workload}-seed1.jsonl").is_file(), f"{label} wrote no spans")
        check(metrics["trace.self_sum_frac"]["value"] <= 1.0 + 1e-9,
              f"{label} self times exceed the traced wall time")
    print(f"ok  {label}: {len(wanted)} metrics, attempted {result['attempted']}")


def check_all(names: list, wanted: dict) -> None:
    done = run(ROOT, "--workload", "all", "--seed", "1", "--seconds", "0", "--tiny")
    check(done.returncode == 0, f"--workload all exited {done.returncode}: {done.stderr.strip()}")
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    expected = {f"{w}/{m}": unit for w in names for m, unit in wanted.items()}
    check({m: v["unit"] for m, v in metrics.items()} == expected,
          f"--workload all metrics differ: {sorted(set(metrics) ^ set(expected))}")
    print(f"ok  --workload all: {len(expected)} metrics")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    done = run(bare, "--workload", "sweeps", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    last = (done.stdout.splitlines() or [""])[-1]
    check(done.returncode != 0, "run without src/ exited 0")
    check(not last.startswith("{"), "run without src/ printed a result")
    print("ok  run without the library fails without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, wanted[trace])
    check_all([w["name"] for w in spec["workloads"]], wanted[0])
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
