"""Quick self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with ``--toy``, and checks that
every metric ``BENCHMARK.json`` names prints with its unit, that every
answer was correct, that benchmark spans nest inside their parents, that
self times are non-negative, that ``predictions.json`` covers every
per-layer metric, and that the benchmark refuses to run (non-zero exit,
no result line) in a directory without the program's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(spec, workload: str, trace: int, problems) -> None:
    proc = run(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--toy"])
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']}/{result['attempted']} ops failed")
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: bad metric {name}: {entry}")
        elif f"{name} = " not in proc.stdout:
            problems.append(f"{where}: {name} missing from the readable lines")
    if trace == 0:
        for name in ("setup_s", "ops_per_s", "latency_p50_ms"):
            if got.get(name, {}).get("value", 0) <= 0:
                problems.append(f"{where}: {name} is not positive")
    else:
        check_spans(workload, problems)


def check_spans(workload: str, problems) -> None:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import spans as spanlib

    path = os.path.join(ROOT, ".perfbench", f"spans-{workload}-{SEED}.jsonl")
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    own = [r for r in records if not str(r["name"]).startswith("prog.")]
    if not own:
        problems.append(f"{workload}: no spans recorded")
    problems.extend(f"{workload}: {e}" for e in spanlib.nesting_errors(own))
    if not any(str(r["name"]).startswith("prog.") for r in records):
        problems.append(f"{workload}: no program spans folded in")
    for name, values in spanlib.self_times(records).items():
        if min(values) < 0:
            problems.append(f"{workload}: negative self time in {name}")


def check_predictions(spec, problems) -> None:
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as handle:
        groups = json.load(handle)["groups"]
    covered = [m for group in groups for m in group["metrics"]]
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(covered) != sorted(names):
        problems.append(f"predictions.json differs: {sorted(set(covered) ^ set(names))}")


def check_refuses_without_sources(problems) -> None:
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "cold_pairs", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a checkout without sources did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    check_predictions(spec, problems)
    check_refuses_without_sources(problems)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace, problems)
            print(f"checked {workload} trace={trace}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
