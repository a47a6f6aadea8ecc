#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at its tiny size on two seeds, untraced and traced, and
checks that each result line has exactly the keys correct, attempted,
failed and metrics; that it carries every metric BENCHMARK.json names, with
its unit; and that every output check passed. Seed 48611 was not used while
the benchmark was built. Then checks that run.py fails, without printing a
result, in a directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when everything passed.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 48611)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_run(spec, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    errors = []
    result = result_line(done.stdout)
    if done.returncode != 0 or result is None:
        return [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        failed = [l for l in done.stdout.splitlines() if l.startswith("FAILED")]
        errors.append(f"checks failed: {failed}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is not None and got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
    return errors


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fb_dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or result_line(done.stdout) is not None:
        return ["run.py did not fail in a directory without the library sources"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                errors = check_run(spec, workload, seed, trace)
                status = "ok" if not errors else "FAIL " + "; ".join(errors)
                print(f"{workload:17s} seed {seed:5d} trace {trace}: {status}", flush=True)
                failures += bool(errors)
    errors = check_bare_directory()
    print("bare directory: " + ("ok" if not errors else "FAIL " + "; ".join(errors)))
    failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
