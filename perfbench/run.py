#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload fb_dense --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library sources under src/ plus the benchmark program in
perfbench/src) as a Release build in $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Later calls rebuild
only what changed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. Lines before it
give the host facts, every metric with its unit, and the workload's own
figures. The full record, with the host facts and any failed checks, is
written to .perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the Release benchmark binary."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out", 3)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 3)
    build_type = ""
    with open(cache, encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail(f"refusing to time a {build_type or 'unspecified'} build; "
             f"remove {out} to reconfigure as Release", 3)
    return os.path.join(out, "perfbench")


def host_facts(record):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": model,
        "kernel": platform.release(),
        "build_type": record.get("build_type"),
        "ndebug": record.get("ndebug"),
        "compiler": record.get("compiler"),
        "git_commit": commit,
    }


def select_metrics(record, args, spec, layers):
    """The metrics the result line must carry, checked against the spec."""
    problems = []
    if args.trace:
        wanted = spec["per_layer"]
        measured = record["per_layer"]
        applies = {m["name"]: args.workload in m["workloads"] for m in layers}
        known = {m["name"] for m in wanted}
        for name in measured:
            if name not in known:
                problems.append(f"per-layer metric {name} is not in BENCHMARK.json")
    else:
        wanted = spec["end_to_end"]
        measured = record["end_to_end"]
        applies = {m["name"]: True for m in wanted}
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in measured:
            got = measured[name]
            if got["unit"] != unit:
                problems.append(f"{name}: unit {got['unit']} != {unit}")
            metrics[name] = {"value": got["value"], "unit": unit}
        elif applies.get(name, False):
            problems.append(f"{name}: not measured on {args.workload}")
        else:
            # The workload does not cross this layer.
            metrics[name] = {"value": 0, "unit": unit}
    for name, m in metrics.items():
        v = m["value"]
        if v is None or not math.isfinite(v):
            problems.append(f"{name}: not a finite number")
        elif not args.trace and v <= 0:
            problems.append(f"{name}: end-to-end metric must be positive, got {v}")
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (self-test only; not a benchmark result)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src; run from a full checkout")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))["metrics"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if sorted((m["name"], m["unit"]) for m in layers) != sorted(
            (m["name"], m["unit"]) for m in spec["per_layer"]):
        fail("perfbench/layers.json and BENCHMARK.json per_layer disagree")

    binary = build()
    out_dir = os.path.join(ROOT, ".perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, stem + ".spans.json")]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(done.stderr[-4000:])
    if done.returncode != 0:
        fail(f"{args.workload} exited with {done.returncode}", 4)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if record.get("build_type") != "Release" or not record.get("ndebug"):
        fail("refusing to report timings from a non-Release binary", 3)

    metrics, problems = select_metrics(record, args, spec, layers)
    facts = host_facts(record)
    correct = record["failed"] == 0 and not problems
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "host": facts,
            "wall_s": time.monotonic() - started, "correct": correct,
            "problems": problems, **record}
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as f:
        json.dump(full, f, indent=1)

    print("host: " + json.dumps(facts))
    for section in ("end_to_end", "detail", "per_layer"):
        for name, m in sorted(record[section].items()):
            print(f"{section:10s} {name:28s} {m['value']:.6g} {m['unit']}")
    for message in record["failures"] + problems:
        print("FAILED: " + message)
    print(json.dumps({"correct": correct, "attempted": record["attempted"] + len(problems),
                      "failed": record["failed"] + len(problems), "metrics": metrics}))


if __name__ == "__main__":
    main()
