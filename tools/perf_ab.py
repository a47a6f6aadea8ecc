#!/usr/bin/env python3
"""Interleaved parent/change A/B of one perfbench workload.

    python3 tools/perf_ab.py --parent REV --workload coord_10k --seed 7 \\
        --seconds 12 --pairs 10 [--trace 0] [--metrics a,b,...] \\
        [--workdir DIR] [--record BENCH_net.json --key NAME --note TEXT]
    python3 tools/perf_ab.py --self-check

The change side is this checkout as it stands; the parent side is
`git archive REV` unpacked under the work directory. Each side runs
perfbench/run.py from its own tree and builds into its own
CARGO_TARGET_DIR there. One tiny run per side builds it first (not
recorded). Then every pair runs both sides once, in an order drawn at
random and recorded with the pair, and each --seed gets its own pairs.

The result is the `*_ab` block of BENCH_net.json: every pair's metric
values, and per metric each side's quartiles (linear interpolation), the
ratio and difference of the medians, the parent's interquartile range,
and the pairs each side won (ties count for neither). The host facts
(core count, CPU model, kernel) are read from this machine, the build
facts from perfbench's own host line. Metrics default to BENCHMARK.json's
end-to-end set; with --trace 1 name per-layer ones with --metrics.

Without --record the block is printed. With it, the block is appended to
that JSON file under --key, leaving the rest of the file as it is. A run
that is not correct or has failed operations is kept in its pair and
clears the block's `all_correct_zero_failed`.

Without --workdir a temporary directory is used and removed at the end;
with it, both builds stay there and later calls reuse them.
--self-check tests the arithmetic on canned numbers and builds nothing.
"""

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 1200  # perfbench/run.py bounds its own build and run.


def quartiles(values):
    """(Q1, median, Q3) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")

    def at(q):
        pos = (len(xs) - 1) * q
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarize(pairs, metric, better):
    """One metric's summary over pairs of {parent_<m>, change_<m>}."""
    parent = [p["parent_" + metric] for p in pairs]
    change = [p["change_" + metric] for p in pairs]
    pq, cq = quartiles(parent), quartiles(change)
    sign = -1 if better == "lower" else 1
    change_wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    parent_wins = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
    n = len(pairs)
    return {
        "better": better,
        "parent_quartiles": [round(v, 4) for v in pq],
        "change_quartiles": [round(v, 4) for v in cq],
        "median_ratio": round(cq[1] / pq[1], 3) if pq[1] else None,
        "median_difference": round(cq[1] - pq[1], 4),
        "parent_iqr": round(pq[2] - pq[0], 4),
        "change_wins": f"{change_wins}/{n}",
        "parent_wins": f"{parent_wins}/{n}",
    }


def seed_block(pairs, metrics, directions, all_ok):
    block = {"pairs": pairs}
    for m in metrics:
        block[m] = summarize(pairs, m, directions[m])
    block["all_correct_zero_failed"] = all_ok
    return block


def machine_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu_model": model, "kernel": platform.release()}


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def unpack(rev, dest):
    """Unpacks the tree of `rev` into `dest` (once)."""
    if os.path.isdir(dest):
        return
    tmp = dest + ".partial"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"perf_ab: git archive {rev} failed")
    os.rename(tmp, dest)


def run_side(tree, target, argv):
    """One perfbench/run.py call; returns (result, host line facts)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tree,
                          env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"perf_ab: run.py {' '.join(argv)} in {tree} "
                         f"exited with {done.returncode}")
    host = next((json.loads(l[len("host: "):]) for l in lines
                 if l.startswith("host: ")), {})
    return json.loads(lines[-1]), host


def append_record(path, key, block):
    """Adds `key: block` as the last member of the JSON object in `path`,
    leaving every byte before it as it was."""
    with open(path, encoding="utf-8") as f:
        text = f.read().rstrip()
    if key in json.loads(text):
        raise SystemExit(f"perf_ab: {path} already has {key}")
    if not text.endswith("}"):
        raise SystemExit(f"perf_ab: {path} is not a JSON object")
    body = json.dumps(block, indent=2, ensure_ascii=False).replace("\n", "\n  ")
    text = text[:-1].rstrip() + f",\n  {json.dumps(key)}: {body}\n}}\n"
    json.loads(text)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def self_check():
    # numpy's default ("linear") quantiles of these lists.
    assert quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert quartiles([50, 10, 40, 20, 30]) == (20, 30, 40)
    assert quartiles([1, 2, 3, 4, 5, 6]) == (2.25, 3.5, 4.75)
    pairs = [
        {"pair": 1, "first": "parent", "parent_ms": 2.0, "change_ms": 1.0,
         "parent_ops": 10, "change_ops": 10},
        {"pair": 2, "first": "change", "parent_ms": 2.0, "change_ms": 2.0,
         "parent_ops": 10, "change_ops": 12},
        {"pair": 3, "first": "parent", "parent_ms": 1.0, "change_ms": 3.0,
         "parent_ops": 12, "change_ops": 11},
        {"pair": 4, "first": "change", "parent_ms": 4.0, "change_ms": 2.0,
         "parent_ops": 9, "change_ops": 9},
    ]
    block = seed_block(pairs, ["ms", "ops"], {"ms": "lower", "ops": "higher"},
                       True)
    ms = block["ms"]
    assert ms["parent_quartiles"] == [1.75, 2.0, 2.5], ms
    assert ms["change_quartiles"] == [1.75, 2.0, 2.25], ms
    assert ms["median_ratio"] == 1.0 and ms["median_difference"] == 0.0, ms
    assert ms["parent_iqr"] == 0.75, ms
    # Pair 2 ties: it counts for neither side.
    assert ms["change_wins"] == "2/4" and ms["parent_wins"] == "1/4", ms
    ops = block["ops"]
    assert ops["change_wins"] == "1/4" and ops["parent_wins"] == "1/4", ops
    assert ops["median_ratio"] == round(10.5 / 10.0, 3), ops
    assert block["pairs"] is pairs and block["all_correct_zero_failed"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rec.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write('{\n  "a": [1, 2]\n}\n')
        append_record(path, "b_ab", {"x": 1})
        with open(path, encoding="utf-8") as f:
            text = f.read()
        assert text.startswith('{\n  "a": [1, 2],\n  "b_ab": {'), text
        assert json.loads(text) == {"a": [1, 2], "b_ab": {"x": 1}}
    print("perf_ab: self-check OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--parent", help="git revision of the parent side")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metrics", help="comma-separated metric names")
    parser.add_argument("--workdir")
    parser.add_argument("--record", help="JSON file to append the block to")
    parser.add_argument("--key", help="the block's key in --record")
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    if args.self_check:
        self_check()
        return
    if not (args.parent and args.workload and args.seed and args.seconds):
        parser.error("--parent, --workload, --seed and --seconds are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if bool(args.record) != bool(args.key):
        parser.error("--record and --key go together")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    directions = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec["per_layer"]}
    if args.metrics:
        metrics = args.metrics.split(",")
    elif args.trace:
        parser.error("--trace 1 needs --metrics")
    else:
        metrics = [m["name"] for m in spec["end_to_end"]]
    unknown = [m for m in metrics if m not in directions]
    if unknown:
        parser.error(f"not in BENCHMARK.json: {', '.join(unknown)}")

    parent_sha = git("rev-parse", "--short", args.parent + "^{commit}")
    workdir = args.workdir or tempfile.mkdtemp(prefix="perf_ab_")
    try:
        os.makedirs(workdir, exist_ok=True)
        trees = {"parent": os.path.join(workdir, "tree-" + parent_sha),
                 "change": ROOT}
        targets = {"parent": os.path.join(workdir, "target-" + parent_sha),
                   "change": os.path.join(workdir, "target-change")}
        unpack(parent_sha, trees["parent"])
        host = {}
        for side in ("parent", "change"):
            print(f"perf_ab: building {side}", file=sys.stderr)
            _, host = run_side(trees[side], targets[side],
                               ["--workload", args.workload, "--seed", "1",
                                "--seconds", "1", "--trace", "0", "--tiny"])
        rng = random.Random()
        seeds = {}
        all_ok = True
        for seed in args.seed:
            argv = ["--workload", args.workload, "--seed", str(seed),
                    "--seconds", repr(args.seconds), "--trace", str(args.trace)]
            pairs = []
            seed_ok = True
            for n in range(1, args.pairs + 1):
                order = ["parent", "change"]
                rng.shuffle(order)
                pair = {"pair": n, "first": order[0]}
                for side in order:
                    result, _ = run_side(trees[side], targets[side], argv)
                    ok = result["correct"] and result["failed"] == 0
                    seed_ok = seed_ok and ok
                    if not ok:
                        pair[side + "_failed"] = result["failed"]
                    for m in metrics:
                        pair[f"{side}_{m}"] = result["metrics"][m]["value"]
                pairs.append(pair)
                print(f"perf_ab: seed {seed} pair {n}: " + ", ".join(
                    f"{m} {pair['parent_' + m]:.4g} -> {pair['change_' + m]:.4g}"
                    for m in metrics), file=sys.stderr)
            seeds[str(seed)] = seed_block(pairs, metrics, directions, seed_ok)
            all_ok = all_ok and seed_ok
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    block = {
        "note": args.note,
        "command": (f"python3 perfbench/run.py --workload {args.workload} "
                    f"--seed SEED --seconds {args.seconds:g} --trace {args.trace}"),
        "parent": parent_sha,
        "change": git("rev-parse", "--short", "HEAD") +
                  (" + working tree" if git("status", "--porcelain") else ""),
        "host": {**machine_facts(),
                 **{k: host.get(k) for k in ("build_type", "ndebug", "compiler")}},
        "seeds": seeds,
        "all_correct_zero_failed": all_ok,
    }
    if args.record:
        append_record(args.record, args.key, block)
        print(f"perf_ab: recorded {args.key} in {args.record}", file=sys.stderr)
    else:
        print(json.dumps(block, indent=2, ensure_ascii=False))


if __name__ == "__main__":
    main()
