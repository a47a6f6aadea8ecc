#!/usr/bin/env bash
# CI driver: full test suite on the default preset, then the chaos- and
# metrics-labelled suites under AddressSanitizer+UBSan and
# ThreadSanitizer, plus an optional line-coverage gate.
#
#   scripts/ci.sh            # default + asan + tsan + perf-smoke
#   scripts/ci.sh default    # just the default preset, full suite, the
#                            # perf A/B tool's arithmetic self-check and
#                            # the tools' metrics files
#   scripts/ci.sh asan       # asan build, chaos + metrics + ha + sched + state
#                            # + engine pins + net + frame fuzz + checkpoint fuzz
#                            # + maxmin + D-CLAS + baselines + rack fabric
#                            # + per-port schedulers + property sweep
#                            # + workload + tool CLIs
#   scripts/ci.sh tsan       # tsan build, BatchRunner/Obs gates + chaos + ha
#                            # + sched + state
#   scripts/ci.sh perf       # perfbench self-test, then the Release perf
#                            # gates: perfbench fb_dense and coord_10k
#                            # host_ms vs BENCH_micro.json "perf_gate" + fig14
#                            # 1000-daemon round time (median of 3 runs) vs
#                            # BENCH_net.json
#   scripts/ci.sh coverage   # gcovr line-coverage report (if installed)
#
# The chaos suites (tests/chaos_test.cc, tests/runtime_robustness_test.cc,
# tests/coordination_equivalence_test.cc) carry the "chaos" ctest label;
# they exercise the fault-tolerance paths (reconnects, eviction, mangled
# frames and sizes, the delta path against its oracle, the pinned wire
# transcript, and the coordinator's threads under churn) where
# sanitizers earn their keep. The observability suites (tests/obs_*.cc, trace_fuzz_test.cc,
# golden_trace_test.cc) carry the "metrics" label; the registry
# concurrency gate additionally runs under tsan by test-name filter.
# The high-availability drills (tests/ha_test.cc: failover, checkpoint
# restore, overload backpressure; tests/checkpoint_test.cc: round-trip
# fuzz) carry the "ha" label and run standalone under both sanitizers.
# The seeded mutational fuzz of checkpoint snapshots and journals
# (tests/checkpoint_fuzz_test.cc: restore ends in a state or a rejection,
# with allocations bounded by the input size, and an accepted state
# matches the legacySchedule rebuild and its digest) runs whole under asan.
# So do the scheduler suites over the shared allocation building blocks
# (tests/dclas_test.cc, baselines_test.cc, rack_fabric_test.cc: D-CLAS's
# one greedy allocator, the Varys/MADD bottleneck, rack-link coverage).
# The scheduler-zoo invariants (tests/sched_property_test.cc: sampling
# estimate convergence, dcoflow admission soundness, LP-bound soundness
# on fuzzed traces, rack-free and on 2:1 and 4:1 rack fabrics) carry the
# "sched" label and run under both sanitizers; run_default additionally
# replays a tiny deadlined trace under every registered scheduler through
# aalo_sim --lp-check, rack-free and at 4:1, as an end-to-end LP-bound
# gate. The
# coordinator-state pins (tests/schedule_state_test.cc: golden delta /
# snapshot transcript, legacySchedule differential, checkpoint round-trip
# of one seeded op stream) carry the "state" label and run under both
# sanitizers.
set -euo pipefail
cd "$(dirname "$0")/.."

# Minimum acceptable line coverage for the coverage step (percent).
COVERAGE_FAIL_UNDER=70

# Allowed slowdown of perfbench's fb_dense and coord_10k host_ms (and of
# fig14's 1000-daemon coordination round) relative to the recorded
# baselines in BENCH_micro.json "perf_gate" (BENCH_net.json) before the
# perf-smoke step fails.
PERF_SMOKE_TOLERANCE=1.5

run_default() {
  echo "=== default: configure + build + full suite ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$(nproc)"
  ctest --preset default -j "$(nproc)"
  echo "=== default: benchmark smoke run ==="
  # One short iteration per benchmark catches bit-rot in the bench
  # harness without recording anything. benchmark 1.7.x takes a plain
  # float of seconds here (no '0.01x' multiplier suffix).
  cmake --build --preset default -j "$(nproc)" --target bench_micro
  ./build/bench/bench_micro --benchmark_min_time=0.01 \
    --benchmark_filter='BM_MaxMinAllocate|BM_MetricsOverhead|BM_BatchRunnerSweep'
  echo "=== default: perf A/B tool self-check ==="
  # tools/perf_ab.py's quartiles, wins and record splice on canned
  # numbers; builds and runs nothing.
  python3 tools/perf_ab.py --self-check
  echo "=== default: metrics exposition smoke ==="
  # The CLI surface of the observability layer: a real dump must parse as
  # the pinned JSON shape and carry the four component families.
  ./build/tools/aalo_tracegen --kind fb --jobs 10 --ports 10 --seed 1 \
    --out build/ci_smoke.trace >/dev/null
  ./build/tools/aalo_sim --trace build/ci_smoke.trace --sched aalo \
    --metrics-dump build/ci_smoke.prom >/dev/null 2>&1
  grep -q 'aalo_sim_rounds_total' build/ci_smoke.prom
  grep -q 'aalo_sim_queue_occupancy_bucket' build/ci_smoke.prom
  python3 -c "
import json
d = json.load(open('build/ci_smoke.prom.json'))
assert d['context'] == {'format': 'aalo-metrics', 'version': 1}, d['context']
assert d['metrics'], 'empty metrics dump'
"
  control_plane_metrics_smoke
  echo "=== default: experiments smoke (LP bound gate) ==="
  # Tiny deadlined trace through the scheduler zoo with --lp-check: the
  # run exits non-zero if any scheduler's total CCT dips below the LP
  # lower bound. CHECK_ONLY keeps EXPERIMENTS.md untouched in CI.
  ./build/tools/aalo_tracegen --kind fb --jobs 20 --ports 10 --seed 7 \
    --deadline-slack 0.5 --out build/ci_smoke_dl.trace >/dev/null
  # Every registered scheduler, read from the usage text that aalo_sim
  # generates from its catalogue (no second list here).
  all_schedulers=$(./build/tools/aalo_sim 2>&1 | sed -n 's/^schedulers: //p' || true)
  [ -n "$all_schedulers" ]
  ./build/tools/aalo_sim --trace build/ci_smoke_dl.trace \
    --sched "$all_schedulers" --lp-check >/dev/null
  # Again with two 4:1 oversubscribed racks: the bound's rack-link
  # machines must stay below every scheduler's achieved CCT too.
  ./build/tools/aalo_sim --trace build/ci_smoke_dl.trace \
    --sched "$all_schedulers" --lp-check --ports-per-rack 5 --oversubscription 4 >/dev/null
  echo "=== default: CLI rejects bad input without aborting ==="
  # A NaN delta and a missing trace must fail cleanly: non-zero, but not
  # killed by a signal (an uncaught exception aborts with 134).
  expect_clean_failure ./build/tools/aalo_sim --trace build/ci_smoke.trace \
    --sched aalo --delta nan
  expect_clean_failure ./build/tools/aalo_sim --trace build/no_such.trace --sched aalo
}

# aalo_coordinator and aalo_daemon write their metrics files from their
# main loops: the coordinator's file must exist while it runs (the
# periodic write), and after SIGTERM both files and their JSON twins must
# hold their component's families, the coordinator's with the daemon's
# reports read (the final write).
control_plane_metrics_smoke() {
  echo "=== default: control-plane metrics files ==="
  rm -f build/ci_coord.prom build/ci_coord.prom.json build/ci_daemon.prom \
    build/ci_daemon.prom.json
  ./build/tools/aalo_coordinator --port 0 --metrics-dump build/ci_coord.prom \
    --metrics-interval 0.2 >build/ci_coord.log 2>&1 &
  local coord_pid=$! port=""
  for _ in $(seq 100); do
    port=$(sed -n 's/^aalo_coordinator listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      build/ci_coord.log)
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    kill "$coord_pid"
    echo "aalo_coordinator did not start" >&2
    return 1
  fi
  local ok=1
  timeout 30 ./build/tools/aalo_daemon --coordinator-port "$port" --duration 1 \
    --synthetic-coflows 2 --metrics-dump build/ci_daemon.prom >/dev/null || ok=0
  [ -s build/ci_coord.prom ] || { echo "no periodic coordinator dump" >&2; ok=0; }
  if [ "$ok" -eq 0 ]; then
    kill "$coord_pid"
    return 1
  fi
  kill -TERM "$coord_pid"
  wait "$coord_pid"
  python3 - <<'PY'
import json, re
for path, family in (("build/ci_coord.prom", "aalo_coordinator_"),
                     ("build/ci_daemon.prom", "aalo_daemon_")):
    text = open(path).read()
    assert re.search(r"^" + family + r"\w+ ", text, re.M), path
    d = json.load(open(path + ".json"))
    assert d["context"] == {"format": "aalo-metrics", "version": 1}, path
    names = [m["name"] for m in d["metrics"]]
    assert names and all(n.startswith(family) for n in names), (path, names)
passes = re.search(r"^aalo_coordinator_ingress_passes_total (\d+)$",
                   open("build/ci_coord.prom").read(), re.M)
assert passes and int(passes.group(1)) > 0, "final coordinator dump read no report"
PY
}

# Runs "$@" and fails unless it exits non-zero with a status below 128.
expect_clean_failure() {
  local rc=0
  "$@" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -eq 0 ] || [ "$rc" -ge 128 ]; then
    echo "expected a clean failure (exit 1..127), got $rc: $*" >&2
    return 1
  fi
}

run_asan() {
  echo "=== asan: engine equivalence + chaos + metrics + ha + sched + state + net + frame fuzz + maxmin + scheduler suites + cli ==="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)" \
    --target chaos_test runtime_robustness_test engine_equivalence_test \
             coordination_equivalence_test \
             obs_test obs_invariant_test \
             obs_concurrency_test trace_fuzz_test golden_trace_test \
             ha_test checkpoint_test sched_property_test schedule_state_test \
             net_test frame_fuzz_test checkpoint_fuzz_test maxmin_test \
             dclas_test baselines_test rack_fabric_test uncoordinated_test \
             extensions_test \
             sim_property_test workload_test cli_test
  (cd build-asan && ctest -L chaos --output-on-failure -j "$(nproc)")
  (cd build-asan && ctest \
    -R 'EngineEquivalence|EngineFuzz|EngineExactPin|EngineIdleBacklog|DClasQueueOracle' \
    --output-on-failure -j "$(nproc)")
  # Wire codec (frame decode bounds, zero-length appends), the seeded
  # mutational fuzz of golden schedule and report frames and of checkpoint
  # snapshots and journals, and the max-min allocator against its
  # reference oracle, whole binaries.
  ./build-asan/tests/net_test
  ./build-asan/tests/frame_fuzz_test
  ./build-asan/tests/checkpoint_fuzz_test
  ./build-asan/tests/maxmin_test
  # D-CLAS (persistent queues, the one greedy allocator), the baselines
  # (Varys, FIFO, FIFO-LM, LAS, CLAS, offline order) and the rack-fabric
  # allocators and schedulers, whole binaries.
  ./build-asan/tests/dclas_test
  ./build-asan/tests/baselines_test
  ./build-asan/tests/rack_fabric_test
  # The per-port schedulers (uncoordinated, gossip, LAS, FIFO-LM share one
  # grouping and one per-port D-CLAS routine) and the cross-scheduler
  # property sweep over the whole test zoo, whole binaries.
  ./build-asan/tests/uncoordinated_test
  ./build-asan/tests/extensions_test
  ./build-asan/tests/sim_property_test
  # Workload generators and both trace readers' malformed-input tests
  # (TraceIo.*, CoflowBenchmarkTrace.*), whole binary.
  ./build-asan/tests/workload_test
  # The tools' command-line contract (exit codes, unknown flags), run on
  # the asan-built aalo_sim, aalo_coordinator and aalo_daemon.
  ./build-asan/tests/cli_test
  (cd build-asan && ctest -L metrics --output-on-failure -j "$(nproc)")
  # '^ha$' because -L is a regex and a bare "ha" also matches "chaos".
  (cd build-asan && ctest -L '^ha$' --output-on-failure -j "$(nproc)")
  # Scheduler-zoo invariants (sampling convergence, dcoflow admission
  # soundness, LP bound <= every scheduler on 200 fuzzed traces).
  (cd build-asan && ctest -L '^sched$' --output-on-failure -j "$(nproc)")
  # Coordinator-state pins: golden transcript, oracle differential and
  # checkpoint round-trip of one seeded op stream.
  (cd build-asan && ctest -L '^state$' --output-on-failure -j "$(nproc)")
}

run_tsan() {
  echo "=== tsan: BatchRunner + engine-equivalence + obs gates + chaos + ha + sched + state ==="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$(nproc)"
  ctest --preset tsan
  ctest --preset tsan-chaos
  ctest --preset tsan-ha
  ctest --preset tsan-sched
  ctest --preset tsan-state
}

# One run of the benchmark of record's workload $1 (perfbench builds itself
# in Release) must pass its output checks with no failed operations, and
# its host_ms must stay within PERF_SMOKE_TOLERANCE x the median recorded
# for that workload in BENCH_micro.json's "perf_gate" block by the same
# command on the recording host. Guards against silent end-to-end
# regressions.
perf_gate() {
  local workload=$1
  echo "=== perf-smoke: perfbench $workload host_ms vs recorded baseline ==="
  python3 perfbench/run.py --workload "$workload" --seed 7 --seconds 12 --trace 0 \
    >"build-release/perf_$workload.txt"
  python3 - "$PERF_SMOKE_TOLERANCE" "$workload" "build-release/perf_$workload.txt" <<'EOF'
import json, sys

tolerance, workload = float(sys.argv[1]), sys.argv[2]
lines = open(sys.argv[3]).read().strip().splitlines()
result = json.loads(lines[-1])
print(next(l for l in lines if l.startswith("host: ")).replace("host:", "perf-smoke: host", 1))
if not result["correct"] or result["failed"] != 0:
    raise SystemExit(f"perf-smoke: FAIL — {workload} not correct "
                     f"(correct {result['correct']}, failed {result['failed']})")
base = json.load(open("BENCH_micro.json"))["perf_gate"][workload]["host_ms"]
cur = result["metrics"]["host_ms"]["value"]
ratio = cur / base
print(f"perf-smoke: {workload} host_ms {cur:.2f} ms vs baseline {base:.2f} ms "
      f"(ratio {ratio:.2f}, limit {tolerance:.2f})")
if ratio > tolerance:
    raise SystemExit("perf-smoke: FAIL — end-to-end benchmark regressed")
EOF
}

run_perf() {
  echo "=== perf: perfbench self-test ==="
  # Every perfbench workload at its tiny size, with its own output checks,
  # and the benchmark program built against the current src/ API.
  local started=$SECONDS
  python3 perfbench/selftest.py
  echo "perf: perfbench self-test took $((SECONDS - started)) s"
  cmake --preset release >/dev/null
  # Trace replay under D-CLAS, and the live coordinator's report ingress
  # and fan-out at 10k daemons.
  perf_gate fb_dense
  perf_gate coord_10k
  echo "=== perf-smoke: fig14 round time @1000 daemons vs recorded baseline ==="
  # The coordinator's round at 1000 daemons (delta path, the sweep's Δ)
  # must time rounds at all, and the median of three runs must stay within
  # PERF_SMOKE_TOLERANCE x the 1000-daemon sweep point recorded in
  # BENCH_net.json. One run alone has read 1.6x its usual time on host
  # noise.
  cmake --build --preset release -j "$(nproc)" --target bench_fig14_scalability
  for run in 1 2 3; do
    ./build-release/bench/bench_fig14_scalability \
      --json "build-release/perf_fig14_$run.json" \
      --sweep-only --daemons 1000 --rounds 10
  done
  python3 - "$PERF_SMOKE_TOLERANCE" <<'EOF'
import json, statistics, sys

def round_1000(path):
    doc = json.load(open(path))
    for e in doc["daemons_sweep"]:
        if e["daemons"] == 1000:
            return e["avg_round_s"]
    raise SystemExit(f"perf-smoke: no 1000-daemon sweep point in {path}")

base = round_1000("BENCH_net.json")
runs = [round_1000(f"build-release/perf_fig14_{run}.json") for run in (1, 2, 3)]
if base <= 0 or min(runs) <= 0:
    raise SystemExit("perf-smoke: FAIL — fig14 gate produced no timed rounds")
cur = statistics.median(runs)
ratio = cur / base
tolerance = float(sys.argv[1])
print("perf-smoke: fig14 @1000 daemons runs "
      + ", ".join(f"{r * 1e3:.2f}" for r in runs)
      + f" ms; median {cur * 1e3:.2f} ms vs baseline {base * 1e3:.2f} ms "
      f"(ratio {ratio:.2f}, limit {tolerance:.2f})")
if ratio > tolerance:
    raise SystemExit("perf-smoke: FAIL — coordinator round time regressed")
EOF
}

run_coverage() {
  echo "=== coverage: gcov/gcovr line coverage (fail-under ${COVERAGE_FAIL_UNDER}%) ==="
  # gcovr is not part of the baked toolchain image; the step degrades to a
  # skip (with the threshold still recorded above) rather than failing CI
  # on environments without it.
  if ! command -v gcovr >/dev/null 2>&1; then
    echo "coverage: gcovr not installed — skipping (threshold ${COVERAGE_FAIL_UNDER}% recorded)"
    return 0
  fi
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage" -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
  cmake --build build-cov -j "$(nproc)"
  (cd build-cov && ctest -j "$(nproc)" --output-on-failure)
  gcovr --root . --filter 'src/' \
    --fail-under-line "${COVERAGE_FAIL_UNDER}" \
    --print-summary build-cov
}

case "${1:-all}" in
  default)  run_default ;;
  asan)     run_asan ;;
  tsan)     run_tsan ;;
  perf)     run_perf ;;
  coverage) run_coverage ;;
  all)      run_default; run_asan; run_tsan; run_perf; run_coverage ;;
  *) echo "usage: $0 [default|asan|tsan|perf|coverage|all]" >&2; exit 2 ;;
esac
echo "ci: OK"
