#!/usr/bin/env sh
# Records the microbenchmark suite as JSON so successive PRs have a perf
# trajectory to diff against.
#
#   tools/bench_record.sh [build-dir] [output-json]
#
# Defaults: build-dir = build-release (the "release" CMake preset),
# output = BENCH_micro.json (repo root). Configures and builds
# bench_micro if needed, then runs it with 3 repetitions and
# aggregate-only reporting (median/mean/stddev per benchmark) to damp
# scheduler noise. Repetitions are randomly interleaved across
# benchmarks, so a monotone slow drift does not land entirely on
# whichever benchmark registers later. Compare against the committed
# BENCH_micro.json:
#
#   git diff -- BENCH_micro.json
#
# Only the output's "context" and "benchmarks" keys are replaced; every
# other top-level key (the CI perf gate's "perf_gate" baseline, the
# "*_ab" A/B records) is kept as it is. "context" gains
# "aalo_build_type", the CMAKE_BUILD_TYPE of the recorded build:
# google-benchmark's own "library_build_type" describes the installed
# libbenchmark, not this code.
#
# Recording from an unoptimized build would poison the trajectory, so a
# build dir whose CMAKE_BUILD_TYPE is not Release/RelWithDebInfo is
# refused. Set AALO_BENCH_ALLOW_UNOPTIMIZED=1 to record anyway (the
# JSON will still reflect the slow build — don't commit it).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-release"}
out=${2:-"$repo_root/BENCH_micro.json"}

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
fi

build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt")
case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    if [ "${AALO_BENCH_ALLOW_UNOPTIMIZED:-0}" != "1" ]; then
      echo "bench_record: refusing to record from '$build_dir'" >&2
      echo "bench_record: CMAKE_BUILD_TYPE is '${build_type:-unset}', need Release or RelWithDebInfo" >&2
      echo "bench_record: use 'cmake --preset release && cmake --build --preset release'," >&2
      echo "bench_record: or set AALO_BENCH_ALLOW_UNOPTIMIZED=1 to override" >&2
      exit 1
    fi
    echo "bench_record: WARNING recording from unoptimized build ($build_type)" >&2
    ;;
esac

cmake --build "$build_dir" -j --target bench_micro

run=$(mktemp)
trap 'rm -f "$run"' EXIT
"$build_dir/bench/bench_micro" \
  --benchmark_repetitions=3 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  --benchmark_out_format=json \
  --benchmark_out="$run"

python3 - "$run" "$out" "$build_type" <<'EOF'
import json, os, sys

run_path, out_path, build_type = sys.argv[1:]
run = json.load(open(run_path))
doc = json.load(open(out_path)) if os.path.exists(out_path) else {}
run["context"]["aalo_build_type"] = build_type
doc["context"] = run["context"]
# Registration order, not the interleaved run order, so a re-record's
# diff shows only changed numbers.
doc["benchmarks"] = sorted(
    run["benchmarks"], key=lambda b: (b["family_index"], b["per_family_instance_index"]))
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF

echo "wrote $out" >&2
