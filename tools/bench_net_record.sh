#!/usr/bin/env sh
# Records the coordination benchmarks (panel (a) of the Figure 14 bench:
# rounds at 100 and 1000 daemons, the daemons sweep (1k to 100k, multiplexed
# over at most 2500 connections), HA drills, and the >= 1M live-coflow
# point — all real loopback sockets) as JSON so successive changes can
# diff round times and bytes-on-wire. The bench exits non-zero, and
# writes nothing, if any point times no round.
#
#   tools/bench_net_record.sh [options] [build-dir] [output-json]
#
# Options (forwarded to the bench binary):
#   --daemons N,N,...   sweep daemon counts (default 1000,10000,100000)
#   --rounds R          timed rounds per sweep point (default scales with N)
#   --sweep-only        record just the daemons sweep (the CI perf gate mode)
#   --live-coflows M    population for the high-cardinality point
#
# Defaults: build-dir = build-release (the "release" CMake preset),
# output = BENCH_net.json (repo root). Compare against the committed
# BENCH_net.json:
#
#   git diff -- BENCH_net.json
#
# Recording from an unoptimized build would poison the trajectory, so a
# build dir whose CMAKE_BUILD_TYPE is not Release/RelWithDebInfo is
# refused. Set AALO_BENCH_ALLOW_UNOPTIMIZED=1 to record anyway (the
# JSON will still reflect the slow build — don't commit it).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

bench_args=""
while [ $# -gt 0 ]; do
  case "$1" in
    --daemons|--rounds|--live-coflows)
      if [ $# -lt 2 ]; then
        echo "bench_net_record: $1 needs a value" >&2
        exit 2
      fi
      bench_args="$bench_args $1 $2"
      shift 2
      ;;
    --sweep-only)
      bench_args="$bench_args $1"
      shift
      ;;
    --*)
      echo "bench_net_record: unknown option $1" >&2
      echo "usage: tools/bench_net_record.sh [--daemons N,N,...] [--rounds R] [--sweep-only] [--live-coflows M] [build-dir] [output-json]" >&2
      exit 2
      ;;
    *)
      break
      ;;
  esac
done

build_dir=${1:-"$repo_root/build-release"}
out=${2:-"$repo_root/BENCH_net.json"}

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
fi

build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt")
case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    if [ "${AALO_BENCH_ALLOW_UNOPTIMIZED:-0}" != "1" ]; then
      echo "bench_net_record: refusing to record from '$build_dir'" >&2
      echo "bench_net_record: CMAKE_BUILD_TYPE is '${build_type:-unset}', need Release or RelWithDebInfo" >&2
      echo "bench_net_record: use 'cmake --preset release && cmake --build --preset release'," >&2
      echo "bench_net_record: or set AALO_BENCH_ALLOW_UNOPTIMIZED=1 to override" >&2
      exit 1
    fi
    echo "bench_net_record: WARNING recording from unoptimized build ($build_type)" >&2
    ;;
esac

cmake --build "$build_dir" -j --target bench_fig14_scalability

# shellcheck disable=SC2086  # bench_args is a flat word list by construction.
"$build_dir/bench/bench_fig14_scalability" --json "$out" $bench_args

echo "wrote $out" >&2
