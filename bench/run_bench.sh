#!/usr/bin/env sh
# Machine-readable perf trajectory for the MAP solvers and basis
# evaluation. The serving stack is measured by perfbench/ (serve_routed,
# serve_bulk), which records repetitions and spread.
#
# Configures + builds the benchmarks in Release mode, verifies the resolved
# build type (benchmarking a Debug build silently produces garbage numbers),
# then runs the solver-scaling ablation and the basis-evaluation throughput
# bench with JSON output so successive PRs can diff wall-clock numbers.
# After each microbench run the produced JSON is checked for
# "library_build_type": "release" — the harness
# (bench/microbench) reports its own compiled build type, so a debug-built
# harness can never slip its numbers into the record. Usage:
#
#   bench/run_bench.sh [build-dir] [extra benchmark args...]
#
# Writes <build-dir>/BENCH_solver.json and <build-dir>/BENCH_basis.json
# (default build dir: ./build). Extra arguments apply to the solver bench
# only. Thread count is controlled by BMF_NUM_THREADS (default: all cores).
set -eu

src_dir="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
build_dir="${1:-build}"
[ $# -gt 0 ] && shift

# Refuse to touch a build dir already configured as something other than
# Release (passing -DCMAKE_BUILD_TYPE=Release would silently flip the
# cache and rebuild the user's Debug tree as Release).
cache="$build_dir/CMakeCache.txt"
if [ -f "$cache" ]; then
  existing="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cache")"
  if [ "$existing" != "Release" ]; then
    echo "error: $build_dir is configured as '${existing:-<empty>}', not Release." >&2
    echo "Refusing to benchmark a non-optimized build; use a fresh build dir." >&2
    exit 1
  fi
fi

# Configure (or re-configure) pinning the build type, then verify what the
# cache actually resolved to.
cmake -S "$src_dir" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cache")"
if [ "$build_type" != "Release" ]; then
  echo "error: $build_dir resolved CMAKE_BUILD_TYPE='${build_type:-<empty>}'," >&2
  echo "expected Release. Refusing to benchmark a non-optimized build." >&2
  exit 1
fi

cmake --build "$build_dir" -j --target ablation_solver_scaling \
      basis_throughput >/dev/null

# The microbench harness records the build type it was itself compiled
# with; refuse to keep numbers from anything but a release harness.
require_release_harness() {
  if ! grep -q '"library_build_type": "release"' "$1"; then
    echo "error: $1 was produced by a non-release benchmark harness" >&2
    echo "(expected \"library_build_type\": \"release\" in its context)." >&2
    exit 1
  fi
}

bin="$build_dir/bench/ablation_solver_scaling"
if [ ! -x "$bin" ]; then
  echo "error: $bin not found after build" >&2
  exit 1
fi

out="$build_dir/BENCH_solver.json"
"$bin" --benchmark_format=json --benchmark_out="$out" \
       --benchmark_out_format=json \
       --benchmark_context=bmf_build_type="$build_type" "$@"
require_release_harness "$out"
echo "wrote $out (CMAKE_BUILD_TYPE=$build_type, BMF_NUM_THREADS=${BMF_NUM_THREADS:-auto})"

basis_bin="$build_dir/bench/basis_throughput"
if [ ! -x "$basis_bin" ]; then
  echo "error: $basis_bin not found after build" >&2
  exit 1
fi
basis_out="$build_dir/BENCH_basis.json"
"$basis_bin" --benchmark_format=json --benchmark_out="$basis_out" \
             --benchmark_out_format=json \
             --benchmark_context=bmf_build_type="$build_type"
require_release_harness "$basis_out"
echo "wrote $basis_out"
