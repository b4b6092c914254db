#!/usr/bin/env sh
# Local CI gate: the checks a PR must pass before merging.
#
#   1. Release build + full test suite (the configuration users run, and the
#      one bench/run_bench.sh benchmarks).
#   2. Repo-invariant lint + static analysis (clang-tidy when available,
#      GCC strict-warning fallback otherwise), reusing the Release build's
#      compile_commands.json so no extra configure is paid.
#   2b. Thread-safety gate (clang only): build the library tree under
#      clang with -Wthread-safety -Werror=thread-safety — every lock in
#      the serving stack flows through the annotated sync layer
#      (src/sync), so a missed lock is a compile error — then run the
#      negative-compile harness, which proves the gate *fires* (each
#      known-bad TU in tests/negcompile must be rejected with its
#      expected diagnostic). Skipped loudly when no clang is installed;
#      a clang whose analysis is vacuous aborts CI (probe exit 2).
#   3. Checked Debug build with Address+UndefinedBehaviorSanitizer + full
#      test suite: one build dir covers memory errors, UB, and the
#      BMF_CHECKED contract layer (contract_test's throwing half) at once.
#   4. Smoke-run of the two benchmarks bench/run_bench.sh records (solver
#      scaling and basis throughput, tiny min-time) so bench bit-rot is
#      caught without paying for a full measurement run.
#   5. Chaos matrix: the seeded fault-injection suite re-runs under
#      ASan/UBSan with several BMF_CHAOS_SEED values, so each seed's
#      distinct fault schedule (which calls get short reads, EINTR storms,
#      corruption, drops) is driven against the live daemon memory-clean —
#      over BOTH transports (UNIX socket and TCP loopback) when the
#      sandbox allows AF_INET; TCP legs are skipped (loudly) otherwise.
#   5b. Crash-recovery matrix under ASan/UBSan: store_crash_test forks the
#      real daemon with a durable store and kills it at every injected
#      durability syscall (Nth WAL write / fsync / snapshot rename), then
#      proves recovery keeps every acked publish byte-identical and the
#      version sequence monotonic. Memory-clean recovery is part of the
#      claim, hence the sanitized build.
#   5c. Fault layer compiled out: a Release build with
#      -DBMF_FAULT_INJECTION=OFF, the configuration in which every
#      fault::sys_* is an inline forward to its raw syscall. It builds the
#      three daemons/CLIs and runs the fault, wire-fault, chaos and
#      crash-matrix suites, whose injection-dependent cases skip or
#      compile out there — so both sides of fault.hpp's #ifdef stay
#      buildable and the suites stay green without injection. It builds
#      with -Werror: a helper left outside the #ifdef that holds its only
#      callers is an unused-function warning there, and fails the stage.
#   6. ThreadSanitizer build of the concurrent serving stack (event loop,
#      worker pool, admission queue, fault engine) — the race-freedom
#      proof for the paths the chaos suite exercises, again over both
#      transports — plus basis_set_test, whose concurrent callers share
#      one model's read-only evaluation plan, fusion_test and
#      parallel_test, whose BMF-PS fits build the MAP workspace on a pool
#      worker while other workers build the CV folds, and store_test,
#      whose threads append to one ModelStore the way bmf_served's
#      workers do.
#   7. SIMD level matrix: the full Release test suite re-runs with
#      BMF_SIMD_LEVEL pinned to every level this host can execute (plus
#      the kernel and eigensolver suites under ASan/UBSan per level, which
#      cover the QL rotation kernel's masked panel tails), so the scalar
#      and AVX2 code paths stay covered on machines whose dispatcher would
#      otherwise always pick AVX-512. Unavailable levels are skipped —
#      the matrix must pass on a non-AVX host. Each level also runs the
#      benchmark's fit_sram workload for 2 s: its correctness gate holds
#      BMF-PS fits at the paper's 3000-variable SRAM shape to a held-out
#      error under 2% and to bitwise-repeatable coefficients, a shape no
#      unit test reaches.
#   8. Serving smoke test: start bmf_served on a temp socket, publish a
#      tiny model with bmf_client, evaluate it, and shut the daemon down —
#      proves the daemon/client binaries work end to end, not just the
#      library they link. Repeated over TCP loopback (ephemeral port via
#      --tcp-announce, pipelined eval) when the sandbox allows it, followed
#      by the benchmark's serve_routed workload for 2 s: its correctness
#      gate drives a router over 3 durable shards under pipelined load, a
#      path no unit test loads — every routed reply bit-equal to a local
#      evaluation, every publish acked with the next version, one attempt
#      per op.
#   9. Sharded serving smoke test: three bmf_served shards behind one
#      bmf_router (--replicas 2), driven with the ordinary bmf_client —
#      publish replicates, evict converges, and killing one shard
#      mid-service must not change a single predicted byte (failover).
#  10. Durable sharded smoke test: the same three-shard topology with a
#      --store directory per shard. Every shard is kill -9'd after the
#      publish and restarted from its store; once the router readopts
#      them, predictions must be byte-identical with zero re-publishes
#      (store-ls: appends=0 since restart, records_replayed covers the
#      replica set).
#
# Usage: ci.sh [jobs]   (default: all cores)
set -eu

src_dir="$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)"
jobs="${1:-$(nproc)}"

echo "== Release build + tests =="
cmake -S "$src_dir" -B "$src_dir/build-ci-release" -DCMAKE_BUILD_TYPE=Release
cmake --build "$src_dir/build-ci-release" -j "$jobs"
ctest --test-dir "$src_dir/build-ci-release" --output-on-failure

echo "== Lint + static analysis =="
"$src_dir/scripts/lint.sh"
BMF_ANALYZE_BUILD_DIR="$src_dir/build-ci-release" "$src_dir/scripts/analyze.sh"

echo "== Thread-safety gate (clang -Wthread-safety) =="
clang_rc=0
clang_cxx="$("$src_dir/scripts/clang_available.sh")" || clang_rc=$?
if [ "$clang_rc" -eq 2 ]; then
  echo "error: clang present but its thread-safety analysis is vacuous" >&2
  exit 1
fi
if [ "$clang_rc" -eq 0 ]; then
  echo "-- clang: $clang_cxx --"
  cmake -S "$src_dir" -B "$src_dir/build-ci-clang" \
        -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_COMPILER="$clang_cxx"
  cmake --build "$src_dir/build-ci-clang" -j "$jobs"
  echo "-- negative-compile harness --"
  "$src_dir/scripts/negative_compile.sh" "$clang_cxx" "$src_dir"
else
  echo "-- no clang on this host: thread-safety stages skipped --"
fi

echo "== Checked Debug + Address/UB sanitizers + tests =="
cmake -S "$src_dir" -B "$src_dir/build-ci-checked" \
      -DCMAKE_BUILD_TYPE=Debug -DBMF_CHECKED=ON \
      -DBMF_SANITIZE=address,undefined
cmake --build "$src_dir/build-ci-checked" -j "$jobs"
ctest --test-dir "$src_dir/build-ci-checked" --output-on-failure

# Transport matrix: every chaos/TSan leg runs over the UNIX socket, and
# over TCP loopback too when the sandbox can bind 127.0.0.1. Probe exit 2
# means the probe itself is broken — that aborts CI rather than skipping.
tcp_rc=0
"$src_dir/scripts/tcp_loopback_available.sh" "$src_dir/build-ci-release" \
    || tcp_rc=$?
if [ "$tcp_rc" -eq 2 ]; then
  echo "error: TCP loopback probe is broken" >&2
  exit 1
fi
if [ "$tcp_rc" -eq 0 ]; then
  transports="unix tcp"
else
  transports="unix"
  echo "-- TCP loopback unavailable in this sandbox: TCP legs skipped --"
fi

echo "== Chaos matrix (seeded fault plans under ASan/UBSan) =="
for seed in 1 7 42; do
  for transport in $transports; do
    echo "-- chaos seed $seed over $transport --"
    BMF_CHAOS_SEED="$seed" BMF_CHAOS_TRANSPORT="$transport" \
        "$src_dir/build-ci-checked/tests/serve_chaos_test"
    echo "-- router chaos seed $seed over $transport --"
    BMF_CHAOS_SEED="$seed" BMF_CHAOS_TRANSPORT="$transport" \
        "$src_dir/build-ci-checked/tests/router_test" \
        --gtest_filter='RouterChaos.*'
  done
  BMF_CHAOS_SEED="$seed" \
      "$src_dir/build-ci-checked/tests/serve_wire_fault_test"
done

echo "== Crash-recovery matrix (kill at durability syscalls, ASan/UBSan) =="
"$src_dir/build-ci-checked/tests/store_crash_test"

echo "== Fault layer compiled out (-DBMF_FAULT_INJECTION=OFF) =="
cmake -S "$src_dir" -B "$src_dir/build-ci-nofault" \
      -DCMAKE_BUILD_TYPE=Release -DBMF_FAULT_INJECTION=OFF \
      -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$src_dir/build-ci-nofault" -j "$jobs" \
      --target bmf_served bmf_router bmf_client fault_test \
               serve_wire_fault_test serve_chaos_test store_crash_test
for suite in fault_test serve_wire_fault_test serve_chaos_test \
             store_crash_test; do
  "$src_dir/build-ci-nofault/tests/$suite"
done

echo "== ThreadSanitizer: concurrent serving stack =="
cmake -S "$src_dir" -B "$src_dir/build-ci-tsan" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DBMF_SANITIZE=thread
cmake --build "$src_dir/build-ci-tsan" -j "$jobs" \
      --target basis_set_test fusion_test parallel_test store_test \
               serve_server_test serve_pipeline_test serve_chaos_test \
               router_test
"$src_dir/build-ci-tsan/tests/basis_set_test"
"$src_dir/build-ci-tsan/tests/fusion_test"
"$src_dir/build-ci-tsan/tests/parallel_test"
"$src_dir/build-ci-tsan/tests/store_test"
"$src_dir/build-ci-tsan/tests/serve_server_test"
"$src_dir/build-ci-tsan/tests/serve_pipeline_test"
for transport in $transports; do
  echo "-- TSan chaos over $transport --"
  BMF_CHAOS_TRANSPORT="$transport" \
      "$src_dir/build-ci-tsan/tests/serve_chaos_test"
  echo "-- TSan router over $transport --"
  BMF_CHAOS_TRANSPORT="$transport" "$src_dir/build-ci-tsan/tests/router_test"
done

echo "== Benchmark smoke run =="
"$src_dir/build-ci-release/bench/ablation_solver_scaling" \
    --benchmark_min_time=0.01
"$src_dir/build-ci-release/bench/basis_throughput" --benchmark_min_time=0.01

echo "== SIMD level matrix =="
# The dispatcher silently falls back when BMF_SIMD_LEVEL is unavailable,
# so probe first: re-running the fallback level and calling it "avx512
# coverage" would be a lie. Probe failure (exit 2) aborts CI.
for level in scalar avx2 avx512; do
  rc=0
  "$src_dir/scripts/simd_level_available.sh" \
      "$src_dir/build-ci-release" "$level" || rc=$?
  if [ "$rc" -eq 2 ]; then
    echo "error: SIMD level probe failed for '$level'" >&2
    exit 1
  fi
  if [ "$rc" -ne 0 ]; then
    echo "-- BMF_SIMD_LEVEL=$level not available on this host: skipped --"
    continue
  fi
  echo "-- BMF_SIMD_LEVEL=$level: Release test suite --"
  BMF_SIMD_LEVEL="$level" ctest --test-dir "$src_dir/build-ci-release" \
      --output-on-failure
  echo "-- BMF_SIMD_LEVEL=$level: kernel and eigensolver suites under ASan/UBSan --"
  BMF_SIMD_LEVEL="$level" "$src_dir/build-ci-checked/tests/simd_kernels_test"
  BMF_SIMD_LEVEL="$level" "$src_dir/build-ci-checked/tests/eigen_sym_test"
  echo "-- BMF_SIMD_LEVEL=$level: fit_sram benchmark correctness gate --"
  (cd "$src_dir" && BMF_SIMD_LEVEL="$level" python3 perfbench/run.py \
      --workload fit_sram --seed 1 --seconds 2 --trace 0)
done

echo "== Serving smoke test =="
serve_tmp="$(mktemp -d)"
trap 'rm -rf "$serve_tmp"' EXIT INT TERM
sock="$serve_tmp/bmf.sock"
"$src_dir/build-ci-release/bin/bmf_served" --socket "$sock" --quiet &
served_pid=$!
# f(x) = 1.5 + 2*H1(x0) - 0.5*H1(x1); H1 is the identity, so the point
# (0,0) must predict exactly 1.5 and (1,1) exactly 3.0.
printf 'bmf-model v2\ndimension 2\nterms 3\nterm 1.5\nterm 2.0 0:1\nterm -0.5 1:1\nend\n' \
    > "$serve_tmp/model.bmfmodel"
printf '0.0,0.0\n1.0,1.0\n' > "$serve_tmp/points.csv"
client="$src_dir/build-ci-release/bin/bmf_client"
"$client" --socket "$sock" ping
"$client" --socket "$sock" publish smoke "$serve_tmp/model.bmfmodel"
"$client" --socket "$sock" eval smoke "$serve_tmp/points.csv" \
    > "$serve_tmp/pred.txt"
"$client" --socket "$sock" list
"$client" --socket "$sock" shutdown
wait "$served_pid"
predictions="$(tr '\n' ' ' < "$serve_tmp/pred.txt")"
if [ "$predictions" != "1.5 3 " ]; then
  echo "error: serve smoke predictions were '$predictions', expected '1.5 3 '" >&2
  exit 1
fi

if [ "$tcp_rc" -eq 0 ]; then
  echo "== Serving smoke test (TCP loopback, pipelined) =="
  "$src_dir/build-ci-release/bin/bmf_served" --tcp 127.0.0.1:0 \
      --tcp-announce "$serve_tmp/endpoint" --quiet &
  served_pid=$!
  i=0
  while [ ! -s "$serve_tmp/endpoint" ]; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
      echo "error: bmf_served never announced its TCP endpoint" >&2
      exit 1
    fi
    sleep 0.1
  done
  hostport="$(sed 's/^tcp://' "$serve_tmp/endpoint")"
  "$client" --tcp "$hostport" ping
  "$client" --tcp "$hostport" publish smoke "$serve_tmp/model.bmfmodel"
  "$client" --tcp "$hostport" eval smoke "$serve_tmp/points.csv" \
      --pipeline 2 --chunk-rows 1 > "$serve_tmp/pred_tcp.txt"
  "$client" --tcp "$hostport" shutdown
  wait "$served_pid"
  predictions="$(tr '\n' ' ' < "$serve_tmp/pred_tcp.txt")"
  if [ "$predictions" != "1.5 3 " ]; then
    echo "error: TCP smoke predictions were '$predictions', expected '1.5 3 '" >&2
    exit 1
  fi

  echo "== serve_routed benchmark correctness gate =="
  (cd "$src_dir" && python3 perfbench/run.py \
      --workload serve_routed --seed 1 --seconds 2 --trace 0)
fi

echo "== Sharded serving smoke test (router) =="
shard_pids=""
for i in 1 2 3; do
  "$src_dir/build-ci-release/bin/bmf_served" \
      --socket "$serve_tmp/shard$i.sock" --quiet &
  shard_pids="$shard_pids $!"
done
"$src_dir/build-ci-release/bin/bmf_router" --socket "$serve_tmp/router.sock" \
    --backend "unix:$serve_tmp/shard1.sock" \
    --backend "unix:$serve_tmp/shard2.sock" \
    --backend "unix:$serve_tmp/shard3.sock" \
    --replicas 2 --quiet &
router_pid=$!
"$client" --socket "$serve_tmp/router.sock" ping
"$client" --socket "$serve_tmp/router.sock" publish smoke \
    "$serve_tmp/model.bmfmodel"
"$client" --socket "$serve_tmp/router.sock" stats > /dev/null
"$client" --socket "$serve_tmp/router.sock" evict smoke
if "$client" --socket "$serve_tmp/router.sock" list | grep -q smoke; then
  echo "error: evict through the router did not converge" >&2
  exit 1
fi
"$client" --socket "$serve_tmp/router.sock" publish smoke \
    "$serve_tmp/model.bmfmodel"
# Kill one shard mid-service: with --replicas 2 every model survives any
# single death, so the predictions must be byte-identical to the direct
# smoke run above regardless of which shard owned them.
kill "${shard_pids##* }"
"$client" --socket "$serve_tmp/router.sock" eval smoke \
    "$serve_tmp/points.csv" > "$serve_tmp/pred_router.txt"
"$client" --socket "$serve_tmp/router.sock" shutdown
wait "$router_pid"
for pid in $shard_pids; do
  kill "$pid" 2> /dev/null || true
done
predictions="$(tr '\n' ' ' < "$serve_tmp/pred_router.txt")"
if [ "$predictions" != "1.5 3 " ]; then
  echo "error: router smoke predictions were '$predictions', expected '1.5 3 '" >&2
  exit 1
fi

echo "== Durable sharded smoke test (kill -9, restart from disk) =="
start_durable_shard() {
  "$src_dir/build-ci-release/bin/bmf_served" \
      --socket "$serve_tmp/dshard$1.sock" \
      --store "$serve_tmp/dstore$1" --quiet &
  shard_pids="$shard_pids $!"
}
shard_pids=""
for i in 1 2 3; do
  mkdir -p "$serve_tmp/dstore$i"
  start_durable_shard "$i"
done
"$src_dir/build-ci-release/bin/bmf_router" --socket "$serve_tmp/drouter.sock" \
    --backend "unix:$serve_tmp/dshard1.sock" \
    --backend "unix:$serve_tmp/dshard2.sock" \
    --backend "unix:$serve_tmp/dshard3.sock" \
    --replicas 2 --probe-interval-ms 100 --quiet &
router_pid=$!
"$client" --socket "$serve_tmp/drouter.sock" ping
"$client" --socket "$serve_tmp/drouter.sock" publish smoke \
    "$serve_tmp/model.bmfmodel"
# Kill -9 every shard: nothing in memory survives, so the evaluate below
# can only succeed if the stores carry the model across the restart.
for pid in $shard_pids; do
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true
done
shard_pids=""
for i in 1 2 3; do
  start_durable_shard "$i"
done
# Wait for the router's probes to readopt all three restarted shards
# (store-ls fans out to connected backends, so enabled counts them).
i=0
until "$client" --socket "$serve_tmp/drouter.sock" store-ls 2> /dev/null \
    | grep -q 'enabled=3'; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "error: router never readopted the restarted durable shards" >&2
    exit 1
  fi
  sleep 0.1
done
"$client" --socket "$serve_tmp/drouter.sock" eval smoke \
    "$serve_tmp/points.csv" > "$serve_tmp/pred_durable.txt"
predictions="$(tr '\n' ' ' < "$serve_tmp/pred_durable.txt")"
if [ "$predictions" != "1.5 3 " ]; then
  echo "error: durable smoke predictions were '$predictions', expected '1.5 3 '" >&2
  exit 1
fi
# The model came back from disk alone: since the restart not one publish
# reached any shard (appends=0), and replay covered the replica set
# (--replicas 2 wrote the model to two WALs, so two records replayed).
store_line="$("$client" --socket "$serve_tmp/drouter.sock" store-ls)"
echo "$store_line"
for want in 'enabled=3' 'appends=0' 'records_replayed=2' \
            'truncation_events=0'; do
  case " $store_line " in
    *" $want "*) ;;
    *)
      echo "error: durable store-ls missing '$want': $store_line" >&2
      exit 1
      ;;
  esac
done
"$client" --socket "$serve_tmp/drouter.sock" shutdown
wait "$router_pid"
for pid in $shard_pids; do
  kill "$pid" 2> /dev/null || true
done

echo "== CI passed =="
