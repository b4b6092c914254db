#!/usr/bin/env sh
# Repo-invariant linter: fast textual checks for rules the compiler cannot
# enforce.  Each rule guards a property the project depends on:
#
#   1. No std::rand/srand/time()-seeding — every random stream must go
#      through stats::Rng with an explicit seed, or results stop being
#      reproducible.
#   2. No raw new/delete — ownership is std::vector / unique_ptr only.
#   3. No float types or literals in the numeric core — kernels are double
#      end to end; a stray float silently halves precision.
#   4. No unordered_map/unordered_set iteration in numeric paths — bucket
#      order varies across libstdc++ versions, breaking bit-identical
#      results.
#   5. Every header is self-contained (compiles standalone), so include
#      order can never hide a missing dependency.
#   6. No raw ::read/::write/::send/::recv/::poll/::fsync/::fdatasync/
#      ::rename outside src/serve/wire.cpp and src/fault — all socket I/O
#      and every durability syscall (the WAL appends, fsyncs and atomic
#      snapshot renames of src/store) must flow through the
#      fault-injection wrappers (fault::sys_*), or the chaos and crash
#      tests silently stop covering it.
#   7. No SIMD intrinsics outside src/linalg/kernels/ — wide code is only
#      legal behind the runtime dispatcher (per-file ISA flags + cpuid
#      gate); an intrinsic anywhere else either SIGILLs on older hosts or
#      forks the FP accumulation order outside the kernel contract.
#   8. No socket-option plumbing (setsockopt/fcntl/epoll_ctl/eventfd)
#      outside src/serve/wire.cpp and src/fault — transport tuning
#      (TCP_NODELAY, SO_REUSEADDR, O_NONBLOCK) lives behind the wire/fault
#      layer so every code path gets the same socket semantics and the
#      chaos suite covers them.
#   9. No raw std::mutex/std::condition_variable/std::lock_guard/... outside
#      src/sync — all locking goes through the annotated sync layer
#      (sync::Mutex & co.), or clang's -Wthread-safety gate silently stops
#      covering it: a raw std::mutex carries no capability, so the analysis
#      has nothing to check and misses every bug behind it.
#
# Usage: lint.sh   (run from anywhere; exits non-zero on any violation)
set -eu

src_dir="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
status=0
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM

fail() {
  echo "lint.sh: $1" >&2
  echo "$2" | sed 's/^/    /' >&2
  status=1
}

# Strip // line comments so prose like "new random variables" cannot trip
# code-pattern rules.  (Block comments in this codebase are single-line.)
strip_comments() {
  sed 's://.*$::' "$1"
}

all_sources=$(find "$src_dir/src" -name '*.cpp' -o -name '*.hpp' | sort)
numeric_sources=$(find "$src_dir/src/linalg" "$src_dir/src/bmf" \
  "$src_dir/src/regress" "$src_dir/src/stats" "$src_dir/src/serve" \
  -name '*.cpp' -o -name '*.hpp' | sort)

# Rule 1: unseeded/global randomness.  `time(` must not match identifiers
# that merely end in "time" (e.g. crossing_time(...)).
for f in $all_sources; do
  hits=$(strip_comments "$f" | grep -nE \
    '(^|[^A-Za-z0-9_:])(std::)?(rand|srand)[[:space:]]*\(|(^|[^A-Za-z0-9_])time[[:space:]]*\(' \
    || true)
  [ -n "$hits" ] && fail "unseeded randomness in $f" "$hits"
done

# Rule 2: raw new/delete (smart pointers and containers own everything).
# `make_unique`/placement-new-free codebase: any `new X` or `delete p` is a
# violation; `new` inside a make_unique call does not appear textually.
for f in $all_sources; do
  hits=$(strip_comments "$f" | grep -nE \
    '(^|[^A-Za-z0-9_])new[[:space:]]+[A-Za-z_][A-Za-z0-9_:<]*|(^|[^A-Za-z0-9_])delete([[:space:]]*\[\])?[[:space:]]+[A-Za-z_]' \
    | grep -vE 'delete[dm]?;|= delete' || true)
  [ -n "$hits" ] && fail "raw new/delete in $f" "$hits"
done

# Rule 3: float types/literals in double kernels.  Hex literals are stripped
# first so 0x...F constants (RNG mixers) cannot masquerade as float suffixes.
for f in $numeric_sources; do
  hits=$(strip_comments "$f" | sed -E 's/0[xX][0-9a-fA-F]+(ULL|ull|UL|ul|U|u|LL|ll|L|l)?//g' \
    | grep -nE '(^|[^A-Za-z0-9_])float([^A-Za-z0-9_]|$)|(^|[^A-Za-z0-9_.])[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?[fF]([^A-Za-z0-9_]|$)' \
    || true)
  [ -n "$hits" ] && fail "float type/literal in numeric core $f" "$hits"
done

# Rule 4: unordered containers in numeric paths (iteration order is not
# deterministic across standard-library implementations).
for f in $numeric_sources; do
  hits=$(strip_comments "$f" | grep -nE 'unordered_(map|set)' || true)
  [ -n "$hits" ] && fail "unordered container in numeric path $f" "$hits"
done

# Rule 5: headers self-contained — each header must compile as its own TU.
for h in $(find "$src_dir/src" -name '*.hpp' | sort); do
  probe="$tmp/probe.cpp"
  printf '#include "%s"\n' "$h" > "$probe"
  if ! g++ -std=c++20 -fsyntax-only -I"$src_dir/src" "$probe" 2>"$tmp/err"; then
    fail "header not self-contained: $h" "$(cat "$tmp/err")"
  fi
done

# Rule 6: raw syscall I/O outside the wire/fault layer.  Everything that
# touches a socket — and every durability syscall (src/store WAL appends,
# fsyncs and snapshot renames) — must go through
# fault::sys_* so injected faults and crash points cover it.
for f in $all_sources; do
  case "$f" in
    "$src_dir/src/fault/"*|"$src_dir/src/serve/wire.cpp") continue ;;
  esac
  hits=$(strip_comments "$f" | grep -nE \
    '::(read|write|send|recv|poll|fsync|fdatasync|rename)[[:space:]]*\(' || true)
  [ -n "$hits" ] && fail "raw syscall I/O outside wire/fault layer in $f" "$hits"
done

# Rule 7: intrinsics confined to the dispatched kernel layer.  Only the
# per-ISA TUs in src/linalg/kernels/ are compiled with wide-instruction
# flags and guarded by the cpuid dispatcher.
for f in $all_sources; do
  case "$f" in
    "$src_dir/src/linalg/kernels/"*) continue ;;
  esac
  hits=$(strip_comments "$f" | grep -nE \
    'immintrin\.h|__m256|__m512|_mm256_|_mm512_' || true)
  [ -n "$hits" ] && fail "SIMD intrinsics outside src/linalg/kernels in $f" "$hits"
done

# Rule 8: socket-option plumbing confined to the wire/fault layer.  A
# setsockopt/fcntl/epoll_ctl/eventfd call anywhere else forks the socket
# semantics (Nagle, nonblocking mode, event registration) away from the
# one audited implementation.
for f in $all_sources; do
  case "$f" in
    "$src_dir/src/fault/"*|"$src_dir/src/serve/wire.cpp") continue ;;
  esac
  hits=$(strip_comments "$f" | grep -nE \
    '::(setsockopt|fcntl|epoll_ctl|epoll_create1?|eventfd)[[:space:]]*\(' \
    || true)
  [ -n "$hits" ] && fail "socket-option plumbing outside wire/fault layer in $f" "$hits"
done

# Rule 9: raw standard-library synchronization outside the sync layer.
# Only src/sync may name the std:: primitives; everyone else uses the
# annotated wrappers so the thread-safety analysis sees every lock.
for f in $all_sources; do
  case "$f" in
    "$src_dir/src/sync/"*) continue ;;
  esac
  hits=$(strip_comments "$f" | grep -nE \
    'std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)([^A-Za-z0-9_]|$)' \
    || true)
  [ -n "$hits" ] && fail "raw std:: synchronization outside src/sync in $f" "$hits"
done

if [ "$status" -ne 0 ]; then
  echo "lint.sh: FAILED" >&2
  exit 1
fi
echo "lint.sh: all invariants hold"
