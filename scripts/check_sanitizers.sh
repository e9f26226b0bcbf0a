#!/usr/bin/env bash
# Sanitizer gate:
#   1. ThreadSanitizer build  -> `concurrency`+`cache`+`planner`+
#      `robustness`+`incremental`-labelled tests (thread pool / task
#      group / batch runner / intra-query parallelism / sharded-cache
#      stress / merged-plan DAG scheduling / stop tokens tripped and
#      polled across worker threads / the netout_serve poll-loop <->
#      dispatcher handoff under concurrent sessions — the server tests
#      live in the `robustness` label — and the incremental-mutation
#      layer, where epoch transitions race reader traffic by design,
#      plus the `oocore` sharded-storage label, whose clock residency
#      manager — Touch / EvictToBudget — races query readers by design).
#   2. AddressSanitizer build -> `cache`+`robustness`+`kernels`+
#      `incremental`+`oocore`-labelled tests (the CachedIndex
#      pinned-lookup lifetime contract, degraded partial results, the
#      server's untrusted-byte framing layer, the SIMD kernel property
#      tests, whose raw-pointer merge loops must never read past a
#      buffer, keyed invalidation, whose dropped payloads must outlive
#      any reader still pinning them, and the segment loader's
#      hostile-file sweep, where every mmapped span must stay in bounds
#      through eviction and corrupt-input unwind).
#   3. UndefinedBehaviorSanitizer build -> the full test suite
#      (halt-on-UB: the build uses -fno-sanitize-recover so any signed
#      overflow / bad shift / misaligned access fails its test).
# Usage: scripts/check_sanitizers.sh [tsan-dir [asan-dir [ubsan-dir]]]
#        (defaults: build-tsan, build-asan, build-ubsan)
set -euo pipefail

cd "$(dirname "$0")/.."
TSAN_BUILD_DIR="${1:-build-tsan}"
ASAN_BUILD_DIR="${2:-build-asan}"
UBSAN_BUILD_DIR="${3:-build-ubsan}"
JOBS="$(nproc)"

build() {
  local dir="$1" sanitizer="$2"
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DNETOUT_SANITIZE="${sanitizer}" \
    -DNETOUT_BUILD_BENCHMARKS=OFF \
    -DNETOUT_BUILD_EXAMPLES=OFF
  cmake --build "${dir}" -j "${JOBS}"
}

build "${TSAN_BUILD_DIR}" thread
# halt_on_error so a data race fails the test run instead of scrolling by.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "${TSAN_BUILD_DIR}" \
  -L 'concurrency|cache|planner|robustness|incremental|oocore' \
  --output-on-failure -j "${JOBS}"

build "${ASAN_BUILD_DIR}" address
ctest --test-dir "${ASAN_BUILD_DIR}" \
  -L 'cache|robustness|kernels|incremental|oocore' \
  --output-on-failure -j "${JOBS}"

build "${UBSAN_BUILD_DIR}" undefined
# The `lint` label is the compile-failure harness (tests/lint); it
# re-enters cmake and needs no sanitizer, so keep the UBSan run focused
# on the runtime suite.
ctest --test-dir "${UBSAN_BUILD_DIR}" -LE lint \
  --output-on-failure -j "${JOBS}"

echo "check_sanitizers: TSAN + ASAN + UBSan all green"
