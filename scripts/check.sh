#!/usr/bin/env bash
# Repo health check: tier-1 build + tests, a -Werror configure, an
# ASan/UBSan build of the full test suite, a TSan build of the threaded
# tests, and the perf regression gate. Run from anywhere:
#
#   ./scripts/check.sh            # everything
#   ./scripts/check.sh tier1      # just the tier-1 verify
#   ./scripts/check.sh werror     # just the -Werror build
#   ./scripts/check.sh asan       # just the ASan/UBSan build + full suite
#   ./scripts/check.sh tsan       # just the TSan build + threaded tests
#   ./scripts/check.sh perf       # just the perf regression gate
#   ./scripts/check.sh docs       # just the docs-consistency check
#   ./scripts/check.sh perfbench  # perfbench helper tests + output checks
#   ./scripts/check.sh coverage   # gcovr line-coverage report (needs gcovr)
#
# S2A_SKIP_PERF=1 skips the perf gate (use on noisy shared runners where
# p95 latencies aren't meaningful).
#
# Suite selection is by ctest label (tests/CMakeLists.txt): `tsan` marks
# the concurrency-bearing suites, `chaos` the fault-injection ones,
# `slow` the long-running ones. Stages select labels instead of
# hard-coding test names, so a new suite only needs the right LABELS.
#
# Each stage uses its own build tree (build/, build-werror/, build-asan/,
# build-tsan/, build-cov/) so they don't invalidate each other's caches.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
STAGE="${1:-all}"

run_tier1() {
  echo "==> tier-1: build + ctest (build/)"
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

run_werror() {
  echo "==> -Wall -Wextra -Werror build (build-werror/)"
  cmake -B build-werror -S . -DCMAKE_CXX_FLAGS="-Werror"
  cmake --build build-werror -j "$JOBS"
}

run_asan() {
  echo "==> ASan/UBSan build + full test suite (build-asan/)"
  # RelWithDebInfo keeps the instrumented suite fast enough to run whole.
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
}

run_tsan() {
  echo "==> TSan build + threaded tests (build-tsan/)"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all -fno-omit-frame-pointer"
  # tsan_tests is every suite tests/CMakeLists.txt labels tsan.
  cmake --build build-tsan -j "$JOBS" --target tsan_tests
  # Run every tsan-labeled suite (concurrency-bearing: kernel sharding,
  # obs, fault chaos, the pipelined/fleet/batched execution engines).
  # A 4-slot global pool makes every sharded path run under TSan, even on
  # small CI machines: the pool size alone decides sharding.
  S2A_THREADS=4 ctest --test-dir build-tsan -L tsan --output-on-failure
}

run_perf() {
  if [[ "${S2A_SKIP_PERF:-0}" == "1" ]]; then
    echo "==> perf gate skipped (S2A_SKIP_PERF=1)"
    return 0
  fi
  echo "==> perf regression gate (BENCH_budgets.json, build/)"
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target bench_perf_micro
  S2A_BENCH_BUDGETS=BENCH_budgets.json ./build/bench/bench_perf_micro
}

run_perfbench() {
  echo "==> perfbench: helper tests + every workload's output checks"
  # The output checks are end-to-end bit-exactness oracles over the real
  # loop (pipelined replay, each fleet member against its solo run,
  # thread-invariant federated rounds, finite training losses); run.py
  # exits non-zero when one fails. Timings are printed, never gated:
  # 3 s runs on a shared runner measure nothing. perfbench builds its own
  # tree (.bench_build/perfbench).
  python3 -m unittest discover -s perfbench -p 'test_*.py'
  local w
  for w in loop_tick fleet_serve ae_train fed_round; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 3 --trace 0
  done
}

run_coverage() {
  if ! command -v gcovr >/dev/null 2>&1; then
    echo "==> coverage skipped (gcovr not installed)"
    return 0
  fi
  echo "==> line coverage: -O0 --coverage build + gcovr report (build-cov/)"
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-O0 --coverage"
  cmake --build build-cov -j "$JOBS"
  # The slow label (long-running integration/differential suites) is
  # excluded: the fast suites already touch the same code paths and the
  # -O0 instrumented build makes the slow ones minutes-long.
  ctest --test-dir build-cov -LE slow --output-on-failure -j "$JOBS"
  mkdir -p build-cov/coverage
  gcovr --root . --filter 'src/' --exclude-throw-branches \
    --html-details build-cov/coverage/index.html \
    --print-summary
  # Soft floor: report posture, don't gate the build on it yet.
  local pct
  pct="$(gcovr --root . --filter 'src/' --exclude-throw-branches 2>/dev/null \
         | awk '/^TOTAL/ {gsub("%","",$NF); print $NF}')"
  if [[ -n "$pct" ]]; then
    echo "    total line coverage: ${pct}% (soft floor: 70%)"
    awk -v p="$pct" 'BEGIN { if (p+0 < 70) print "    WARNING: below the 70% soft floor" }'
  fi
  echo "    HTML report: build-cov/coverage/index.html"
}

run_docs() {
  echo "==> docs consistency: S2A_* env vars read in the tree <-> documented"
  # Both directions, so the manuals cannot drift either way:
  #  1. every getenv("S2A_...") in the tree appears in README.md or docs/;
  #  2. every `S2A_*` row of README's env table names a variable something
  #     reads: a quoted "S2A_..." literal in the C++/Python sources (which
  #     also catches env_double("S2A_...")-style helpers), or the bare
  #     name in scripts/ (which catches ${S2A_...});
  #  3. every S2A_...= assignment in README.md, docs/*.md and the CI
  #     workflows names a variable something reads, by the same test. A
  #     leftover assignment of a deleted mode would otherwise pass, and in
  #     CI run the microbench suite in its place. -DS2A_... CMake options
  #     are not env vars and are skipped.
  local missing=0 stale=0
  local vars rows assigned
  vars="$(grep -rhoE 'getenv\("S2A_[A-Z0-9_]+"\)' src bench examples tests 2>/dev/null \
          | sed -E 's/getenv\("([^"]+)"\)/\1/' | sort -u)"
  for var in $vars; do
    if ! grep -rq "$var" README.md docs/; then
      echo "ERROR: $var is read in the code but documented nowhere in README.md or docs/" >&2
      missing=1
    fi
  done
  is_read() {
    grep -rqF "\"$1\"" src bench examples tests perfbench \
      || grep -rqw "$1" scripts/
  }
  rows="$(grep -oE '^\| `S2A_[A-Z0-9_]+`' README.md | sed -E 's/^\| `([^`]+)`/\1/' | sort -u)"
  for var in $rows; do
    if ! is_read "$var"; then
      echo "ERROR: README's env table documents $var but nothing in the tree reads it" >&2
      stale=1
    fi
  done
  assigned="$(grep -ohE '(^|[^A-Za-z0-9_])S2A_[A-Z0-9_]+=' \
                README.md docs/*.md .github/workflows/*.yml \
              | sed -E 's/.*(S2A_[A-Z0-9_]+)=$/\1/' | sort -u)"
  for var in $assigned; do
    if ! is_read "$var"; then
      echo "ERROR: $var= is assigned in README.md, docs/ or CI but nothing in the tree reads it" >&2
      stale=1
    fi
  done
  if [[ "$missing" != 0 || "$stale" != 0 ]]; then
    echo "==> docs consistency FAILED" >&2
    return 1
  fi
  echo "    $(echo "$vars" | wc -l) env vars read, all documented;" \
       "$(echo "$rows" | wc -l) README rows and" \
       "$(echo "$assigned" | wc -l) assigned vars, all read"
}

case "$STAGE" in
  tier1) run_tier1 ;;
  werror) run_werror ;;
  asan) run_asan ;;
  tsan) run_tsan ;;
  perf) run_perf ;;
  docs) run_docs ;;
  perfbench) run_perfbench ;;
  coverage) run_coverage ;;
  all)
    run_tier1
    run_werror
    run_asan
    run_tsan
    run_perf
    run_docs
    run_perfbench
    echo "==> all checks passed"
    ;;
  *)
    echo "usage: $0 [tier1|werror|asan|tsan|perf|docs|perfbench|coverage|all]" >&2
    exit 2
    ;;
esac
