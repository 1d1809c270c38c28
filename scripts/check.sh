#!/usr/bin/env bash
# Repository check gate: tier-1 build + full test suite, then a ThreadSanitizer build
# of the concurrency-sensitive surface (message bus / protocol threads / parallel
# layer). Run from anywhere; builds land in build*/ directories at the repo root.
#
# Usage: scripts/check.sh [--tier1-only] [--preset debug|release|asan|tsan|static]
#
#   (no flags)        tier-1 (RelWithDebInfo build + full ctest) then the TSan gate —
#                     unchanged historical behaviour.
#   --tier1-only      tier-1 only, skip the TSan gate.
#   --preset NAME     run exactly one CI leg:
#     debug           Debug build + full ctest                    (build-debug/)
#     release         Release build + full ctest                  (build-release/)
#     asan            ASan+UBSan build + full ctest               (build-asan/)
#     tsan            TSan build + concurrency-suite gtest filter (build-tsan/)
#     static          deta_lint (strict + selftest), deta_taintcheck (selftest +
#                     tree), Secret<T> negative-compile gate, clang -Wthread-safety
#                     build, thread-safety negative-compile gate, clang-tidy
#                     (build-static/). The clang legs SKIP with a message when
#                     clang/clang-tidy are not installed (the python legs always
#                     run); CI installs both.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"
jobs="$(nproc 2>/dev/null || echo 2)"

# The TSan gate covers the suites that exercise real threads: the shared send pipeline
# and its fault injector on both backends (the bus and a loopback TCP transport, whose
# event loop delivers concurrently with senders), retry/secure-channel, the deterministic parallel layer, telemetry, the
# Paillier batch encrypt/decrypt fan-out (pool workers share one Montgomery context,
# so its scratch must stay per call), and the aggregator/party/job protocol stack.
# The Trans suites run too: a round's shuffle tables fill from ParallelFor chunks, then
# gather and scatter in nested regions. So does the training known-answer test: its
# digest, taken at -O2, must hold under TSan's instrumentation as in every other build.
# Filtering keeps the (slow, ~10x) sanitized run feasible on small containers.
tsan_filter='MessageBus*:TcpTransportTest*:EndpointDedupTest*:EndpointStashTest*:FaultInjector*:Retry*:SecureChannel*:Codec*:ParallelFor*:ParallelReduce*:DefaultThreads*:ThreadInvariance*:AggregatorNode*:KeyBroker*:Auth*:Telemetry*:DetaJobFaultTest.QuorumFailureIsTypedNotAHang:*TransportConformanceTest.AuthHandshakeVerifiesAndRejects*:*TransportConformanceTest.KeyFetchServesIdenticalMaterial*:PaillierTest.*:PaillierCrtDifferentialTest.*:ShufflerTest.*:TransformTest.*:*TransformCommuteTest.*:ModelMapperTest.*:*MapperPropertyTest.*:PartyTest.TrainingKnownAnswerDigest'

cmake_flags_for_preset() {
  case "$1" in
    debug)   echo "-DCMAKE_BUILD_TYPE=Debug" ;;
    release) echo "-DCMAKE_BUILD_TYPE=Release" ;;
    asan)    echo "-DCMAKE_BUILD_TYPE=RelWithDebInfo -DDETA_SANITIZE=address,undefined" ;;
    tsan)    echo "-DCMAKE_BUILD_TYPE=RelWithDebInfo -DDETA_SANITIZE=thread" ;;
    *)       echo "unknown preset: $1 (debug|release|asan|tsan|static)" >&2; exit 2 ;;
  esac
}

run_preset() {
  local preset="$1"
  local build_dir="build-${preset}"
  local flags
  flags="$(cmake_flags_for_preset "${preset}")"
  echo "==> ${preset}: configure + build (${build_dir})"
  # shellcheck disable=SC2086
  cmake -B "${build_dir}" -S . ${flags} >/dev/null
  cmake --build "${build_dir}" -j "${jobs}"
  if [[ "${preset}" == "tsan" ]]; then
    echo "==> ${preset}: net/core/parallel/telemetry suites"
    TSAN_OPTIONS="halt_on_error=1" \
      "./${build_dir}/tests/deta_tests" --gtest_filter="${tsan_filter}"
  else
    echo "==> ${preset}: ctest"
    (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
  fi
  if [[ "${preset}" == "asan" ]]; then
    # Durability gate: re-run the snapshot codec/store suites, the Paillier key codec,
    # and crash-revive (plain and Paillier) and whole-job-resume scenarios with
    # halt_on_error, so a heap error anywhere on the crash/restore path fails the leg
    # immediately instead of being absorbed by ctest's per-test process isolation.
    echo "==> ${preset}: durability crash/resume gate"
    ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
      "./${build_dir}/tests/deta_tests" \
      --gtest_filter='PersistCodecTest.*:PersistSealTest.*:StateStoreTest.*:CheckpointTest.*:PaillierTest.KeyCodec*:CrashResumeTest.FollowerCrashMidRunIsLossless:CrashResumeTest.PaillierPartyCrashIsLossless:CrashResumeTest.WholeJobResumeMatchesUninterruptedRun'
  fi
  echo "==> OK (${preset})"
}

# Static-analysis leg. Two always-on checks (pure python) and three clang-only checks
# that degrade to an explicit SKIP when the toolchain is missing, so the preset is
# useful both in CI (clang installed, everything runs) and in minimal containers.
run_static() {
  local python="${PYTHON:-python3}"

  echo "==> static: deta_lint fixture selftest"
  "${python}" scripts/deta_lint.py --selftest

  echo "==> static: deta_lint --strict over src/ + tests/"
  "${python}" scripts/deta_lint.py --strict

  echo "==> static: deta_taintcheck fixture selftest"
  "${python}" scripts/deta_taintcheck.py --selftest

  echo "==> static: deta_taintcheck over the tree"
  "${python}" scripts/deta_taintcheck.py --report taint-report.json

  echo "==> static: Secret<T> negative-compile gate"
  local rc=0
  scripts/secret_negcompile.sh "${repo_root}" || rc=$?
  if [[ "${rc}" -eq 77 ]]; then
    echo "==> static: SKIP Secret<T> negative-compile (no C++ compiler found)"
  elif [[ "${rc}" -ne 0 ]]; then
    return "${rc}"
  fi

  if ! command -v clang++ >/dev/null 2>&1; then
    echo "==> static: SKIP clang legs (clang++ not installed; annotations are no-ops under gcc)"
    echo "==> OK (static — python legs + negative-compile only)"
    return 0
  fi

  echo "==> static: clang build with -Wthread-safety -Werror=thread-safety (build-static)"
  cmake -B build-static -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-static -j "${jobs}"

  echo "==> static: thread-safety negative-compile gate"
  scripts/thread_safety_negcompile.sh "${repo_root}"

  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "==> static: SKIP clang-tidy (not installed)"
    echo "==> OK (static — no clang-tidy)"
    return 0
  fi

  echo "==> static: clang-tidy over src/ (compile_commands from build-static)"
  # run-clang-tidy parallelizes when available; fall back to a plain loop.
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p build-static "${repo_root}/src/.*\.cc$"
  else
    find src -name '*.cc' -print0 | xargs -0 -n 8 -P "${jobs}" \
      clang-tidy -quiet -p build-static
  fi

  echo "==> OK (static)"
}

if [[ "${1:-}" == "--preset" ]]; then
  [[ -n "${2:-}" ]] || { echo "--preset requires an argument" >&2; exit 2; }
  if [[ "$2" == "static" ]]; then
    run_static
    exit 0
  fi
  run_preset "$2"
  exit 0
fi

echo "==> tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}"

echo "==> tier-1: ctest"
(cd build && ctest --output-on-failure -j "${jobs}")

if [[ "${1:-}" == "--tier1-only" ]]; then
  echo "==> OK (tier-1 only)"
  exit 0
fi

run_preset tsan
echo "==> OK"
