#!/usr/bin/env bash
# Tier-1 verification: full release build + test suite, then the threading
# layer and the simmpi runtime under ThreadSanitizer (AEQP_SANITIZE=thread),
# then every test binary under AddressSanitizer (AEQP_SANITIZE=address) and
# UndefinedBehaviorSanitizer (AEQP_SANITIZE=undefined): all ctest entries but
# the smoke_bench_* wall-time rails and the *_chaos_soak soaks.
# Run from the repository root:  scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: release build + full ctest =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "== tier 1: perf-regression sentinel self-test =="
python3 scripts/bench_history.py self-test

echo "== tier 1: TSan build (AEQP_SANITIZE=thread) =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAEQP_SANITIZE=thread
cmake --build build-tsan -j --target test_exec test_parallel_comm test_obs test_memobs test_elastic test_sdc test_service test_membudget test_rho_batch test_straggler test_parallel_dfpt

echo "== tier 1: exec + simmpi + obs + memobs + elastic + sdc + service + membudget + rho-batch + straggler + parallel-dfpt tests under TSan =="
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -R 'test_exec|test_parallel_comm|test_obs|test_memobs|test_elastic|test_sdc|test_service|test_membudget|test_rho_batch|test_straggler|test_parallel_dfpt'

echo "== tier 1: ASan build (AEQP_SANITIZE=address) =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAEQP_SANITIZE=address
cmake --build build-asan -j --target aeqp_tests

echo "== tier 1: every test binary under ASan (no smoke benches, no soaks) =="
ctest --test-dir build-asan --output-on-failure -j -E '^smoke_bench_|_chaos_soak$'

echo "== tier 1: UBSan build (AEQP_SANITIZE=undefined) =="
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAEQP_SANITIZE=undefined
cmake --build build-ubsan -j --target aeqp_tests

echo "== tier 1: every test binary under UBSan (no smoke benches, no soaks) =="
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir build-ubsan --output-on-failure -j -E '^smoke_bench_|_chaos_soak$'

echo "tier1: OK"
