#!/usr/bin/env bash
# Dedicated ThreadSanitizer pass over the concurrency-sensitive suites:
# the scheduler/RDD runtime (rdd_property_test's cluster grid, up to 16
# executors x 32 partitions on the pool, is the widest concurrent run of
# the shuffle's per-source staging), the GraphX layer (whose vertex attributes
# are shared objects that pool helpers read at once), the engines that
# drive it (fuzz_conformance_test runs every variant's random BGPs on the
# pool), EXPLAIN ANALYZE
# (whose per-operator actuals must match across thread counts while
# chunks fold their charges concurrently), the serving layer and its
# telemetry sink (fed from several workers at once), and the
# happens-before checker itself (whose verdicts must hold on the same
# binaries TSan watches). tier1.sh delegates here; CI runs it as its own
# job so a TSan failure is attributable at a glance.
set -euo pipefail

cd "$(dirname "$0")/.."

SUITES=(scheduler_test rdd_test rdd_property_test graphx_test graphx_property_test \
  dataframe_test engines_test fuzz_conformance_test plan_explain_test \
  explain_analyze_test tracing_test serving_test obs_test hb_test)

echo "=== ThreadSanitizer (${SUITES[*]}) ==="
cmake -B build-tsan -S . -DRDFSPARK_TSAN=ON >/dev/null
cmake --build build-tsan -j --target "${SUITES[@]}"
for suite in "${SUITES[@]}"; do
  TSAN_OPTIONS="halt_on_error=1" "./build-tsan/tests/${suite}"
done

echo
echo "tsan: OK"
