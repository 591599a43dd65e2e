#!/usr/bin/env bash
# Mutation validation for the Tier C happens-before checker: proves the
# checker's silence on the clean tree is load-bearing, not vacuous.
#
#   1. Clean tree: dataflow_lint reports ZERO RC/DT findings over the full
#      12-variant x LUBM-shape corpus + runtime probe + serving workload,
#      and its output is byte-identical between --threads=1 and --threads=8.
#   2. -DRDFSPARK_MUTATE_NO_SLOT_LOCK=ON removes the per-partition cache
#      slot lock (and, via the same macro, its lockset record): the probe's
#      sibling tasks now conflict and dataflow_lint must exit 1 with an
#      RC001 or RC003 finding — at --threads=1, where no physical race can
#      possibly occur, because the verdict is structural.
#   3. -DRDFSPARK_MUTATE_CACHED_PLAIN=ON downgrades RddNodeBase::cached_
#      from std::atomic<bool> to a plain bool (and its event records from
#      atomic to plain): the uncache-vs-read probe stage must fire RC003.
#   Each mutated run executes twice and the outputs are byte-compared, so
#   the *findings* are shown to be as deterministic as the silence.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_TYPE="${RDFSPARK_MUTATION_BUILD_TYPE:-RelWithDebInfo}"

echo "=== mutation check 0/2: clean tree is silent and deterministic ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE="${BUILD_TYPE}" >/dev/null
cmake --build build -j --target dataflow_lint
# The full four-tier matrix exits 1 by design on its two pinned RS002
# true positives (see ci.yml's lint step), so exit 1 is not a failure here.
./build/tools/dataflow_lint --threads=1 > /tmp/mutcheck_clean_t1.txt \
  || test $? -eq 1
./build/tools/dataflow_lint --threads=8 > /tmp/mutcheck_clean_t8.txt \
  || test $? -eq 1
diff /tmp/mutcheck_clean_t1.txt /tmp/mutcheck_clean_t8.txt
if grep -qE "\[(RC00[123]|DT00[123])\]" /tmp/mutcheck_clean_t1.txt; then
  echo "FAIL: clean tree produced RC/DT findings"
  exit 1
fi
grep -q "tier C findings: 0 error(s), 0 warning(s)" /tmp/mutcheck_clean_t1.txt
echo "clean tree: silent, --threads=1 == --threads=8"

run_mutation() {
  local name="$1" flag="$2" pattern="$3"
  local builddir="build-mut-${name}"
  echo
  echo "=== mutation check (${name}): ${flag} must fire ${pattern} ==="
  cmake -B "${builddir}" -S . -DCMAKE_BUILD_TYPE="${BUILD_TYPE}" \
    "-D${flag}=ON" >/dev/null
  cmake --build "${builddir}" -j --target dataflow_lint
  local out1="/tmp/mutcheck_${name}_1.txt" out2="/tmp/mutcheck_${name}_2.txt"
  # The mutated checker must fail (exit 1) with the expected rule, and the
  # findings must be identical across two serial runs: a structural
  # verdict, not a lucky interleaving.
  local status=0
  ./"${builddir}"/tools/dataflow_lint --threads=1 --serving-workers=1 \
    > "${out1}" || status=$?
  if [ "${status}" -ne 1 ]; then
    echo "FAIL: mutated lint exited ${status}, expected 1"
    exit 1
  fi
  status=0
  ./"${builddir}"/tools/dataflow_lint --threads=1 --serving-workers=1 \
    > "${out2}" || status=$?
  if [ "${status}" -ne 1 ]; then
    echo "FAIL: mutated lint rerun exited ${status}, expected 1"
    exit 1
  fi
  diff "${out1}" "${out2}"
  grep -qE "${pattern}" "${out1}" || {
    echo "FAIL: expected ${pattern} in mutated output"
    exit 1
  }
  echo "${name}: fires $(grep -cE "${pattern}" "${out1}") ${pattern} finding(s), deterministically"
}

run_mutation lock RDFSPARK_MUTATE_NO_SLOT_LOCK "\[(RC001|RC003)\]"
run_mutation atomic RDFSPARK_MUTATE_CACHED_PLAIN "\[RC003\]"

echo
echo "mutation check: OK"
