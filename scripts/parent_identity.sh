#!/usr/bin/env bash
# Parent-identity check for behaviour-preserving changes: builds <ref> from
# `git archive` in a scratch directory, then byte-compares the working
# tree's deterministic outputs against the ones <ref> produces:
#
#   * query_profile text, --json and --trace;
#   * dataflow_lint text and --json at --threads=1 and 8, with
#     --footprint-dir, and its exit status (1 by design: two RS002 errors);
#   * bench_table1/2/fig1;
#   * serve_bench telemetry directories at 60 and 2,000 requests, at
#     --threads=1 and 8;
#   * the BENCH_joins / BENCH_lubm total shuffle bytes (bench_gate with a
#     zero bound in both directions).
#
# Usage: scripts/parent_identity.sh <ref> [scratch-dir]
#   scratch-dir defaults to ${TMPDIR:-/tmp}/rdfspark_parent_identity; the
#   ref's source and build tree are kept there per commit, so a rerun only
#   rebuilds the working tree. JOBS sets the build parallelism (default 3).
# Prints "parent identity: OK" when every output matches.
set -euo pipefail

ref="${1:?usage: scripts/parent_identity.sh <ref> [scratch-dir]}"
cd "$(dirname "$0")/.."
scratch="${2:-${TMPDIR:-/tmp}/rdfspark_parent_identity}"
jobs="${JOBS:-3}"
targets=(query_profile dataflow_lint serve_bench bench_gate bench_table1
  bench_table2 bench_fig1 bench_joins bench_lubm)

commit="$(git rev-parse --verify "${ref}^{commit}")"
refdir="${scratch}/${commit}"
if [ ! -d "${refdir}/src" ]; then
  rm -rf "${refdir}/src.tmp"
  mkdir -p "${refdir}/src.tmp"
  git archive "${commit}" | tar -x -C "${refdir}/src.tmp"
  mv "${refdir}/src.tmp" "${refdir}/src"
fi

echo "=== build ${ref} (${commit}) ==="
cmake -B "${refdir}/build" -S "${refdir}/src" >/dev/null
cmake --build "${refdir}/build" -j"${jobs}" --target "${targets[@]}" >/dev/null
echo "=== build working tree ==="
cmake -B build -S . >/dev/null
cmake --build build -j"${jobs}" --target "${targets[@]}" >/dev/null

# Writes every compared output of the tree built in <build> to <out>.
capture() {
  local build="$1" out="$2"
  local tools="${build}/tools" bench="${build}/bench"
  rm -rf "${out}"
  mkdir -p "${out}"
  "${tools}/query_profile" > "${out}/query_profile.txt"
  "${tools}/query_profile" --json --trace "${out}/query_profile_trace.json" \
    > "${out}/query_profile.json"
  local n req status
  for n in 1 8; do
    status=0
    "${tools}/dataflow_lint" --threads="${n}" \
      --footprint-dir="${out}/footprint_t${n}" \
      > "${out}/dataflow_lint_t${n}.txt" || status=$?
    echo "exit ${status}" >> "${out}/dataflow_lint_t${n}.txt"
    status=0
    "${tools}/dataflow_lint" --threads="${n}" --json \
      > "${out}/dataflow_lint_t${n}.json" || status=$?
    echo "exit ${status}" >> "${out}/dataflow_lint_t${n}.json"
    for req in 60 2000; do
      RDFSPARK_BENCH_JSON_DIR= "${tools}/serve_bench" --tenants=4 --workers=8 \
        --requests="${req}" --threads="${n}" --warmup=2 \
        --telemetry-dir="${out}/telemetry_${req}_t${n}" > /dev/null
    done
  done
  local artifact
  for artifact in table1 table2 fig1; do
    "${bench}/bench_${artifact}" > "${out}/bench_${artifact}.txt"
  done
  mkdir -p "${out}/bench_json"
  RDFSPARK_BENCH_JSON_DIR="${out}/bench_json" "${bench}/bench_joins" \
    --benchmark_filter=none > /dev/null
  RDFSPARK_BENCH_JSON_DIR="${out}/bench_json" "${bench}/bench_lubm" \
    --benchmark_filter=none > /dev/null
}

echo "=== capture ${ref} ==="
capture "${refdir}/build" "${scratch}/out_ref"
echo "=== capture working tree ==="
capture build "${scratch}/out_tree"

echo "=== compare ==="
# The bench JSON rows carry wall times; only their shuffle totals compare.
diff -r --exclude=bench_json "${scratch}/out_ref" "${scratch}/out_tree"
for bench in joins lubm; do
  ref_json="${scratch}/out_ref/bench_json/BENCH_${bench}.json"
  tree_json="${scratch}/out_tree/bench_json/BENCH_${bench}.json"
  ./build/tools/bench_gate --candidate="${tree_json}" \
    --baseline="${ref_json}" --max-regression=0
  ./build/tools/bench_gate --candidate="${ref_json}" \
    --baseline="${tree_json}" --max-regression=0
done

echo
echo "parent identity: OK"
