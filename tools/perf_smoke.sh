#!/usr/bin/env sh
# Perf smoke for CI: runs the guarded bench cells and fails when a guard
# fails — a scale cell's wall-clock regresses more than 2x against the
# checked-in baselines, or a self-relative invariant breaks:
#
#   * pinned 500n/2000e  vs bench/baselines/scale_500n_2000e.json
#   * fast   500n/2000e  vs bench/baselines/scale_500n_fast.json
#   * fast  2000n/2000e  vs bench/baselines/scale_500n_fast.json
#     (the fast-field large-topology guard cell: the counter backend is
#      the backend 2000-node-and-beyond runs use, so its asymptotics are
#      the ones worth guarding)
#   * fast  2000n/2000e --threads 0 vs bench/baselines/scale_2000n_fast_mt.json
#     (the intra-run parallel epoch engine on all cores; also guards the
#      pool itself — a deadlocked or serialised pool shows up as >2x)
#   * lossy 500n/2000e: the fast-field 500-node cell at loss 0.15, at
#     --threads 0 vs --threads 1 from the SAME bench_scale_topology run —
#     self-relative. The counter-keyed loss channel must not serialise
#     the parallel epoch engine: the all-cores row must be STRICTLY
#     faster than the sequential row on any multi-core runner (skipped on
#     1-core hosts, where --threads 0 resolves to 1 and the comparison is
#     vacuous).
#   * multi-sink 500n/2000e: 4 sinks (admission) vs 1 sink from the SAME
#     bench_multi_sink run — self-relative, so machine speed divides out.
#     The 3x budget bounds the N-tree overlay's cost: 4 trees quadruple
#     the update/flood planes but share one sensing plane, so a healthy
#     run lands well under 3x and a per-query rebuild or an O(N^2)
#     cross-tree scan shows up immediately.
#   * multi-sink parallel 500n/2000e: the 4-sink admission cell at
#     --threads 0 vs --threads 1 from the SAME bench_multi_sink run —
#     self-relative again. The two-phase epoch engine's parallel sensing
#     phase must make the all-cores row STRICTLY faster than the
#     sequential row on any multi-core runner (skipped on 1-core hosts,
#     where --threads 0 resolves to 1 and the comparison is vacuous); a
#     serialised pool or a commit phase that re-does phase A's work shows
#     up immediately.
#   * serve 500n/2000e: cache-on vs cache-off qps from the SAME
#     bench_serve_throughput run — self-relative and on the virtual
#     clock, so machine speed divides out entirely. Cache-on must answer
#     STRICTLY more queries per virtual second than cache-off at an
#     offered rate above the injection budget; a broken cache (always
#     missing, or no longer consulted) collapses the two to equality.
#
#   tools/perf_smoke.sh [build-dir]     (run from the repo root, against a
#                                        Release build)
#
# The 2x budget absorbs machine variance between the recording host and CI
# runners while still catching asymptotic regressions (the pre-spatial-
# index build could not place 500 nodes at all, and an accidental O(n^2)
# or sequential-RNG reintroduction shows up as >2x long before it reaches
# paper-figure runs).
#
# Every guard runs and prints its verdict (OK, FAIL or SKIP), even after an
# earlier guard failed; the script exits 1 at the end if any guard failed.
# A value missing from a bench document counts as a failed guard. Values are
# read from the bench JSON documents with one extractor, `field`, which
# relies on their one-row-per-line layout (bench/bench_util.hpp).
set -eu

BUILD_DIR=${1:-build}
PINNED_BASELINE=bench/baselines/scale_500n_2000e.json
FAST_BASELINE=bench/baselines/scale_500n_fast.json
MT_BASELINE=bench/baselines/scale_2000n_fast_mt.json
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
CORES=$(nproc 2>/dev/null || echo 1)
FAILED=0

# field FILE KEY FILTER... — KEY's value in the first row of a bench JSON
# document matching every FILTER. A filter is KEY=VALUE, or KEY!=VALUE for
# rows whose KEY differs; string values compare without their quotes.
field() {
  awk '
    function value(row, k,   at, v) {
      at = index(row, "\"" k "\": ")
      if (at == 0) return "\001"
      v = substr(row, at + length(k) + 4)
      if (substr(v, 1, 1) == "\"") { v = substr(v, 2); sub(/".*/, "", v) }
      else sub(/[,}].*/, "", v)
      return v
    }
    BEGIN {
      key = ARGV[2]
      for (i = 3; i < ARGC; ++i) { filter[i - 2] = ARGV[i]; delete ARGV[i] }
      n = ARGC - 3
      delete ARGV[2]
    }
    {
      for (i = 1; i <= n; ++i) {
        f = filter[i]
        neg = index(f, "!=") > 0
        split(f, kv, neg ? "!=" : "=")
        if ((value($0, kv[1]) == kv[2]) == neg) next
      }
      v = value($0, key)
      if (v != "\001") { print v; exit }
    }' "$@"
}

# guard LABEL VALUE OP BOUND [FACTOR] — passes when VALUE OP FACTOR*BOUND
# (OP is <, <= or >; FACTOR defaults to 1). Prints the verdict; a failure,
# or a missing value, is counted in FAILED.
guard() {
  if [ -z "$2" ] || [ -z "$4" ]; then
    echo "perf_smoke: FAIL — $1: could not extract (value='$2' bound='$4')"
    FAILED=$((FAILED + 1))
    return
  fi
  if awk -v label="$1" -v v="$2" -v op="$3" -v b="$4" -v k="${5:-1}" 'BEGIN {
    ok = op == "<" ? v < k * b : op == "<=" ? v <= k * b : v > k * b
    printf "perf_smoke: %s %s: %s %s %s x %s (ratio %.2f)\n",
      ok ? "OK" : "FAIL", label, v, op, k, b, b ? v / b : 0
    exit !ok
  }'; then :; else FAILED=$((FAILED + 1)); fi
}

# run_cells NODES FIELD [THREADS] — one bench_scale_topology run, smooth
# cells only (the burst rows are part of the tracked surface but not of
# this guard, so CI does not pay for rows it ignores).
run_cells() {
  "$BUILD_DIR/bench/bench_scale_topology" --nodes "$1" --epochs 2000 \
    --field "$2" --no-burst --threads "${3:-1}" --json "$OUT" >/dev/null
}

# check BASELINE NODES FIELD — a smooth cell of the last run_cells output
# against the same cell of BASELINE, 2x budget.
check() {
  guard "${2}n/2000e/$3 run_seconds vs baseline" \
    "$(field "$OUT" run_seconds nodes="$2" field="$3" workload=smooth)" "<=" \
    "$(field "$1" run_seconds nodes="$2" field="$3" workload=smooth)" 2
}

run_cells 500 pinned
check "$PINNED_BASELINE" 500 pinned
run_cells 500,2000 fast
check "$FAST_BASELINE" 500 fast
check "$FAST_BASELINE" 2000 fast
# Intra-run parallel cell: all hardware threads on the epoch loop. The
# baseline was recorded sequentially, so any healthy multi-core runner
# lands well under budget; a pool regression (serialisation, contention,
# deadlock-adjacent slowdown) does not.
run_cells 2000 fast 0
check "$MT_BASELINE" 2000 fast

# Lossy parallel guard cell: the 500-node fast cell at loss 0.15, 1 worker
# vs all cores, from one bench run (self-relative, machine speed divides
# out). The "threads" key records the EFFECTIVE count, so the parallel row
# is "the lossy row whose threads != 1".
if [ "$CORES" -gt 1 ]; then
  "$BUILD_DIR/bench/bench_scale_topology" --nodes 500 --epochs 2000 \
    --field fast --loss 0.15 --threads 1,0 --no-burst --json "$OUT" \
    >/dev/null
  guard "500n/2000e lossy run_seconds, threads-N vs threads-1" \
    "$(field "$OUT" run_seconds loss=0.15 threads!=1)" "<" \
    "$(field "$OUT" run_seconds loss=0.15 threads=1)"
else
  echo "perf_smoke: SKIP lossy parallel guard (single-core host)"
fi

# Multi-sink guard cell: one bench run covering the 1-sink and 4-sink
# cells, compared against each other (dirq.msink.v1 rows).
"$BUILD_DIR/bench/bench_multi_sink" --nodes 500 --sinks 1,4 --epochs 2000 \
  --json "$OUT" >/dev/null
guard "500n/2000e multi-sink run_seconds, 4-sink vs 1-sink" \
  "$(field "$OUT" run_seconds sinks=4 routing=admission)" "<=" \
  "$(field "$OUT" run_seconds sinks=1 routing=-)" 3

# Parallel multi-sink guard cell: the 4-sink admission cell at 1 worker vs
# all cores, from one bench run. The "threads" key records the EFFECTIVE
# count, so the parallel row is "the admission row whose threads != 1".
if [ "$CORES" -gt 1 ]; then
  "$BUILD_DIR/bench/bench_multi_sink" --nodes 500 --sinks 4 --epochs 2000 \
    --threads 1,0 --json "$OUT" >/dev/null
  guard "500n/2000e 4-sink run_seconds, threads-N vs threads-1" \
    "$(field "$OUT" run_seconds routing=admission threads!=1)" "<" \
    "$(field "$OUT" run_seconds routing=admission threads=1)"
else
  echo "perf_smoke: SKIP parallel multi-sink guard (single-core host)"
fi

# Serve guard cell: one bench run covering the cache-off and cache-on
# cells at rate 20 / 1 sink (dirq.serve_bench.v1 rows); the invariant is
# on the virtual clock, so it is exact, not a wall budget.
"$BUILD_DIR/bench/bench_serve_throughput" --nodes 500 --rates 20 --sinks 1 \
  --duration 2000 --json "$OUT" >/dev/null
guard "500n/2000e serve qps, cache-on vs cache-off" \
  "$(field "$OUT" qps cache=true)" ">" "$(field "$OUT" qps cache=false)"

if [ "$FAILED" -gt 0 ]; then
  echo "perf_smoke: $FAILED guard(s) failed"
  exit 1
fi
echo "perf_smoke: all guards passed"
