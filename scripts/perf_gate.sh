#!/usr/bin/env bash
# Perf regression gate on the serving hot path, two rows in a Release
# build:
#
# 1. BM_PredictManyResnet50 (512 queries answered by one compiled-plan
#    PredictMany sweep) fails when the amortized cost exceeds 2x the
#    checked-in baseline (bench/predict_many_baseline.txt). The baseline
#    is deliberately loose — a regression tripwire for "someone put a
#    hash lookup / allocation back into the per-query loop" (a >=10x
#    slip), not a precision benchmark. Machine-to-machine noise of tens
#    of percent passes; reverting the plan compilation does not.
# 2. BM_ServingAdaptiveDetect runs the chaos serving config at simulated
#    durations D and 4D and fails when the cost per arrival at 4D is more
#    than 1.5x the cost at D: the serving core must stay linear in run
#    length (a per-retry sort of every service time seen so far made it
#    ~4x). Both rows come from one run of one binary, so the ratio needs
#    no per-machine baseline.
#
# Every failure mode is a single actionable line on stderr + exit 1:
# missing bench binary, missing/corrupt baseline file, or a regression.
#
# Usage: scripts/perf_gate.sh [build_dir]
# Override the PredictMany threshold with GPUPERF_PERF_GATE_MAX_NS
# (ns/query).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
BASELINE_FILE="bench/predict_many_baseline.txt"
BENCH="./$BUILD/bench/bench_speed_predictor"

if [ ! -f "$BASELINE_FILE" ]; then
  echo "perf_gate: FAIL — baseline file '$BASELINE_FILE' is missing;" \
       "restore it from git (it pins the ns/query reference)" >&2
  exit 1
fi
# First non-comment token; the file carries the reference ns/query.
BASELINE_NS_PER_QUERY="$(grep -v '^#' "$BASELINE_FILE" | awk 'NF {print $1; exit}')"
case "$BASELINE_NS_PER_QUERY" in
  ''|*[!0-9]*)
    echo "perf_gate: FAIL — baseline file '$BASELINE_FILE' must contain a" \
         "positive integer ns/query value, got '$BASELINE_NS_PER_QUERY'" >&2
    exit 1
    ;;
esac
MAX_NS_PER_QUERY="${GPUPERF_PERF_GATE_MAX_NS:-$((BASELINE_NS_PER_QUERY * 2))}"

MAX_LINEARITY=1.5
SIM_BENCH="./$BUILD/bench/bench_speed_simsys"

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target bench_speed_predictor bench_speed_simsys \
  >/dev/null || true
for binary in "$BENCH" "$SIM_BENCH"; do
  if [ ! -x "$binary" ]; then
    echo "perf_gate: FAIL — Release bench binary '$binary' is missing;" \
         "build it with: cmake --build $BUILD --target $(basename "$binary")" >&2
    exit 1
  fi
done

ROW="$("$BENCH" \
  --benchmark_filter='^BM_PredictManyResnet50$' \
  --benchmark_min_time=0.5 \
  --benchmark_format=csv 2>/dev/null | grep '^"BM_PredictManyResnet50"')"

# CSV columns: name,iterations,real_time,cpu_time,time_unit,
# bytes_per_second,items_per_second,... items_per_second is queries/s.
NS_PER_QUERY="$(echo "$ROW" | awk -F, '{printf "%.0f", 1e9 / $7}')"
RATIO="$(awk -v m="$NS_PER_QUERY" -v b="$BASELINE_NS_PER_QUERY" \
             'BEGIN {printf "%.2f", m / b}')"

echo "perf_gate: BM_PredictManyResnet50 ${NS_PER_QUERY} ns/query —" \
     "${RATIO}x the checked-in baseline (${BASELINE_NS_PER_QUERY} ns," \
     "max ${MAX_NS_PER_QUERY} ns)"
if [ "$NS_PER_QUERY" -gt "$MAX_NS_PER_QUERY" ]; then
  echo "perf_gate: FAIL — PredictMany at ${NS_PER_QUERY} ns/query is" \
       "${RATIO}x baseline (limit ${MAX_NS_PER_QUERY} ns)" >&2
  exit 1
fi

# On a shared host one 0.5 s sample per row can land in a slow spell
# that the other row misses, so each row is the median of 5 repetitions
# run in random interleaved order. Rows are "<name>/<duration>_median";
# the shorter duration is D. Column 7 is items_per_second (arrivals/s),
# so cost(4D) / cost(D) = ips(D) / ips(4D).
SIM_ROWS="$("$SIM_BENCH" \
  --benchmark_filter='^BM_ServingAdaptiveDetect/' \
  --benchmark_min_time=0.5 \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=csv 2>/dev/null |
  grep '^"BM_ServingAdaptiveDetect/[0-9]*_median"' || true)"
if [ "$(echo "$SIM_ROWS" | grep -c .)" -ne 2 ]; then
  echo "perf_gate: FAIL — expected 2 BM_ServingAdaptiveDetect median rows" \
       "(D and 4D) from '$SIM_BENCH', got: '$SIM_ROWS'" >&2
  exit 1
fi
LINEARITY="$(echo "$SIM_ROWS" | awk -F, '
  {name = $1; gsub(/"|_median/, "", name);
   duration = name; sub(/.*\//, "", duration); duration += 0}
  NR == 1 || duration < short_d {short = name; short_d = duration; short_ips = $7}
  NR == 1 || duration > long_d {long = name; long_d = duration; long_ips = $7}
  END {printf "%.2f %s %s %.0f %.0f", short_ips / long_ips, short, long,
              1e9 / short_ips, 1e9 / long_ips}')"
read -r RATIO_4D SHORT_ROW LONG_ROW SHORT_NS LONG_NS <<<"$LINEARITY"
echo "perf_gate: ${LONG_ROW} ${LONG_NS} ns/arrival vs ${SHORT_ROW}" \
     "${SHORT_NS} ns/arrival — ${RATIO_4D}x (max ${MAX_LINEARITY}x)"
if awk -v r="$RATIO_4D" -v m="$MAX_LINEARITY" 'BEGIN {exit !(r > m)}'; then
  echo "perf_gate: FAIL — serving cost per arrival grows with run length:" \
       "${RATIO_4D}x at 4x the duration (limit ${MAX_LINEARITY}x)" >&2
  exit 1
fi
echo "perf_gate: OK"
