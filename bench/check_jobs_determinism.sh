#!/bin/sh
# --jobs determinism of the reproduction benches: the parallel harness must
# not change what they print. Runs each bench under --jobs 1 and --jobs 4
# and compares the outputs: fig8_policy_selection and generations_sweep
# byte for byte, suite_launch_log with its wall-time decision_overhead_s
# column (CSV column 9) blanked. Exits 1 on any difference.
#
# Usage: sh bench/check_jobs_determinism.sh BENCH_BIN_DIR WORK_DIR
set -eu
bin=$1
work=$2
mkdir -p "$work"
status=0

# run NAME ARGS...: NAME's stdout under --jobs 1 and --jobs 4.
run() {
  name=$1
  shift
  "$bin/$name" "$@" --jobs 1 > "$work/$name.jobs1"
  "$bin/$name" "$@" --jobs 4 > "$work/$name.jobs4"
}

# same FILE1 FILE2 LABEL: report whether the two files are identical.
same() {
  if [ "$(wc -l < "$1")" -lt 2 ]; then
    echo "FAIL: $3 printed less than two lines"
    status=1
  elif cmp -s "$1" "$2"; then
    echo "ok: $3"
  else
    echo "FAIL: $3 differs between --jobs 1 and --jobs 4"
    diff "$1" "$2" | head -20
    status=1
  fi
}

run fig8_policy_selection --scale 16
same "$work/fig8_policy_selection.jobs1" "$work/fig8_policy_selection.jobs4" \
  "fig8_policy_selection --scale 16"

run generations_sweep --scale 16
same "$work/generations_sweep.jobs1" "$work/generations_sweep.jobs4" \
  "generations_sweep --scale 16"

run suite_launch_log
column=$(head -n 1 "$work/suite_launch_log.jobs1" | cut -d, -f9)
if [ "$column" != "decision_overhead_s" ]; then
  echo "FAIL: suite_launch_log column 9 is '$column', not decision_overhead_s"
  exit 1
fi
for jobs in 1 4; do
  awk -F, -v OFS=, '{ $9 = ""; print }' "$work/suite_launch_log.jobs$jobs" \
    > "$work/suite_launch_log.jobs$jobs.csv"
done
same "$work/suite_launch_log.jobs1.csv" "$work/suite_launch_log.jobs4.csv" \
  "suite_launch_log (decision_overhead_s aside)"

exit $status
