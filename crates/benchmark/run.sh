#!/usr/bin/env bash
# The benchmark command. Builds the harness, pins the allocator so that
# timed sections take no fresh-page faults, then runs it.
#
#   run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#       one run; the last stdout line is the JSON result
#   run.sh [--seed N] [--seconds S]
#       every workload, untraced then traced, one process each
#   run.sh --repeat N [--seed N] [--seconds S]
#       the whole benchmark N times, then per metric x workload the
#       relative difference between the sets against its bound
#   run.sh --probes
#       the isolated layer probes only
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/../.."
target="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --quiet -p tpcc-benchmark
bin="$target/release/tpcc-benchmark"

# One malloc arena, never trimmed back to the kernel, large blocks from
# the heap too: memory a repetition frees is reused by the next one
# instead of being unmapped and faulted in again. On this class of host
# a fresh-page fault costs tens of microseconds, which is the size of a
# transaction.
export GLIBC_TUNABLES="glibc.malloc.arena_max=1:glibc.malloc.trim_threshold=4000000000:glibc.malloc.mmap_threshold=33554432"

workloads=(serial-wal serial-nolog-miss contended-mvcc pipeline-gc-cdc cluster-2pc model-sweep)
repeat=0
single=0
pass=()
while (($#)); do
  case "$1" in
    --repeat) repeat="$2"; shift 2 ;;
    --workload|--probes|--emit-spec|--report) single=1; pass+=("$1"); shift ;;
    *) pass+=("$1"); shift ;;
  esac
done

if ((single)); then
  exec "$bin" "${pass[@]}"
fi

# one full set: every workload, untraced then traced; with a file
# argument the result lines are also collected there
run_set() {
  local out="${1:-}"
  for w in "${workloads[@]}"; do
    for trace in 0 1; do
      "$bin" --workload "$w" --trace "$trace" ${pass[@]+"${pass[@]}"} | tee "$target/tpcc-benchmark/last-run.txt"
      if [[ -n "$out" ]]; then
        echo "$w $trace $(tail -n 1 "$target/tpcc-benchmark/last-run.txt")" >>"$out"
      fi
    done
  done
}

mkdir -p "$target/tpcc-benchmark"
if ((repeat < 2)); then
  run_set
  exit 0
fi
sets=()
for ((i = 1; i <= repeat; i++)); do
  set_file="$target/tpcc-benchmark/set-$i.txt"
  : >"$set_file"
  run_set "$set_file"
  sets+=("$set_file")
done
"$bin" --report "${sets[@]}"
