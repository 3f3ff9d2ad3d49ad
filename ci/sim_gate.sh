#!/usr/bin/env bash
# Exact gate on simulated cycles. Compares a benchmark result set with
# the committed reference and fails unless all eight simulated tick rows
# (tick_per_op and op_p50/p99/p999_tick of hybrid-kv-sim and
# hybrid-bank-sim) are bit-identical. The native rows and the two
# host-measured simulated rows (setup_s, peak_rss_mb) are printed, not
# gated, so compare's own exit code does not decide the gate.
#
#   ci/sim_gate.sh <nztm-benchmark binary> <reference.jsonl> <current.jsonl>
set -euo pipefail
[ $# -eq 3 ] || { echo "usage: $0 <nztm-benchmark> <reference.jsonl> <current.jsonl>" >&2; exit 2; }
spec="$(dirname "$0")/../BENCHMARK.json"
table=$("$1" compare "$2" "$3" --spec "$spec" || true)
echo "$table"
rows=$(grep -E '^hybrid-(kv|bank)-sim +(tick_per_op|op_p50_tick|op_p99_tick|op_p999_tick) ' <<<"$table" || true)
total=$(grep -c . <<<"$rows" || true)
identical=$(grep -c 'ok (identical)$' <<<"$rows" || true)
if [ "$total" -ne 8 ] || [ "$identical" -ne 8 ]; then
  echo "sim gate: $identical of $total simulated tick rows identical to $2 (want 8 of 8)" >&2
  grep -v 'ok (identical)$' <<<"$rows" >&2 || true
  exit 1
fi
echo "sim gate: 8 of 8 simulated tick rows identical to $2"
