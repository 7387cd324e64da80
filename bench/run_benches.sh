#!/usr/bin/env bash
# Bench trajectory: runs bench_throughput (serialized/concurrent sync
# rows plus the staged async and in-flight-per-core rows in one binary),
# bench_im_generation, bench_trace_overhead (median and quartiles of
# the per-pair enabled/noop tracing overhead), bench_resilience
# (retry/breaker goodput against a chaotic resource), bench_overload
# (goodput/shed-rate/p99 as offered load sweeps 1x-10x of pipeline
# capacity), bench_ingress (in-process vs over-the-wire goodput/p99
# through the networked ingress front-end at 1x/10x), and bench_cluster
# (goodput/p99 at 1/2/4/8 consistent-hash shards behind the cluster
# front-end, the mid-run shard-kill failover row, the diff-based
# replication byte savings, the PR-9 rebalance row — a 5th shard
# joins and a shard leaves mid-feed; gated on exactly-once callbacks,
# moved keyspace <= ~1/5, and post-resize goodput >= 0.9x the pre-join
# plateau, plus 4-shard goodput >= 3x 1-shard, relaxed to 2.5x in smoke
# mode — and the session-resume row: sessions checkpointed into the
# front-end's cache, whose owner dies mid-feed, must close on the
# survivor (which imports the cached checkpoint first) with exactly one
# re-executed step each and post-failover goodput >= 0.9x the pre-kill
# plateau; the row also reports the network messages it sent), then
# composes their JSON outputs into one consolidated file.
# The file also records src_lines, the total line count of src/*.cpp and
# src/*.hpp, the code-size figure the roadmap tracks. A last compare
# step (bench/compare_bench.py) lists every metric that moved by more
# than its noise band against the newest BENCH_<n>.json; it reports and
# never fails the run.
#
# Usage: bench/run_benches.sh [build-dir] <pr> | [build-dir] --smoke
#   build-dir  defaults to <repo>/build
#   pr         full run: writes BENCH_<pr>.json at the repo root
#   --smoke    small rep counts (CI bit-rot check, numbers not
#              meaningful); writes <build-dir>/BENCH_smoke.json and
#              leaves the tracked BENCH_<n>.json files alone
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build"
PR=""
SMOKE=0
positional=()
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    *) positional+=("$arg") ;;
  esac
done
case "${#positional[@]}" in
  0) ;;
  1) if [ "$SMOKE" = 1 ]; then BUILD="${positional[0]}"; else PR="${positional[0]}"; fi ;;
  2) BUILD="${positional[0]}"; PR="${positional[1]}" ;;
  *) echo "usage: $0 [build-dir] <pr> | [build-dir] --smoke" >&2; exit 2 ;;
esac
if [ "$SMOKE" = 0 ] && ! [[ "$PR" =~ ^[0-9]+$ ]]; then
  echo "a full run needs the PR number: $0 [build-dir] <pr>" >&2
  exit 2
fi
BENCH_DIR="$BUILD/bench"

for binary in bench_throughput bench_im_generation bench_trace_overhead \
              bench_resilience bench_overload bench_ingress \
              bench_cluster; do
  if [ ! -x "$BENCH_DIR/$binary" ]; then
    echo "missing $BENCH_DIR/$binary — build the repo first" >&2
    exit 1
  fi
done

if [ "$SMOKE" = 1 ]; then
  throughput_json="$("$BENCH_DIR/bench_throughput" --smoke --json)"
  im_json="$("$BENCH_DIR/bench_im_generation" --json --cycles 2000)"
  resilience_json="$("$BENCH_DIR/bench_resilience" --smoke)"
  overload_json="$("$BENCH_DIR/bench_overload" --smoke --json)" || true
  ingress_json="$("$BENCH_DIR/bench_ingress" --smoke --json)" || true
  cluster_json="$("$BENCH_DIR/bench_cluster" --smoke --json --min-scaling 2.5)"
else
  throughput_json="$("$BENCH_DIR/bench_throughput" --json)"
  im_json="$("$BENCH_DIR/bench_im_generation" --json)"
  resilience_json="$("$BENCH_DIR/bench_resilience")"
  overload_json="$("$BENCH_DIR/bench_overload" --json)" || true
  ingress_json="$("$BENCH_DIR/bench_ingress" --json)" || true
  cluster_json="$("$BENCH_DIR/bench_cluster" --json)"
fi
trace_json="$("$BENCH_DIR/bench_trace_overhead")"
src_lines="$(find "$ROOT/src" -name '*.cpp' -o -name '*.hpp' | xargs cat | wc -l)"

if [ "$SMOKE" = 1 ]; then
  OUT="$BUILD/BENCH_smoke.json"
else
  OUT="$ROOT/BENCH_$PR.json"
fi
{
  printf '{\n'
  printf '  "pr": %s,\n' "${PR:-null}"
  printf '  "smoke": %s,\n' "$([ "$SMOKE" = 1 ] && echo true || echo false)"
  printf '  "src_lines": %s,\n' "$src_lines"
  printf '  "throughput": %s,\n' "$throughput_json"
  printf '  "im_generation": %s,\n' "$im_json"
  printf '  "trace_overhead": %s,\n' "$trace_json"
  printf '  "resilience": %s,\n' "$resilience_json"
  printf '  "overload": %s,\n' "$overload_json"
  printf '  "ingress": %s,\n' "$ingress_json"
  printf '  "cluster": %s\n' "$cluster_json"
  printf '}\n'
} > "$OUT"
echo "wrote $OUT"

# Compare step: flag metrics that moved beyond the noise band against
# the newest tracked BENCH_<n>.json. Informational, never gating.
python3 "$ROOT/bench/compare_bench.py" "$OUT" || true
