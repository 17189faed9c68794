#!/usr/bin/env bash
# bench.sh — run the serving-path benchmarks and emit a machine-readable
# snapshot of the repo's bench trajectory.
#
# Covers the dataplane handler hot paths (KVS/DNS/Paxos, single and
# batched — the 0 B/op acceptance surfaces), the codec micro-benches,
# the per-protocol batched and uring loopback throughput benches
# (achieved-kpps) including the TX-mode comparison (per-datagram mmsg vs
# mmsg+GSO-train vs uring+GSO-train reply TX, with tx-segs-per-train
# evidence), the engine three-way transport sweep
# (single/mmsg/uring at 1/2/4 shards) and the NIC KVS tier's cost model
# (GET hit beside the host handler's, miss, SET write-through, and a
# 100k-entry warm and park).
#
# After writing the snapshot it diffs against the newest committed
# BENCH_*.json via cmd/incbenchdiff and fails (nonzero exit) on any
# hot-path ns/op or loopback kpps regression beyond the tolerance, or if
# the tier's GET hit costs more than 1.25x the host's in this run.
#
# Usage:
#   ./scripts/bench.sh                 # ~full run, writes BENCH_15.json
#   BENCH_TIME=1x ./scripts/bench.sh   # CI smoke: one iteration per bench
#   BENCH_OUT=out.json ./scripts/bench.sh
#   BENCH_MAX_REGRESS=75 ./scripts/bench.sh  # cross-host tolerance
#   BENCH_DIFF=0 ./scripts/bench.sh          # skip the regression diff
#
# Output schema (incod-bench/v1): one entry per benchmark with
# ns_per_op / b_per_op / allocs_per_op and any custom metrics
# (achieved-kpps, answered-%) keyed by their go-bench unit.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH_15.json}"
BENCHTIME="${BENCH_TIME:-200ms}"
# The loopback throughput benches need a fixed, large-enough request
# count: time-based calibration lands on small b.N where connection
# setup and window round trips dominate and the kpps number is noise.
LOOPTIME="${BENCH_LOOPBACK:-200000x}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

run_bench() {
  local pkg="$1" pattern="$2" benchtime="$3"
  echo ">> go test -bench '$pattern' -benchtime $benchtime $pkg" >&2
  go test -run '^$' -bench "$pattern" -benchtime "$benchtime" "$pkg" \
    | tee /dev/stderr \
    | awk -v pkg="$pkg" '/^Benchmark/ { printf "%s %s\n", pkg, $0 }' >> "$raw"
}

# The serving hot paths and codecs (root suite).
run_bench . 'DataplaneKVS|DataplaneBatchedKVS|DataplaneDNS|DataplaneBatchedDNS|DataplanePaxos|DataplaneBatchedPaxos|DataplaneShardedStore|ShardedStoreScaling|MemcacheParseGet|PaxosCodec|DNSCodec|DNSQuestionView' "$BENCHTIME"
# Per-protocol loopback kpps, batched (recvmmsg) and io_uring modes.
run_bench . 'LoopbackBatched|LoopbackUring' "$LOOPTIME"
# The engine's batched-vs-single loopback comparison plus the three-way
# transport sweep (single/mmsg/uring at 1/2/4 shards).
run_bench ./internal/dataplane 'DataplaneBatchedLoopback|DataplaneSingleReaderLoopback|DataplaneEngineLoopback' "$LOOPTIME"
# The offload tier: KVS GET hit (tier and host side by side), miss, SET
# write-through and the 100k-entry warm/park — all 0 B/op but the warm.
run_bench ./internal/nictier 'NICTier' "$BENCHTIME"

goversion="$(go env GOVERSION)"
stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
host_cpu="$(awk -F': ' '/model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"

awk -v go="$goversion" -v bt="$BENCHTIME" -v stamp="$stamp" -v cpu="$host_cpu" '
{
  pkg = $1
  name = $2 # as printed by go test (incl. any -GOMAXPROCS suffix)
  iters = $3
  out = sprintf("    {\"name\":\"%s\",\"package\":\"%s\",\"iterations\":%s", name, pkg, iters)
  metrics = ""
  for (i = 4; i + 1 <= NF; i += 2) {
    val = $i
    unit = $(i + 1)
    if (unit == "ns/op")          out = out sprintf(",\"ns_per_op\":%s", val)
    else if (unit == "B/op")      out = out sprintf(",\"b_per_op\":%s", val)
    else if (unit == "allocs/op") out = out sprintf(",\"allocs_per_op\":%s", val)
    else {
      gsub(/"/, "", unit)
      metrics = metrics (metrics == "" ? "" : ",") sprintf("\"%s\":%s", unit, val)
    }
  }
  if (metrics != "") out = out ",\"metrics\":{" metrics "}"
  lines[n++] = out "}"
}
END {
  printf "{\n"
  printf "  \"schema\": \"incod-bench/v1\",\n"
  printf "  \"generated\": \"%s\",\n", stamp
  printf "  \"go\": \"%s\",\n", go
  printf "  \"cpu\": \"%s\",\n", cpu
  printf "  \"benchtime\": \"%s\",\n", bt
  printf "  \"benchmarks\": [\n"
  for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
  printf "  ]\n}\n"
}
' "$raw" > "$OUT"

echo "bench.sh: wrote $(grep -c '"name"' "$OUT") benchmark entries to $OUT" >&2

# Regression gate: diff the fresh snapshot against the newest committed
# BENCH_*.json (by number, skipping the file we just wrote). Same-host
# runs use the strict default; CI smoke on unknown hardware passes a
# generous BENCH_MAX_REGRESS so only collapses fail, not host variance.
if [ "${BENCH_DIFF:-1}" != "0" ]; then
  baseline="$(git ls-files 'BENCH_*.json' | sort -t_ -k2 -n | grep -Fvx "$(basename "$OUT")" | tail -1 || true)"
  if [ -n "$baseline" ]; then
    echo "bench.sh: diffing $OUT against committed $baseline" >&2
    go run ./cmd/incbenchdiff -old "$baseline" -new "$OUT" \
      -tolerance "${BENCH_MAX_REGRESS:-15}"
  else
    echo "bench.sh: no committed BENCH_*.json baseline; skipping diff" >&2
  fi
fi
