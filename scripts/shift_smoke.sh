#!/usr/bin/env bash
# Loopback shift-under-load smoke: build one daemon (kvs, dns or paxos —
# the first argument, default kvs) and incloadgen, start the daemon with
# its NIC offload tier and a low crossover, drive a phased ramp across the
# threshold and back, and assert on the /v1 control API that the policy
# shifted the service up and down once each and the tier served traffic.
#
# The dns leg boots incdnsd from a 1000-record zone file it writes, in
# FQDN form, so the daemon serves a parsed file and the tier's warm
# snapshots it; incloadgen -keys 1000 names the same hosts.
#
# DAEMON_EXTRA_FLAGS / INCLOADGEN_EXTRA_FLAGS let CI run the same
# assertions in batched per-shard-socket mode (e.g. "-sockets 2").
set -euo pipefail
cd "$(dirname "$0")/.."

APP=${1:-kvs}
case "$APP" in
  kvs)   DAEMON=inckvsd   ROLE=""               TIER=lake           KEYS=200 ;;
  dns)   DAEMON=incdnsd   ROLE=""               TIER=emu-dns        KEYS=1000 ;;
  paxos) DAEMON=incpaxosd ROLE="-role acceptor" TIER=p4xos-acceptor KEYS=200 ;;
  *) echo "usage: $0 [kvs|dns|paxos]" >&2; exit 2 ;;
esac

BIN=$(mktemp -d)
trap 'kill "${DAEMON_PID:-}" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/$DAEMON" "./cmd/$DAEMON"
go build -o "$BIN/incloadgen" ./cmd/incloadgen

ZONE_FLAG=""
if [ "$APP" = dns ]; then
  awk -v n="$KEYS" 'BEGIN {
    print "# hostN.example.com, as incloadgen -proto dns names them"
    for (i = 0; i < n; i++) printf "host%d.example.com. 10.0.%d.%d 300\n", i, int(i / 256), i % 256
  }' > "$BIN/zone.txt"
  ZONE_FLAG="-zone $BIN/zone.txt"
fi

ADDR=127.0.0.1:11311
CTRL=127.0.0.1:18080
# shellcheck disable=SC2086  # role and extra flags are intentionally word-split
"$BIN/$DAEMON" $ROLE $ZONE_FLAG -addr "$ADDR" -ctrl "$CTRL" -nictier -crossover 2 -shards 2 \
  ${DAEMON_EXTRA_FLAGS:-} &
DAEMON_PID=$!

# Wait for the control API to report the dataplane serving, with
# exponential backoff instead of a fixed boot sleep: fast machines move on
# after ~20ms, slow CI gets a full 10s budget.
wait_healthy() {
  local url=$1 deadline=$((SECONDS + 10)) pause=0.02
  until curl -sf -o /dev/null "$url"; do
    if [ "$SECONDS" -ge "$deadline" ]; then
      echo "FAIL: $url not healthy after 10s" >&2
      return 1
    fi
    sleep "$pause"
    pause=$(awk -v p="$pause" 'BEGIN { p *= 2; print (p > 0.5) ? 0.5 : p }')
  done
}
wait_healthy "http://$CTRL/v1/healthz"

# Ramp over the 2.2 kpps to-network threshold, hold, ramp back under the
# 1.4 kpps to-host threshold.
# shellcheck disable=SC2086
"$BIN/incloadgen" -proto "$APP" -target "$ADDR" -keys "$KEYS" \
  ${INCLOADGEN_EXTRA_FLAGS:-} \
  -profile 'ramp:0-8000:2s,hold:8000:3s,ramp:8000-0:2s'

# Let the orchestrator observe the quiet tail (to-host window is 2s):
# poll for the return to host instead of guessing with a fixed sleep.
deadline=$((SECONDS + 10))
while :; do
  status=$(curl -sf "http://$CTRL/v1/services/$APP")
  echo "$status" | grep -q '"placement":"host"' && break
  [ "$SECONDS" -ge "$deadline" ] && break # asserts below still diagnose
  sleep 0.25
done
echo "service status: $status"
dataplane=$(curl -sf "http://$CTRL/v1/services/$APP/dataplane")
echo "dataplane: $dataplane"

shifts=$(echo "$status" | grep -o '"shifts":[0-9]*' | cut -d: -f2)
if [ "${shifts:-0}" -lt 1 ]; then
  echo "FAIL: expected at least one placement shift, got ${shifts:-0}" >&2
  exit 1
fi
# One ramp up and back is one shift each way: a second flap means the
# hysteresis did not hold under real traffic.
echo "$status" | grep -q '"flaps":1[,}]' || {
  echo "FAIL: expected \"flaps\":1 after the ramp up and back" >&2
  exit 1
}
echo "$status" | grep -q '"last_shift_duration"' || {
  echo "FAIL: shift duration missing from /v1/services" >&2
  exit 1
}
# The aggregate "offloaded" field marshals after the per-shard array, so
# the last match is the engine-wide total.
offloaded=$(echo "$dataplane" | grep -o '"offloaded":[0-9]*' | tail -1 | cut -d: -f2)
if [ "${offloaded:-0}" -lt 1 ]; then
  echo "FAIL: the NIC tier never served a datagram" >&2
  exit 1
fi
echo "$dataplane" | grep -q "\"tier_name\":\"$TIER\"" || {
  echo "FAIL: tier stats missing from /v1/dataplane" >&2
  exit 1
}
if [ "$APP" = dns ]; then
  # The up-shift's warm synced every record of the parsed file.
  echo "$dataplane" | grep -q "\"synced_records\":$KEYS[,}]" || {
    echo "FAIL: the tier did not sync the $KEYS-record zone file" >&2
    exit 1
  }
fi
if [ "$APP" = paxos ]; then
  # The state handoff on real sockets: the up-shift moved at least one
  # vote record to the card (handoff_instances is stored at Warm and
  # stays), and after the down-shift the host role's table holds no fewer
  # — no record lost across Warm -> Park.
  handed=$(echo "$dataplane" | grep -o '"handoff_instances":[0-9]*' | cut -d: -f2)
  held=$(echo "$dataplane" | grep -o '"handler":{[^}]*}' | grep -o '"instances":[0-9]*' | cut -d: -f2)
  if [ "${handed:-0}" -lt 1 ] || [ "${held:-0}" -lt "${handed:-0}" ]; then
    echo "FAIL: handoff_instances=${handed:-none}, host instances after the down-shift=${held:-none}" >&2
    exit 1
  fi
fi
echo "shift smoke OK ($APP): shifts=$shifts offloaded=$offloaded"
