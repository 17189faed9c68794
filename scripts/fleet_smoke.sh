#!/usr/bin/env bash
# Fleet day-saving smoke: build incfleetd and let it start a 10-member
# kvs/dns/paxos fleet in its own process, each member on its own
# loopback UDP engine, replay a compressed 24h demand trace as real UDP
# traffic from the same process, and enforce the K=3 offload budget.
# incfleetd -assert fails the run unless the budget held (never more
# than K lit, no overlapping shifts), the full budget was exercised at
# the daytime peak, no generator saw a wrong answer, at least 99.9 % of
# the requests were answered, and the modeled on-demand fleet saved
# energy over the software-only baseline. The machine-readable outcome
# lands in FLEET_6.json (uploaded as a CI artifact).
#
# FLEET_WALL / FLEET_N / FLEET_K tune the run; the defaults finish in
# well under a minute of replay.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

go build -o "$BIN" ./cmd/incfleetd

"$BIN/incfleetd" \
  -n "${FLEET_N:-10}" -k "${FLEET_K:-3}" \
  -wall "${FLEET_WALL:-30s}" -period 300ms \
  -report FLEET_6.json -assert

echo "fleet smoke OK; report:"
cat FLEET_6.json | head -40
