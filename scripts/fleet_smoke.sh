#!/usr/bin/env bash
# Fleet day-saving smoke: build the three daemons and incfleetd, then let
# incfleetd spawn a 10-member fleet on loopback, replay a compressed 24h
# demand trace as real UDP traffic from its own process, and enforce the
# K=3 offload budget. incfleetd -assert fails the run unless the budget
# held (never more than K lit, no overlapping shifts), the full budget
# was exercised at the daytime peak, no generator saw a wrong answer,
# and the modeled on-demand fleet saved energy over the software-only
# baseline. The machine-readable outcome lands in FLEET_6.json (uploaded
# as a CI artifact).
#
# FLEET_WALL / FLEET_N / FLEET_K tune the run; the defaults finish in
# well under a minute of replay.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
OUT=${FLEET_OUT_DIR:-$(mktemp -d)}
trap 'rm -rf "$BIN"' EXIT

go build -o "$BIN" ./cmd/inckvsd ./cmd/incdnsd ./cmd/incpaxosd ./cmd/incfleetd

"$BIN/incfleetd" \
  -n "${FLEET_N:-10}" -k "${FLEET_K:-3}" \
  -wall "${FLEET_WALL:-30s}" -scale 50 -period 300ms -hold 2 \
  -dir "$OUT" -report FLEET_6.json -assert

echo "fleet smoke OK; report:"
cat FLEET_6.json | head -40
