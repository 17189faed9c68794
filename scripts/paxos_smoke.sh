#!/usr/bin/env bash
# Five-process Paxos smoke: the system of cmd/incpaxosd's doc comment —
# three acceptors, a learner, a leader — as real processes on loopback,
# every server role bound to an explicit 127.0.0.1 address, then
# `incloadgen -proto proposer -rate 2000 -duration 2s` against it. Fails
# unless the client exits 0, submitted at least 90% of rate x duration,
# had at least 95% of what it submitted decided, and the learner never
# failed to send a decision (a proposer advertising an address the
# learner cannot reach shows up as `send to` errors in its log).
set -euo pipefail
cd "$(dirname "$0")/.."

RATE=2000 SECS=2
BIN=$(mktemp -d)
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/incpaxosd" ./cmd/incpaxosd
go build -o "$BIN/incloadgen" ./cmd/incloadgen

H=127.0.0.1
role() { # role <name> <flags...>: start a server role, logging to $BIN/<name>.log
  local name=$1; shift
  "$BIN/incpaxosd" "$@" >"$BIN/$name.log" 2>&1 &
  PIDS+=($!)
}
for i in 0 1 2; do
  role "acceptor$i" -role acceptor -id "$i" -addr "$H:710$i" -learners "$H:7110"
done
role learner -role learner -addr "$H:7110" -quorum 2 -leader "$H:7120"
role leader -role leader -addr "$H:7120" -ballot 1 -ctrl "$H:18082" \
  -acceptors "$H:7100,$H:7101,$H:7102"

# The leader's control API answers once its engine serves; the other
# roles were started before it.
deadline=$((SECONDS + 10))
until curl -sf -o /dev/null "http://$H:18082/v1/healthz"; do
  [ "$SECONDS" -ge "$deadline" ] && { echo "FAIL: leader not healthy after 10s" >&2; exit 1; }
  sleep 0.1
done

"$BIN/incloadgen" -proto proposer -target "$H:7120" -rate "$RATE" -duration "${SECS}s" \
  -report "$BIN/client.json"

# A proposer's answers are its decisions.
field() { sed -nE "s/^  \"$1\": ([0-9]+),?$/\1/p" "$BIN/client.json"; }
submitted=$(field sent)
decided=$(field answered)
[ -n "$submitted" ] && [ -n "$decided" ] || { echo "FAIL: no counts in the client's report" >&2; exit 1; }
if [ "$submitted" -lt $((RATE * SECS * 90 / 100)) ]; then
  echo "FAIL: submitted $submitted of $((RATE * SECS)) due" >&2
  exit 1
fi
if [ "$decided" -lt $((submitted * 95 / 100)) ]; then
  echo "FAIL: $decided of $submitted submitted requests decided" >&2
  exit 1
fi
if grep -q 'send to' "$BIN/learner.log"; then
  echo "FAIL: the learner could not send decisions:" >&2
  grep -m3 'send to' "$BIN/learner.log" >&2
  exit 1
fi
echo "OK: submitted $submitted, decided $decided, learner log clean"
