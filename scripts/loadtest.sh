#!/bin/sh
# loadtest.sh boots a real riskserve process on an ephemeral port, drives
# it with cmd/loadgen's fixed request mix (multi-tenant, cold and warm
# rounds), asserts zero critical events and a clean /metrics exposition,
# then shuts the server down with SIGTERM and checks the drain exits
# cleanly. `make check` runs this unless CHECK_SHORT=1.
set -eu

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "== build riskserve + loadgen =="
go build -o "$workdir/riskserve" ./cmd/riskserve
go build -o "$workdir/loadgen" ./cmd/loadgen

echo "== start riskserve =="
"$workdir/riskserve" \
  -addr 127.0.0.1:0 \
  -addr-file "$workdir/addr" \
  -types models/types.json \
  -maxcard 1 \
  -job-workers 4 \
  2> "$workdir/server.log" &
server_pid=$!

# Wait for the server to publish its bound address.
i=0
while [ ! -s "$workdir/addr" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "riskserve did not start; log:" >&2
    cat "$workdir/server.log" >&2
    exit 1
  fi
  sleep 0.1
done
addr="$(cat "$workdir/addr")"

status=0
"$workdir/loadgen" -addr "$addr" -model models/sme-plant.json \
  -tenants 3 -rounds 2 || status=$?

echo "== drain (SIGTERM) =="
kill -TERM "$server_pid"
drain_status=0
wait "$server_pid" || drain_status=$?

if [ "$status" -ne 0 ]; then
  echo "loadgen failed; server log:" >&2
  cat "$workdir/server.log" >&2
  exit "$status"
fi
if [ "$drain_status" -ne 0 ]; then
  echo "riskserve drain exited $drain_status; log:" >&2
  cat "$workdir/server.log" >&2
  exit "$drain_status"
fi

echo "OK"
