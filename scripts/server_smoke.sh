#!/usr/bin/env bash
# Server smoke: build cmd/hbspd, boot it on a loopback port, run the
# scripted request set (preset profile, uploaded matrices, fault sweep,
# error shapes) and diff the responses against the committed golden.
# Prediction bodies are deterministic by design — timing and cache status
# ride in HTTP headers, never in bodies — so the only stripping needed is on
# /metrics, whose latency histogram depends on the host.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18321
OUT=${1:-/tmp/server_smoke.out}

go build -o /tmp/hbspd ./cmd/hbspd
/tmp/hbspd -addr "$ADDR" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

for _ in $(seq 100); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

req() { curl -s -X POST "http://$ADDR/v1/predict" -d @"$1"; }

{
  echo "== presets"
  curl -s "http://$ADDR/v1/presets"
  echo "== preset point"
  req cmd/hbspd/testdata/req_preset.json
  echo "== preset point repeated (must be byte-identical)"
  req cmd/hbspd/testdata/req_preset.json
  echo "== uploaded matrices"
  req cmd/hbspd/testdata/req_matrix.json
  echo "== fault sweep (NDJSON)"
  req cmd/hbspd/testdata/req_fault_sweep.json
  echo "== invalid fault plan"
  req cmd/hbspd/testdata/req_bad_fault.json
  echo "== invalid machine"
  req cmd/hbspd/testdata/req_bad_matrix.json
  echo "== metrics (timing stripped)"
  curl -s "http://$ADDR/metrics" | python3 -c '
import json, sys
m = json.load(sys.stdin)
stable = {k: m[k] for k in ("requests", "points", "cacheHits", "cacheMisses", "shed")}
stable["errors"] = m["errors"]
stable["routes"] = m["routes"]   # which evaluation body ran each miss
stable["evalObserved"] = m["evalNs"]["count"] > 0   # timing itself is host-dependent
print(json.dumps(stable, indent=2, sort_keys=True))
'
} > "$OUT"

diff cmd/hbspd/testdata/server_smoke.golden "$OUT"

# Compression, outside the diffed block (it would move the /metrics counts):
# every reply above is under the 1 KiB floor, this per-rank one is not. Sent
# plain and then with gzip, the second must come back compressed and inflate
# to the first.
req cmd/hbspd/testdata/req_perrank.json > "$OUT.plain"
curl -s -X POST -H 'Accept-Encoding: gzip' -D "$OUT.headers" \
  "http://$ADDR/v1/predict" -d @cmd/hbspd/testdata/req_perrank.json > "$OUT.gz"
if ! grep -qi '^content-encoding: gzip' "$OUT.headers"; then
  echo "a gzip request over the floor came back without Content-Encoding: gzip" >&2
  exit 1
fi
gunzip -c < "$OUT.gz" | cmp - "$OUT.plain"
rm -f "$OUT.plain" "$OUT.headers" "$OUT.gz"

# Graceful drain: SIGTERM must flip /healthz to 503 and then exit cleanly.
kill -TERM "$PID"
for _ in $(seq 100); do
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$PID" 2>/dev/null; then
  echo "hbspd did not exit within 10s of SIGTERM" >&2
  exit 1
fi
trap - EXIT
echo "server smoke OK"
