#!/usr/bin/env bash
# Regression test: bench_gate's scaling check passes a report whose
# per-request cost at the largest trace length is within 1.5x of the
# smallest, fails one that grows past it, and accepts a scaling report
# that has no "configs" array. With per-scheduler rows, every
# scheduler must pass on its own: one quadratic scheduler fails the
# report even when the others are flat.
set -euo pipefail

BENCH_GATE="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cat > "$TMP/flat.json" <<'JSON'
{"mode": "smoke", "scaling": [
  {"num_requests": 1000, "us_per_request": 14.0},
  {"num_requests": 64000, "us_per_request": 16.0}
]}
JSON
cat > "$TMP/quadratic.json" <<'JSON'
{"mode": "smoke", "scaling": [
  {"num_requests": 1000, "us_per_request": 14.0},
  {"num_requests": 64000, "us_per_request": 300.0}
]}
JSON
cat > "$TMP/mixed.json" <<'JSON'
{"mode": "smoke", "scaling": [
  {"scheduler": "TetriServe", "num_requests": 1000, "us_per_request": 14.0},
  {"scheduler": "TetriServe", "num_requests": 64000, "us_per_request": 16.0},
  {"scheduler": "EDF-RSSP", "num_requests": 1000, "us_per_request": 4.0},
  {"scheduler": "EDF-RSSP", "num_requests": 64000, "us_per_request": 9.0}
]}
JSON
cat > "$TMP/multi_flat.json" <<'JSON'
{"mode": "smoke", "scaling": [
  {"scheduler": "TetriServe", "num_requests": 1000, "us_per_request": 14.0},
  {"scheduler": "TetriServe", "num_requests": 64000, "us_per_request": 16.0},
  {"scheduler": "EDF-RSSP", "num_requests": 1000, "us_per_request": 4.0},
  {"scheduler": "EDF-RSSP", "num_requests": 64000, "us_per_request": 5.0}
]}
JSON

"$BENCH_GATE" "$TMP/flat.json" "$TMP/flat.json" >/dev/null
"$BENCH_GATE" "$TMP/multi_flat.json" "$TMP/multi_flat.json" >/dev/null

rc=0
"$BENCH_GATE" "$TMP/multi_flat.json" "$TMP/mixed.json" \
  >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "FAIL: report with one quadratic scheduler exited $rc, expected 1"
  exit 1
fi

rc=0
"$BENCH_GATE" "$TMP/flat.json" "$TMP/quadratic.json" \
  >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "FAIL: quadratic report exited $rc, expected 1"
  exit 1
fi

TRAJ="$TMP/traj.jsonl"
"$BENCH_GATE" "$TMP/flat.json" "$TMP/flat.json" \
  --append-trajectory="$TRAJ" --label=abc12345-e2e >/dev/null
grep -q '"label": "abc12345-e2e", "mode": "smoke", "scaling_cost_ratio": 1.1429' "$TRAJ"
"$BENCH_GATE" "$TMP/multi_flat.json" "$TMP/multi_flat.json" \
  --append-trajectory="$TRAJ" --label=abc12345-multi >/dev/null
grep -q '"scaling_cost_ratio": 1.2500, .*"scaling_cost_ratio_by_scheduler": {"EDF-RSSP": 1.2500, "TetriServe": 1.1429}' "$TRAJ"
echo "bench_gate scaling check OK"
