#!/bin/sh
# End-to-end smoke for `pigeon serve --stdio`: pipe one valid request,
# one malformed line, and one unknown-language request through a real
# server process. The server must answer all three (one prediction, two
# structured errors), keep running across the bad inputs, and exit 0 on
# EOF. Also smokes the request-tracing surface: rid echo, the "timing"
# request flag, --trace/--flightrec capture files, the admin:"flightrec"
# verb, and the trace_report folding tool.
# Run as: serve_cli_test.sh <path-to-pigeon-binary> <path-to-trace_report>.
set -u

PIGEON="$1"
TRACE_REPORT="$2"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

"$PIGEON" synth --lang js --out "$TMP/corpus" --projects 3 --seed 7 \
  > /dev/null 2>&1 || fail "synth failed"
"$PIGEON" train --lang js --task vars --out "$TMP/model.bin" "$TMP/corpus" \
  > /dev/null 2>&1 || fail "train failed"

cat > "$TMP/requests" <<'EOF'
{"id":1,"lang":"js","source":"function f(x) { var total = x + 1; return total; }","k":2}
this line is not json
{"id":3,"lang":"golang","source":"package main"}
EOF

"$PIGEON" serve --model "$TMP/model.bin" --stdio \
  < "$TMP/requests" > "$TMP/responses" 2> "$TMP/serve.err" \
  || fail "serve exited nonzero on EOF: $(cat "$TMP/serve.err")"

[ "$(wc -l < "$TMP/responses")" = 3 ] \
  || fail "expected 3 response lines, got: $(cat "$TMP/responses")"

grep -q '"id":1,"ok":true' "$TMP/responses" \
  || fail "valid request did not get an ok response"
grep -q '"candidates":\[{"label":' "$TMP/responses" \
  || fail "ok response carries no prediction candidates"
grep -q '"code":"bad_request"' "$TMP/responses" \
  || fail "malformed line did not get a bad_request error"
grep -q '"id":3,"ok":false.*"code":"unknown_lang"' "$TMP/responses" \
  || fail "unknown language did not get an unknown_lang error"

# Every admitted request — ok or error — echoes its admission-order rid
# right after the schema field.
grep -q '"schema":"pigeon.serve.v1","rid":1,"id":1,"ok":true' \
  "$TMP/responses" || fail "first response does not echo rid 1"
grep -q '"rid":3,"id":3,"ok":false' "$TMP/responses" \
  || fail "error response does not echo its rid"

# --- Request-scoped tracing over --stdio -------------------------------
# A "timing": true request echoes its per-stage decomposition inline;
# --trace/--flightrec persist every request's timeline to disk.
cat > "$TMP/traced_requests" <<'EOF'
{"id":20,"lang":"js","source":"function h(z) { var twice = z + z; return twice; }","timing":true}
{"id":21,"lang":"js","source":"function k(w) { var half = w / 2; return half; }"}
EOF

"$PIGEON" serve --model "$TMP/model.bin" --stdio \
  --trace "$TMP/trace.jsonl" --trace-max-mb 8 \
  --flightrec "$TMP/flight.jsonl" \
  < "$TMP/traced_requests" > "$TMP/traced_responses" 2> "$TMP/traced.err" \
  || fail "traced serve exited nonzero: $(cat "$TMP/traced.err")"

# The echo names the eight timeline stages in order, then the total.
STAGES='queue seal decode parse extract infer topk render'
ECHO_KEYS=$(grep '"id":20,' "$TMP/traced_responses" \
  | sed 's/.*"timing":{//' | grep -o '"[a-z_]*_ms"' | tr -d '"' \
  | tr '\n' ' ')
[ "$ECHO_KEYS" = "queue_ms seal_ms decode_ms parse_ms extract_ms infer_ms topk_ms render_ms total_ms " ] \
  || fail "timing echo keys are not the eight stages in order: $ECHO_KEYS"
grep -q '"id":21,"ok":true' "$TMP/traced_responses" \
  || fail "second traced request did not answer"
if grep '"id":21' "$TMP/traced_responses" | grep -q '"timing"'; then
  fail "response without the flag must not carry a timing object"
fi

[ -s "$TMP/trace.jsonl" ] || fail "--trace wrote no event stream"
grep -q '"event":"serve.request"' "$TMP/trace.jsonl" \
  || fail "event stream has no serve.request records"
[ -s "$TMP/flight.jsonl" ] || fail "--flightrec dumped no ring"
grep -q '"event":"serve.request"' "$TMP/flight.jsonl" \
  || fail "flight recorder dump has no request records"

# trace_report folds the event stream into a latency decomposition
# whose rows are the same eight stages, in order, and lists the slowest
# requests.
"$TRACE_REPORT" --top 1 "$TMP/trace.jsonl" > "$TMP/report.txt" \
  2> "$TMP/report.err" \
  || fail "trace_report failed: $(cat "$TMP/report.err")"
grep -q 'latency decomposition (2 requests' "$TMP/report.txt" \
  || fail "trace_report printed no decomposition of both requests"
REPORT_ROWS=$(sed -n '/latency decomposition/,/^$/p' "$TMP/report.txt" \
  | awk '{print $1}' | grep -x -E "$(echo "$STAGES" | tr ' ' '|')" \
  | tr '\n' ' ')
[ "$REPORT_ROWS" = "$STAGES " ] \
  || fail "trace_report rows are not the eight stages in order: $REPORT_ROWS"
grep -q 'slowest requests' "$TMP/report.txt" \
  || fail "trace_report printed no slowest-requests table"

# --- Admin protocol over --stdio ---------------------------------------
# Mixed serve + admin traffic: the admin lines answer under the
# pigeon.admin.v1 schema, the serve line under pigeon.serve.v1, and an
# unknown verb is a structured bad_request that does not kill the server.
cat > "$TMP/admin_requests" <<'EOF'
{"id":10,"admin":"health"}
{"id":11,"lang":"js","source":"function g(y) { var out = y * 2; return out; }"}
{"id":12,"admin":"metrics"}
{"id":13,"admin":"slo"}
{"id":14,"admin":"frobnicate"}
{"id":15,"admin":"flightrec"}
EOF

"$PIGEON" serve --model "$TMP/model.bin" --stdio --slo-p99-ms 5000 \
  --prom "$TMP/metrics.prom" --metrics-interval 1 \
  < "$TMP/admin_requests" > "$TMP/admin_responses" 2> "$TMP/admin.err" \
  || fail "serve with admin traffic exited nonzero: $(cat "$TMP/admin.err")"

[ "$(wc -l < "$TMP/admin_responses")" = 6 ] \
  || fail "expected 6 admin-mix responses, got: $(cat "$TMP/admin_responses")"

grep -q '"schema":"pigeon.admin.v1","id":10,"ok":true,"admin":"health"' \
  "$TMP/admin_responses" || fail "admin:health did not answer"
grep -q '"status":"ok"' "$TMP/admin_responses" \
  || fail "health response carries no status"
grep -q '"id":11,"ok":true' "$TMP/admin_responses" \
  || fail "serve request between admin lines did not answer"
grep -q '"admin":"metrics".*"schema":"pigeon.metrics.v1"' \
  "$TMP/admin_responses" || fail "admin:metrics has no embedded snapshot"
grep -q '"admin":"metrics".*"serve.request.seconds"' \
  "$TMP/admin_responses" || fail "metrics snapshot has no windowed series"
grep -q '"admin":"slo".*"target_p99_ms":5000' "$TMP/admin_responses" \
  || fail "admin:slo does not echo the --slo-p99-ms target"
grep -q '"schema":"pigeon.admin.v1","id":14,"ok":false.*"code":"bad_request"' \
  "$TMP/admin_responses" || fail "unknown admin verb not a bad_request"
grep -q '"admin":"health".*"window":{"seconds":' "$TMP/admin_responses" \
  || fail "admin:health carries no windowed request/error rates"
grep -q '"id":15,"ok":true,"admin":"flightrec","flightrec":{"capacity":' \
  "$TMP/admin_responses" || fail "admin:flightrec did not answer"
grep -q '"admin":"flightrec".*"records":\[{"event":' "$TMP/admin_responses" \
  || fail "flightrec records are empty despite earlier traffic"

# --prom writes Prometheus text exposition at shutdown (and every
# --metrics-interval tick while running).
[ -s "$TMP/metrics.prom" ] || fail "--prom wrote no exposition file"
grep -q '^serve_requests_total ' "$TMP/metrics.prom" \
  || fail "exposition lacks serve_requests_total"
grep -q '^serve_request_seconds_bucket{le=' "$TMP/metrics.prom" \
  || fail "exposition lacks serve_request_seconds histogram buckets"
grep -q '^# TYPE serve_request_seconds histogram' "$TMP/metrics.prom" \
  || fail "exposition lacks TYPE headers"
[ -f "$TMP/metrics.prom.tmp" ] && fail "atomic-write staging file left behind"

echo "PASS"
