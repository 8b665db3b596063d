# `malnetctl serve --admin`: live /metrics, /healthz, /statusz, /slowz and
# /tracez under query load, answers that are the same bytes with the admin
# plane on or off, and a traced `sync push --admin` whose trace file holds
# both nodes' spans under one trace id.
# usage: sh admin.sh <malnetctl>
CTL=$1
. "$(dirname "$0")/lib.sh"
command -v curl > /dev/null || fail "curl is required to scrape the admin endpoint"

get() { curl -fsS "127.0.0.1:$APORT/$1"; }

rm -rf store store-pusher
"$CTL" study --samples 200 --shards 4 --jobs 4 --store store --log-level warn > /dev/null
"$CTL" query --store store totals families c2-liveness exploits > expected.txt

# Answers are the same bytes with the admin plane off (checked before the
# traced push below adds segments to the store) and on.
start_serve plain-serve.log --store store
"$CTL" query --connect 127.0.0.1:"$PORT" totals families c2-liveness exploits > got-plain.txt
cmp expected.txt got-plain.txt
stop_serve

start_serve admin-serve.log --store store --admin 127.0.0.1:0 --allow-sync \
  --slow-threshold-us 0 --metrics-out admin-serve-m.json
[ -n "$APORT" ] || fail "no 'admin on' line"
[ "$(get healthz | head -1)" = ok ] || fail "/healthz is not ok before any load"

# Load spread over a few seconds so the 1 Hz snapshot ring sees the
# counters move.
n=0
while [ "$n" -lt 30 ]; do
  "$CTL" query --connect 127.0.0.1:"$PORT" totals families c2-liveness exploits > got.txt
  sleep 0.1
  n=$((n + 1))
done
cmp expected.txt got.txt
get metrics > metrics.txt
get statusz > statusz.txt
get slowz > slowz.txt
get tracez > tracez.json
grep -q 'serve_request_latency_us_q{q="0.99"}' metrics.txt || fail "no p99 on /metrics"
grep -q 'serve_request_latency_us_q{q="0.5"}' metrics.txt || fail "no p50 on /metrics"
awk '/malnet_serve_requests_rate\{window=/ { if ($2 > 0) seen = 1 }
     END { exit seen ? 0 : 1 }' metrics.txt || fail "no windowed request rate saw the load"
awk '/^malnet_serve_requests / { if ($2 > 0) seen = 1 }
     END { exit seen ? 0 : 1 }' metrics.txt || fail "lifetime request total missed the load"
grep -q 'uptime_s' statusz.txt || fail "/statusz has no uptime"
grep -q 'op=query:totals' slowz.txt || fail "/slowz has no query entry"
"$CTL" json-check tracez.json traceEvents
code=$(curl -s -o /dev/null -w '%{http_code}' "127.0.0.1:$APORT/nope")
[ "$code" = 404 ] || fail "unknown path answered $code, want 404"

# Cross-node tracing: with --admin the client fetches the server's spans,
# so the trace file merges both processes under the one trace id.
"$CTL" study --samples 120 --shards 2 --jobs 2 --seed 77 --no-probe \
  --store store-pusher --log-level warn > /dev/null
"$CTL" sync push --store store-pusher --connect 127.0.0.1:"$PORT" \
  --trace-out trace.json --admin 127.0.0.1:"$APORT" > push.txt
tid=$(sed -n 's/^trace: .* trace_id=\(0x[0-9a-f]*\)$/\1/p' push.txt)
[ -n "$tid" ] || fail "sync push printed no trace id: $(cat push.txt)"
"$CTL" json-check trace.json traceEvents
for name in sync-client serve sync:put serve:sync:put; do
  grep -q "\"name\":\"$name\"" trace.json || fail "trace.json lacks $name"
done
[ "$(grep -o "\"trace\":\"$tid\"" trace.json | wc -l)" -ge 2 ] ||
  fail "trace id $tid is not shared by both nodes"
get slowz | grep -q 'op=sync:' || fail "/slowz has no sync entry"
stop_serve
"$CTL" json-check admin-serve-m.json counters.serve.requests \
  counters.admin.requests histograms.serve.request_latency_us
