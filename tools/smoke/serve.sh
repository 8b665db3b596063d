# `malnetctl serve --listen` answers a remote `query --connect` with the
# local query path's exact bytes, drains on SIGTERM, and answers from the
# segment indexes alone. (Concurrency and drain under load are unit-tested
# in-process: Serve.ConcurrentClientsGetByteIdenticalAnswers and
# Serve.GracefulStopDrainsInFlightRequests.)
# usage: sh serve.sh <malnetctl>
CTL=$1
. "$(dirname "$0")/lib.sh"

rm -rf store
"$CTL" study --samples 200 --shards 4 --jobs 4 --store store --log-level warn > /dev/null
"$CTL" query --store store totals families c2-liveness exploits segments > expected.txt

start_serve serve.log --store store --metrics-out serve-m.json
"$CTL" query --connect 127.0.0.1:"$PORT" \
  totals families c2-liveness exploits segments > got.txt
cmp expected.txt got.txt
stop_serve

grep -q 'payload_bytes_read=0' serve.log || fail "serve read segment payloads"
"$CTL" json-check serve-m.json counters.serve.requests \
  counters.serve.connections_accepted counters.store.index_bytes_read \
  histograms.serve.request_latency_us
if grep -q payload_bytes_read serve-m.json; then
  fail "serve-m.json records segment payload reads"
fi
