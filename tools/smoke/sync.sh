# Three producer stores push to one `serve --allow-sync` aggregator through
# `malnetctl sync push`; client and server write their sync metrics.
# (Convergence, re-sync and pull are unit-tested in-process:
# Sync.PushPermutationsConvergeByteIdentically, Sync.ResyncIsANoOp and
# Sync.PullPopulatesAFreshReplica.)
# usage: sh sync.sh <malnetctl>
CTL=$1
. "$(dirname "$0")/lib.sh"

rm -rf store-p1 store-p2 store-p3 store-agg
for p in 1 2 3; do
  "$CTL" study --samples 120 --shards 2 --jobs 2 --seed $((30 + p)) --no-probe \
    --store store-p$p --log-level warn > /dev/null
done

start_serve sync-serve.log --store store-agg --allow-sync --metrics-out sync-serve-m.json
for p in 1 2 3; do
  "$CTL" sync push --store store-p$p --connect 127.0.0.1:"$PORT" \
    --metrics-out sync-push-$p.json
done
stop_serve

"$CTL" json-check sync-push-1.json counters.sync.rounds \
  counters.sync.segments_sent counters.sync.bytes_on_wire counters.sync.bytes_saved
"$CTL" json-check sync-serve-m.json counters.sync.requests \
  counters.sync.segments_imported counters.serve.connections_accepted
