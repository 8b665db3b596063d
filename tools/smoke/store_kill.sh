# SIGKILL a store-backed study once at least 2 of its 4 shards have
# committed: whatever subset survived, --resume must reproduce the
# uninterrupted run's datasets byte for byte. Plain and under hostile chaos.
# usage: sh store_kill.sh <malnetctl>
CTL=$1
. "$(dirname "$0")/lib.sh"

# kill_resume <name> [study options...]
kill_resume() {
  name=$1
  shift
  rm -rf "$name-fresh" "$name-kill"
  "$CTL" study --samples 200 --shards 4 --jobs 4 "$@" --store "$name-fresh" \
    --save-datasets "$name-fresh.mds" --log-level warn > /dev/null
  "$CTL" study --samples 200 --shards 4 --jobs 1 "$@" --store "$name-kill" \
    --log-level warn > /dev/null &
  STUDY_PID=$!
  # Shards commit tens of milliseconds apart, so poll finely enough to
  # land the kill between commits (bounded at 10 s).
  n=0
  while [ "$(ls "$name-kill/segments" 2>/dev/null | wc -l)" -lt 2 ] && [ "$n" -lt 1000 ]; do
    sleep 0.01
    n=$((n + 1))
  done
  kill -9 "$STUDY_PID" 2>/dev/null || :
  wait "$STUDY_PID" || :
  STUDY_PID=
  echo "$name: $(ls "$name-kill/segments" 2>/dev/null | wc -l) segment(s) committed before the kill"
  "$CTL" study --samples 200 --shards 4 --jobs 4 "$@" --store "$name-kill" --resume \
    --save-datasets "$name-resumed.mds" --log-level warn > /dev/null
  cmp "$name-fresh.mds" "$name-resumed.mds" || fail "$name: resumed datasets differ"
}

kill_resume plain
kill_resume chaos --chaos=hostile --chaos-seed=7
