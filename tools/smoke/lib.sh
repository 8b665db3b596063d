# Shared by the live-process smoke tests in this directory. A test sets
# CTL (the malnetctl binary) and sources this file; it then runs in its
# own working directory and binds only ephemeral ports, so the tests are
# safe under `ctest -j`.

set -eu

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# A failing check must not leave a server or a study running: ctest waits
# for every process that still holds the test's output.
SERVE_PID=
STUDY_PID=
trap 'kill -9 $SERVE_PID $STUDY_PID 2>/dev/null || :' EXIT

# start_serve <log> <serve options...>: starts `malnetctl serve` on an
# ephemeral port, waits for its "serving on" line and sets PORT (and APORT
# when --admin is among the options).
start_serve() {
  SERVE_LOG=$1
  shift
  # Truncate here, not only in the child's redirect: a previous run's log
  # must never satisfy the readiness check below.
  : > "$SERVE_LOG"
  "$CTL" serve --listen 127.0.0.1:0 "$@" > "$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  n=0
  until grep -q '^serving on ' "$SERVE_LOG"; do
    kill -0 "$SERVE_PID" 2>/dev/null || fail "serve exited early: $(cat "$SERVE_LOG")"
    n=$((n + 1))
    [ "$n" -le 1200 ] || fail "serve did not report 'serving on' within 60 s"
    sleep 0.05
  done
  PORT=$(sed -n 's/^serving on [^ ]*:\([0-9]*\) .*/\1/p' "$SERVE_LOG")
  APORT=$(sed -n 's/^admin on [^ ]*:\([0-9]*\)$/\1/p' "$SERVE_LOG")
}

# stop_serve: SIGTERM drains the server, which must exit 0 and say so.
stop_serve() {
  kill -TERM "$SERVE_PID"
  rc=0
  wait "$SERVE_PID" || rc=$?
  SERVE_PID=
  [ "$rc" -eq 0 ] || fail "serve exited $rc after SIGTERM: $(cat "$SERVE_LOG")"
  grep -q '^drained:' "$SERVE_LOG" || fail "no 'drained:' line in $SERVE_LOG"
}

