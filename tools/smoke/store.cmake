# The store's query and serve front ends, and the --strict exit code.
include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

file(REMOVE_RECURSE store)
ctl(study --samples 200 --shards 4 --jobs 4 --store store --log-level warn)

# Queries answer from the per-segment indexes alone: index reads are
# recorded and the payload-read counter never appears. (Answers surviving
# ingest + compaction: Query.IngestAndCompactPreserveAnswers.)
ctl(query --store store totals families c2-liveness --metrics-out q.json)
ctl(json-check q.json counters.store.segments_opened
    counters.store.index_bytes_read counters.store.queries
    histograms.store.query_latency_us)
file(READ q.json metrics)
if(metrics MATCHES "payload_bytes_read")
  message(FATAL_ERROR "query read segment payloads:\n${metrics}")
endif()

# Without --listen, serve answers query lines from stdin until quit.
file(WRITE stdin.txt "totals\nquit\n")
execute_process(COMMAND ${CTL} serve --store store INPUT_FILE stdin.txt
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "samples=")
  message(FATAL_ERROR "stdin serve: exit ${rc}\n${out}")
endif()

# --strict exits 3 exactly when the run reports degraded samples (this
# hostile config degrades some, so the exit-3 branch is the one exercised).
execute_process(COMMAND ${CTL} study --samples 200 --shards 4 --jobs 4
                        --chaos=hostile --chaos-seed=7 --strict --log-level warn
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(out MATCHES "degraded samples")
  set(want 3)
else()
  set(want 0)
endif()
if(NOT rc EQUAL want)
  message(FATAL_ERROR "--strict: want exit ${want}, got ${rc}\n${out}")
endif()
