# Drives malnetctl through its artifact workflow and checks the outputs.
execute_process(COMMAND ${CTL} forge --family Gafgyt --c2 60.5.6.7:666
                        --vuln CVE-2018-10561 --out smoke.mbf
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "forge failed: ${out}")
endif()
execute_process(COMMAND ${CTL} inspect smoke.mbf
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "YARA label: Gafgyt")
  message(FATAL_ERROR "inspect failed: ${out}")
endif()
execute_process(COMMAND ${CTL} analyze smoke.mbf --pcap smoke.pcap
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "C2 candidate: 60.5.6.7:666")
  message(FATAL_ERROR "analyze failed: ${out}")
endif()
if(NOT EXISTS smoke.pcap)
  message(FATAL_ERROR "analyze did not write the pcap")
endif()
execute_process(COMMAND ${CTL} study --samples 60 --no-probe
                        --save-datasets smoke.mds
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "study failed: ${err}")
endif()
execute_process(COMMAND ${CTL} report smoke.mds
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "D-Samples   60")
  message(FATAL_ERROR "report failed: ${out}")
endif()

# Seed-sharded parallel execution: the same study split over 2 shards must
# still analyse every sample, and the merged datasets must feed the report
# path end-to-end.
execute_process(COMMAND ${CTL} study --samples 60 --no-probe --jobs 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "D-Samples   60")
  message(FATAL_ERROR "sharded study failed: ${out}${err}")
endif()

# A --samples count beyond the Appendix-E weekly calendar is a bad
# argument (exit 2 naming the capacity), not a silently smaller study.
execute_process(COMMAND ${CTL} study --samples 1448 --no-probe
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "capacity of 1447 samples")
  message(FATAL_ERROR "oversized --samples: want exit 2, got ${rc}: ${out}${err}")
endif()

# Store-backed study: shards commit as segments, --resume must skip all of
# them and reproduce the identical artifact, and the query layer must keep
# answering across a compaction.
file(REMOVE_RECURSE smoke-store)
execute_process(COMMAND ${CTL} study --samples 60 --no-probe --jobs 2
                        --store smoke-store --save-datasets smoke-store.mds
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "2 segment\\(s\\) written")
  message(FATAL_ERROR "store study failed: ${out}${err}")
endif()
execute_process(COMMAND ${CTL} study --samples 60 --no-probe --jobs 2
                        --store smoke-store --resume
                        --save-datasets smoke-resume.mds
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "2 shard\\(s\\) resumed")
  message(FATAL_ERROR "store resume failed: ${out}${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        smoke-store.mds smoke-resume.mds
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed study artifact differs from the original")
endif()
execute_process(COMMAND ${CTL} query --store smoke-store totals
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "samples=60")
  message(FATAL_ERROR "store query failed: ${out}")
endif()
execute_process(COMMAND ${CTL} compact --store smoke-store
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "compact failed: ${out}")
endif()
execute_process(COMMAND ${CTL} query --store smoke-store totals
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "samples=60 .* segments=1")
  message(FATAL_ERROR "post-compact query failed: ${out}")
endif()

# The quickstart example is the README's first command; it must keep
# running end-to-end.
if(DEFINED QUICKSTART)
  execute_process(COMMAND ${QUICKSTART}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "quickstart failed: ${out}${err}")
  endif()
endif()
