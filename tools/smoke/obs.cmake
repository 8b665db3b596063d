# `malnetctl study` observability artifacts: --metrics-out, --trace-out and
# --profile, clean and under hostile chaos.
include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

# The merged registry carries the StudyResults headline counters and the
# network totals; the trace is trace_event JSON.
ctl(study --samples 200 --shards 4 --jobs 4 --metrics-out m.json
    --trace-out t.json --profile --log-level warn)
ctl(json-check m.json counters.sandbox_runs counters.sim_events
    counters.samples_analysed counters.non_mips_skipped counters.ddos_records
    counters.net.packets_sent counters.campaign.rounds
    histograms.sandbox.packets_out)
ctl(json-check t.json traceEvents)

# A serial run without --trace-out/--profile writes the identical metrics
# file: neither the worker count nor the extra artifacts change a byte.
ctl(study --samples 200 --shards 4 --jobs 1 --metrics-out m-serial.json
    --log-level warn)
same_file(m.json m-serial.json)

# Hostile chaos completes and records its faults. (Its --jobs invariance
# and --chaos=none's identity with a clean run are unit-tested in-process:
# ChaosProps.JobsInvarianceUnderEveryProfile, ChaosProps.ChaosOffMatchesChaosAbsent.)
ctl(study --samples 200 --shards 4 --jobs 4 --chaos=hostile --chaos-seed=7
    --metrics-out chaos-m.json --log-level warn)
ctl(json-check chaos-m.json counters.faults_injected counters.samples_degraded
    counters.resolver_retries counters.chaos.dns_servfails
    counters.chaos.c2_crashes)
