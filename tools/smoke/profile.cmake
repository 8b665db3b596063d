# Declarative family profiles through the CLI: the committed files validate
# and equal `profile dump`, the profile-set hash keys the --resume
# fingerprint, and a data-only variant changes the study. (Loaded builtins
# reproducing the study byte for byte: ProfileGolden.LoadedBuiltinsReproduceStudyByteForByte.)
# Run with -DCTL=<malnetctl> -DPROFILES=<committed profiles directory>.
include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

file(GLOB committed ${PROFILES}/*.json)
ctl(profile check ${committed})

# The committed family files are exactly what `profile dump` emits: a
# drifted commit would silently stop covering the compiled-in behaviour.
file(REMOVE_RECURSE dumped store)
ctl(profile dump dumped)
file(GLOB dumped dumped/*.json)
if(NOT dumped)
  message(FATAL_ERROR "profile dump wrote no files")
endif()
foreach(f IN LISTS dumped)
  get_filename_component(name ${f} NAME)
  same_file(${f} ${PROFILES}/${name})
endforeach()

# Byte-identical profiles hash like the builtins, so a --resume that loads
# them matches the stored fingerprint and reuses the shards verbatim.
set(study study --samples 120 --shards 2 --jobs 2 --log-level warn)
ctl(${study} --store store)
ctl(${study} --store store --resume --profiles dumped --save-datasets resumed.mds)
ctl(${study} --save-datasets fresh.mds)
same_file(resumed.mds fresh.mds)

# A data-only variant family runs end to end and changes the datasets.
ctl(${study} --profiles ${PROFILES} --variant mirai-fallback:0.5
    --save-datasets variant.mds)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files variant.mds fresh.mds
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "the variant study left the datasets unchanged")
endif()
