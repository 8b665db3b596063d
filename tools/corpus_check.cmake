# Regenerates the seed corpus into OUT with MAKE_CORPUS and fails unless it
# matches the COMMITTED directory file for file, byte for byte.
file(REMOVE_RECURSE ${OUT})
execute_process(COMMAND ${MAKE_CORPUS} ${OUT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "malnet_make_corpus failed: ${out}${err}")
endif()

file(GLOB generated RELATIVE ${OUT} ${OUT}/*)
file(GLOB committed RELATIVE ${COMMITTED} ${COMMITTED}/*)
list(SORT generated)
list(SORT committed)
if(NOT generated STREQUAL committed)
  message(FATAL_ERROR "corpus file sets differ\n"
                      "  generated: ${generated}\n  committed: ${committed}")
endif()
foreach(name IN LISTS generated)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${OUT}/${name} ${COMMITTED}/${name}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tests/corpus/${name} is stale; rerun "
                        "malnet_make_corpus tests/corpus and commit the result")
  endif()
endforeach()
