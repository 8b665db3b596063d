# Shared by the sequential smoke tests in this directory (cmake -P scripts
# run with -DCTL=<malnetctl> in their own ctest working directory).

# ctl(<args...>): runs malnetctl and fails the test, showing its output,
# unless it exits 0.
function(ctl)
  execute_process(COMMAND ${CTL} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    string(JOIN " " cmd ${ARGN})
    message(FATAL_ERROR "malnetctl ${cmd}: exit ${rc}\n${out}")
  endif()
endfunction()

# same_file(<a> <b>): fails the test unless the two files are byte-identical.
function(same_file a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()
