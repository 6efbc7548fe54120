# examples_smoke: runs every example program and requires exit 0.
#
#   cmake -DEXAMPLE_DIR=<dir> -DEXAMPLES=<name,name,...> -P examples_smoke.cmake

string(REPLACE "," ";" examples "${EXAMPLES}")
foreach(example IN LISTS examples)
  execute_process(
    COMMAND "${EXAMPLE_DIR}/example_${example}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "example_${example} exited ${rc}:\n${out}\n${err}")
  endif()
endforeach()
message(STATUS "examples smoke: OK")
