# Runs one table/figure regenerator and compares its stdout with the
# committed golden byte for byte, printing a unified diff on mismatch.
#
#   cmake -DBINARY=<regenerator> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt>
#         -P check_golden.cmake
execute_process(COMMAND "${BINARY}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "stdout of ${BINARY} differs from ${GOLDEN} "
    "(actual output kept in ${ACTUAL})")
endif()
