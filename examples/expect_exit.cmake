# Runs CMD with the single argument ARG and fails unless it exits with
# status EXPECT. A crash (signal) reports as text, never as a number, so an
# abort cannot pass for an expected status.
#   cmake -DCMD=<program> -DARG=<argument> -DEXPECT=<status> -P expect_exit.cmake
execute_process(COMMAND "${CMD}" "${ARG}" RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${CMD} ${ARG}: exit status '${status}', "
                      "want ${EXPECT}\n${out}${err}")
endif()
message(STATUS "${CMD} ${ARG}: exit ${status}: ${err}")
