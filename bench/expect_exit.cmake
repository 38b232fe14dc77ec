# Runs EXE with the single argument ARG and fails unless it exits with
# EXPECTED. Usage (from add_test):
#   cmake -DEXE=<path> -DARG=<flag> -DEXPECTED=<code> -P expect_exit.cmake
execute_process(COMMAND "${EXE}" "${ARG}"
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "${EXE} ${ARG}: exit ${code}, expected ${EXPECTED}\n${err}")
endif()
message(STATUS "${EXE} ${ARG}: exit ${code}: ${err}")
