# Runs BIN with ARGS (one string, split like a shell command line) and fails
# unless the binary exits with code 2 and its stderr matches MESSAGE: the
# usage error RunMain turns bad input into.
#
#   cmake -DBIN=path -DARGS="--jobs 0" -DMESSAGE=regex -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${code}, expected 2; stderr: ${err}")
endif()
if(NOT err MATCHES "${MESSAGE}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not match '${MESSAGE}': ${err}")
endif()
