# cmake -DPROG=<binary> -DARGS="<space-separated args>" -DEXPECT=<status>
#       -P expect_exit.cmake
# Runs PROG with ARGS and fails unless it exits with status EXPECT (a
# crash or signal never matches).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROG} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECT}")
    message(FATAL_ERROR "${PROG} ${ARGS}: exit status '${status}', "
                        "expected ${EXPECT}\n${out}${err}")
endif()
