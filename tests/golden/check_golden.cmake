# Golden-output check, run by ctest:
#
#   cmake -DCOMMAND=<program> [-DARG=<argument>] -DGOLDEN=<file>
#         -P check_golden.cmake
#
# Runs the program and fails when it exits non-zero or when its stdout
# differs from the golden file by a single byte.  On a mismatch the
# actual output is left in <golden name>.actual in the working
# directory and a unified diff against the golden file is printed.
# A change that alters output on purpose regenerates the golden file
# in the same diff (see README.md).

execute_process(COMMAND "${COMMAND}" ${ARG}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${COMMAND} ${ARG} exited with status ${status}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name "${GOLDEN}" NAME)
    file(WRITE "${name}.actual" "${actual}")
    execute_process(COMMAND diff -u "${GOLDEN}" "${name}.actual")
    message(FATAL_ERROR
        "stdout of ${COMMAND} ${ARG} differs from ${GOLDEN}")
endif()
