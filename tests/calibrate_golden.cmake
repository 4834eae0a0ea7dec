# Golden test for the calibrate tool's user-visible output.
#
# Runs calibrate (model and detailed simulation over the whole MiBench
# suite) at a fixed trace length and worker count and requires its
# stdout to match the checked-in golden byte for byte.  The table is
# deterministic at any worker count, so every thread count diffs
# against the same file.
#
#   cmake -DCALIBRATE=<calibrate> -DGOLDEN=<golden> -DTHREADS=<n> \
#         -DWORK_DIR=<scratch dir> -P calibrate_golden.cmake

foreach(var CALIBRATE GOLDEN THREADS WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "calibrate_golden: -D${var}=... is required")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(output "${WORK_DIR}/calibrate-${THREADS}.txt")
file(REMOVE "${output}")

execute_process(
    COMMAND "${CALIBRATE}" --instructions 20000 --threads ${THREADS}
    OUTPUT_FILE "${output}"
    RESULT_VARIABLE code)
if(NOT code EQUAL 0)
    message(FATAL_ERROR "calibrate exited with ${code}")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${output}" "${GOLDEN}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
        "calibrate --threads ${THREADS} output ${output} differs from "
        "${GOLDEN}")
endif()
