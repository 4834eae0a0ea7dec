# Golden test for the calibrate tool's user-visible output.
#
# Runs calibrate (model and detailed simulation over the whole MiBench
# suite) at a fixed trace length and worker count and requires its
# stdout to match the checked-in golden byte for byte.  The table is
# deterministic at any worker count, so every thread count diffs
# against the same file.
#
# With PROFILE_DIR (and MECH_PROFILE) set, the script first writes
# .mprof artifacts for the suite into that directory with mech_profile
# and then runs calibrate --profile-dir on them: the table must not
# change when every profile makes a round trip through a file.
#
#   cmake -DCALIBRATE=<calibrate> -DGOLDEN=<golden> -DTHREADS=<n> \
#         -DWORK_DIR=<scratch dir> \
#         [-DMECH_PROFILE=<mech_profile> -DPROFILE_DIR=<dir>] \
#         -P calibrate_golden.cmake

foreach(var CALIBRATE GOLDEN THREADS WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "calibrate_golden: -D${var}=... is required")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(output "${WORK_DIR}/calibrate-${THREADS}.txt")
set(profile_args)
if(DEFINED PROFILE_DIR)
    if(NOT DEFINED MECH_PROFILE)
        message(FATAL_ERROR
            "calibrate_golden: PROFILE_DIR needs -DMECH_PROFILE=...")
    endif()
    file(REMOVE_RECURSE "${PROFILE_DIR}")
    execute_process(
        COMMAND "${MECH_PROFILE}" --instructions 20000
                --threads ${THREADS} --out "${PROFILE_DIR}"
        OUTPUT_QUIET
        RESULT_VARIABLE code)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "mech_profile exited with ${code}")
    endif()
    set(output "${WORK_DIR}/calibrate-profile-dir-${THREADS}.txt")
    set(profile_args --profile-dir "${PROFILE_DIR}")
endif()
file(REMOVE "${output}")

execute_process(
    COMMAND "${CALIBRATE}" --instructions 20000 --threads ${THREADS}
            ${profile_args}
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
