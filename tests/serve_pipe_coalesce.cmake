# Regression test for stdio request coalescing through a real pipe.
#
# Writes one eval request per line into a file, pipes it into
# mech_serve with --trace-out, and requires fewer session.flush spans
# than request lines: lines already waiting in the pipe must join the
# current flush instead of each being answered alone.  Every request
# must still get its (non-error) response.
#
#   cmake -DMECH_SERVE=<mech_serve> -DWORK_DIR=<scratch dir> \
#         -P serve_pipe_coalesce.cmake

foreach(var MECH_SERVE WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "serve_pipe_coalesce: -D${var}=... is required")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(requests "${WORK_DIR}/requests.jsonl")
set(responses "${WORK_DIR}/responses.jsonl")
set(trace "${WORK_DIR}/trace.json")
file(REMOVE "${requests}" "${responses}" "${trace}")

set(lines 0)
foreach(l2kb 128 256 512)
    foreach(width 1 2 3 4)
        math(EXPR lines "${lines} + 1")
        file(APPEND "${requests}"
            "{\"id\": ${lines}, \"type\": \"eval\", "
            "\"point\": \"l2kb=${l2kb},assoc=8,depth=9,freq=1,"
            "width=${width},pred=gshare1k\"}\n")
    endforeach()
endforeach()

# Two COMMANDs form a pipeline: the reader's stdin is a pipe, not the
# file, so this exercises what a piped client sees.
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E cat "${requests}"
    COMMAND "${MECH_SERVE}" --deterministic --threads 1
            --instructions 2000 --bench sha
            --trace-out "${trace}"
    OUTPUT_FILE "${responses}"
    RESULTS_VARIABLE codes)
foreach(code IN LISTS codes)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "pipeline exited with ${codes}")
    endif()
endforeach()

file(STRINGS "${responses}" answers)
list(LENGTH answers answered)
if(NOT answered EQUAL lines)
    message(FATAL_ERROR "${answered} responses to ${lines} requests")
endif()
foreach(answer IN LISTS answers)
    if(answer MATCHES "\"type\": \"error\"")
        message(FATAL_ERROR "error response: ${answer}")
    endif()
endforeach()

file(READ "${trace}" trace_json)
string(REGEX MATCHALL "\"session\\.flush\"" flushes "${trace_json}")
list(LENGTH flushes flush_count)
if(flush_count EQUAL 0 OR NOT flush_count LESS lines)
    message(FATAL_ERROR
        "${lines} piped requests took ${flush_count} session.flush "
        "spans; lines already in the pipe were not coalesced")
endif()
message(STATUS "${lines} piped requests in ${flush_count} flush(es)")
