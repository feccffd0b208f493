# ecatool CLI contract test, run via `cmake -DECATOOL=<path> -P`.
#
# Asserts the strict numeric flag parsing added with the resource governor:
# garbage, trailing-junk, negative, zero and out-of-range values for
# --threads / --rows / --timeout-ms / --mem-limit-mb must exit nonzero with
# a diagnostic naming the flag, and valid governed invocations must run.
# Also covers the observability flags: --trace-out (both --trace-out=FILE
# and --trace-out FILE forms) must write a Chrome-trace JSON file and print
# the summary line, --metrics must print per-approach registry deltas, and
# --metrics-json must end the output with a JSON snapshot.

if(NOT DEFINED ECATOOL)
  message(FATAL_ERROR "pass -DECATOOL=<path to ecatool>")
endif()

set(PLAN "(R0 join[p01] R1)")
set(PRED "p01=R0.a = R1.a")

function(expect_fail label diag_substr)
  execute_process(
    COMMAND ${ECATOOL} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected nonzero exit, got 0\n${out}${err}")
  endif()
  if(NOT err MATCHES "${diag_substr}")
    message(FATAL_ERROR
            "${label}: stderr missing '${diag_substr}':\n${err}")
  endif()
endfunction()

function(expect_ok label)
  execute_process(
    COMMAND ${ECATOOL} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected exit 0, got ${rc}\n${out}${err}")
  endif()
  set(LAST_OUT "${out}" PARENT_SCOPE)
endfunction()

# --- strict numeric parsing -------------------------------------------------

expect_fail("threads garbage" "bad --threads value '12abc'"
            explain ${PLAN} --pred ${PRED} --threads 12abc)
expect_fail("threads empty-ish" "bad --threads value 'x'"
            explain ${PLAN} --pred ${PRED} --threads x)
expect_fail("threads zero" "bad --threads value '0'"
            explain ${PLAN} --pred ${PRED} --threads 0)
expect_fail("threads negative" "bad --threads value '-2'"
            explain ${PLAN} --pred ${PRED} --threads -2)
expect_fail("threads huge" "bad --threads value '99999999999'"
            explain ${PLAN} --pred ${PRED} --threads 99999999999)
expect_fail("morsel-rows zero" "bad --morsel-rows value '0'"
            explain ${PLAN} --pred ${PRED} --morsel-rows 0)
expect_fail("morsel-rows garbage" "bad --morsel-rows value '4k'"
            explain ${PLAN} --pred ${PRED} --morsel-rows 4k)
expect_fail("chunk-rows negative" "bad --chunk-rows value '-1'"
            explain ${PLAN} --pred ${PRED} --chunk-rows -1)
expect_fail("rows garbage" "bad --rows value '10q'"
            explain ${PLAN} --pred ${PRED} --rows 10q)
expect_fail("rows negative" "bad --rows value '-3'"
            explain ${PLAN} --pred ${PRED} --rows -3)
expect_fail("timeout garbage" "bad --timeout-ms value 'soon'"
            explain ${PLAN} --pred ${PRED} --timeout-ms soon)
expect_fail("timeout zero" "bad --timeout-ms value '0'"
            explain ${PLAN} --pred ${PRED} --timeout-ms 0)
expect_fail("mem-limit garbage" "bad --mem-limit-mb value '1.5'"
            explain ${PLAN} --pred ${PRED} --mem-limit-mb 1.5)
expect_fail("mem-limit negative" "bad --mem-limit-mb value '-8'"
            explain ${PLAN} --pred ${PRED} --mem-limit-mb -8)
expect_fail("unknown flag" "unknown argument"
            explain ${PLAN} --pred ${PRED} --frobnicate 3)
expect_fail("no subcommand" "usage")
expect_fail("bad gen-tpch sf" "bad scale factor"
            gen-tpch nope /tmp)

# --- governed explain runs --------------------------------------------------

expect_ok("plain explain"
          explain ${PLAN} --pred ${PRED} --rows 32 --approach eca)
expect_ok("tuned explain"
          explain ${PLAN} --pred ${PRED} --rows 32 --approach eca
          --threads 2 --morsel-rows 5 --chunk-rows 3)
expect_ok("governed explain"
          explain ${PLAN} --pred ${PRED} --rows 32 --approach eca
          --timeout-ms 60000 --mem-limit-mb 256)
if(NOT LAST_OUT MATCHES "governor: degraded=")
  message(FATAL_ERROR
          "governed explain did not print governor counters:\n${LAST_OUT}")
endif()
if(NOT LAST_OUT MATCHES "rows=")
  message(FATAL_ERROR
          "governed explain did not print its profile:\n${LAST_OUT}")
endif()

# --- observability flags ----------------------------------------------------

expect_fail("trace-out empty value" "bad --trace-out value"
            explain ${PLAN} --pred ${PRED} --trace-out=)

set(TRACE_FILE "${CMAKE_CURRENT_BINARY_DIR}/ecatool_cli_trace.json")
file(REMOVE "${TRACE_FILE}")
expect_ok("trace + metrics explain"
          explain ${PLAN} --pred ${PRED} --rows 32 --approach eca
          --trace-out=${TRACE_FILE} --metrics)
if(NOT EXISTS "${TRACE_FILE}")
  message(FATAL_ERROR "--trace-out did not write ${TRACE_FILE}")
endif()
file(READ "${TRACE_FILE}" trace_json)
if(NOT trace_json MATCHES "\"traceEvents\"")
  message(FATAL_ERROR "trace file is not Chrome trace JSON:\n${trace_json}")
endif()
if(NOT trace_json MATCHES "\"optimize\"")
  message(FATAL_ERROR "trace file has no optimize span:\n${trace_json}")
endif()
if(NOT trace_json MATCHES "\"execute\"")
  message(FATAL_ERROR "trace file has no execute span:\n${trace_json}")
endif()
if(NOT LAST_OUT MATCHES "trace: [0-9]+ events")
  message(FATAL_ERROR "missing trace summary line:\n${LAST_OUT}")
endif()
if(NOT LAST_OUT MATCHES "metrics \\(ECA\\):")
  message(FATAL_ERROR "--metrics did not print a registry delta:\n${LAST_OUT}")
endif()
if(NOT LAST_OUT MATCHES "enum\\.subplan_calls")
  message(FATAL_ERROR "metrics delta missing enum counters:\n${LAST_OUT}")
endif()
if(NOT LAST_OUT MATCHES "exec\\.rows_produced")
  message(FATAL_ERROR "metrics delta missing exec counters:\n${LAST_OUT}")
endif()
if(NOT LAST_OUT MATCHES "provenance:")
  message(FATAL_ERROR "explain did not print provenance:\n${LAST_OUT}")
endif()
file(REMOVE "${TRACE_FILE}")

# The space-separated --trace-out form and --metrics-json.
expect_ok("trace space form + metrics-json"
          explain ${PLAN} --pred ${PRED} --rows 32 --approach eca
          --trace-out ${TRACE_FILE} --metrics-json)
if(NOT EXISTS "${TRACE_FILE}")
  message(FATAL_ERROR "--trace-out FILE form did not write ${TRACE_FILE}")
endif()
if(NOT LAST_OUT MATCHES "\"counters\"")
  message(FATAL_ERROR "--metrics-json did not print JSON:\n${LAST_OUT}")
endif()
if(NOT LAST_OUT MATCHES "\"histograms\"")
  message(FATAL_ERROR "--metrics-json missing histograms:\n${LAST_OUT}")
endif()
file(REMOVE "${TRACE_FILE}")

# --- clean Ctrl-C on governed runs ------------------------------------------

# --self-interrupt-ms raises SIGINT from a timer thread mid-query: the
# handler fires the governed query's CancelToken, the executor unwinds
# with kCancelled releasing every tracker byte and spill file, and
# ecatool exits 130 with an "interrupted" diagnostic.
set(SPILL_DIR "${CMAKE_CURRENT_BINARY_DIR}/ecatool_cli_spill")
file(REMOVE_RECURSE "${SPILL_DIR}")
file(MAKE_DIRECTORY "${SPILL_DIR}")
execute_process(
  COMMAND ${ECATOOL} explain ${PLAN} --pred ${PRED} --rows 3000
          --approach eca --timeout-ms 600000 --mem-limit-mb 4096
          --spill-dir ${SPILL_DIR} --self-interrupt-ms 200
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 130)
  message(FATAL_ERROR
          "self-interrupt: expected exit 130, got ${rc}\n${out}${err}")
endif()
if(NOT err MATCHES "interrupted")
  message(FATAL_ERROR
          "self-interrupt: stderr missing 'interrupted':\n${err}")
endif()
# The cancelled query must not strand a per-query spill subdirectory.
file(GLOB leftover_spill "${SPILL_DIR}/*")
if(leftover_spill)
  message(FATAL_ERROR
          "self-interrupt left spill entries behind: ${leftover_spill}")
endif()
file(REMOVE_RECURSE "${SPILL_DIR}")

# --- crash-recovery spill sweep ---------------------------------------------

set(SWEEP_DIR "${CMAKE_CURRENT_BINARY_DIR}/ecatool_cli_sweep")
file(REMOVE_RECURSE "${SWEEP_DIR}")
# An orphan from a "crashed" process (pid 2000000000 exceeds any live
# pid) plus an unrelated directory the sweep must not touch.
file(MAKE_DIRECTORY "${SWEEP_DIR}/eca-q2000000000-0")
file(WRITE "${SWEEP_DIR}/eca-q2000000000-0/partition-0.bin" "orphan")
file(MAKE_DIRECTORY "${SWEEP_DIR}/keep-me")
expect_ok("sweep-spill-dir" sweep-spill-dir ${SWEEP_DIR})
if(NOT LAST_OUT MATCHES "swept 1 orphaned spill dirs")
  message(FATAL_ERROR "sweep-spill-dir wrong summary:\n${LAST_OUT}")
endif()
if(EXISTS "${SWEEP_DIR}/eca-q2000000000-0")
  message(FATAL_ERROR "sweep-spill-dir left the orphan behind")
endif()
if(NOT EXISTS "${SWEEP_DIR}/keep-me")
  message(FATAL_ERROR "sweep-spill-dir removed an unrelated directory")
endif()
# The --flag spelling is accepted too, and a second sweep finds nothing.
expect_ok("sweep-spill-dir flag form" --sweep-spill-dir ${SWEEP_DIR})
if(NOT LAST_OUT MATCHES "swept 0 orphaned spill dirs")
  message(FATAL_ERROR "re-sweep should reclaim nothing:\n${LAST_OUT}")
endif()
expect_fail("sweep without dir" "usage" sweep-spill-dir)
file(REMOVE_RECURSE "${SWEEP_DIR}")

message(STATUS "ecatool CLI contract: all checks passed")
