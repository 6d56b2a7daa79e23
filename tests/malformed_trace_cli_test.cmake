# Replays a 3-line text trace whose middle line is malformed through
# flashsim_cli --trace and trace_tools replay. Both must exit 1 and name
# line 2 on stderr instead of printing metrics for the records they kept.
#
#   cmake -DCLI=<flashsim_cli> -DTRACE_TOOLS=<trace_tools> -DWORK_DIR=<dir>
#         -P malformed_trace_cli_test.cmake
set(trace "${WORK_DIR}/malformed_trace_cli_test.trace")
file(WRITE "${trace}" "R 0 0 1 0 4\nR 0 0 1 bogus 4\nW 0 0 1 8 2\n")

function(expect_rejected name)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "${name}: expected exit 1, got '${code}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${err}" "malformed trace record at line 2" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name}: stderr does not name line 2:\n${err}")
  endif()
  if(out MATCHES "simulated time|replayed [0-9]+ operations")
    message(FATAL_ERROR "${name}: printed metrics for a malformed trace:\n${out}")
  endif()
endfunction()

expect_rejected(flashsim_cli "${CLI}" "--trace=${trace}")
expect_rejected(trace_tools "${TRACE_TOOLS}" replay "${trace}")
file(REMOVE "${trace}")
