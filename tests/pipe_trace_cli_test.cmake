# Replays a text and a binary trace through a pipe (`cat trace | tool ...
# /dev/stdin`) with trace_tools replay and flashsim_cli --trace. Each run
# must exit 0 and print exactly what replaying the file by path prints (the
# path itself aside). The traces are larger than the reader's 1 MiB block,
# so records straddle refills of the pipe.
#
#   cmake -DCLI=<flashsim_cli> -DTRACE_TOOLS=<trace_tools> -DWORK_DIR=<dir>
#         -P pipe_trace_cli_test.cmake

# Runs the command (a pipeline when given several COMMANDs) and returns its
# stdout with the trace path replaced by TRACE in `out_var`.
function(run_replay name out_var path)
  execute_process(${ARGN}
                  RESULTS_VARIABLE codes OUTPUT_VARIABLE out ERROR_VARIABLE err)
  foreach(code IN LISTS codes)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "${name}: expected exit 0, got '${codes}'\nstdout:\n${out}\nstderr:\n${err}")
    endif()
  endforeach()
  if(NOT out MATCHES "simulated")
    message(FATAL_ERROR "${name}: printed no metrics:\n${out}")
  endif()
  string(REPLACE "${path}" "TRACE" out "${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

foreach(format text binary)
  set(trace "${WORK_DIR}/pipe_trace_cli_test.${format}")
  set(flags "")
  if(format STREQUAL "binary")
    set(flags "--binary")
  endif()
  execute_process(COMMAND "${TRACE_TOOLS}" generate "${trace}" ${flags} --ws-mib=96
                  RESULT_VARIABLE code OUTPUT_QUIET)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "trace_tools generate ${format} failed: '${code}'")
  endif()
  file(SIZE "${trace}" size)
  if(size LESS_EQUAL 1048576)
    message(FATAL_ERROR "${format} trace is ${size} bytes, not larger than one read block")
  endif()

  run_replay("trace_tools replay ${format} by path" by_path "${trace}"
             COMMAND "${TRACE_TOOLS}" replay "${trace}")
  run_replay("trace_tools replay ${format} from a pipe" piped "/dev/stdin"
             COMMAND cat "${trace}" COMMAND "${TRACE_TOOLS}" replay /dev/stdin)
  if(NOT by_path MATCHES "replayed [0-9]+ operations")
    message(FATAL_ERROR "trace_tools replay ${format}: no operation count:\n${by_path}")
  endif()
  if(NOT piped STREQUAL by_path)
    message(FATAL_ERROR "trace_tools replay ${format}: pipe output differs\npath:\n${by_path}\npipe:\n${piped}")
  endif()

  run_replay("flashsim_cli ${format} by path" by_path "${trace}"
             COMMAND "${CLI}" "--trace=${trace}")
  run_replay("flashsim_cli ${format} from a pipe" piped "/dev/stdin"
             COMMAND cat "${trace}" COMMAND "${CLI}" --trace=/dev/stdin)
  if(NOT piped STREQUAL by_path)
    message(FATAL_ERROR "flashsim_cli ${format}: pipe output differs\npath:\n${by_path}\npipe:\n${piped}")
  endif()
  file(REMOVE "${trace}")
endforeach()
