# Runs a command-line front end (flashsim_cli, policy_explorer or policy_zoo)
# with flag values that are non-finite, negative or out of range, and
# flashsim_cli with flags that no longer exist. Each must be refused by the
# flag parser: exit 2 with the flag named on stderr, before any simulation
# runs (no abort, no undefined cast to an integer duration). The binary's
# file name picks its cases.
#
#   cmake -DCLI=<flashsim_cli|policy_explorer|policy_zoo> -P bad_flag_cli_test.cmake
#
# `expected` is the parser's diagnostic prefix that must name the flag:
# "bad value for --FLAG" or "unknown flag: --FLAG".
function(expect_usage_error expected)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${ARGN}: expected exit 2, got '${code}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${ARGN}: stderr lacks '${expected}':\n${err}")
  endif()
endfunction()

get_filename_component(binary "${CLI}" NAME_WE)

# --scale divides every capacity; zero is refused by all three binaries.
expect_usage_error("bad value for --scale" "--scale=0")

if(binary STREQUAL "flashsim_cli")
  foreach(value inf -inf nan 1e300 -1)
    expect_usage_error("bad value for --flash-read-us" "--flash-read-us=${value}")
    expect_usage_error("bad value for --flash-write-us" "--flash-write-us=${value}")
    expect_usage_error("bad value for --series-ms" "--series-ms=${value}")
  endforeach()
  foreach(value inf nan -0.5)
    expect_usage_error("bad value for --flash-noise" "--flash-noise=${value}")
  endforeach()
  foreach(value inf nan 101 -1)
    expect_usage_error("bad value for --prefetch-pct" "--prefetch-pct=${value}")
  endforeach()
  # Capacities: a negative value, or one whose byte count overflows a
  # uint64_t, must be refused rather than wrapped or cast.
  foreach(value -1 1e30 inf nan)
    foreach(flag ram-gib flash-gib ws-gib filer-tib)
      expect_usage_error("bad value for --${flag}" "--${flag}=${value}")
    endforeach()
  endforeach()
  # Removed engine, invalidation-model and shard-map flags.
  expect_usage_error("unknown flag: --partitions" "--partitions=4")
  expect_usage_error("unknown flag: --flash-rng" "--flash-rng=legacy")
  expect_usage_error("unknown flag: --invalidation" "--invalidation=async")
  expect_usage_error("unknown flag: --shard-strategy" "--shard-strategy=modulo")
  # Counts: the shard map covers 1..64 filers, the directory 1..4096 hosts,
  # and a host runs at least one thread.
  foreach(value 0 65)
    expect_usage_error("bad value for --filers" "--filers=${value}")
  endforeach()
  expect_usage_error("bad value for --hosts" "--hosts=0")
  expect_usage_error("bad value for --hosts" "--scale=8192" "--hosts=4097")
  expect_usage_error("bad value for --threads" "--threads=0")
else()
  # policy_explorer and policy_zoo: the same capacity and percentage rules.
  foreach(value -1 1e30)
    foreach(flag ram-gib flash-gib ws-gib)
      expect_usage_error("bad value for --${flag}" "--${flag}=${value}")
    endforeach()
  endforeach()
  set(percent_flags write-pct)
  if(binary STREQUAL "policy_zoo")
    list(APPEND percent_flags ws-io-pct)
  endif()
  foreach(value -1 250)
    foreach(flag IN LISTS percent_flags)
      expect_usage_error("bad value for --${flag}" "--${flag}=${value}")
    endforeach()
  endforeach()
endif()
