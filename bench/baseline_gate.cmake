# Baseline regression gate: runs one bench and compares its JSON
# against the committed baseline with bench_compare. Every gated
# quantity is simulated and deterministic unless the bench says
# otherwise, so the default tolerance band catches behavioural drift
# (a summary flag flipping to 0 included); COMPARE_ARGS adds the
# bench's one-sided floors and per-metric tolerances.
# Invoked by ctest with:
#   -DBENCH=<bench binary> -DCOMPARE=<bench_compare>
#   -DBASELINE=<tests/baselines/BENCH_<name>.json> -DWORKDIR=<dir>
#   -DBENCH_ARGS="<bench arguments>"         (optional, space-separated)
#   -DCOMPARE_ARGS="<bench_compare flags>"   (optional, space-separated)
# Re-record a baseline with CEREAL_UPDATE_BASELINES=1 in the
# environment after an intentional behaviour change.

get_filename_component(name ${BASELINE} NAME_WE)
set(fresh ${WORKDIR}/${name}_fresh.json)
separate_arguments(bench_args UNIX_COMMAND "${BENCH_ARGS}")
separate_arguments(compare_args UNIX_COMMAND "${COMPARE_ARGS}")

execute_process(
  COMMAND ${BENCH} ${bench_args} --json ${fresh}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "${BENCH} failed (rc=${rc}):\n${stdout}\n${stderr}")
endif()

execute_process(
  COMMAND ${COMPARE} ${fresh} ${BASELINE} ${compare_args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
message(STATUS "bench_compare:\n${stdout}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "${name} drifted from the baseline (rc=${rc}):\n"
          "${stdout}\n${stderr}")
endif()
