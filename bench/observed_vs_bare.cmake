# The observation contract, end to end: runs a bench binary twice --
# once bare and once with --trace and --metrics -- and fails unless the
# observed run reports exactly what the bare run reports. Observation
# may add the JSON "metrics" subtrees bench_compare skips, but never
# move a simulated number. Invoked by ctest (see add_test in
# CMakeLists.txt) with:
#   -DBENCH=<path to bench binary> -DCOMPARE=<bench_compare>
#   -DWORKDIR=<scratch dir> -DNAME=<id>

set(scale 256)
set(json_bare ${WORKDIR}/${NAME}_bare.json)
set(json_obs ${WORKDIR}/${NAME}_observed.json)
set(trace_obs ${WORKDIR}/${NAME}_observed.trace.json)
set(prom_obs ${WORKDIR}/${NAME}_observed.prom)

execute_process(
  COMMAND ${BENCH} ${scale} --json ${json_bare}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "${BENCH} bare run failed (rc=${rc}):\n${stdout}\n${stderr}")
endif()

execute_process(
  COMMAND ${BENCH} ${scale} --json ${json_obs}
          --trace ${trace_obs} --metrics ${prom_obs}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "${BENCH} observed run failed (rc=${rc}):\n${stdout}\n${stderr}")
endif()

execute_process(
  COMMAND ${COMPARE} ${json_bare} ${json_obs} --tolerance 0
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "observation changed the reported stats: ${json_bare} vs "
          "${json_obs} (rc=${rc}):\n${stdout}\n${stderr}")
endif()
