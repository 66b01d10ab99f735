# Byte-identity harness for the reduced-size sweep outputs (tests/golden/):
# runs BENCH in --quick mode at two worker counts and fails if stdout drifts
# by even one byte. This is the regression net that lets the simulator core
# be restructured freely — results must not depend on internals or on the
# number of sweep workers.
#
# Invoke: cmake -DBENCH=<exe> -DGOLDEN=<file> ["-DEXTRA_ARGS=<args>"]
#         -P golden_check.cmake
#
# EXTRA_ARGS appends flags to every run (e.g. `--cluster <spec>` for the
# 16-box rack golden, or `--engine step` to assert the per-epoch reference
# engine against the same bytes as the fused one).
separate_arguments(extra_list UNIX_COMMAND "${EXTRA_ARGS}")
file(READ "${GOLDEN}" want)
foreach(jobs 1 4)
  execute_process(COMMAND "${BENCH}" --quick ${extra_list} --jobs ${jobs}
                  OUTPUT_VARIABLE got
                  ERROR_VARIABLE stderr_ignored
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --quick ${EXTRA_ARGS} --jobs ${jobs} failed (exit ${rc})")
  endif()
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "stdout of ${BENCH} --quick ${EXTRA_ARGS} --jobs ${jobs} deviates "
                        "from ${GOLDEN}\n--- expected ---\n${want}"
                        "--- got ---\n${got}")
  endif()
endforeach()
