# Shape check for the tracked microperf report: runs the harness in --quick
# mode and asserts every metric key and queue-introspection field is present
# in the JSON. Values are not asserted (rates are machine-dependent and the
# counters are workload-shaped); the contract under test is the schema that
# tools/bench_delta.py and CI gating consume.
#
# Invoke: cmake -DBENCH=<exe> -DWORKDIR=<dir> -P microperf_json_check.cmake
set(out "${WORKDIR}/microperf_check.json")
execute_process(COMMAND "${BENCH}" --json "${out}" --quick --repeat 1
                OUTPUT_VARIABLE stdout_ignored
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --json --quick failed (exit ${rc})")
endif()
file(READ "${out}" doc)

foreach(block metrics units checksums queue)
  if(NOT doc MATCHES "\"${block}\"")
    message(FATAL_ERROR "microperf JSON missing block '${block}'")
  endif()
endforeach()

foreach(metric
        event_loop_events_per_sec
        queue_churn_items_per_sec
        transactions_per_sec
        token_chain_grants_per_sec
        queue_bimodal_items_per_sec
        serve_burst_events_per_sec
        cluster_requests_per_sec
        cluster_epochs_per_sec
        gtm_retained_throughput
        fastforward_speedup
        tier_migrations_per_sec
        tier_hit_ratio)
  # Each metric key appears once per block (metrics, units, checksums).
  string(REGEX MATCHALL "\"${metric}\"" hits "${doc}")
  list(LENGTH hits n)
  if(NOT n EQUAL 3)
    message(FATAL_ERROR "microperf JSON: '${metric}' appears ${n} times, want 3")
  endif()
endforeach()

foreach(field
        peak_pending
        ready_peak
        cascaded_nodes
        rebases
        overflow_peak
        level_occupancy
        granularity_log2)
  if(NOT doc MATCHES "\"${field}\"")
    message(FATAL_ERROR "microperf JSON queue block missing field '${field}'")
  endif()
endforeach()
