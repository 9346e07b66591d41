#!/usr/bin/env bash
# Full verification matrix: builds and runs the test suite in three
# configurations — plain, AddressSanitizer+UBSan, and ThreadSanitizer.
# The TSan leg is what proves the parallel execution engine free of data
# races; the differential tests in parallel_exec_test.cc drive every
# parallel operator at DOP 4 under it.
#
# The robustness suites (fault_matrix_test, wire_fuzz_test, recovery_test)
# are additionally invoked by name under both sanitizer legs: the fault
# matrix and the wire fuzzer are exactly the tests whose failure mode is
# memory corruption / a race in the recovery paths, so they must stay green
# under ASan and TSan even if the main ctest selection is ever narrowed.
#
# The observability suites (obs_test, trace_test, explain_analyze_test) get
# the same treatment — the metrics registry and trace recorder are written
# to concurrently by the pool workers and prefetch producers, so TSan is
# their real referee. Every leg additionally fails if any test binary
# printed a metrics-registry leak warning (an expect-zero gauge, e.g.
# pool.queue_depth or query.active, that did not drain back to zero).
#
# The adaptive-plan-management suites (plan_cache_test, feedback_test,
# fingerprint_test) join the by-name matrix too: the sharded plan cache and
# the feedback store are hit concurrently from every query thread, and
# plan_cache_test's ConcurrentHammer only means something under TSan.
#
# The durability suites (wal_recovery_test, write_churn_test) are the write
# path's referee: the crash matrix kills and recovers the engine at injected
# LSN boundaries (torn tails, partial fsyncs), and the churn test races the
# temporal-update writer against live queries — exactly the code whose
# failure mode is a racy log append or a use-after-free in undo, so both
# must stay green under ASan and TSan. engine_concurrency_test drives one
# durable engine from several Connections: readers share the engine's
# statement lock while the writer and DDL take it exclusive, so TSan is the
# referee for the read path being free of shared mutable state.
#
# Usage: scripts/check.sh [jobs]   (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

ROBUSTNESS_SUITES='^(fault_matrix_test|wire_fuzz_test|recovery_test)$'
OBS_SUITES='^(obs_test|trace_test|explain_analyze_test)$'
ADAPT_SUITES='^(plan_cache_test|feedback_test|fingerprint_test)$'
# The block-capacity differential sweeps: exec_property_test drains every
# operator at block capacities {2,7,1024} against the one-row-block
# reference (and filter/project/sort against an oracle computed directly
# over the input), checking that exhaustion sticks, and parallel_exec_test
# checks the parallel variants at DOP 4 — ASan catches a moved-from row
# reused, TSan a racy block handoff, so both suites run under both
# sanitizers by name.
VECTOR_SUITES='^(exec_property_test|parallel_exec_test)$'
DURABILITY_SUITES='^(wal_recovery_test|write_churn_test|engine_concurrency_test)$'
# Mid-query replanning: the replan-vs-static differential plus the
# checkpoint-counting property tests. The Claim()/Fulfill() arbiter and the
# retain-mode buffer handoff run on prefetch producer threads at dop > 1,
# so TSan referees the monitor protocol; ASan the buffer splice.
REPLAN_SUITES='^(replan_exec_test)$'
# The network service: server_test drives a real PollingServer over
# loopback (poll thread + worker pool + concurrent clients sharing the
# plan cache — TSan's bread and butter), and server_soak is the same
# binary's mixed adversarial workload with its iteration counts
# multiplied. wire_fuzz_test (above) covers the protocol codec. The
# server's pooled workers read the engine concurrently through the shared
# statement lock, so engine_concurrency_test runs in this leg too.
SERVER_SUITES='^(server_test|server_soak|engine_concurrency_test)$'
# Column-pruned scans: Page::ReadColumns and WireReader::SkipValue step
# through raw slot bytes, and pooled readers run these scans concurrently
# under the shared statement lock. ASan referees the decoder's bounds (the
# forged-length and truncated-slot cases), TSan the shared pages and the
# scan counters; dbms_planner_test is the pruning-vs-oracle differential
# and the DBMS batch-size differential. The DBMS operator suites run here
# too: the planner builds its filter, project, sort, dup-elim and merge
# join from src/exec, so a DBMS sort may spill RunFile temp files, and the
# joins and aggregation read their children through BatchedReader blocks.
# DBMS rows are dense (only the columns some operator reads), so every join
# and projection above a scan binds against narrowed schemas: integration_test
# (labeled slow, so the broad sanitizer pass skips it) runs the middleware's
# generated SQL through them in its all-sites PlanDifferentialTest.
SCAN_SUITES='^(storage_test|dbms_planner_test|wire_fuzz_test|dbms_exec_ops_test|dbms_test|integration_test)$'

# A stuck test under a sanitizer leg should fail the run, not hang it.
CTEST_TIMEOUT=600

# ctest rewrites LastTest.log on every invocation, so this runs after each
# one: no test binary may print a metrics-registry leak warning.
check_leaks() {
  local name="$1" dir="$2"
  if grep -q "metrics-registry leak" "${dir}/Testing/Temporary/LastTest.log"; then
    echo "=== ${name}: FAILED — metrics-registry leak warnings in test output ==="
    grep "metrics-registry leak" "${dir}/Testing/Temporary/LastTest.log"
    exit 1
  fi
}

run_config() {
  local name="$1" dir="$2" sanitize="$3"
  echo "=== ${name}: configure + build + ctest (${dir}) ==="
  cmake -B "${dir}" -S . -DTANGO_SANITIZE="${sanitize}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  # Sanitizer legs skip the `slow`-labeled suites in the broad pass (they
  # run 5-20x slower instrumented); the ones that matter under sanitizers
  # are then invoked by name below, so nothing slow is actually skipped —
  # it is just targeted. The plain leg runs everything.
  local label_filter=()
  if [[ -n "${sanitize}" ]]; then
    label_filter=(-LE slow)
  fi
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" --timeout "${CTEST_TIMEOUT}" "${label_filter[@]}")
  check_leaks "${name}" "${dir}"
  if [[ -n "${sanitize}" ]]; then
    echo "=== ${name}: robustness suites (fault matrix + wire fuzz + recovery) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${ROBUSTNESS_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: observability suites (metrics + trace + explain analyze) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${OBS_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: adaptive suites (plan cache + feedback + fingerprint) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${ADAPT_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: vectorization suites (block-capacity differential + parallel) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${VECTOR_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: durability suites (WAL crash matrix + write churn) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${DURABILITY_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: replan suites (replan-vs-static differential) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${REPLAN_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: server suites (polling server + soak) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${SERVER_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
    echo "=== ${name}: scan suites (column-pruned decode + pruning differential) ==="
    (cd "${dir}" && ctest --output-on-failure -R "${SCAN_SUITES}" --timeout "${CTEST_TIMEOUT}")
    check_leaks "${name}" "${dir}"
  fi
  echo "=== ${name}: OK ==="
  echo
}

run_config "plain"  build           ""
run_config "asan"   build-asan      address
run_config "tsan"   build-tsan      thread

echo "all configurations passed"
