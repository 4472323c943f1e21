#!/usr/bin/env bash
# CI gate: Release build + full test suite, then a ThreadSanitizer build
# running the concurrent stress tests (sharded IDG hot path, PCD worker
# pool, background collector, fault-injection teardown paths) and an
# UndefinedBehaviorSanitizer build of the fault-injection tests. Run from
# the repository root:
#
#   tools/ci.sh [jobs]
#
# Build trees land in build-ci/, build-ci-tsan/, and build-ci-ubsan/ so a
# developer's existing build/ directory is left alone.
set -euo pipefail

JOBS="${1:-$(nproc)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

echo "== Release build + full ctest =="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j 1

echo "== Multi-core determinism (repeated, pinned to 2 CPUs) =="
# Determinism contracts that only break when checker threads really run in
# parallel: the ring transport's drainer materializing records out of
# schedule order, the collector racing the mutators. On one CPU those
# threads interleave at the OS scheduler's mercy and rarely overlap, so a
# single pass of the suite above can stay green while a contract is
# broken. The degradation property (sharded vs serialized reports under a
# fault plan) and the fault-injection suite run 20 times over, pinned to
# two of the CPUs this process may use. Skipped on single-CPU hosts.
if [ "$(nproc)" -ge 2 ]; then
  # First two CPUs of this process's affinity list ("0-3", "2,5,7", ...).
  CPUS=()
  IFS=, read -ra RANGES <<< "$(taskset -cp $$ | sed 's/.*: //')"
  for R in "${RANGES[@]}"; do
    if [[ "$R" == *-* ]]; then
      for ((C = ${R%-*}; C <= ${R#*-}; C++)); do CPUS+=("$C"); done
    else
      CPUS+=("$R")
    fi
  done
  taskset -c "${CPUS[0]},${CPUS[1]}" \
    ctest --test-dir build-ci --output-on-failure \
    -R "RandomPrograms|FaultInjection" --repeat until-fail:20
else
  echo "skipped: $(nproc) CPU available, the stage needs 2"
fi

echo "== Logging hot-path bench (smoke) =="
# A tiny-scale run to catch regressions that only show up under the bench
# harness (ring commit/drain plumbing, chunk recycling, the arena and
# legacy escape hatches). The sweep spawns real OS threads up to 256 —
# far past any CI host's cores — so even the smoke run exercises the ring
# transport's oversubscribed 64/128/256-thread rows (producers descheduled
# mid-commit, mutator self-drains on full rings). The JSON goes to a
# throwaway path so the checked-in BENCH_logging.json keeps the numbers
# recorded on a quiet machine at full scale.
DC_BENCH_SCALE=0.02 DC_BENCH_TRIALS=1 \
  build-ci/bench/logging_throughput build-ci/bench_logging_smoke.json
DC_BENCH_SCALE=0.02 DC_BENCH_TRIALS=1 \
  build-ci/bench/schedule_coverage build-ci/bench_schedule_smoke.json
# Coordination ping-pong: real OS threads through both Octet protocols
# (pipelined fan-out and the SerialRoundtrips escape hatch) — catches
# wakeup/parking regressions that only bite with preemptive scheduling.
DC_BENCH_SCALE=0.02 DC_BENCH_TRIALS=1 \
  build-ci/bench/octet_coordination build-ci/bench_octet_smoke.json

echo "== Incremental cycle detection (bounded) =="
# Incremental-vs-batched microbench at smoke scale: catches detector hot
# path regressions (cross-edge latency, order maintenance) and asserts
# nothing crashed across both modes and both workload shapes.
DC_BENCH_SCALE=0.02 DC_BENCH_TRIALS=1 \
  build-ci/bench/cycle_detection build-ci/bench_icd_smoke.json

echo "== ICD lock-free fast path (default-mode stats gate) =="
# A consistent-only workload (sor at this scale produces no reorders) must
# complete every cross edge on the seqlock fast path without ever touching
# the detector lock: icd.lock_waits stays 0 and icd.fastpath_lockfree
# covers the full cross-edge count. A regression that silently reroutes
# consistent edges through Mu shows up here, not just in the bench tables.
ICD_STATS=$(build-ci/tools/dcheck --workload sor --scale 0.4 --det --seed 1 \
  --stats)
LOCK_WAITS=$(echo "$ICD_STATS" | awk '$1 == "icd.lock_waits" {print $2}')
LF_EDGES=$(echo "$ICD_STATS" | awk '$1 == "icd.fastpath_lockfree" {print $2}')
CROSS_EDGES=$(echo "$ICD_STATS" | awk '$1 == "icd.idg_cross_edges" {print $2}')
if [ "$LOCK_WAITS" != "0" ]; then
  echo "error: consistent-only workload took the ICD lock ($LOCK_WAITS waits)"
  exit 1
fi
if [ -z "$LF_EDGES" ] || [ "$LF_EDGES" = "0" ] || \
   [ "$LF_EDGES" != "$CROSS_EDGES" ]; then
  echo "error: ICD fast path covered $LF_EDGES of $CROSS_EDGES cross edges"
  exit 1
fi

echo "== Vector-clock engine smoke (engine axis) =="
# The third backend end-to-end: a clean workload, the paper's outlier with
# a known violation (expected exit 1), and the generated-from-enum mode
# listing. The fuzz stages below then sweep the engine through the full
# differential matrix (the vc config rides in every checkPair) and the
# vc fault case in every fault sweep.
build-ci/tools/dcheck --workload philo --scale 0.05 --engine vc --det --seed 3
set +e
build-ci/tools/dcheck --workload xalan6 --scale 0.2 --engine vc --det --seed 1 \
  >/dev/null
RC=$?
set -e
if [ "$RC" -ne 1 ]; then
  echo "error: vc engine missed the xalan6 violation (exit $RC)"; exit 1
fi
build-ci/tools/dcheck --list-modes >/dev/null

echo "== Differential schedule fuzz (bounded) =="
# Fixed seed set, wall-clock bounded: PCT + bounded-exhaustive schedules on
# tiny generated programs, every pair swept through the full config matrix
# against the ground-truth oracle. The matrix includes the Octet protocol
# axis (pipelined fan-out vs. SerialRoundtrips), the log-transport axis
# (ring vs. arena vs. legacy), and the engine axis (DoubleChecker configs +
# Velodrome + the vector-clock engine), so every pair also
# differential-tests the coordination path, the ring publication protocol,
# and all three checking algorithms. DC_FUZZ_BUDGET_SECONDS=600
# (or more) is the nightly setting; the default keeps the gate fast.
FUZZ_BUDGET="${DC_FUZZ_BUDGET_SECONDS:-30}"
build-ci/tools/dcfuzz --seed 1 --budget-seconds "$FUZZ_BUDGET" \
  --pairs 1000000 --strategy mixed --progress 5000
# The gate must also prove the harness *can* catch an unsound checker:
# the injected ICD-filter bug has to be found, minimized, and replayed
# (both commands are expected to exit 1 = divergence).
set +e
build-ci/tools/dcfuzz --seed 1 --inject-icd-bug --pairs 20000 \
  --witness-out build-ci/injected_witness.dcw >/dev/null
RC=$?
set -e
if [ "$RC" -ne 1 ]; then
  echo "error: injected ICD bug was NOT detected (exit $RC)"; exit 1
fi
set +e
build-ci/tools/dcfuzz --replay build-ci/injected_witness.dcw >/dev/null
RC=$?
set -e
if [ "$RC" -ne 1 ]; then
  echo "error: injected-bug witness did not replay (exit $RC)"; exit 1
fi

echo "== Fault-injection sweep (bounded) =="
# Every agreeing (program, schedule) pair re-runs under the deterministic
# fault matrix (alloc failure, worker stall/death, queue saturation,
# collector delay, oversized-SCC cap): degradation must stay sound —
# nothing the fault-free run blames may be lost, and every run terminates
# with a structured RunResult. DC_FAULT_BUDGET_SECONDS=300 (or more) is
# the nightly setting; the default keeps the gate fast.
FAULT_BUDGET="${DC_FAULT_BUDGET_SECONDS:-20}"
build-ci/tools/dcfuzz --seed 3 --budget-seconds "$FAULT_BUDGET" \
  --pairs 1000000 --fault-sweep --progress 2000

echo "== Streaming service-mode soak (bounded) =="
# Service mode end to end (DESIGN.md §15): churn generated programs
# through both windowed engines at an aggressive retirement cadence with
# the rotating fault matrix layered over window boundaries, asserting
# bounded RSS, zero missed seeded violations, batch-vs-streaming verdict
# equality, and structured (never hanging) fault surfacing. The committed
# SOAK.json records a full-length run; DC_SOAK_BUDGET_SECONDS=300 (or
# more) is the nightly setting, the default keeps the gate fast. The
# min-windows floor scales with the budget (the contract's 100-epoch floor
# is calibrated to >= 60-second runs; the smoke slice still flushes
# hundreds).
SOAK_BUDGET="${DC_SOAK_BUDGET_SECONDS:-15}"
build-ci/tools/dcsoak --seconds "$SOAK_BUDGET" --seed 11 \
  --json-out build-ci/soak_smoke.json --progress 500

echo "== ThreadSanitizer build + concurrency stress tests =="
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDC_SANITIZE=thread >/dev/null
cmake --build build-ci-tsan -j "$JOBS" --target idg_stress_test \
  octet_stress_test octet_coord_test log_elision_test log_srcpos_test \
  ring_log_test fault_injection_test icd_test vc_test property_test \
  streaming_test dcfuzz dcsoak

echo "== Differential schedule fuzz under TSan (smoke) =="
# Much slower per pair under TSan; a short fixed-seed slice is enough to
# catch data races in the scheduler/gate/oracle plumbing itself. The
# fault-sweep slice covers the degradation/watchdog/teardown machinery
# (shed flags, queue backpressure, join-or-detach destruction).
build-ci-tsan/tools/dcfuzz --seed 7 --pairs 40 --strategy mixed
build-ci-tsan/tools/dcfuzz --seed 7 --pairs 10 --fault-sweep
# The seqlock fast path's memory-ordering argument (DESIGN.md §12) is
# exactly the kind of claim TSan falsifies: hammer concurrent consistent
# edges from real OS threads against a chaos thread forcing reorders, with
# the reorder hook widening the writer sections. Runs here explicitly (in
# addition to the Icd slice of the ctest run below) so a fast-path race is
# attributed to this stage by name.
build-ci-tsan/tests/icd_test \
  --gtest_filter='IcdStressTest.LockFreeFastPathSurvivesForcedReorders'
# A TSan slice of the service-mode soak: window flushes synchronize the
# mutator, the PCD pool, the ring drainer, and the collector — exactly the
# cross-thread seams TSan exists for. Iteration-bounded (TSan's slowdown
# makes wall-clock budgets unpredictable), with the fault rotation on and
# the min-windows floor scaled to the short slice.
build-ci-tsan/tools/dcsoak --iterations 60 --seconds 0 --seed 13 \
  --min-windows 20
# TSan slows execution ~5-15x; restrict to the tests whose whole point is
# cross-thread synchronization rather than re-running the full suite. The
# logging tests are in that set: LogSrcPos races a lock-free LogLen
# sampler against an appender, and LogElision stresses both log paths.
# FaultInjection exercises the watchdog, worker stall/death, and the
# destruction-under-saturated-queue teardown. Icd covers the detector's
# lock-free hot path (atomic order keys, program-order chain pointers)
# plus the stripe-locality stress test. The Ring suites drive the per-CPU
# ring transport's wait-free commit / concurrent-drain protocol with real
# producer threads racing the drainer (wraparound, migration mid-commit,
# full-ring self-drain) — the prime TSan target this file has. The Vc
# suites drive the vector-clock engine's hooks from free-running OS
# threads (per-field spin locks racing the engine lock and the mark-sweep
# collector), and the three-way EngineAgreement property replays one
# recorded schedule through all engines under TSan.
ctest --test-dir build-ci-tsan --output-on-failure \
  -R "Idg|Octet|ElisionFilter|LogDifferential|SrcPosSampling|FaultInjection|Icd|Ring|Vc|EngineAgreement|Streaming"

echo "== AddressSanitizer build + abort-mid-coordination regression =="
# The seed's serial protocol could return from an aborted roundtrip while a
# stack-allocated request was still linked in the responder's mailbox; the
# responder's eventual drain then wrote into a dead frame. The pipelined
# protocol pools request blocks and cancels them on abort —
# OctetCoordAbortTest drives both protocols through that window under ASan.
cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDC_SANITIZE=address >/dev/null
cmake --build build-ci-asan -j "$JOBS" --target octet_coord_test \
  octet_stress_test
ctest --test-dir build-ci-asan --output-on-failure -R "Octet"

echo "== UndefinedBehaviorSanitizer build + fault-injection tests =="
# UBSan (fail-fast: -fno-sanitize-recover=all) over the paths the fault
# plans push through rare branches — degraded SCCs, timed-out enqueues,
# shed/re-arm transitions.
cmake -B build-ci-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDC_SANITIZE=undefined >/dev/null
cmake --build build-ci-ubsan -j "$JOBS" --target fault_injection_test \
  pcd_test dcfuzz
ctest --test-dir build-ci-ubsan --output-on-failure \
  -R "FaultInjection|Pcd"
build-ci-ubsan/tools/dcfuzz --seed 5 --pairs 20 --fault-sweep

echo "== CI gate passed =="
