//===- tests/ring_log_test.cpp - Per-CPU ring transport tests -------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the per-CPU ring log transport (DESIGN.md §13): the bounded
/// MPMC ring itself (wraparound, full/contended verdicts), the RingLog
/// drain side (position-exact materialization, migration mid-transaction,
/// completeness accounting), an OS-thread MPSC stress meant to run under
/// TSan, and the checker-level differential guarantee the transport rides
/// on — ring and arena publication must produce bit-equal blamed and
/// potential sets on identical replayed schedules, including under full-
/// ring backpressure.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/LogArena.h"
#include "analysis/Transaction.h"
#include "core/Checker.h"
#include "support/PerCpuRings.h"
#include "tests/TestPrograms.h"
#include "workloads/Workloads.h"

using namespace dc;
using namespace dc::analysis;
using namespace dc::core;

namespace {

//===----------------------------------------------------------------------===//
// PerCpuRings (the bounded MPMC primitive)
//===----------------------------------------------------------------------===//

TEST(PerCpuRingsTest, SizesRoundToPowersOfTwoAndHintsMask) {
  PerCpuRings<int> R(3, 5);
  EXPECT_EQ(R.numRings(), 4u) << "ring count rounds up to a power of two";
  EXPECT_EQ(R.capacity(), 8u) << "cell count rounds up to a power of two";
  for (uint32_t Cpu = 0; Cpu < 64; ++Cpu)
    EXPECT_LT(R.ringFor(Cpu), R.numRings());
  EXPECT_EQ(R.ringFor(5), R.ringFor(5 + R.numRings()))
      << "hint mapping is a mask, so any hint value is safe";
}

TEST(PerCpuRingsTest, WrapsAroundManyTimesPreservingFifo) {
  PerCpuRings<uint32_t> R(1, 4);
  uint32_t Next = 0, Expect = 0;
  for (uint32_t Round = 0; Round < 64; ++Round) {
    // Fill to capacity, then drain everything; seq stamps must keep the
    // cells reusable across 64 generations.
    while (R.tryCommit(0, [&](uint32_t &V) { V = Next; }) == RingCommit::Ok)
      ++Next;
    R.drain(0, [&](uint32_t &V) { EXPECT_EQ(V, Expect++); });
  }
  EXPECT_EQ(Expect, Next);
  EXPECT_EQ(Next, 64u * R.capacity());
  EXPECT_TRUE(R.empty(0));
}

TEST(PerCpuRingsTest, FullRingRefusesUntilDrained) {
  PerCpuRings<uint32_t> R(1, 4);
  for (uint32_t I = 0; I < R.capacity(); ++I)
    ASSERT_EQ(R.tryCommit(0, [&](uint32_t &V) { V = I; }), RingCommit::Ok);
  EXPECT_EQ(R.tryCommit(0, [](uint32_t &) {}), RingCommit::Full);
  uint32_t Seen = 0;
  R.drain(0, [&](uint32_t &) { ++Seen; });
  EXPECT_EQ(Seen, R.capacity());
  EXPECT_EQ(R.tryCommit(0, [](uint32_t &V) { V = 99; }), RingCommit::Ok);
}

//===----------------------------------------------------------------------===//
// RingLog drain side
//===----------------------------------------------------------------------===//

LogSlot accessSlot(uint32_t Obj, uint32_t Addr, bool IsWrite) {
  LogSlot S;
  S.A = Obj;
  S.B = Addr;
  S.Meta = IsWrite ? SlotTagWrite : SlotTagRead;
  return S;
}

/// Publishes one access slot at the transaction's current position,
/// spinning over full rings the way the runtime's ringPublish does (a unit
/// test has no governor to shed to, and these rings are never wedged).
void publish(RingLog &Ring, Transaction &Tx, uint32_t RingIdx, LogSlot S) {
  const uint32_t Pos = Tx.LogLen.load(std::memory_order_relaxed);
  for (;;) {
    RingCommit C = Ring.commit(RingIdx, &Tx, Pos, &S, 1);
    if (C == RingCommit::Ok)
      break;
    if (C == RingCommit::Full) {
      uint32_t Drained = 0;
      if (!Ring.tryDrainAll(Drained))
        std::this_thread::yield();
    }
    RingIdx = Ring.ringFor(RingIdx + 1);
  }
  Tx.LogLen.store(Pos + 1, std::memory_order_release);
}

TEST(RingLogTest, MaterializesPositionExactAcrossWraparound) {
  RingLog Ring(1, 4 * 64); // One 4-cell ring: every 4th record wraps.
  Transaction Tx(1, 0, 0, ir::MethodId(0), true);
  const uint32_t N = LogChunk::SlotsPerChunk * 2 + 7;
  for (uint32_t I = 0; I < N; ++I)
    publish(Ring, Tx, 0, accessSlot(I, I * 3 + 1, I % 2 == 0));
  Ring.drainAll();
  EXPECT_EQ(Tx.DrainedSlots.load(), N);
  EXPECT_EQ(Tx.LogLen.load(), N);
  uint32_t I = 0;
  for (LogCursor C(Tx); !C.atEnd(); C.advance(), ++I) {
    const LogEntry E = C.current();
    EXPECT_EQ(E.K, I % 2 == 0 ? LogEntry::Kind::Write : LogEntry::Kind::Read);
    EXPECT_EQ(E.Obj, I);
    EXPECT_EQ(E.Addr, I * 3 + 1);
  }
  EXPECT_EQ(I, N);
  EXPECT_FALSE(Tx.LogShed.load());
}

TEST(RingLogTest, MigrationMidTransactionKeepsTheLogInOrder) {
  // A thread migrating between CPUs commits consecutive records of the
  // same transaction into different rings. Positions are assigned by the
  // mutator, so drain order across rings must not matter.
  RingLog Ring(4, 0);
  ASSERT_EQ(Ring.numRings(), 4u);
  Transaction Tx(1, 0, 0, ir::MethodId(0), true);
  const uint32_t N = 101;
  for (uint32_t I = 0; I < N; ++I)
    publish(Ring, Tx, Ring.ringFor(I), accessSlot(I, I + 1000, false));
  Ring.drainAll();
  EXPECT_EQ(Tx.DrainedSlots.load(), N);
  uint32_t I = 0;
  for (LogCursor C(Tx); !C.atEnd(); C.advance(), ++I)
    EXPECT_EQ(C.current().Addr, I + 1000)
        << "record committed to ring " << Ring.ringFor(I)
        << " landed at the wrong position";
  EXPECT_EQ(I, N);
}

TEST(RingLogTest, PeekVisitsPublishedRecordsWithoutConsuming) {
  RingLog Ring(2, 0);
  Transaction Tx(1, 0, 0, ir::MethodId(0), true);
  for (uint32_t I = 0; I < 5; ++I)
    publish(Ring, Tx, I % 2, accessSlot(I, I, false));
  uint32_t Seen = 0;
  Ring.peekPublished([&](Transaction *T) {
    EXPECT_EQ(T, &Tx);
    ++Seen;
  });
  EXPECT_EQ(Seen, 5u) << "peek sees every in-flight record";
  EXPECT_EQ(Tx.DrainedSlots.load(), 0u) << "peek consumes nothing";
  Ring.drainAll();
  EXPECT_EQ(Tx.DrainedSlots.load(), 5u);
}

TEST(RingLogStressTest, MpscOsThreadsAgainstConcurrentDrainer) {
  // The TSan target: real OS threads hammering the rings (hint = thread
  // index, re-hashed every few records to force cross-ring traffic) while
  // a drainer materializes concurrently. Every record must land at its
  // exact position and the completeness accounting must close.
  const uint32_t NumThreads = 8;
  const uint32_t PerThread = 4000;
  RingLog Ring(4, 8 * 64); // Tiny rings: constant wraparound + Full hits.
  std::vector<std::unique_ptr<Transaction>> Txs;
  for (uint32_t T = 0; T < NumThreads; ++T)
    Txs.push_back(std::make_unique<Transaction>(T + 1, T, 0,
                                                ir::MethodId(0), true));

  std::atomic<bool> Stop{false};
  std::thread Drainer([&] {
    while (!Stop.load(std::memory_order_acquire))
      Ring.drainAll();
    Ring.drainAll();
  });

  std::vector<std::thread> Workers;
  for (uint32_t T = 0; T < NumThreads; ++T)
    Workers.emplace_back([&, T] {
      Transaction &Tx = *Txs[T];
      for (uint32_t I = 0; I < PerThread; ++I)
        publish(Ring, Tx, Ring.ringFor(T + I / 64), // "Migrate" regularly.
                accessSlot(T, I, (T + I) % 3 == 0));
    });
  for (std::thread &W : Workers)
    W.join();
  Stop.store(true, std::memory_order_release);
  Drainer.join();

  for (uint32_t T = 0; T < NumThreads; ++T) {
    Transaction &Tx = *Txs[T];
    EXPECT_EQ(Tx.LogLen.load(), PerThread);
    EXPECT_EQ(Tx.DrainedSlots.load(), PerThread);
    uint32_t I = 0;
    for (LogCursor C(Tx); !C.atEnd(); C.advance(), ++I) {
      const LogEntry E = C.current();
      ASSERT_EQ(E.Obj, T) << "thread " << T << " position " << I;
      ASSERT_EQ(E.Addr, I) << "thread " << T << " position " << I;
    }
    EXPECT_EQ(I, PerThread);
  }
  EXPECT_EQ(Ring.recordsDrained(), uint64_t(NumThreads) * PerThread);
  EXPECT_EQ(Ring.shedRefusals(), 0u);
}

//===----------------------------------------------------------------------===//
// Checker-level differential: ring vs arena
//===----------------------------------------------------------------------===//

std::string serializeViolations(const std::vector<ViolationRecord> &Records) {
  std::vector<std::string> Lines;
  for (const ViolationRecord &R : Records) {
    std::ostringstream S;
    S << "blamed=" << R.Blamed << " cycle=";
    for (const CycleMember &M : R.Cycle)
      S << "(" << M.Tid << "," << M.Site << "," << M.TxId << ")";
    Lines.push_back(S.str());
  }
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

RunConfig detCfg(uint64_t Seed, bool Arena) {
  RunConfig Cfg;
  Cfg.M = Mode::SingleRun;
  Cfg.RunOpts.Deterministic = true;
  Cfg.RunOpts.ScheduleSeed = Seed;
  Cfg.ThreadArenaLog = Arena;
  return Cfg;
}

/// Ring and arena transports on the same deterministic schedule: blamed
/// and potential method sets bit-equal, identical PCD replay outcomes,
/// and — the acceptance bar — the default incremental detector in charge
/// (icd.scc_passes == 0: no batched Tarjan pass absorbed a difference).
void expectRingMatchesArena(const ir::Program &P, const RunConfig &Ring,
                            const RunConfig &Arena, const char *Label) {
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  RunOutcome RO = runChecker(P, Spec, Ring);
  RunOutcome AO = runChecker(P, Spec, Arena);
  ASSERT_FALSE(RO.Result.Aborted) << Label;
  ASSERT_FALSE(AO.Result.Aborted) << Label;
  EXPECT_EQ(serializeViolations(RO.Violations),
            serializeViolations(AO.Violations))
      << Label;
  EXPECT_EQ(RO.BlamedMethods, AO.BlamedMethods) << Label;
  EXPECT_EQ(RO.PotentialMethods, AO.PotentialMethods) << Label;
  EXPECT_EQ(RO.stat("icd.scc_passes"), 0u) << Label;
  EXPECT_EQ(AO.stat("icd.scc_passes"), 0u) << Label;
  EXPECT_EQ(RO.stat("pcd.sccs_processed"), AO.stat("pcd.sccs_processed"))
      << Label;
  EXPECT_EQ(RO.stat("pcd.cycles"), AO.stat("pcd.cycles")) << Label;
  EXPECT_EQ(RO.stat("pcd.replay_stuck"), 0u) << Label;
  EXPECT_EQ(AO.stat("pcd.replay_stuck"), 0u) << Label;
  // The two runs really took the two different transports.
  EXPECT_GT(RO.stat("logging.ring_commits"), 0u) << Label;
  EXPECT_EQ(AO.stat("logging.ring_commits"), 0u) << Label;
}

TEST(RingEquivalenceTest, RacyBankBlamesIdenticallyAcrossSeeds) {
  ir::Program P = testprogs::racyBank(3, 300, 2);
  bool AnyViolation = false;
  for (uint64_t Seed = 0; Seed < 6; ++Seed) {
    expectRingMatchesArena(P, detCfg(Seed, false), detCfg(Seed, true),
                           ("racy-bank seed " + std::to_string(Seed)).c_str());
    AtomicitySpec Spec = AtomicitySpec::initial(P);
    AnyViolation |=
        !runChecker(P, Spec, detCfg(Seed, false)).Violations.empty();
  }
  EXPECT_TRUE(AnyViolation) << "differential never saw a violation";
}

TEST(RingEquivalenceTest, WorkloadsBlameIdentically) {
  for (const char *Name : {"elevator", "hedc"}) {
    ir::Program P = workloads::build(Name, 0.5);
    expectRingMatchesArena(P, detCfg(1, false), detCfg(1, true), Name);
  }
}

TEST(RingEquivalenceTest, PropertySchedulesBlameIdentically) {
  // Adversarial PCT schedules promote rarely-seen interleavings; the
  // transports must agree on those too, not just the uniform-random ones.
  ir::Program P = testprogs::racyBank(3, 200, 2);
  for (uint64_t Seed = 0; Seed < 4; ++Seed) {
    RunConfig Ring = detCfg(Seed, false);
    RunConfig Arena = detCfg(Seed, true);
    Ring.RunOpts.Strategy = rt::ScheduleStrategy::Pct;
    Arena.RunOpts.Strategy = rt::ScheduleStrategy::Pct;
    Ring.RunOpts.PctChangePoints = Arena.RunOpts.PctChangePoints = 3;
    expectRingMatchesArena(P, Ring, Arena,
                           ("pct seed " + std::to_string(Seed)).c_str());
  }
}

TEST(RingEquivalenceTest, FullRingBackpressureStaysEquivalent) {
  // A single one-cell ring: every second commit finds the ring full, so
  // the publish ladder (self-drain, neighbor probe) runs constantly. The
  // report must stay bit-equal with arena mode — backpressure may slow
  // the run, never change it.
  ir::Program P = testprogs::racyBank(2, 200, 2);
  RunConfig Ring = detCfg(3, false);
  Ring.RingCount = 1;
  Ring.RingBytes = 64; // One 64-byte cell.
  expectRingMatchesArena(P, Ring, detCfg(3, true), "tiny-ring");
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  RunOutcome O = runChecker(P, Spec, Ring);
  EXPECT_GT(O.stat("logging.ring_full_events"), 0u)
      << "a one-cell ring must actually exercise the backpressure path";
  EXPECT_GT(O.stat("logging.ring_self_drains"), 0u);
  EXPECT_EQ(O.stat("logging.ring_count"), 1u);
}

TEST(RingEquivalenceTest, AllocFailureDegradesIdenticallyToArena) {
  // The degradation ladder under an injected allocation failure (DESIGN.md
  // §10, §13): ring mode must make the pool's refill requests at the same
  // log positions arena mode's per-thread caches do, so alloc-fail@N sheds
  // the same thread at the same logical time and re-arms it the same way —
  // the same structured report, whatever order the drain side happens to
  // materialize records in and however many cores it runs on.
  ir::Program P = testprogs::racyBank(3, 300, 2);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  std::vector<uint32_t> Recorded;
  RunConfig RecCfg = detCfg(4, false);
  RecCfg.RunOpts.ScheduleOut = &Recorded;
  ASSERT_FALSE(runChecker(P, Spec, RecCfg).Result.Aborted);

  // Both plans refuse a worker's access-record refill (most refill requests
  // in this edge-heavy program come from EdgeIn markers, which never shed),
  // early enough that the worker re-arms before it finishes.
  for (uint64_t FailAt : {6, 48}) {
    const std::string Label = "alloc-fail@" + std::to_string(FailAt);
    auto faultCfg = [&](bool Arena) {
      RunConfig Cfg = detCfg(4, Arena);
      Cfg.RunOpts.ExplicitSchedule = Recorded;
      Cfg.RunOpts.OnScheduleExhausted = rt::ScheduleExhaustPolicy::HardError;
      Cfg.Faults.AllocFailAt = FailAt;
      return Cfg;
    };
    RunOutcome RO = runChecker(P, Spec, faultCfg(false));
    RunOutcome AO = runChecker(P, Spec, faultCfg(true));
    ASSERT_FALSE(RO.Result.Aborted) << Label;
    ASSERT_FALSE(AO.Result.Aborted) << Label;
    ASSERT_FALSE(RO.Result.ScheduleDiverged) << Label;
    ASSERT_FALSE(AO.Result.ScheduleDiverged) << Label;
    EXPECT_GT(RO.stat("logging.ring_commits"), 0u) << Label;
    EXPECT_EQ(AO.stat("logging.ring_commits"), 0u) << Label;
    // The fault really fired and the ladder ran its full course.
    auto has = [](const RunOutcome &O, rt::DegradationEvent::Action A) {
      for (const rt::DegradationEvent &E : O.Result.Degradation)
        if (E.A == A)
          return true;
      return false;
    };
    EXPECT_TRUE(has(AO, rt::DegradationEvent::Action::ShedLogging)) << Label;
    EXPECT_TRUE(has(AO, rt::DegradationEvent::Action::Rearm)) << Label;
    EXPECT_EQ(RO.Result.Degradation, AO.Result.Degradation) << Label;
    EXPECT_EQ(RO.stat("logging.refill_requests"),
              AO.stat("logging.refill_requests"))
        << Label;
    EXPECT_EQ(RO.BlamedMethods, AO.BlamedMethods) << Label;
    EXPECT_EQ(RO.PotentialMethods, AO.PotentialMethods) << Label;
  }
}

TEST(RingEquivalenceTest, RingRunReportsTransportCounters) {
  ir::Program P = testprogs::racyBank(2, 300, 2);
  AtomicitySpec Spec = AtomicitySpec::initial(P);
  RunOutcome O = runChecker(P, Spec, detCfg(2, false));
  EXPECT_GT(O.stat("logging.ring_commits"), 0u);
  EXPECT_GT(O.stat("logging.ring_drains"), 0u);
  EXPECT_GT(O.stat("logging.ring_records_drained"), 0u);
  EXPECT_GT(O.stat("logging.ring_footprint_bytes"), 0u);
  EXPECT_EQ(O.stat("logging.ring_drain_stalls"), 0u);
  EXPECT_EQ(O.stat("logging.ring_shed_refusals"), 0u);
  // O(cores) footprint: bounded by ring-count × ring bytes, regardless of
  // how many records flowed through.
  EXPECT_LE(O.stat("logging.ring_footprint_bytes"),
            O.stat("logging.ring_count") * uint64_t(64 * 1024) + 4096);
}

} // namespace
