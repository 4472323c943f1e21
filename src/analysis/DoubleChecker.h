//===- analysis/DoubleChecker.h - ICD(+PCD) checker runtime -----*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DoubleCheckerRuntime is the paper's analysis attached to one execution:
///
///  * It owns an OctetManager and implements OctetListener: every Octet
///    transition becomes an imprecise-dependence-graph edge per Figure 4
///    (conflicting -> edge from the responder's current transaction;
///    upgrading to RdSh -> edges from the old owner's lastRdEx and from
///    gLastRdSh; fence -> edge from gLastRdSh).
///  * It demarcates regular transactions at txBegin/txEnd and merges
///    non-transactional accesses into unary transactions until a
///    cross-thread edge interrupts them.
///  * When a transaction with cross-thread edges ends, it computes the
///    maximal SCC containing it over *finished* transactions (§3.2.3);
///    members' static sites feed multi-run mode's StaticTransactionInfo,
///    and — when logging is on — the SCC goes to PCD for precise checking.
///  * A mark-sweep collector reclaims transactions unreachable from the
///    roots {per-thread current transaction, per-thread lastRdEx,
///    gLastRdSh}, standing in for the JVM garbage collector the paper
///    relies on (see DESIGN.md §2 for the liveness argument).
///
/// Concurrency (see DESIGN.md §7 for the full argument): the IDG is
/// sharded — one lock stripe per thread plus one global stripe — so the
/// per-thread transaction lifecycle only touches its own stripe, cross
/// edges take the two involved threads' stripes, and only SCC detection
/// and collection quiesce the whole graph. Collection runs on a background
/// thread; PCD SCCs go to a bounded multi-worker pool. The pre-sharding
/// behaviour (one global lock, inline collection) is kept behind
/// DoubleCheckerOptions::SerializedIdg as a one-PR escape hatch.
///
/// Configure with LogAccesses=false, RunPcd=false for the first run of
/// multi-run mode ("ICD w/o logging"); defaults give single-run mode.
///
//===----------------------------------------------------------------------===//

#ifndef DC_ANALYSIS_DOUBLECHECKER_H
#define DC_ANALYSIS_DOUBLECHECKER_H

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "analysis/IncrementalCycles.h"
#include "analysis/OnlinePcd.h"
#include "analysis/Pcd.h"
#include "analysis/StaticInfo.h"
#include "analysis/Transaction.h"
#include "analysis/Violation.h"
#include "octet/OctetManager.h"
#include "rt/CheckerRuntime.h"
#include "rt/Runtime.h"
#include "rt/Watchdog.h"
#include "support/FaultPlan.h"
#include "support/ResourceGovernor.h"
#include "support/SpinLock.h"
#include "support/Statistic.h"
#include "support/StripedLock.h"

namespace dc {

class TraceRecorder;

namespace analysis {

/// Knobs selecting between single-run mode and the runs of multi-run mode.
struct DoubleCheckerOptions {
  /// Record read/write logs (required for PCD). Single-run and the second
  /// run of multi-run mode: true. First run: false.
  bool LogAccesses = true;
  /// Run PCD on each ICD SCC. First run: false.
  bool RunPcd = true;
  /// Future-work extension the paper suggests for the xalan6 bottleneck
  /// ("ICD detects SCCs serially, and PCD detects cycles serially; making
  /// them parallel could alleviate this bottleneck", §5.3): offload PCD to
  /// a pool of background worker threads. SCC members are finished
  /// (immutable logs) and pinned against collection while queued, so the
  /// replay needs no locks. Violations may be reported slightly later but
  /// identically.
  bool ParallelPcd = false;
  /// Worker threads in the parallel-PCD pool (ParallelPcd only; min 1).
  /// SCCs are independent after enqueue, so workers replay them
  /// concurrently; processScc is stateless per call.
  uint32_t PcdWorkers = 2;
  /// Bound on the parallel-PCD queue. Enqueueing past the bound blocks the
  /// detecting thread (backpressure; visible in pcd.max_queue_depth).
  uint32_t PcdQueueDepth = 1024;
  /// Disable ICD SCC detection entirely (§5.4 array-instrumentation
  /// ablation, where conflated metadata makes cycles meaningless).
  bool DetectIcdCycles = true;
  /// Escape hatch: answer "did this edge close a cycle?" with the batched
  /// stop-the-world Tarjan passes instead of the default incremental
  /// order-maintenance detector (IncrementalCycles.h, DESIGN.md §12). Both
  /// modes claim a component at the same instant — when its last member
  /// finishes — and hand identical member sets to PCD, so they blame
  /// identical methods on identical schedules; dcfuzz replays every pair
  /// through both to keep that differential honest. The batched pass
  /// freezes every IDG stripe per flush; the incremental detector never
  /// takes more stripes than the edge writer already holds.
  bool BatchedScc = false;
  /// Incremental detector's affected-region cap: an inconsistent edge
  /// whose two-way search would visit more vertices than this stops
  /// reordering and degrades the region soundly — it collapses into one
  /// poisoned group whose members are reported as Potential violations
  /// (Pcd::reportPotential) instead of being replayed. The default is
  /// unreachable for any governed live graph; tests shrink it.
  uint32_t IcdMaxRegion = 1u << 20;
  /// Escape hatch: force every ICD cross edge through the detector's Mu
  /// slow path instead of the default lock-free seqlock-validated fast
  /// path for order-consistent edges (DESIGN.md §12). For
  /// lockfree-vs-locked comparisons; violations must be identical.
  bool IcdLockedFastPath = false;
  /// Test/fault knob: force each ICD fast-path attempt to fail seqlock
  /// validation this many times (0 = off), deterministically exercising
  /// the retry counter and the retry-cap fallback.
  uint32_t IcdSeqRetryStorm = 0;
  /// Cross-edged transactions that must finish before one batched Tarjan
  /// pass walks from all of them at once (BatchedScc mode only). Every
  /// pass takes all IDG stripes (a full-graph freeze), so batching divides
  /// both the freeze frequency and the per-thread stripe handoffs a freeze
  /// inflicts on uninvolved threads by this factor. Detection totals are
  /// unchanged — a cycle is complete by the time its last member finishes,
  /// pending roots are collector-strong until their pass runs, and endRun
  /// flushes the tail — only the report is deferred by at most this many
  /// transactions. 1 restores per-transaction-end detection.
  uint32_t SccBatch = 8;
  /// §5.4 straw man: feed *every* transaction to a persistent precise
  /// analysis instead of filtering through ICD SCCs. Implies LogAccesses;
  /// the transaction collector is disabled (the persistent maps pin
  /// transactions), reproducing the variant's memory blow-up.
  bool PcdOnly = false;
  /// Escape hatch: collapse all IDG stripes into one global lock and run
  /// the collector inline under it — the pre-sharding behaviour. Kept for
  /// one PR so bench/scaling_threads.cpp can compare the two paths; the
  /// default (sharded) path must produce identical violations.
  bool SerializedIdg = false;
  /// Escape hatch mirroring SerializedIdg, one layer down: run Octet
  /// coordination with the seed's serial spin-only protocol (one roundtrip
  /// completed before the next is posted) instead of the pipelined fan-out
  /// with spin-then-park waiting (DESIGN.md §11). Kept so dcfuzz can
  /// differentially test serial vs. pipelined on one schedule; both must
  /// produce identical violations.
  bool SerialRoundtrips = false;
  /// Escape hatch for the SCC root filter (BatchedScc mode only): pend
  /// every cross-touched transaction as a Tarjan root, not just those with an outgoing cross
  /// edge (which are the only possible claiming members — see
  /// Transaction.h). Same detected components either way — kept so dcfuzz
  /// can replay one schedule through both and assert identical violations.
  bool EagerSccRoots = false;
  /// Trigger the transaction collector every this many finished
  /// transactions.
  uint32_t CollectEveryTx = 8192;
  /// Passed through to PCD.
  uint32_t MaxSccTxsForPcd = 1u << 20;
  /// Escape hatch mirroring SerializedIdg: use the seed's logging path —
  /// globally shared elision cells and a reallocating std::vector log with
  /// 32-byte entries — instead of the per-thread filter + chunked arena
  /// (DESIGN.md §8). Kept for one PR so the differential tests and
  /// bench/logging_throughput can compare the two paths; both must produce
  /// identical violations.
  bool LegacyLog = false;
  /// Escape hatch mirroring LegacyLog, one generation up: keep the PR-2
  /// per-thread arena as the log *publication* path instead of the default
  /// per-CPU ring transport (DESIGN.md §13). In arena mode every thread
  /// appends directly into its transaction's chunk chain from a private
  /// chunk cache (footprint O(threads)); in ring mode mutators publish
  /// records into O(cores) bounded rings and a drain side materializes the
  /// chains off the hot path. Kept as the differential partner — both must
  /// produce identical violations on identical schedules. PcdOnly forces
  /// arena (its online analysis consumes each log synchronously at
  /// transaction end, before any drain could run).
  bool ThreadArenaLog = false;
  /// Ring transport geometry. RingCount 0 sizes the array to the host's
  /// hardware concurrency; RingBytes 0 selects RingLog::DefaultRingBytes.
  /// Both round up to powers of two. Tests shrink RingBytes to force the
  /// full-ring ladder.
  uint32_t RingCount = 0;
  uint32_t RingBytes = 0;
  /// Log duplicate elision (paper §4). On by default; off is a
  /// differential-testing mode that logs every access.
  bool ElideDuplicates = true;
  /// Test-only fault injection (never set by real configurations):
  /// deliberately break the ICD filter's soundness by dropping two-member
  /// SCCs before they reach PCD or the multi-run static info. The schedule
  /// fuzzer (tools/dcfuzz.cpp) must catch the resulting missed violations
  /// as divergences from Velodrome and the trace oracle, and minimize them
  /// to a small replayable witness — the standing proof that the harness
  /// would notice a real unsound filter.
  bool TestOnlyUnsoundFilter = false;
  /// Remote-cache-miss simulation for the *legacy* log-elision metadata
  /// (LegacyLog only), mirroring VelodromeOptions::RemoteMissPenalty (see
  /// DESIGN.md §2): appending a log entry rewrites the field's globally
  /// shared timestamp cell, which on a real multicore ping-pongs for
  /// fields logged by several threads. Calibrated at the methodology's
  /// per-line figure — one ping-ponged cache line costs 300, exactly
  /// Velodrome's per-line RemoteMissPenalty and half the IDG stripes' two-
  /// line 600 (an earlier default of 15 under-modelled the miss by an
  /// order of magnitude relative to those two). The default logging path's
  /// filter is thread-local and has no remote misses to simulate, so this
  /// knob is ignored there. 0 disables.
  uint32_t LogRemoteMissPenalty = 300;
  /// Remote-cache-miss simulation for IDG lock stripes (same methodology):
  /// when a stripe is acquired by a different thread than its last holder,
  /// two lines miss in the acquirer's cache — the stripe's lock word and
  /// the hot transaction state it guards (the previous holder dirtied both
  /// in its critical section). Calibrated at twice Velodrome's
  /// RemoteMissPenalty (300 per ping-ponged line for its two-word locked
  /// metadata update). With one global stripe nearly every acquisition is
  /// a handoff; with per-thread stripes only genuine cross-thread events
  /// are. 0 disables.
  uint32_t IdgRemoteMissPenalty = 600;

  // --- Overload / fault tolerance (DESIGN.md §10) -------------------------

  /// Deterministic counter-keyed fault injection (tests / fuzzing only).
  FaultPlan Faults;
  /// ResourceGovernor budget: live (uncollected) transactions. 0 = off.
  /// A breach triggers extra collections and sheds logging at the next
  /// chunk refill (sound: shed threads degrade to ICD-only).
  uint64_t MaxLiveTxs = 0;
  /// ResourceGovernor budget: bytes of log chunks out of the pool. 0 = off.
  uint64_t MaxLogBytes = 0;
  /// Watchdog/stall timeout: a busy component (PCD worker, collector,
  /// scheduler gate) silent for longer trips a CheckerFault; a PCD enqueue
  /// or drain blocked for longer degrades its SCCs to potential violations
  /// instead of waiting forever.
  uint32_t PcdStallTimeoutMs = 10000;
  /// Watchdog poll interval.
  uint32_t WatchdogPollMs = 10;
  /// After shedding, a thread attempts to re-arm full logging once this
  /// many of its transactions have started and the governor reports
  /// pressure subsided (hysteresis at half-budget).
  uint32_t RearmAfterTxs = 64;

  // --- Streaming service mode (DESIGN.md §15) -----------------------------

  /// Retirement-window size: every this many finished transactions, the
  /// thread that crossed the boundary runs one window flush — pending
  /// batched detection, a full ring drain, a PCD-pool drain, then a
  /// synchronous collection — so everything decidable as of the boundary is
  /// decided and swept. Transactions the flush cannot retire (still
  /// running, strongly reachable, or pinned by an in-flight replay) are
  /// carried — "pinned" — into the next window; nothing is dropped. 0
  /// disables windowing (plain batch mode).
  uint32_t WindowTxs = 0;
  /// Chrome-trace timeline recorder (tools/dcheck --trace-out). Null
  /// disables all trace hooks. Must outlive the runtime.
  TraceRecorder *Trace = nullptr;
  /// Streaming observer called after each window flush with the
  /// post-flush health snapshot (no checker locks held).
  std::function<void(const rt::HealthSnapshot &)> WindowHook;
  /// Streaming observer for the first structured checker fault.
  std::function<void(rt::CheckerFault, const std::string &)> FaultHook;
};

/// The DoubleChecker analysis for one run. Implements the interpreter's
/// checker hooks and Octet's transition listener.
class DoubleCheckerRuntime : public rt::CheckerRuntime,
                                   public octet::OctetListener {
public:
  /// \p P must be the compiled program the runtime executes (used to map
  /// compiled methods back to original sites). \p Violations and \p Stats
  /// must outlive the runtime.
  DoubleCheckerRuntime(const ir::Program &P, DoubleCheckerOptions Opts,
                       ViolationLog &Violations, StatisticRegistry &Stats);
  ~DoubleCheckerRuntime() override;

  // -- rt::CheckerRuntime --------------------------------------------------
  void beginRun(rt::Runtime &RT) override;
  void endRun(rt::Runtime &RT) override;
  void threadStarted(rt::ThreadContext &TC) override;
  void threadExiting(rt::ThreadContext &TC) override;
  void txBegin(rt::ThreadContext &TC, const ir::Method &M) override;
  void txEnd(rt::ThreadContext &TC, const ir::Method &M) override;
  void instrumentedAccess(rt::ThreadContext &TC, const rt::AccessInfo &Info,
                          function_ref<void()> Access) override;
  void syncOp(rt::ThreadContext &TC, const rt::AccessInfo &Info,
              rt::SyncKind Kind) override;
  void safePoint(rt::ThreadContext &TC) override;
  void aboutToBlock(rt::ThreadContext &TC) override;
  void unblocked(rt::ThreadContext &TC) override;
  void reportHealth(rt::RunResult &R) override;
  void healthSnapshot(rt::HealthSnapshot &H) override;
  bool windowFlush() override;

  // -- octet::OctetListener -------------------------------------------------
  void onConflictingEdge(uint32_t RespTid, const octet::Transition &T)
      override;
  void onBecameRdEx(uint32_t Tid) override;
  void onUpgradeToRdSh(uint32_t Tid, uint32_t OldOwner,
                       uint64_t Counter) override;
  void onFence(uint32_t Tid) override;

  /// Static transaction information accumulated from ICD SCCs (multi-run
  /// mode's first-run output). Flushes any pending batched detection pass
  /// so the snapshot is complete as of the call. Valid after endRun.
  StaticTransactionInfo staticInfo();

  /// The underlying Octet manager; valid between beginRun and destruction.
  octet::OctetManager *octetManager() { return Octet.get(); }

  /// The incremental cycle detector, or null in BatchedScc / PcdOnly /
  /// DetectIcdCycles=false modes. Test-only: the stripe-locality stress
  /// test installs its reorder hook here.
  IncrementalCycleDetector *icdDetector() { return Icd.get(); }
  /// Test-only: how many IDG stripes the calling thread holds right now
  /// (exact for self-queries; see StripedLockSet::heldBy). The locality
  /// test asserts from inside a reorder that this never reaches
  /// stripeCount().
  uint32_t stripesHeldByCurrentThread() const;
  uint32_t stripeCount() const { return NumShards; }

private:
  struct alignas(64) PerThread {
    std::atomic<Transaction *> CurrTx{nullptr}; ///< Written under own stripe.
    /// Log-elision timestamp (paper §4): bumped on transaction start and on
    /// any edge touching the thread's current transaction.
    std::atomic<uint64_t> CurTs{1};
    Transaction *LastRdEx = nullptr; ///< Own stripe.
    uint64_t NextSeq = 0;            ///< Own thread only (tx lifecycle).
    uint64_t NextEdgeSeq = 0;        ///< Own stripe (edge ids, src side).
    // Per-thread statistics, flushed at endRun.
    uint64_t RegularTxs = 0;
    uint64_t UnaryTxs = 0;
    uint64_t AccRegular = 0;
    uint64_t AccUnary = 0;
    uint64_t LogEntries = 0;
    uint64_t LogElided = 0;
    uint64_t BytesLogged = 0;
    uint64_t LogDropped = 0; ///< Accesses not logged while shedding.
    /// Degradation ladder (owner thread only): true while this thread has
    /// shed logging (ICD-only). Entered when a chunk refill is refused
    /// (arena cache or ring chunk credit); re-armed after RearmAfterTxs new
    /// transactions if pressure subsided.
    bool LogShedActive = false;
    uint32_t RearmCountdown = 0;
    uint64_t ShedCount = 0;
    /// Gate-heartbeat throttle (owner thread only).
    uint32_t SafePointBeats = 0;
    /// Transactions allocated by this thread; pushed under own stripe,
    /// swept by the collector under all stripes.
    std::vector<Transaction *> Owned;
    /// Thread-local duplicate-access filter (default logging path); epochs
    /// are CurTs values, so the existing bumps invalidate it for free.
    ElisionFilter Filter;
    /// Chunk source for this thread's appends, refilled from ChunkPool.
    /// Arena/PcdOnly transports only; in ring mode it stays detached and
    /// empty — the drain side owns the only chunk cache (O(1), not
    /// O(threads)).
    LogChunkCache ChunkCache;
    // -- Ring transport (owner thread only) --------------------------------
    /// Chunks this thread's arena ChunkCache would hold: the count, without
    /// the storage. ringAdmitChunk spends it where an arena append would
    /// take a chunk and asks ChunkPool for a refill where the cache would,
    /// so refill admission stays keyed to this thread's log positions.
    uint32_t ChunkCredit = 0;
    /// Cached target ring, derived from the CPU hint and refreshed every
    /// CpuHintRefresh commits; a stale hint after a migration is harmless
    /// (every ring is MPMC), it just shares a ring until the refresh.
    uint32_t RingIdx = 0;
    uint32_t CpuHintCountdown = 0;
    bool RingHintValid = false;
    uint64_t RingCommits = 0;
    uint64_t RingFullEvents = 0;
    uint64_t RingMigrations = 0;
    uint64_t RingSelfDrains = 0;
  };

  class PcdPool;
  class TxCollector;

  // -- IDG stripes ---------------------------------------------------------
  // Stripe 0 guards gLastRdSh; stripe Tid+1 guards thread Tid's IDG state
  // (CurrTx identity, lastRdEx, Owned, and the Out lists / HasCrossOut of
  // its transactions). SerializedIdg collapses everything onto stripe 0.
  // Lock order: ascending stripe index; SccStateLock / PcdOnlyLock are
  // innermost and never held while acquiring a stripe.
  uint32_t shardOf(uint32_t Tid) const {
    return Opts.SerializedIdg ? 0 : Tid + 1;
  }
  void lockShard(uint32_t S, uint32_t Holder);
  void unlockShard(uint32_t S) { IdgShards->unlock(S); }
  /// Acquires the N stripes in Shards (caller-sorted ascending), paying at
  /// most one remote-miss penalty for the whole batch — the stripes live on
  /// independent cache lines, so their coherence transfers overlap.
  void lockShards(const uint32_t *Shards, unsigned N, uint32_t Holder);
  void lockAllShards(uint32_t Holder);
  void unlockAllShards();
  /// Calibrated coherence-miss spin (DESIGN.md §2); result feeds
  /// PenaltySink so the loop is not optimized away.
  void spinPenalty(uint32_t Iters, uint64_t Seed);

  /// Requires shard(Tid). Installs and returns Tid's next transaction.
  Transaction *newTransactionLocked(uint32_t Tid, ir::MethodId Site,
                                    bool Regular);
  /// Finishes Tid's current transaction, then runs the out-of-line
  /// follow-ups (PCD-only feed, SCC detection, collection trigger).
  /// Caller must hold no stripe. CurrTx intentionally keeps pointing at
  /// the finished transaction until the next newTransactionLocked.
  void endCurrentTx(uint32_t Tid);
  /// Requires shard(Src->Tid) and shard(Dst->Tid). \p Phys is the physical
  /// thread executing the call (its chunk cache feeds the EdgeIn append).
  void addCrossEdgeLocked(Transaction *Src, Transaction *Dst, uint32_t Phys);
  /// Queues the just-finished, cross-edged \p V as a detection root and
  /// runs a batched pass once Opts.SccBatch roots are pending. Caller must
  /// hold no stripe.
  void pendSccRoot(Transaction *V, uint32_t Holder);
  /// Executes component claims the incremental detector produced: the
  /// exact post-claim logic of sccPass — site accumulation, the injected
  /// unsound filter, the degradation checks, the PCD hand-off, unpinning.
  /// Precise claims only arise on the retire()/finalize paths (no stripes
  /// held — the hand-off may block on queue backpressure); Oversized
  /// claims also arise under ≤ 2 stripes from edge insertion, where they
  /// touch only innermost locks.
  void executeIcdClaims(IncrementalCycleDetector::ClaimList &Claims);
  /// Batched Tarjan over finished transactions from every pending root;
  /// takes all stripes once for the whole batch. A component is claimed
  /// exactly by the pass whose root set contains its maximal-EndTime
  /// member (that member's end is when the cycle became complete, and each
  /// transaction is a root of exactly one pass).
  void sccPass(uint32_t Holder);
  /// One mark-sweep pass; takes all stripes, frees outside them.
  void collectNow(uint32_t Holder);
  /// Routes a collection trigger to the background collector (sharded) or
  /// runs it inline (SerializedIdg).
  void requestCollect(uint32_t Holder);
  /// Bounded wait at a transaction boundary while the live-tx budget is
  /// breached: lends the collector this thread's cycles (see definition).
  void collectBackpressure(uint32_t Tid);
  /// Returns the transaction the next access belongs to, replacing an
  /// interrupted unary transaction if needed. \p PT must be TC's block
  /// (hoisted by the caller so the hot path resolves it once).
  Transaction *currentForAccess(rt::ThreadContext &TC, PerThread &PT);
  void logAccess(rt::ThreadContext &TC, PerThread &PT, Transaction *Cur,
                 const rt::AccessInfo &Info);

  // -- Ring log transport (DESIGN.md §13) ----------------------------------
  /// Mutator-side chunk admission for a record of \p N slots at position
  /// \p Pos (DESIGN.md §13). A slot position that starts a chunk spends
  /// one credit from \p PT; at zero credit, ChunkPool.admitRefill() decides
  /// a RefillBatch refill — the same request, at the same position, that
  /// arena mode's LogChunkCache makes. Returns false when that refill was
  /// refused (injected allocation failure or log-byte budget breach); the
  /// caller sheds an access record and ignores the refusal for an EdgeIn
  /// marker, as arena mode does.
  bool ringAdmitChunk(PerThread &PT, uint32_t Pos, uint32_t N);
  /// Commits \p N slots of \p Tx's log at position \p Pos into the ring
  /// array: hinted ring first, one neighbour hop on contention, then a
  /// bounded self-drain-and-retry ladder when rings are full. Returns false
  /// when every rung failed — the caller sheds (never blocks, never drops
  /// silently). Callers publish Tx->LogLen only after a true return, so a
  /// concurrently sampled SrcPos always refers to published records.
  bool ringPublish(PerThread &PT, Transaction *Tx, uint32_t Pos,
                   const LogSlot *S, uint32_t N);
  /// Blocks (bounded by PcdStallTimeoutMs, helping the drain on the way)
  /// until every member's log is fully materialized — DrainedSlots has
  /// caught up with LogLen. Returns false when the deadline passes: the
  /// caller must degrade the SCC to Potential instead of replaying. Shed
  /// members are the caller's to degrade beforehand. True (trivially)
  /// without the ring transport.
  bool awaitLogComplete(const std::vector<Transaction *> &Members);
  /// Body of the background drainer thread: drain all rings, sleep
  /// adaptively while idle, heartbeat the watchdog.
  void ringDrainLoop();

  // -- Overload / fault tolerance (DESIGN.md §10) --------------------------
  /// Records the first checker-internal fault (later ones only count).
  void recordFault(rt::CheckerFault F, std::string Diagnosis);
  /// Appends one ladder transition to the structured report.
  void recordDegradation(rt::DegradationEvent E);
  /// Enters shed mode for \p PT's thread: the current transaction's log is
  /// marked incomplete, further accesses are dropped (ICD-only), and a
  /// ShedLogging event is recorded with a deterministic OrderClock stamp.
  /// Called by the logging thread itself in every transport: on a refused
  /// arena chunk refill, on a refused ring chunk credit refill
  /// (ringAdmitChunk), and when every rung of a full-ring publish failed.
  void beginShed(PerThread &PT, uint32_t Tid, Transaction *Cur);
  /// Degrades one detected SCC to a Potential violation record instead of
  /// a precise replay (members need not be pinned). \p Stamp is the SCC's
  /// max member EndTime — deterministic across configs.
  void degradeScc(const std::vector<Transaction *> &Members, uint64_t Stamp);
  /// Watchdog handler (monitor thread): map component -> CheckerFault.
  void onComponentStall(const std::string &Component, uint64_t SilentMs);

  // -- Streaming service mode (DESIGN.md §15) ------------------------------
  /// One retirement-window flush: force everything decidable as of the
  /// boundary to a decision (batched detection, ring drain, PCD drain),
  /// then collect synchronously so quiesced transactions retire. Returns
  /// false when any stage degraded (stall-timeout steal, shed member) —
  /// the window still completed, but some verdicts moved down the ladder
  /// to Potential. Serialized by WindowMu; caller must hold no stripes.
  bool windowFlushNow(uint32_t Holder);
  /// Fills a point-in-time health snapshot from atomics + the stats
  /// registry's stable-snapshot API. Safe mid-run from any thread.
  void fillHealth(rt::HealthSnapshot &H);

  const ir::Program &P;
  DoubleCheckerOptions Opts;
  ViolationLog &Violations;
  StatisticRegistry &Stats;

  /// Log publication path for this run, resolved once in the constructor:
  /// LegacyLog beats everything, then ThreadArenaLog / PcdOnly select the
  /// arena, and the per-CPU ring transport is the default.
  enum class LogTransport : uint8_t { Ring, Arena, Legacy };
  LogTransport Transport = LogTransport::Ring;

  std::unique_ptr<octet::OctetManager> Octet;
  std::unique_ptr<PreciseCycleDetector> Pcd;
  /// Incremental online cycle detection (the default); null selects the
  /// batched Tarjan passes (Opts.BatchedScc) and in PcdOnly /
  /// DetectIcdCycles=false modes.
  std::unique_ptr<IncrementalCycleDetector> Icd;
  /// Declared before the pool/collector: workers beat its slots, so it is
  /// destroyed after them (the dtor also resets explicitly in that order).
  std::unique_ptr<rt::Watchdog> Dog;
  std::unique_ptr<PcdPool> AsyncPcd;
  std::unique_ptr<OnlinePcd> PcdOnlyAnalysis;
  std::unique_ptr<TxCollector> Collector;
  std::unique_ptr<PerThread[]> Threads;
  uint32_t NumThreads = 0;
  uint32_t NumShards = 0;
  std::unique_ptr<StripedLockSet> IdgShards;

  /// Global free list backing every thread's chunk cache; the collector
  /// splices swept transactions' chunks back into it.
  LogChunkPool ChunkPool;

  /// Ring transport state (Transport == Ring and LogAccesses only). The
  /// drainer thread owns the steady-state drain; mutators self-drain when
  /// they find their ring full, and completeness waits drain too. DrainMu
  /// (inside RingLog) orders after any IDG stripes in the lock order.
  std::unique_ptr<RingLog> Ring;
  std::thread RingDrainer;
  std::atomic<bool> DrainerStop{false};
  /// Completeness waits that hit the deadline (SCC degraded instead).
  std::atomic<uint64_t> RingDrainStalls{0};

  /// Legacy path (LegacyLog): packed (tid | wasWrite | ts) cells for log
  /// duplicate elision, indexed by field address and shared by all threads.
  std::vector<std::atomic<uint64_t>> ElisionCells;
  /// Sticky multi-thread-logged marker per field (remote-miss simulation;
  /// LegacyLog only). Relaxed atomics: set/read racily by design, but
  /// data-race-free.
  std::vector<std::atomic<uint8_t>> CellContended;
  /// Keeps the penalty spin from being optimized away.
  std::atomic<uint64_t> PenaltySink{0};

  Transaction *GLastRdSh = nullptr; ///< Stripe 0.
  /// Global order clock: ticks at transaction ends and edge creations;
  /// stamps transaction EndTime and EdgeIn markers for PCD's replay-
  /// ordering constraints. A relaxed fetch_add preserves the invariant
  /// PCD needs (DESIGN.md §7): atomic RMWs on one object have a single
  /// modification order consistent with happens-before, so along every
  /// happens-before path stamps are strictly increasing.
  std::atomic<uint64_t> OrderClock{0};
  std::atomic<uint64_t> CrossEdges{0};
  std::atomic<uint64_t> FinishedTxs{0};
  std::atomic<uint64_t> SccCount{0};
  std::atomic<uint64_t> SccPasses{0};
  std::atomic<uint64_t> SccVisited{0};
  std::atomic<uint64_t> BackpressureWaits{0};
  std::atomic<uint64_t> CollectorRuns{0};
  std::atomic<uint64_t> CollectorNs{0};
  std::atomic<uint64_t> TxsSwept{0};
  /// Largest live set (kept transactions) any collection observed.
  std::atomic<uint64_t> CollectorLiveMax{0};
  uint64_t SccEpochCounter = 0;  ///< All stripes (Tarjan scratch epoch).
  uint64_t MarkEpochCounter = 0; ///< All stripes (collector mark epoch).

  /// Finished cross-edged transactions awaiting a batched detection pass.
  /// Guarded by PendingLock (innermost, never held while taking a stripe);
  /// the collector treats every entry as a strong mark root so undetected
  /// cycles survive until their pass.
  SpinLock PendingLock;
  std::vector<Transaction *> PendingSccRoots;

  /// Guards SccSites/SccAnyUnary (innermost; also used by staticInfo).
  mutable SpinLock SccStateLock;
  std::set<ir::MethodId> SccSites;
  bool SccAnyUnary = false;
  /// Serializes the PCD-only straw man's persistent analysis (innermost).
  SpinLock PcdOnlyLock;

  // -- Overload / fault tolerance (DESIGN.md §10) --------------------------
  /// Unified resource accounting (live txs, log bytes, PCD queue depth).
  ResourceGovernor Governor;
  /// The runtime of the current run (gate-stall aborts); beginRun..endRun.
  rt::Runtime *TheRT = nullptr;
  /// Watchdog slot ids (valid while Dog is set).
  uint32_t DogGateSlot = 0;
  uint32_t DogCollectorSlot = 0;
  uint32_t DogDrainerSlot = 0;
  uint32_t DogWindowSlot = 0;
  /// Serializes window flushes against each other (two threads can cross
  /// consecutive boundaries while the first flush is still draining).
  /// Ordered outermost: acquired before any stripe or checker lock.
  std::mutex WindowMu;
  /// Windows whose flush degraded work instead of fully quiescing.
  std::atomic<uint64_t> WindowDegraded{0};
  /// Flush counter keying FaultPlan::WindowStallAt.
  std::atomic<uint64_t> WindowFlushCounter{0};
  /// Guards the health report below (innermost; never held while taking
  /// any other checker lock).
  mutable SpinLock HealthLock;
  rt::CheckerFault Fault = rt::CheckerFault::None;
  std::string FaultDiagnosis;
  std::vector<rt::DegradationEvent> DegEvents;
};

} // namespace analysis
} // namespace dc

#endif // DC_ANALYSIS_DOUBLECHECKER_H
