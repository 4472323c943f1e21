//===- analysis/DoubleChecker.cpp -----------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/DoubleChecker.h"

#include "support/ChromeTrace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

using namespace dc;
using namespace dc::analysis;

namespace {

/// Holder id the background collector uses for stripe acquisition (never a
/// program thread id).
constexpr uint32_t HolderCollector = 0xFFFFFFFEu;

/// The program thread currently executing on this OS thread; every checker
/// hook stores it on entry. Octet listener callbacks run inside some hook
/// (a barrier, a safe-point poll, or a blocked-state operation), so this
/// identifies which thread's cache a stripe handoff would miss in.
thread_local uint32_t TlsPhysTid = StripedLockSet::NoHolder;

uint32_t physTid(uint32_t Fallback) {
  return TlsPhysTid == StripedLockSet::NoHolder ? Fallback : TlsPhysTid;
}

/// Ids are (thread, per-thread counter) compositions so allocation needs no
/// global synchronization. Uniqueness within a run is all the analysis
/// needs: nothing orders by id (OrderClock stamps do the ordering).
uint64_t composeId(uint32_t Tid, uint64_t Seq) {
  return (static_cast<uint64_t>(Tid + 1) << 40) | Seq;
}

/// Elision cell packing: tid (16 bits) | wasWrite (1) | ts (47).
uint64_t packCell(uint32_t Tid, bool WasWrite, uint64_t Ts) {
  return (static_cast<uint64_t>(Tid) << 48) |
         (static_cast<uint64_t>(WasWrite) << 47) |
         (Ts & ((1ULL << 47) - 1));
}
uint32_t cellTid(uint64_t Cell) { return static_cast<uint32_t>(Cell >> 48); }
bool cellWasWrite(uint64_t Cell) { return (Cell >> 47) & 1; }
uint64_t cellTs(uint64_t Cell) { return Cell & ((1ULL << 47) - 1); }

} // namespace

//===----------------------------------------------------------------------===//
// Parallel-PCD worker pool
//===----------------------------------------------------------------------===//

/// Bounded multi-worker pool for PCD replays (parallel-PCD extension, §5.3
/// future work). SCCs are independent once detected: members are finished
/// (immutable logs) and pinned by the detecting thread before enqueue; the
/// worker that replays an SCC releases its members' pins. processScc keeps
/// no state across calls, so workers replay distinct SCCs concurrently.
///
/// Overload/fault behaviour (DESIGN.md §10): enqueue and drain are *timed*
/// — a detecting thread blocked past the stall timeout degrades its SCCs
/// to potential violations instead of waiting forever; workers heartbeat a
/// watchdog slot and survive exceptions by degrading the SCC they held.
/// Teardown is bounded: workers that do not exit within the timeout are
/// detached (they share ownership of State, so a straggler never touches
/// freed pool memory), and on Stop leftover queue items are degraded, not
/// replayed.
class DoubleCheckerRuntime::PcdPool {
public:
  PcdPool(DoubleCheckerRuntime &DC, PreciseCycleDetector &Pcd,
          StatisticRegistry &Stats, uint32_t NumWorkers, uint32_t MaxDepth)
      : DC(DC), Pcd(Pcd), MaxDepth(std::max(1u, MaxDepth)),
        StallTimeoutMs(std::max(1u, DC.Opts.PcdStallTimeoutMs)),
        SccsQueued(Stats.get("pcd.sccs_queued")),
        QueueWaitNs(Stats.get("pcd.queue_wait_ns")),
        MaxQueueDepth(Stats.get("pcd.max_queue_depth")),
        WorkerExceptions(Stats.get("pcd.worker_exceptions")),
        WorkersDetached(Stats.get("pcd.workers_detached")),
        EnqueueTimeouts(Stats.get("pcd.enqueue_timeouts")),
        S(std::make_shared<State>()) {
    const uint32_t N = std::max(1u, NumWorkers);
    S->HoldUntil = DC.Opts.Faults.QueueHoldUntil;
    S->ExitedFlags = std::make_unique<std::atomic<bool>[]>(N);
    Workers.reserve(N);
    Slots.reserve(N);
    for (uint32_t I = 0; I < N; ++I)
      Slots.push_back(DC.Dog ? DC.Dog->addComponent("pcd-worker-" +
                                                    std::to_string(I))
                             : 0u);
    // Threads start only after every watchdog slot exists (addComponent
    // must not race Watchdog::start, which the caller invokes after us).
    for (uint32_t I = 0; I < N; ++I)
      Workers.emplace_back([this, I] { run(I); });
  }

  ~PcdPool() {
    {
      std::lock_guard<std::mutex> L(S->M);
      S->Stop.store(true, std::memory_order_release);
    }
    S->HasWork.notify_all();
    S->NotFull.notify_all();
    // Bounded teardown: wait up to the stall timeout for workers to exit
    // (they degrade — never replay — whatever is still queued), then
    // detach stragglers. A detached worker only ever touches State, which
    // it co-owns, so this cannot use-after-free even if it outlives the
    // checker.
    {
      std::unique_lock<std::mutex> L(S->M);
      S->ExitCv.wait_for(L, std::chrono::milliseconds(StallTimeoutMs),
                         [this] { return S->Exited == Workers.size(); });
    }
    for (size_t I = 0; I < Workers.size(); ++I) {
      // Workers that signalled exit finish immediately; the rest are
      // stragglers (a genuinely wedged replay) and get detached.
      if (S->ExitedFlags[I].load(std::memory_order_acquire)) {
        Workers[I].join();
      } else {
        WorkersDetached.add(1);
        Workers[I].detach();
      }
    }
  }

  /// Hands one detection pass's SCCs to the workers (members already
  /// pinned by the caller; whoever replays or degrades an SCC releases its
  /// pins). Backpressure is *timed*: an SCC that cannot be queued within
  /// the stall timeout is degraded to potential violations and a
  /// PcdQueueStall fault is recorded — the detecting thread is never
  /// blocked forever. Safe to wait here: callers hold no IDG stripe and
  /// workers never take one. One notify per woken worker for the whole
  /// batch, not one per SCC: a woken worker drains everything it can see.
  void enqueueBatch(std::vector<std::vector<Transaction *>> Sccs) {
    const auto Now = std::chrono::steady_clock::now();
    size_t Queued = 0;
    bool ReleasedHold = false;
    std::vector<std::vector<Transaction *>> TimedOut;
    {
      std::unique_lock<std::mutex> L(S->M);
      for (std::vector<Transaction *> &Members : Sccs) {
        // The enqueue-attempt counter keys the injected faults: attempts
        // happen in detection order, which a fixed schedule reproduces
        // bit-exactly (dequeue order would not).
        const uint64_t Seq = ++S->EnqueueAttempts;
        if (S->HoldUntil != 0 && Seq >= S->HoldUntil && !S->HoldReleased) {
          S->HoldReleased = true;
          ReleasedHold = true;
        }
        uint8_t Inject = 0;
        if (Seq == DC.Opts.Faults.WorkerStallAt)
          Inject = InjectStall;
        else if (Seq == DC.Opts.Faults.WorkerDieAt)
          Inject = InjectDie;
        const auto Deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(StallTimeoutMs);
        bool Admitted = true;
        while (S->Queue.size() >= MaxDepth &&
               !S->Stop.load(std::memory_order_relaxed)) {
          if (std::chrono::steady_clock::now() >= Deadline) {
            Admitted = false;
            break;
          }
          S->NotFull.wait_for(L, std::chrono::milliseconds(5));
          // The caller is the gate-admitted program thread: while it waits
          // here no instruction retires, so beat the gate slot to keep the
          // watchdog pointed at the real culprit (the queue), not the gate.
          if (DC.Dog)
            DC.Dog->heartbeat(DC.DogGateSlot);
        }
        if (!Admitted) {
          EnqueueTimeouts.add(1);
          TimedOut.push_back(std::move(Members));
          continue;
        }
        S->Queue.push_back(Item{std::move(Members), Now, Inject});
        ++Queued;
        SccsQueued.add(1);
        MaxQueueDepth.updateMax(S->Queue.size());
        DC.Governor.queueDepth(+1);
      }
    }
    for (size_t I = std::min(Queued, Workers.size()); I-- > 0;)
      S->HasWork.notify_one();
    if (ReleasedHold)
      S->HasWork.notify_all();
    if (!TimedOut.empty()) {
      DC.recordFault(rt::CheckerFault::PcdQueueStall,
                     "pcd enqueue found the queue saturated for " +
                         std::to_string(StallTimeoutMs) +
                         " ms with no worker progress");
      for (std::vector<Transaction *> &Members : TimedOut)
        degradeAndUnpin(Members);
    }
  }

  /// Waits until every queued SCC has been replayed or degraded, bounded
  /// by the stall timeout: if workers make no progress, the remaining
  /// queue is stolen and degraded on the calling thread so endRun always
  /// terminates (the watchdog supplies the fault diagnosis).
  void drain() {
    std::unique_lock<std::mutex> L(S->M);
    const auto Deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(StallTimeoutMs);
    for (;;) {
      if (S->Queue.empty() && S->Active == 0)
        return;
      if (std::chrono::steady_clock::now() >= Deadline)
        break;
      S->Idle.wait_for(L, std::chrono::milliseconds(5));
      // Mid-run callers (window flushes) are gate-admitted program
      // threads; beat the gate so a slow-but-healthy drain is not
      // misdiagnosed as a wedged scheduler.
      if (DC.Dog)
        DC.Dog->heartbeat(DC.DogGateSlot);
    }
    std::deque<Item> Stolen;
    Stolen.swap(S->Queue);
    L.unlock();
    for (Item &It : Stolen) {
      DC.Governor.queueDepth(-1);
      degradeAndUnpin(It.Members);
    }
    L.lock();
    // Give in-flight replays one more timeout, then give up — the fault
    // is (or will be) recorded; correctness does not depend on them.
    const auto Final = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(StallTimeoutMs);
    while (S->Active != 0 && std::chrono::steady_clock::now() < Final) {
      S->Idle.wait_for(L, std::chrono::milliseconds(5));
      if (DC.Dog)
        DC.Dog->heartbeat(DC.DogGateSlot);
    }
  }

  /// True once an injected worker stall has actually parked a worker
  /// (endRun then waits for the watchdog to convert it into a fault).
  bool stallParked() const {
    return S->StallParked.load(std::memory_order_acquire);
  }

private:
  enum : uint8_t { InjectNone = 0, InjectStall = 1, InjectDie = 2 };

  struct Item {
    std::vector<Transaction *> Members;
    std::chrono::steady_clock::time_point Enqueued;
    uint8_t Inject = InjectNone;
  };

  /// Everything a worker may touch after Stop — co-owned via shared_ptr so
  /// a detached straggler can never use freed pool memory.
  struct State {
    std::mutex M;
    std::condition_variable HasWork;
    std::condition_variable NotFull;
    std::condition_variable Idle;
    std::condition_variable ExitCv;
    std::deque<Item> Queue;
    uint32_t Active = 0;
    size_t Exited = 0;
    std::unique_ptr<std::atomic<bool>[]> ExitedFlags;
    std::atomic<bool> Stop{false};
    std::atomic<bool> StallParked{false};
    /// Injected queue saturation: workers refuse to dequeue until this
    /// many enqueue attempts happened (0 = off).
    uint64_t HoldUntil = 0;
    bool HoldReleased = false;
    uint64_t EnqueueAttempts = 0;
  };

  /// Sound fallback shared by every fault path: the SCC's members' static
  /// sites become a Potential violation record, then the pins drop.
  void degradeAndUnpin(std::vector<Transaction *> &Members) {
    uint64_t Stamp = 0;
    for (const Transaction *Tx : Members)
      Stamp = std::max(Stamp, Tx->EndTime);
    DC.degradeScc(Members, Stamp);
    for (Transaction *Tx : Members)
      Tx->Pins.fetch_sub(1, std::memory_order_release);
  }

  void run(uint32_t WorkerIdx) {
    // Keep State alive even if the pool detaches this thread.
    std::shared_ptr<State> St = S;
    std::unique_lock<std::mutex> L(St->M);
    for (;;) {
      St->HasWork.wait(L, [&] {
        return St->Stop.load(std::memory_order_relaxed) ||
               (!St->Queue.empty() &&
                (St->HoldUntil == 0 || St->HoldReleased));
      });
      if (St->Stop.load(std::memory_order_relaxed)) {
        // Teardown: degrade — never replay — what is left, so shutdown
        // latency is bounded and still sound.
        while (!St->Queue.empty()) {
          Item It = std::move(St->Queue.front());
          St->Queue.pop_front();
          L.unlock();
          DC.Governor.queueDepth(-1);
          degradeAndUnpin(It.Members);
          L.lock();
        }
        St->ExitedFlags[WorkerIdx].store(true, std::memory_order_release);
        ++St->Exited;
        St->ExitCv.notify_all();
        return;
      }
      Item It = std::move(St->Queue.front());
      St->Queue.pop_front();
      ++St->Active;
      L.unlock();
      DC.Governor.queueDepth(-1);
      St->NotFull.notify_one();
      QueueWaitNs.add(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - It.Enqueued)
              .count()));
      if (DC.Dog)
        DC.Dog->beginWork(Slots[WorkerIdx]);
      if (It.Inject == InjectStall) {
        // Injected permanent stall. Degrade the SCC *first* (soundness
        // does not depend on this worker ever waking), then park busy and
        // silent: the watchdog sees a beating-less busy slot and converts
        // the hang into CheckerFault::PcdWorkerStall. Active is released
        // so drain() does not wait on a worker that will never finish.
        degradeAndUnpin(It.Members);
        L.lock();
        --St->Active;
        if (St->Queue.empty() && St->Active == 0)
          St->Idle.notify_all();
        L.unlock();
        St->StallParked.store(true, std::memory_order_release);
        while (!St->Stop.load(std::memory_order_acquire))
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::lock_guard<std::mutex> G(St->M);
        ++St->Exited;
        St->ExitCv.notify_all();
        return;
      }
      try {
        if (It.Inject == InjectDie)
          throw std::runtime_error("injected pcd worker death");
        Pcd.processScc(It.Members);
      } catch (...) {
        // A dying replay degrades its SCC and the worker lives on.
        WorkerExceptions.add(1);
        uint64_t Stamp = 0;
        for (const Transaction *Tx : It.Members)
          Stamp = std::max(Stamp, Tx->EndTime);
        DC.degradeScc(It.Members, Stamp);
      }
      for (Transaction *Tx : It.Members)
        Tx->Pins.fetch_sub(1, std::memory_order_release);
      if (DC.Dog)
        DC.Dog->endWork(Slots[WorkerIdx]);
      L.lock();
      --St->Active;
      if (St->Queue.empty() && St->Active == 0)
        St->Idle.notify_all();
    }
  }

  DoubleCheckerRuntime &DC;
  PreciseCycleDetector &Pcd;
  const uint32_t MaxDepth;
  const uint32_t StallTimeoutMs;
  Statistic &SccsQueued;
  Statistic &QueueWaitNs;
  Statistic &MaxQueueDepth;
  Statistic &WorkerExceptions;
  Statistic &WorkersDetached;
  Statistic &EnqueueTimeouts;

  std::shared_ptr<State> S;
  std::vector<uint32_t> Slots;
  std::vector<std::thread> Workers;
};

//===----------------------------------------------------------------------===//
// Background transaction collector
//===----------------------------------------------------------------------===//

/// Runs mark-sweep passes off the critical path. Triggers from
/// endCurrentTx only bump a request counter; pending requests coalesce
/// into one pass (a pass sweeps everything currently unreachable, so a
/// coalesced pass frees no less than the passes it replaces).
class DoubleCheckerRuntime::TxCollector {
public:
  explicit TxCollector(DoubleCheckerRuntime &DC) : DC(DC) {
    Worker = std::thread([this] { run(); });
  }

  ~TxCollector() {
    {
      std::lock_guard<std::mutex> L(M);
      Stop = true;
    }
    CV.notify_all();
    Worker.join();
  }

  void request() {
    {
      std::lock_guard<std::mutex> L(M);
      ++Requested;
    }
    CV.notify_one();
  }

  /// Waits until every request made before the call has been served,
  /// bounded by the stall timeout: a wedged (or fault-delayed) collector
  /// becomes a structured CollectorStall fault instead of hanging endRun.
  /// Skipping the sweep is always safe — collection only frees memory.
  void drain() {
    std::unique_lock<std::mutex> L(M);
    const uint64_t Target = Requested;
    const uint32_t TimeoutMs = std::max(1u, DC.Opts.PcdStallTimeoutMs);
    if (!Done.wait_for(L, std::chrono::milliseconds(TimeoutMs),
                       [&] { return Completed >= Target; })) {
      L.unlock();
      DC.recordFault(rt::CheckerFault::CollectorStall,
                     "collector drain timed out after " +
                         std::to_string(TimeoutMs) + " ms");
    }
  }

private:
  void run() {
    std::unique_lock<std::mutex> L(M);
    for (;;) {
      CV.wait(L, [this] { return Stop || Completed < Requested; });
      if (Completed >= Requested && Stop)
        return;
      const uint64_t Target = Requested; // Coalesce pending requests.
      L.unlock();
      // beginWork before the injected delay: the fault plan models a
      // collector that accepted work and then made no progress, which is
      // exactly what the watchdog's busy-and-silent detection covers.
      if (DC.Dog)
        DC.Dog->beginWork(DC.DogCollectorSlot);
      if (DC.Opts.Faults.CollectorDelayMs != 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(DC.Opts.Faults.CollectorDelayMs));
      DC.collectNow(HolderCollector);
      if (DC.Dog)
        DC.Dog->endWork(DC.DogCollectorSlot);
      L.lock();
      Completed = Target;
      Done.notify_all();
    }
  }

  DoubleCheckerRuntime &DC;
  std::mutex M;
  std::condition_variable CV;
  std::condition_variable Done;
  uint64_t Requested = 0;
  uint64_t Completed = 0;
  bool Stop = false;
  std::thread Worker;
};

//===----------------------------------------------------------------------===//
// Construction / run lifecycle
//===----------------------------------------------------------------------===//

DoubleCheckerRuntime::DoubleCheckerRuntime(const ir::Program &P,
                                           DoubleCheckerOptions Opts,
                                           ViolationLog &Violations,
                                           StatisticRegistry &Stats)
    : P(P), Opts(Opts), Violations(Violations), Stats(Stats) {
  // Resolve the log publication path once: LegacyLog beats everything,
  // then ThreadArenaLog / PcdOnly select the arena (PcdOnly's online
  // analysis consumes each log synchronously at transaction end — it
  // cannot tolerate deferred materialization), and the per-CPU ring
  // transport (DESIGN.md §13) is the default.
  Transport = Opts.LegacyLog ? LogTransport::Legacy
              : (Opts.ThreadArenaLog || Opts.PcdOnly) ? LogTransport::Arena
                                                      : LogTransport::Ring;
  if (Opts.PcdOnly) {
    this->Opts.LogAccesses = true;
    this->Opts.RunPcd = false;
    // The persistent precise state pins transactions; never sweep.
    this->Opts.CollectEveryTx = ~0u;
    PcdOnlyAnalysis = std::make_unique<OnlinePcd>(Violations, Stats);
    return;
  }
  if (Opts.RunPcd) {
    PreciseCycleDetector::Options PcdOpts;
    PcdOpts.MaxSccTxs = Opts.MaxSccTxsForPcd;
    Pcd = std::make_unique<PreciseCycleDetector>(Violations, Stats, PcdOpts);
  }
}

DoubleCheckerRuntime::~DoubleCheckerRuntime() {
  // Defensive: endRun retires the ring drainer; if the run aborted before
  // reaching it, the drainer must still stop before the transactions it
  // materializes into are deleted below.
  if (RingDrainer.joinable()) {
    DrainerStop.store(true, std::memory_order_release);
    RingDrainer.join();
  }
  // Stop the PCD pool before freeing the transactions it may still be
  // replaying, the collector before tearing down the stripes it locks, and
  // the watchdog last (both components beat slots it owns until they stop).
  AsyncPcd.reset();
  Collector.reset();
  Dog.reset();
  for (uint32_t T = 0; T < NumThreads; ++T)
    for (Transaction *Tx : Threads[T].Owned)
      delete Tx;
}

void DoubleCheckerRuntime::beginRun(rt::Runtime &RT) {
  TheRT = &RT;
  NumThreads = RT.numThreads();
  Threads = std::make_unique<PerThread[]>(NumThreads);
  // Stripe 0 is the global stripe (gLastRdSh); Tid+1 is thread Tid's.
  NumShards = Opts.SerializedIdg ? 1 : NumThreads + 1;
  IdgShards = std::make_unique<StripedLockSet>(NumShards);
  // Default cycle detection is incremental (DESIGN.md §12): every edge
  // insert answers "cycle?" directly and no stop-the-world Tarjan pass
  // ever runs. BatchedScc selects the batched passes; PcdOnly and the
  // DetectIcdCycles ablation need no cycle detection at all.
  if (!PcdOnlyAnalysis && Opts.DetectIcdCycles && !Opts.BatchedScc) {
    IncrementalCycleDetector::Options IOpts;
    IOpts.MaxRegion = std::max(1u, Opts.IcdMaxRegion);
    IOpts.LockedFastPath = Opts.IcdLockedFastPath;
    IOpts.RetryStorm = Opts.IcdSeqRetryStorm;
    Icd = std::make_unique<IncrementalCycleDetector>(IOpts);
  }
  Octet = std::make_unique<octet::OctetManager>(
      RT.heap(), NumThreads, this, Stats, &RT.abortFlag(),
      Opts.SerialRoundtrips);
  // Resource governor: budgets come straight from the options; the chunk
  // pool charges log bytes against it and consults it on refills.
  ResourceBudgets B;
  B.MaxLiveTxs = Opts.MaxLiveTxs;
  B.MaxLogBytes = Opts.MaxLogBytes;
  Governor.configure(B);
  ChunkPool.setGovernor(&Governor);
  ChunkPool.failRefillAt(Opts.Faults.AllocFailAt);
  // The watchdog only exists when there are background components to
  // monitor. SerializedIdg keeps the pre-sharding behaviour: collection
  // runs inline on the triggering thread. CollectEveryTx == ~0u (PcdOnly)
  // never triggers, so the collector thread would sit idle.
  const bool WantPool = Opts.ParallelPcd && Pcd != nullptr;
  const bool WantCollector =
      !Opts.SerializedIdg && Opts.CollectEveryTx != ~0u;
  const bool WantDrainer =
      Opts.LogAccesses && Transport == LogTransport::Ring;
  // Streaming mode always arms the watchdog: the window slot is what turns
  // a wedged flush into a structured WindowFlushStall instead of a stuck
  // server.
  const bool WantWindow = Opts.WindowTxs != 0;
  if (WantPool || WantCollector || WantDrainer || WantWindow) {
    rt::Watchdog::Options WOpts;
    WOpts.TimeoutMs = std::max(1u, Opts.PcdStallTimeoutMs);
    WOpts.PollMs = std::max(1u, Opts.WatchdogPollMs);
    Dog = std::make_unique<rt::Watchdog>(
        WOpts, [this](const std::string &Component, uint64_t SilentMs) {
          onComponentStall(Component, SilentMs);
        });
    DogGateSlot = Dog->addComponent("gate");
    if (WantCollector)
      DogCollectorSlot = Dog->addComponent("collector");
    if (WantDrainer)
      DogDrainerSlot = Dog->addComponent("ring-drainer");
    if (WantWindow)
      DogWindowSlot = Dog->addComponent("window-flush");
  }
  if (WantPool)
    AsyncPcd = std::make_unique<PcdPool>(*this, *Pcd, Stats, Opts.PcdWorkers,
                                         Opts.PcdQueueDepth);
  if (WantCollector)
    Collector = std::make_unique<TxCollector>(*this);
  if (Dog) {
    Dog->start();
    // The gate slot is busy for the whole run: program threads beat it
    // from safePoint, so a wedged scheduler gate surfaces as GateStall.
    Dog->beginWork(DogGateSlot);
  }
  if (Opts.LogAccesses) {
    if (Transport == LogTransport::Legacy) {
      ElisionCells = std::vector<std::atomic<uint64_t>>(
          RT.heap().numFieldAddrs());
      CellContended = std::vector<std::atomic<uint8_t>>(
          RT.heap().numFieldAddrs());
    } else if (Transport == LogTransport::Arena) {
      for (uint32_t T = 0; T < NumThreads; ++T)
        Threads[T].ChunkCache.attach(&ChunkPool);
    } else {
      // Ring transport (DESIGN.md §13): footprint is O(cores), independent
      // of the program's thread count — per-thread chunk caches stay
      // detached; the drain side owns the only cache. Refill admission
      // stays with the mutators (PerThread::ChunkCredit).
      const uint32_t NumRings =
          Opts.RingCount != 0
              ? Opts.RingCount
              : std::max(1u, std::thread::hardware_concurrency());
      Ring = std::make_unique<RingLog>(NumRings, Opts.RingBytes);
      Ring->attachPool(&ChunkPool);
      DrainerStop.store(false, std::memory_order_relaxed);
      RingDrainer = std::thread([this] { ringDrainLoop(); });
    }
  }
}

void DoubleCheckerRuntime::endRun(rt::Runtime &RT) {
  // The run is over: no program thread will beat the gate slot again, so
  // retire it before the (possibly long) drains below can trip GateStall.
  if (Dog)
    Dog->endWork(DogGateSlot);
  // Flush the tail of detection, then drain the deferred machinery it may
  // have fed. Incremental mode has nothing batched to flush — every cycle
  // was claimed at its last member's retire — so finalize only claims
  // defensively (icd.finalize_claims, expected 0) and keeps scc_passes at
  // zero. Batched mode flushes roots still short of a full batch.
  if (Icd) {
    IncrementalCycleDetector::ClaimList Claims;
    Icd->finalize(Claims);
    executeIcdClaims(Claims);
  } else {
    sccPass(HolderCollector);
  }
  if (AsyncPcd)
    AsyncPcd->drain();
  if (Collector)
    Collector->drain();
  // Ring transport: the run is over and the claim/PCD tail above has been
  // flushed, so no more records will be published. Retire the drainer (its
  // loop ends with a final drainAll, materializing any tail).
  if (RingDrainer.joinable()) {
    DrainerStop.store(true, std::memory_order_release);
    RingDrainer.join();
  }
  // An injected worker stall parks a worker busy-and-silent; give the
  // watchdog time to convert it into a structured fault before disarming,
  // so the fault reliably lands in this run's RunResult.
  if (Dog && AsyncPcd && AsyncPcd->stallParked()) {
    const auto Deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(Opts.PcdStallTimeoutMs +
                                  50u * std::max(1u, Opts.WatchdogPollMs) +
                                  200u);
    for (;;) {
      {
        SpinLockGuard Guard(HealthLock);
        if (Fault != rt::CheckerFault::None)
          break;
      }
      if (std::chrono::steady_clock::now() >= Deadline)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (Dog)
    Dog->disarm();
  Octet->flushStatistics();
  uint64_t Regular = 0, Unary = 0, AccR = 0, AccU = 0, LogN = 0, LogE = 0;
  uint64_t Bytes = 0, Dropped = 0, Sheds = 0;
  for (uint32_t T = 0; T < NumThreads; ++T) {
    const PerThread &PT = Threads[T];
    Regular += PT.RegularTxs;
    Unary += PT.UnaryTxs;
    AccR += PT.AccRegular;
    AccU += PT.AccUnary;
    LogN += PT.LogEntries;
    LogE += PT.LogElided;
    Dropped += PT.LogDropped;
    Sheds += PT.ShedCount;
    // On the arena path access appends don't bump BytesLogged inline (the
    // hot path carries no byte accounting; one slot per entry is implied)
    // — only EdgeIn markers do. The legacy path accounts every append.
    Bytes += PT.BytesLogged +
             (Opts.LegacyLog ? 0 : PT.LogEntries * sizeof(LogSlot));
  }
  Stats.get("icd.regular_transactions").add(Regular);
  Stats.get("icd.unary_transactions").add(Unary);
  Stats.get("icd.instrumented_accesses_regular").add(AccR);
  Stats.get("icd.instrumented_accesses_unary").add(AccU);
  Stats.get("icd.log_entries").add(LogN);
  Stats.get("icd.log_entries_elided").add(LogE);
  Stats.get("logging.bytes_logged").add(Bytes);
  if (!Opts.LegacyLog) {
    Stats.get("logging.filter_hits").add(LogE);
    Stats.get("logging.chunk_allocs").add(ChunkPool.chunkAllocs());
    Stats.get("logging.chunk_recycles").add(ChunkPool.chunkRecycles());
    Stats.get("logging.refill_requests").add(ChunkPool.refillRequests());
    Stats.get("logging.refills_refused").add(ChunkPool.refillsRefused());
  }
  if (Ring) {
    uint64_t RC = 0, RF = 0, RM = 0, RS = 0;
    for (uint32_t T = 0; T < NumThreads; ++T) {
      RC += Threads[T].RingCommits;
      RF += Threads[T].RingFullEvents;
      RM += Threads[T].RingMigrations;
      RS += Threads[T].RingSelfDrains;
    }
    Stats.get("logging.ring_commits").add(RC);
    Stats.get("logging.ring_full_events").add(RF);
    Stats.get("logging.ring_migrations").add(RM);
    Stats.get("logging.ring_self_drains").add(RS);
    Stats.get("logging.ring_drains").add(Ring->drainPasses());
    Stats.get("logging.ring_records_drained").add(Ring->recordsDrained());
    Stats.get("logging.ring_shed_refusals").add(Ring->shedRefusals());
    Stats.get("logging.ring_drain_stalls")
        .add(RingDrainStalls.load(std::memory_order_relaxed));
    Stats.get("logging.ring_footprint_bytes")
        .updateMax(Ring->footprintBytes());
    Stats.get("logging.ring_count").updateMax(Ring->numRings());
  }
  Stats.get("degradation.log_dropped").add(Dropped);
  Stats.get("degradation.sheds").add(Sheds);
  Governor.flush(Stats);
  if (Opts.WindowTxs != 0)
    Stats.get("window.flushes_degraded")
        .add(WindowDegraded.load(std::memory_order_relaxed));
  Stats.get("icd.idg_cross_edges")
      .add(CrossEdges.load(std::memory_order_relaxed));
  Stats.get("icd.sccs").add(SccCount.load(std::memory_order_relaxed));
  Stats.get("icd.scc_passes").add(SccPasses.load(std::memory_order_relaxed));
  Stats.get("icd.scc_visited")
      .add(SccVisited.load(std::memory_order_relaxed));
  Stats.get("governor.tx_backpressure_waits")
      .add(BackpressureWaits.load(std::memory_order_relaxed));
  Stats.get("icd.collector_runs")
      .add(CollectorRuns.load(std::memory_order_relaxed));
  Stats.get("icd.collector_ns")
      .add(CollectorNs.load(std::memory_order_relaxed));
  Stats.get("icd.txs_swept").add(TxsSwept.load(std::memory_order_relaxed));
  Stats.get("icd.collector_live")
      .updateMax(CollectorLiveMax.load(std::memory_order_relaxed));
  Stats.get("icd.idg_shards").updateMax(NumShards);
  Stats.get("icd.idg_lock_handoffs").add(IdgShards->totalHandoffs());
  if (Icd)
    Icd->flushStats(Stats);
}

//===----------------------------------------------------------------------===//
// Stripe helpers
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::lockShard(uint32_t S, uint32_t Holder) {
  if (IdgShards->lock(S, Holder) && Opts.IdgRemoteMissPenalty != 0)
    spinPenalty(Opts.IdgRemoteMissPenalty,
                (static_cast<uint64_t>(S) << 32) | Holder);
}

void DoubleCheckerRuntime::lockShards(const uint32_t *Shards, unsigned N,
                                      uint32_t Holder) {
  // Batched acquisition pays at most one remote-miss penalty: the stripes'
  // cache lines are independent, so on real hardware their coherence
  // transfers overlap (memory-level parallelism) instead of forming the
  // serial dependence chain spinPenalty models. Per-stripe handoffs are
  // still counted individually for the icd.idg_lock_handoffs statistic.
  bool AnyHandoff = false;
  for (unsigned I = 0; I < N; ++I)
    AnyHandoff |= IdgShards->lock(Shards[I], Holder);
  if (AnyHandoff && Opts.IdgRemoteMissPenalty != 0)
    spinPenalty(Opts.IdgRemoteMissPenalty, Holder);
}

void DoubleCheckerRuntime::lockAllShards(uint32_t Holder) {
  // Same memory-level-parallelism batching as lockShards, over every stripe.
  bool AnyHandoff = false;
  for (uint32_t S = 0; S < NumShards; ++S)
    AnyHandoff |= IdgShards->lock(S, Holder);
  if (AnyHandoff && Opts.IdgRemoteMissPenalty != 0)
    spinPenalty(Opts.IdgRemoteMissPenalty, Holder);
}

void DoubleCheckerRuntime::unlockAllShards() {
  for (uint32_t S = NumShards; S-- > 0;)
    unlockShard(S);
}

void DoubleCheckerRuntime::spinPenalty(uint32_t Iters, uint64_t Seed) {
  uint64_t Acc = Seed;
  for (uint32_t I = 0; I < Iters; ++I)
    Acc = Acc * 6364136223846793005ULL + 1442695040888963407ULL;
  PenaltySink.fetch_add(Acc, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Checker hooks
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::threadStarted(rt::ThreadContext &TC) {
  TlsPhysTid = TC.Tid;
  Octet->threadStarted(TC.Tid);
  const uint32_t S = shardOf(TC.Tid);
  lockShard(S, TC.Tid);
  newTransactionLocked(TC.Tid, ir::InvalidMethodId, /*Regular=*/false);
  unlockShard(S);
}

void DoubleCheckerRuntime::threadExiting(rt::ThreadContext &TC) {
  TlsPhysTid = TC.Tid;
  endCurrentTx(TC.Tid);
  // CurrTx intentionally stays on the (finished) final transaction: a
  // conflicting transition can still name this thread as its responder
  // (its objects keep their WrEx/RdEx states after exit), and the edge
  // source must then be the thread's last transaction — nulling it here
  // would silently drop those edges.
  Octet->threadExited(TC.Tid);
}

void DoubleCheckerRuntime::txBegin(rt::ThreadContext &TC,
                                   const ir::Method &M) {
  TlsPhysTid = TC.Tid;
  endCurrentTx(TC.Tid);
  collectBackpressure(TC.Tid);
  const uint32_t S = shardOf(TC.Tid);
  lockShard(S, TC.Tid);
  newTransactionLocked(TC.Tid, P.originalOf(M.Id), /*Regular=*/true);
  unlockShard(S);
}

void DoubleCheckerRuntime::txEnd(rt::ThreadContext &TC, const ir::Method &M) {
  // §4: at method end, a new unary transaction begins.
  TlsPhysTid = TC.Tid;
  endCurrentTx(TC.Tid);
  collectBackpressure(TC.Tid);
  const uint32_t S = shardOf(TC.Tid);
  lockShard(S, TC.Tid);
  newTransactionLocked(TC.Tid, ir::InvalidMethodId, /*Regular=*/false);
  unlockShard(S);
}

Transaction *DoubleCheckerRuntime::currentForAccess(rt::ThreadContext &TC,
                                                    PerThread &PT) {
  Transaction *Cur = PT.CurrTx.load(std::memory_order_relaxed);
  assert(Cur && "access outside any transaction context");
  if (Cur->Regular || !Cur->Interrupted.load(std::memory_order_relaxed))
    return Cur;
  // The merged unary transaction was interrupted by a cross-thread edge;
  // end it and start a fresh one (§4's merge optimization boundary).
  endCurrentTx(TC.Tid);
  const uint32_t S = shardOf(TC.Tid);
  lockShard(S, TC.Tid);
  Transaction *Fresh = newTransactionLocked(TC.Tid, ir::InvalidMethodId,
                                            /*Regular=*/false);
  unlockShard(S);
  return Fresh;
}

void DoubleCheckerRuntime::instrumentedAccess(rt::ThreadContext &TC,
                                              const rt::AccessInfo &Info,
                                              function_ref<void()> Access) {
  TlsPhysTid = TC.Tid;
  PerThread &PT = Threads[TC.Tid];
  Transaction *Cur = currentForAccess(TC, PT);
  if (Info.Flags & ir::IF_OctetBarrier) {
    if (Info.IsWrite)
      Octet->writeBarrier(TC, Info.Obj);
    else
      Octet->readBarrier(TC, Info.Obj);
  }
  Access();
  if (Opts.LogAccesses && (Info.Flags & ir::IF_LogAccess))
    logAccess(TC, PT, Cur, Info);
  if (Cur->Regular)
    ++PT.AccRegular;
  else
    ++PT.AccUnary;
}

void DoubleCheckerRuntime::logAccess(rt::ThreadContext &TC, PerThread &PT,
                                     Transaction *Cur,
                                     const rt::AccessInfo &Info) {
  const uint64_t MyTs = PT.CurTs.load(std::memory_order_relaxed);
  if (!Opts.LegacyLog) {
    // Default path (DESIGN.md §8): thread-local filter, chunked arena.
    // The only shared-visible write is the LogLen publication, and chunks
    // come from the thread's cache — zero shared writes beyond that, zero
    // allocations in steady state.
    if (PT.LogShedActive) {
      // Degradation ladder (DESIGN.md §10): this thread is shedding.
      // Drop the entry but mark the transaction, so any SCC it joins is
      // degraded to a potential violation instead of replayed from an
      // incomplete log (which would be unsound).
      Cur->LogShed.store(true, std::memory_order_relaxed);
      ++PT.LogDropped;
      return;
    }
    if (Opts.ElideDuplicates &&
        PT.Filter.testAndSet(ElisionFilter::key(Info.Obj, Info.Addr), MyTs,
                             Info.IsWrite)) {
      // Duplicate with no intervening edge or transaction boundary: elide.
      ++PT.LogElided;
      return;
    }
    if (Transport == LogTransport::Ring) {
      // Ring transport (DESIGN.md §13): one wait-free-bounded publish; no
      // chunk changes hands on this path. The position comes from LogLen
      // (single-writer: only this thread assigns positions in Cur's log
      // while it runs), and LogLen is stored only after the cell is
      // published — a concurrently sampled SrcPos never names an
      // unpublished record.
      const uint32_t Pos = Cur->LogLen.load(std::memory_order_relaxed);
      if (!ringAdmitChunk(PT, Pos, 1)) {
        // The ladder's decision point, taken here rather than on the
        // drain side so it stays keyed to this thread's log position.
        beginShed(PT, TC.Tid, Cur);
        return;
      }
      LogSlot S;
      S.A = Info.Obj;
      S.B = Info.Addr;
      S.Meta = Info.IsWrite ? SlotTagWrite : SlotTagRead;
      if (!ringPublish(PT, Cur, Pos, &S, 1)) {
        // Every rung of the full-ring ladder failed: same degradation
        // decision point as a refused chunk refill on the arena path.
        beginShed(PT, TC.Tid, Cur);
        return;
      }
      Cur->LogLen.store(Pos + 1, std::memory_order_release);
      ++PT.LogEntries;
      return;
    }
    if (Cur->Log.tailFull()) {
      // Chunk boundary: the refill is the ladder's decision point. A
      // refused refill (governor log-byte pressure or an injected
      // allocation failure) starts shedding on this thread — except under
      // PcdOnly, whose online analysis needs complete logs to stay
      // meaningful, so it falls back to a direct allocation.
      LogChunk *C = PT.ChunkCache.tryGet();
      if (C == nullptr) {
        if (PcdOnlyAnalysis) {
          C = new LogChunk();
        } else {
          beginShed(PT, TC.Tid, Cur);
          return;
        }
      }
      Cur->Log.adoptChunk(C);
    }
    Cur->LogLen.store(
        Cur->Log.appendAccess(Info.Obj, Info.Addr, Info.IsWrite,
                              &PT.ChunkCache),
        std::memory_order_release);
    ++PT.LogEntries; // Byte accounting is derived at flush: 1 slot/entry.
    return;
  }
  // Legacy path (LegacyLog): globally shared elision cells and a
  // reallocating vector log, with the remote-miss simulation the shared
  // cells warrant.
  std::atomic<uint64_t> &CellA = ElisionCells[Info.Addr];
  uint64_t Cell = CellA.load(std::memory_order_relaxed);
  if (Opts.ElideDuplicates && cellTid(Cell) == TC.Tid &&
      cellTs(Cell) == MyTs && (cellWasWrite(Cell) || !Info.IsWrite)) {
    ++PT.LogElided;
    return;
  }
  LogEntry E;
  E.K = Info.IsWrite ? LogEntry::Kind::Write : LogEntry::Kind::Read;
  E.Obj = Info.Obj;
  E.Addr = Info.Addr;
  Cur->appendLogLegacy(E);
  ++PT.LogEntries;
  PT.BytesLogged += sizeof(LogEntry);
  if (Opts.LogRemoteMissPenalty != 0) {
    // Remote-miss simulation for the elision cell rewrite (see
    // DoubleCheckerOptions::LogRemoteMissPenalty).
    if (Cell != 0 && cellTid(Cell) != TC.Tid)
      CellContended[Info.Addr].store(1, std::memory_order_relaxed);
    if (CellContended[Info.Addr].load(std::memory_order_relaxed))
      spinPenalty(Opts.LogRemoteMissPenalty, Info.Addr);
  }
  CellA.store(packCell(TC.Tid, Info.IsWrite, MyTs),
              std::memory_order_relaxed);
}

void DoubleCheckerRuntime::syncOp(rt::ThreadContext &TC,
                                  const rt::AccessInfo &Info,
                                  rt::SyncKind Kind) {
  if (Info.Flags == ir::IF_None)
    return;
  // Acquire-like ops behave as reads, release-like as writes, on the
  // synchronized object (already encoded in Info by the runtime).
  instrumentedAccess(TC, Info, [] {});
}

void DoubleCheckerRuntime::safePoint(rt::ThreadContext &TC) {
  TlsPhysTid = TC.Tid;
  if (Dog != nullptr) {
    // Program threads collectively beat the gate slot: as long as any
    // thread keeps retiring instructions the scheduler gate is healthy.
    // Throttled — an atomic store per safe point would be hot-path noise.
    PerThread &PT = Threads[TC.Tid];
    if ((++PT.SafePointBeats & 63u) == 0)
      Dog->heartbeat(DogGateSlot);
  }
  Octet->pollSafePoint(TC.Tid);
}

void DoubleCheckerRuntime::aboutToBlock(rt::ThreadContext &TC) {
  TlsPhysTid = TC.Tid;
  Octet->aboutToBlock(TC.Tid);
}

void DoubleCheckerRuntime::unblocked(rt::ThreadContext &TC) {
  TlsPhysTid = TC.Tid;
  Octet->unblocked(TC.Tid);
}

//===----------------------------------------------------------------------===//
// Octet listener: Figure 4 edge creation
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::onConflictingEdge(uint32_t RespTid,
                                             const octet::Transition &T) {
  // Runs on the responder (explicit protocol) or on a requester holding /
  // rescuing the blocked responder (implicit); both endpoints' current
  // transactions are stable for the duration, but several of these
  // callbacks may run *concurrently* for the same responder under the
  // pipelined fan-out (see OctetListener's contract). That is sound here
  // because every insertion below locks the responder's stripe (and the
  // requester's), so same-responder edge creations serialize on shardOf
  // (RespTid) while the quiescence guarantee pins both CurrTx loads
  // (DESIGN.md §11).
  const uint32_t Phys = physTid(T.Requester);
  uint32_t A = shardOf(RespTid);
  uint32_t B = shardOf(T.Requester);
  if (A > B)
    std::swap(A, B);
  uint32_t Need[2] = {A, B};
  const unsigned N = B != A ? 2 : 1;
  lockShards(Need, N, Phys);
  addCrossEdgeLocked(Threads[RespTid].CurrTx.load(std::memory_order_relaxed),
                     Threads[T.Requester].CurrTx.load(
                         std::memory_order_relaxed),
                     Phys);
  for (unsigned I = N; I-- > 0;)
    unlockShard(Need[I]);
}

void DoubleCheckerRuntime::onBecameRdEx(uint32_t Tid) {
  // Always runs on thread Tid itself (the thread claiming RdEx ownership).
  const uint32_t S = shardOf(Tid);
  lockShard(S, physTid(Tid));
  Threads[Tid].LastRdEx = Threads[Tid].CurrTx.load(std::memory_order_relaxed);
  unlockShard(S);
}

void DoubleCheckerRuntime::onUpgradeToRdSh(uint32_t Tid, uint32_t OldOwner,
                                           uint64_t Counter) {
  const uint32_t Phys = physTid(Tid);
  // Stripe 0 pins gLastRdSh's identity; the remaining stripes are only
  // known after reading it, and are all ranked above stripe 0, so the
  // ascending lock order is preserved.
  lockShard(0, Phys);
  Transaction *Rd = GLastRdSh;
  uint32_t Need[3] = {0, 0, 0};
  unsigned N = 0;
  auto Add = [&](uint32_t S) {
    if (S == 0)
      return; // Already held (always the case under SerializedIdg).
    for (unsigned I = 0; I < N; ++I)
      if (Need[I] == S)
        return;
    Need[N++] = S;
  };
  Add(shardOf(OldOwner));
  Add(shardOf(Tid));
  if (Rd != nullptr)
    Add(shardOf(Rd->Tid));
  // Ascending order, by hand: N <= 3 and std::sort trips a GCC
  // -Warray-bounds false positive on arrays this small.
  for (unsigned I = 1; I < N; ++I)
    for (unsigned J = I; J > 0 && Need[J] < Need[J - 1]; --J)
      std::swap(Need[J], Need[J - 1]);
  lockShards(Need, N, Phys);
  Transaction *Cur = Threads[Tid].CurrTx.load(std::memory_order_relaxed);
  // Edge from the old owner's last transition into RdEx (conservative
  // source for the write-read dependence being upgraded over).
  addCrossEdgeLocked(Threads[OldOwner].LastRdEx, Cur, Phys);
  // Edge ordering all transitions to RdSh (needed so fence transitions
  // capture write-read dependences transitively, Fig. 3).
  addCrossEdgeLocked(Rd, Cur, Phys);
  GLastRdSh = Cur;
  for (unsigned I = N; I-- > 0;)
    unlockShard(Need[I]);
  unlockShard(0);
}

void DoubleCheckerRuntime::onFence(uint32_t Tid) {
  const uint32_t Phys = physTid(Tid);
  lockShard(0, Phys);
  Transaction *Rd = GLastRdSh;
  if (Rd == nullptr) {
    unlockShard(0);
    return;
  }
  uint32_t Need[2] = {0, 0};
  unsigned N = 0;
  auto Add = [&](uint32_t S) {
    if (S == 0)
      return;
    for (unsigned I = 0; I < N; ++I)
      if (Need[I] == S)
        return;
    Need[N++] = S;
  };
  Add(shardOf(Rd->Tid));
  Add(shardOf(Tid));
  if (N == 2 && Need[1] < Need[0])
    std::swap(Need[0], Need[1]);
  lockShards(Need, N, Phys);
  addCrossEdgeLocked(Rd,
                     Threads[Tid].CurrTx.load(std::memory_order_relaxed),
                     Phys);
  for (unsigned I = N; I-- > 0;)
    unlockShard(Need[I]);
  unlockShard(0);
}

//===----------------------------------------------------------------------===//
// IDG maintenance
//===----------------------------------------------------------------------===//

Transaction *DoubleCheckerRuntime::newTransactionLocked(uint32_t Tid,
                                                        ir::MethodId Site,
                                                        bool Regular) {
  PerThread &PT = Threads[Tid];
  auto *Tx =
      new Transaction(composeId(Tid, PT.NextSeq), Tid, PT.NextSeq, Site,
                      Regular);
  ++PT.NextSeq;
  PT.Owned.push_back(Tx);
  Transaction *Prev = PT.CurrTx.load(std::memory_order_relaxed);
  if (Prev != nullptr) {
    OutEdge E;
    E.Dst = Tx;
    E.Id = composeId(Tid, ++PT.NextEdgeSeq);
    E.SrcPos = Prev->LogLen.load(std::memory_order_relaxed);
    E.Intra = true;
    Prev->Out.push_back(E);
  }
  if (Icd) {
    // Both calls are lock-free — the per-transaction hot path never
    // touches the detector lock. The intra edge targets a brand-new
    // maximal vertex, so it is consistent by construction; if Prev's
    // region is poisoned, the first search that reaches it through the
    // chain repairs the contact (IncrementalCycles.h).
    Icd->addNode(Tx);
    Icd->addChainEdge(Prev, Tx);
  }
  PT.CurrTx.store(Tx, std::memory_order_release);
  PT.CurTs.fetch_add(1, std::memory_order_relaxed);
  if (Regular)
    ++PT.RegularTxs;
  else
    ++PT.UnaryTxs;
  Governor.txCreated();
  if (PT.LogShedActive) {
    // Re-arm ladder: after RearmAfterTxs boundaries, resume logging iff
    // every governed gauge has fallen under half budget (hysteresis, so a
    // system hovering at the budget does not thrash shed/re-arm).
    if (PT.RearmCountdown > 0 && --PT.RearmCountdown == 0) {
      if (Governor.underLowWater()) {
        PT.LogShedActive = false;
        recordDegradation(
            {rt::DegradationEvent::Action::Rearm, Tid,
             OrderClock.load(std::memory_order_relaxed)});
      } else {
        PT.RearmCountdown = std::max(1u, Opts.RearmAfterTxs);
      }
    }
    // Still shedding: the new transaction's log is incomplete from birth.
    if (PT.LogShedActive)
      Tx->LogShed.store(true, std::memory_order_relaxed);
  }
  return Tx;
}

void DoubleCheckerRuntime::endCurrentTx(uint32_t Tid) {
  const uint32_t Shard = shardOf(Tid);
  lockShard(Shard, Tid);
  PerThread &PT = Threads[Tid];
  Transaction *Cur = PT.CurrTx.load(std::memory_order_relaxed);
  if (Cur == nullptr) {
    unlockShard(Shard);
    return;
  }
  Cur->EndTime = OrderClock.fetch_add(1, std::memory_order_relaxed) + 1;
  Cur->Finished.store(true, std::memory_order_release);
  // Root filter (see Transaction::HasCrossOut): only a transaction with an
  // outgoing cross edge at its end can be the claiming (maximal-EndTime)
  // member of a cycle, so only those are worth a detection pass. This is
  // what keeps Tarjan off the hot path — most conflicting transactions
  // only *receive* edges (the sources are usually long finished) and end
  // without ever becoming a root.
  const bool NeedScc =
      !PcdOnlyAnalysis && Opts.DetectIcdCycles && Icd == nullptr &&
      (Cur->HasCrossOut || (Opts.EagerSccRoots && Cur->HasCrossIn));
  unlockShard(Shard);
  // The follow-ups run without the own stripe. Cur is finished, so its log
  // and incoming-edge set are frozen: edges always target the *requesting*
  // thread's own current transaction, and this thread — the only one that
  // could name Cur as an edge destination — is here, not requesting.
  if (PcdOnlyAnalysis) {
    SpinLockGuard Guard(PcdOnlyLock);
    PcdOnlyAnalysis->processTransaction(Cur);
  }
  if (Icd) {
    // Incremental mode: observing the end is what can complete a cycle's
    // claim (last member to finish). No stripes are held here, so a claim
    // may block on PCD backpressure safely. Until retire returns, Cur is
    // still this thread's CurrTx — a strong collector root — so an
    // unclaimed component containing it cannot be swept.
    IncrementalCycleDetector::ClaimList Claims;
    Icd->retire(Cur, Claims);
    executeIcdClaims(Claims);
  } else if (NeedScc)
    pendSccRoot(Cur, Tid);
  if (Opts.Trace)
    Opts.Trace->instant("tx", Cur->Regular ? "tx-end" : "unary-end", Tid,
                        TraceRecorder::Args().num("id", Cur->Id));
  const uint64_t Finished =
      FinishedTxs.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Opts.WindowTxs != 0 && Finished % Opts.WindowTxs == 0)
    // Streaming mode: this thread crossed a retirement-window boundary.
    // Exactly one thread observes each multiple of WindowTxs (fetch_add),
    // so the boundary election is deterministic per schedule. The flush
    // subsumes a collection, so the periodic trigger below is skipped.
    windowFlushNow(Tid);
  else if (Finished % Opts.CollectEveryTx == 0)
    requestCollect(Tid);
  else if (Opts.CollectEveryTx != ~0u &&
           (Governor.pressure() & PressureLiveTxs) != 0)
    // Live-transaction budget breached: collect now instead of waiting for
    // the periodic trigger. Collection is the correct relief valve here —
    // shedding would not free a single finished transaction.
    requestCollect(Tid);
}

void DoubleCheckerRuntime::addCrossEdgeLocked(Transaction *Src,
                                              Transaction *Dst,
                                              uint32_t Phys) {
  if (Src == nullptr || Dst == nullptr || Src == Dst)
    return;
  OutEdge E;
  E.Dst = Dst;
  E.Id = composeId(Src->Tid, ++Threads[Src->Tid].NextEdgeSeq);
  E.SrcPos = Src->LogLen.load(std::memory_order_acquire);
  E.Intra = false;
  Src->Out.push_back(E);
  Src->HasCrossOut = true;
  Dst->HasCrossIn = true;
  // Timestamp bumps end log-elision windows on both threads (§4).
  Threads[Src->Tid].CurTs.fetch_add(1, std::memory_order_relaxed);
  Threads[Dst->Tid].CurTs.fetch_add(1, std::memory_order_relaxed);
  // Edges interrupt unary-transaction merging.
  if (!Src->Regular)
    Src->Interrupted.store(true, std::memory_order_relaxed);
  if (!Dst->Regular)
    Dst->Interrupted.store(true, std::memory_order_relaxed);
  if (Opts.LogAccesses) {
    LogEntry Marker;
    Marker.K = LogEntry::Kind::EdgeIn;
    Marker.Obj = Src->Tid;
    Marker.Addr = E.SrcPos;
    Marker.SrcSeq = Src->SeqInThread;
    Marker.Time = OrderClock.fetch_add(1, std::memory_order_relaxed) + 1;
    if (Opts.LegacyLog) {
      Dst->appendLogLegacy(Marker);
      Threads[Phys].BytesLogged += sizeof(LogEntry);
    } else if (Transport == LogTransport::Ring) {
      // The marker rides the ring whole — both slots in one cell — so the
      // drain side materializes it atomically. The position assignment is
      // single-writer for the same reason the arena append is: the edge
      // writer holds Dst's stripe and Dst's owner is provably quiescent
      // (Octet), so nobody else advances Dst->LogLen concurrently.
      PerThread &Pub = Threads[Phys < NumThreads ? Phys : Dst->Tid];
      LogSlot S[2];
      S[0].A = Src->Tid;
      S[0].B = E.SrcPos;
      S[0].Meta = SlotTagEdgeIn | (Marker.SrcSeq << 2);
      S[1].Meta = Marker.Time;
      const uint32_t Pos = Dst->LogLen.load(std::memory_order_relaxed);
      // Markers never shed: a refused refill is ignored, matching arena
      // mode's never-fail LogChunkCache::get(). As there, only a program
      // thread's credit is consulted.
      if (Phys < NumThreads)
        (void)ringAdmitChunk(Pub, Pos, 2);
      if (ringPublish(Pub, Dst, Pos, S, 2)) {
        Dst->LogLen.store(Pos + 2, std::memory_order_release);
        Pub.BytesLogged += 2 * sizeof(LogSlot);
      } else {
        // The arena path's never-fail chunk fallback has no ring analogue
        // (blocking here would hold stripes indefinitely). Shedding Dst is
        // the sound replacement: its SCCs degrade to Potential.
        Dst->LogShed.store(true, std::memory_order_release);
      }
    } else {
      // The physical thread executing this call supplies the chunks; it
      // may differ from Dst's owner (requester-side edges), which is fine
      // because chunks have no owner affinity once linked into a log.
      Dst->appendLog(Marker, Phys < NumThreads
                                 ? &Threads[Phys].ChunkCache
                                 : nullptr);
      Threads[Phys < NumThreads ? Phys : Dst->Tid].BytesLogged +=
          2 * sizeof(LogSlot);
    }
  }
  CrossEdges.fetch_add(1, std::memory_order_relaxed);
  if (Opts.Trace)
    // TraceRecorder's lock is a leaf — safe under the endpoint stripes.
    Opts.Trace->instant("edge", "cross-edge", Src->Tid,
                        TraceRecorder::Args()
                            .num("src", Src->Id)
                            .num("dst", Dst->Id)
                            .num("dst_tid", Dst->Tid));
  if (Icd) {
    // The caller holds exactly the two endpoint stripes — the detector
    // adds only its own internal lock, never another stripe. A precise
    // claim cannot happen here (the edge's target is unfinished, so its
    // component has an unretired member); an oversized absorption can, and
    // its execution touches only innermost locks.
    IncrementalCycleDetector::ClaimList Claims;
    Icd->addEdge(Src, Dst, Claims);
    executeIcdClaims(Claims);
  }
}

//===----------------------------------------------------------------------===//
// SCC detection (Tarjan over finished transactions)
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::pendSccRoot(Transaction *V, uint32_t Holder) {
  bool Flush;
  {
    SpinLockGuard Guard(PendingLock);
    PendingSccRoots.push_back(V);
    Flush = PendingSccRoots.size() >= Opts.SccBatch;
  }
  if (Flush)
    sccPass(Holder);
}

void DoubleCheckerRuntime::sccPass(uint32_t Holder) {
  // All stripes: freezes the whole IDG (every edge writer holds a stripe)
  // and serializes passes against each other and the collector. One freeze
  // serves the whole batch of roots. The pending list is swapped out only
  // *under* the stripes: the entries are what keeps undetected cycles
  // strongly rooted, so removing them while a collection could still run
  // would let it sweep the very transactions this pass is about to walk.
  lockAllShards(Holder);
  std::vector<Transaction *> Roots;
  {
    SpinLockGuard Guard(PendingLock);
    Roots.swap(PendingSccRoots);
  }
  if (Roots.empty()) {
    unlockAllShards();
    return;
  }
  const uint64_t Epoch = ++SccEpochCounter;
  for (Transaction *R : Roots)
    R->RootEpoch = Epoch;
  uint32_t NextIndex = 0;
  std::vector<Transaction *> TarjanStack;
  struct Frame {
    Transaction *Tx;
    size_t EdgeIdx;
  };
  std::vector<Frame> CallStack;
  std::vector<std::vector<Transaction *>> Detected;

  auto Visit = [&](Transaction *Tx) {
    Tx->SccEpoch = Epoch;
    Tx->SccIndex = Tx->SccLow = NextIndex++;
    Tx->OnStack = true;
    TarjanStack.push_back(Tx);
    CallStack.push_back(Frame{Tx, 0});
  };

  for (Transaction *R : Roots) {
    if (R->SccEpoch == Epoch)
      continue; // Already visited from an earlier root of this pass.
    Visit(R);
    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      if (F.EdgeIdx < F.Tx->Out.size()) {
        Transaction *Next = F.Tx->Out[F.EdgeIdx++].Dst;
        // Only expand finished transactions (§3.2.3): an unfinished
        // successor's cycle, if any, is incomplete and will trigger its
        // own detection when it ends.
        if (!Next->Finished.load(std::memory_order_acquire))
          continue;
        if (Next->SccEpoch != Epoch) {
          Visit(Next);
        } else if (Next->OnStack) {
          F.Tx->SccLow = std::min(F.Tx->SccLow, Next->SccIndex);
        }
        continue;
      }
      // Post-order: pop the frame; maybe pop a component.
      Transaction *Tx = F.Tx;
      CallStack.pop_back();
      if (!CallStack.empty())
        CallStack.back().Tx->SccLow =
            std::min(CallStack.back().Tx->SccLow, Tx->SccLow);
      if (Tx->SccLow != Tx->SccIndex)
        continue;
      // Tx is the root of a component; pop its members.
      std::vector<Transaction *> Members;
      for (;;) {
        Transaction *M = TarjanStack.back();
        TarjanStack.pop_back();
        M->OnStack = false;
        Members.push_back(M);
        if (M == Tx)
          break;
      }
      if (Members.size() < 2)
        continue;
      if (Opts.TestOnlyUnsoundFilter && Members.size() == 2)
        continue; // Injected unsoundness; see DoubleCheckerOptions.
      // Exactly-once across passes: a cycle is complete precisely when its
      // maximal-EndTime member finishes (edges only ever target unfinished
      // transactions, so no member edge postdates that end). That member
      // always passes the HasCrossOut root filter (see Transaction.h), and
      // every filtered transaction is a detection root of exactly one pass
      // — so the pass whose root set holds that member claims the
      // component. Earlier passes saw the cycle incomplete; later ones
      // skip it here.
      uint64_t MaxEnd = 0;
      Transaction *Last = nullptr;
      for (Transaction *M : Members)
        if (Last == nullptr || M->EndTime > MaxEnd) {
          MaxEnd = M->EndTime;
          Last = M;
        }
      if (Last->RootEpoch != Epoch)
        continue;
      SccCount.fetch_add(1, std::memory_order_relaxed);
      if (Opts.Trace)
        Opts.Trace->instant("scc", "scc-claim", Last->Tid,
                            TraceRecorder::Args()
                                .num("members", Members.size())
                                .num("stamp", MaxEnd));
      {
        SpinLockGuard Guard(SccStateLock);
        for (Transaction *M : Members) {
          if (M->Regular)
            SccSites.insert(M->Site);
          else
            SccAnyUnary = true;
        }
      }
      if (Pcd) {
        // Degradation ladder: SCCs the replay cannot handle precisely —
        // oversized (the paper's PCD ran out of memory on such
        // transactions) or containing a member whose log was shed — are
        // degraded here, under the stripes, to potential violations.
        // Sound because every true PDG cycle lies within an ICD SCC.
        bool Degrade = Members.size() > Opts.MaxSccTxsForPcd;
        for (size_t I = 0; !Degrade && I < Members.size(); ++I)
          Degrade = Members[I]->LogShed.load(std::memory_order_relaxed);
        if (Degrade) {
          degradeScc(Members, MaxEnd);
        } else {
          // Pin before releasing the stripes so the collector cannot sweep
          // members while the replay (inline or pooled) is in flight.
          for (Transaction *M : Members)
            M->Pins.fetch_add(1, std::memory_order_relaxed);
          Detected.push_back(std::move(Members));
        }
      }
    }
  }
  unlockAllShards();
  SccPasses.fetch_add(1, std::memory_order_relaxed);
  SccVisited.fetch_add(NextIndex, std::memory_order_relaxed);

  if (Detected.empty())
    return;
  // Ring transport: hand PCD only fully materialized logs; a component
  // whose drain stalls past the deadline degrades soundly instead.
  if (Ring) {
    size_t Kept = 0;
    for (size_t I = 0; I < Detected.size(); ++I) {
      std::vector<Transaction *> &Members = Detected[I];
      if (awaitLogComplete(Members)) {
        if (Kept != I)
          Detected[Kept] = std::move(Members);
        ++Kept;
      } else {
        uint64_t Stamp = 0;
        for (const Transaction *M : Members)
          Stamp = std::max(Stamp, M->EndTime);
        degradeScc(Members, Stamp);
        for (Transaction *M : Members)
          M->Pins.fetch_sub(1, std::memory_order_release);
      }
    }
    Detected.resize(Kept);
    if (Detected.empty())
      return;
  }
  if (AsyncPcd) {
    AsyncPcd->enqueueBatch(std::move(Detected));
  } else {
    for (std::vector<Transaction *> &Members : Detected) {
      Pcd->processScc(Members);
      for (Transaction *M : Members)
        M->Pins.fetch_sub(1, std::memory_order_release);
    }
  }
}

//===----------------------------------------------------------------------===//
// Incremental claim execution (IncrementalCycles.h)
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::executeIcdClaims(
    IncrementalCycleDetector::ClaimList &Claims) {
  for (IncrementalCycleDetector::Claim &C : Claims) {
    std::vector<Transaction *> &Members = C.Members;
    const auto Unpin = [&Members] {
      for (Transaction *M : Members)
        M->Pins.fetch_sub(1, std::memory_order_release);
    };
    // Mirror sccPass's order exactly: the injected unsound filter drops a
    // two-member component before it reaches the site set, SccCount, or
    // PCD — in both modes, so the fuzzer's bug-detection differential sees
    // the same (broken) behaviour whichever detector is selected.
    if (!C.Oversized && Opts.TestOnlyUnsoundFilter && Members.size() == 2) {
      Unpin();
      continue;
    }
    // Sites feed multi-run mode's static info for every claim kind, just
    // like the batched pass accumulates them for every detected component.
    {
      SpinLockGuard Guard(SccStateLock);
      for (Transaction *M : Members) {
        if (M->Regular)
          SccSites.insert(M->Site);
        else
          SccAnyUnary = true;
      }
    }
    // Stamps: max member EndTime, like sccPass / degradeScc — but members
    // of an oversized absorption may still be running (EndTime unset).
    uint64_t MaxEnd = 0;
    bool Shed = false;
    for (Transaction *M : Members) {
      if (M->Finished.load(std::memory_order_acquire))
        MaxEnd = std::max(MaxEnd, M->EndTime);
      Shed |= M->LogShed.load(std::memory_order_relaxed);
    }
    if (C.Oversized) {
      // Region-cap degradation (DoubleCheckerOptions::IcdMaxRegion):
      // everything absorbed into a poisoned region is reported Potential.
      if (Pcd)
        degradeScc(Members, MaxEnd);
      Unpin();
      continue;
    }
    SccCount.fetch_add(1, std::memory_order_relaxed);
    if (Opts.Trace)
      Opts.Trace->instant("scc", "scc-claim", 0,
                          TraceRecorder::Args()
                              .num("members", Members.size())
                              .num("stamp", MaxEnd));
    if (!Pcd) {
      Unpin(); // First run of multi-run mode: sites were all it wanted.
      continue;
    }
    if (Members.size() > Opts.MaxSccTxsForPcd || Shed) {
      degradeScc(Members, MaxEnd);
      Unpin();
      continue;
    }
    if (!awaitLogComplete(Members)) {
      // Ring transport: a member's records never finished materializing
      // (drain stall). Degrading is sound; replaying an incomplete log
      // would not be.
      degradeScc(Members, MaxEnd);
      Unpin();
      continue;
    }
    if (AsyncPcd) {
      // Ownership of the pins moves to the pool (a worker or the
      // degrade-on-timeout path unpins after the replay).
      std::vector<std::vector<Transaction *>> Batch;
      Batch.push_back(std::move(Members));
      AsyncPcd->enqueueBatch(std::move(Batch));
    } else {
      Pcd->processScc(Members);
      Unpin();
    }
  }
  Claims.clear();
}

uint32_t DoubleCheckerRuntime::stripesHeldByCurrentThread() const {
  return IdgShards ? IdgShards->heldCount(TlsPhysTid) : 0;
}

//===----------------------------------------------------------------------===//
// Ring log transport (DESIGN.md §13)
//===----------------------------------------------------------------------===//

bool DoubleCheckerRuntime::ringAdmitChunk(PerThread &PT, uint32_t Pos,
                                          uint32_t N) {
  // Records are at most two slots, so [Pos, Pos + N) starts at most one
  // chunk: at Pos itself, or at its last slot when the record straddles.
  const uint32_t Last = Pos + N - 1;
  if (Pos % LogChunk::SlotsPerChunk != 0 &&
      Last / LogChunk::SlotsPerChunk == Pos / LogChunk::SlotsPerChunk)
    return true;
  if (PT.ChunkCredit == 0) {
    if (!ChunkPool.admitRefill())
      return false;
    PT.ChunkCredit = LogChunkCache::RefillBatch;
  }
  --PT.ChunkCredit;
  return true;
}

bool DoubleCheckerRuntime::ringPublish(PerThread &PT, Transaction *Tx,
                                       uint32_t Pos, const LogSlot *S,
                                       uint32_t N) {
  if (PT.CpuHintCountdown == 0) {
    // Refresh the CPU hint. sched_getcpu is cheap but not free; every 64
    // commits tracks migrations closely enough — a stale hint only shares
    // a ring (every ring is MPMC), it cannot block or be blocked.
    const uint32_t Idx = Ring->ringFor(RingLog::currentCpu());
    if (PT.RingHintValid && Idx != PT.RingIdx)
      ++PT.RingMigrations;
    PT.RingIdx = Idx;
    PT.RingHintValid = true;
    PT.CpuHintCountdown = 64;
  }
  --PT.CpuHintCountdown;
  RingCommit RC = Ring->commit(PT.RingIdx, Tx, Pos, S, N);
  if (RC == RingCommit::Contended) {
    // Bounded CAS losses on the hinted ring — usually a stale hint racing
    // the ring's real producers. Hop to the neighbour once and re-probe
    // the hint at the next commit.
    PT.CpuHintCountdown = 0;
    RC = Ring->commit(Ring->ringFor(PT.RingIdx + 1), Tx, Pos, S, N);
  }
  if (RC == RingCommit::Ok) {
    ++PT.RingCommits;
    return true;
  }
  // Full (the consumer is a lap behind) or persistently contended: make
  // space ourselves, bounded — two drain-or-yield rounds, then let the
  // caller shed. Never an unbounded wait, never a silent drop.
  ++PT.RingFullEvents;
  for (int Round = 0; Round < 2; ++Round) {
    uint32_t Drained = 0;
    if (Ring->tryDrainAll(Drained))
      ++PT.RingSelfDrains;
    else
      std::this_thread::yield(); // Another consumer is already at it.
    RC = Ring->commit(PT.RingIdx, Tx, Pos, S, N);
    if (RC == RingCommit::Ok) {
      ++PT.RingCommits;
      return true;
    }
  }
  return false;
}

bool DoubleCheckerRuntime::awaitLogComplete(
    const std::vector<Transaction *> &Members) {
  if (!Ring)
    return true;
  // Members are finished and their claim synchronized with the owners'
  // final LogLen stores, so LogLen is exact here; DrainedSlots counts
  // materialized slots and meets it exactly when every record has been
  // consumed. Shed members were degraded by the caller: a finished
  // transaction's LogShed never changes, since only the mutator sheds.
  auto Incomplete = [&Members]() -> bool {
    for (const Transaction *M : Members)
      if (M->DrainedSlots.load(std::memory_order_acquire) <
          M->LogLen.load(std::memory_order_acquire))
        return true;
    return false;
  };
  if (!Incomplete())
    return true;
  // Help the drain rather than just waiting. The deadline turns a starved
  // drain (e.g. a producer descheduled mid-commit gapping a ring) into a
  // sound degradation instead of a hang.
  const auto Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max(1u, Opts.PcdStallTimeoutMs));
  YieldBackoff Backoff;
  while (Incomplete()) {
    Ring->drainAll();
    if (!Incomplete())
      break;
    if (std::chrono::steady_clock::now() >= Deadline) {
      RingDrainStalls.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // The caller is a gate-admitted program thread: while it waits here no
    // instruction retires, so beat the gate slot to keep the watchdog
    // pointed at the real culprit (the drain), not the gate.
    if (Dog)
      Dog->heartbeat(DogGateSlot);
    Backoff.pause();
  }
  return true;
}

void DoubleCheckerRuntime::ringDrainLoop() {
  // Adaptive cadence: drain back-to-back while records flow, back off
  // exponentially (capped) while idle. Mutator self-drains cover the
  // window where this thread sleeps and rings fill faster than expected.
  uint32_t SleepUs = 50;
  while (!DrainerStop.load(std::memory_order_acquire)) {
    if (Dog)
      Dog->beginWork(DogDrainerSlot);
    const uint32_t Drained = Ring->drainAll();
    if (Dog)
      Dog->endWork(DogDrainerSlot);
    if (Drained != 0) {
      SleepUs = 50;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(SleepUs));
    SleepUs = std::min(SleepUs * 2, 2000u);
  }
  // Final sweep: records committed after the last pass but before the
  // stop flag landed.
  Ring->drainAll();
}

//===----------------------------------------------------------------------===//
// Transaction collection (stands in for the JVM's GC)
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::requestCollect(uint32_t Holder) {
  if (Collector)
    Collector->request();
  else
    collectNow(Holder);
}

void DoubleCheckerRuntime::collectBackpressure(uint32_t Tid) {
  if ((Governor.pressure() & PressureLiveTxs) == 0)
    return;
  // Live-transaction budget breached at a transaction boundary: request
  // collection and lend the collector this thread's cycles until the live
  // graph is back under budget. Without this, a mutator that never blocks
  // can starve the background collector outright (most visibly on few-core
  // hosts), and the lag feeds on itself: the live graph grows, so every
  // mark-sweep cycle walks more and falls further behind. The wait is
  // bounded and holds no stripes, so a wedged collector degrades
  // throughput, never liveness — the watchdog is what reports a genuinely
  // stuck collector.
  BackpressureWaits.fetch_add(1, std::memory_order_relaxed);
  requestCollect(Tid);
  // Wall-clock bound, not an iteration count: a yield's cost varies by
  // orders of magnitude with run-queue contention, and a wait long enough
  // to look like gate silence would trip the watchdog's stalled-gate abort.
  // 5 ms per boundary is far under any watchdog timeout and enough for a
  // lagging mark-sweep cycle to complete.
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  YieldBackoff Backoff;
  for (;;) {
    for (unsigned I = 0; I < 32; ++I) {
      if ((Governor.pressure() & PressureLiveTxs) == 0)
        return;
      Backoff.pause();
    }
    // The caller is a gate-admitted program thread: while it lends cycles
    // here no instruction retires, so beat the gate slot to keep the
    // watchdog pointed at the real culprit (the collector), not the gate.
    if (Dog)
      Dog->heartbeat(DogGateSlot);
    if (std::chrono::steady_clock::now() >= Deadline)
      return;
  }
}

void DoubleCheckerRuntime::collectNow(uint32_t Holder) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<Transaction *> Doomed;
  lockAllShards(Holder);
  const uint64_t Epoch = ++MarkEpochCounter;
  std::vector<Transaction *> Work;
  auto AddRoot = [&](Transaction *Tx) {
    if (Tx != nullptr && Tx->MarkEpoch != Epoch) {
      Tx->MarkEpoch = Epoch;
      Work.push_back(Tx);
    }
  };
  // Strong roots: the unfinished transactions. Everything a future Tarjan
  // walk can visit is forward-reachable from one of them — every edge ever
  // added terminates at a transaction that was current (unfinished) when
  // the edge was created, so no path from the live region leads backward
  // into transactions that finished unreachable.
  for (uint32_t T = 0; T < NumThreads; ++T)
    AddRoot(Threads[T].CurrTx.load(std::memory_order_relaxed));
  // Pending detection roots are strong too: a cycle whose members all
  // finished is no longer reachable from any current transaction, but its
  // batched Tarjan pass has not run yet — members are mutually reachable,
  // so rooting the pending member keeps the whole component alive until
  // the pass claims and pins it.
  {
    SpinLockGuard Guard(PendingLock);
    for (Transaction *R : PendingSccRoots)
      AddRoot(R);
  }
  while (!Work.empty()) {
    Transaction *Tx = Work.back();
    Work.pop_back();
    for (const OutEdge &E : Tx->Out)
      AddRoot(E.Dst);
  }
  // Weak roots: lastRdEx / gLastRdSh may still become *sources* of future
  // edges, so the nodes themselves must survive — but their stale forward
  // closures need not: a cycle through such a node would need an edge from
  // the live region into it, which can never be created. Marking them
  // after the traversal (without enqueueing) keeps the node and lets its
  // unreachable successors be swept; their Out lists then hold dangling
  // pointers, which is fine because only this mark phase ever walks the
  // Out edges of a transaction that is not strongly reachable.
  auto WeakRoot = [&](Transaction *Tx) {
    if (Tx != nullptr)
      Tx->MarkEpoch = Epoch;
  };
  for (uint32_t T = 0; T < NumThreads; ++T)
    WeakRoot(Threads[T].LastRdEx);
  WeakRoot(GLastRdSh);
  // Ring transport: records still in flight reference their transactions;
  // mark them so the sweep cannot free a transaction whose record the
  // drain side has yet to materialize. The peek sees every such record for
  // a *finished* transaction — access publishes precede the owner's
  // endCurrentTx (which takes its stripe, ordered before this pass's
  // all-stripe freeze) and EdgeIn publishes happen under stripes — while
  // records it can miss (published concurrently, no stripe held) can only
  // belong to current transactions, which are strong roots above.
  if (Ring)
    Ring->peekPublished([&](Transaction *Tx) { Tx->MarkEpoch = Epoch; });
  // Sweep: a finished transaction not forward-reachable from any root can
  // never gain another edge (edge sinks are current transactions; edge
  // sources are roots), so it cannot join a future cycle. Unreachable also
  // stays unreachable once the stripes drop, and un-pinned stays un-pinned
  // (detections only pin root-reachable members), so the frees can happen
  // outside the stripes.
  uint64_t Live = 0;
  for (uint32_t T = 0; T < NumThreads; ++T) {
    PerThread &PT = Threads[T];
    size_t Kept = 0;
    for (size_t I = 0; I < PT.Owned.size(); ++I) {
      Transaction *Tx = PT.Owned[I];
      if (Tx->MarkEpoch == Epoch ||
          Tx->Pins.load(std::memory_order_acquire) != 0) {
        PT.Owned[Kept++] = Tx;
      } else {
        assert(Tx->Finished.load(std::memory_order_relaxed) &&
               "sweeping a live transaction");
        Doomed.push_back(Tx);
      }
    }
    PT.Owned.resize(Kept);
    Live += Kept;
  }
  // Doomed transactions must vacate the incremental detector's order while
  // the graph is still frozen and before anything is freed: unlink their
  // detector adjacency and group membership so no later search touches a
  // dangling node. Dropping vertices cannot invalidate the remaining
  // topological order, and a swept (unreachable, finished) transaction can
  // never rejoin a cycle.
  if (Icd)
    Icd->removeNodes(Doomed);
  unlockAllShards();
  uint64_t PrevMax = CollectorLiveMax.load(std::memory_order_relaxed);
  while (Live > PrevMax && !CollectorLiveMax.compare_exchange_weak(
                               PrevMax, Live, std::memory_order_relaxed))
    ;
  for (Transaction *Tx : Doomed) {
    // Recycle the dead log's chunks before freeing the node; future logs
    // then append into recycled storage instead of allocating.
    Tx->Log.releaseTo(ChunkPool);
    delete Tx;
  }
  TxsSwept.fetch_add(Doomed.size(), std::memory_order_relaxed);
  Governor.txsFreed(Doomed.size());
  CollectorRuns.fetch_add(1, std::memory_order_relaxed);
  CollectorNs.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - Start)
              .count()),
      std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Overload and fault health (DESIGN.md §10)
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::recordFault(rt::CheckerFault F,
                                       std::string Diagnosis) {
  Stats.get("faults.detected").add(1);
  bool First = false;
  {
    SpinLockGuard Guard(HealthLock);
    // First fault wins: the earliest diagnosis names the root cause; later
    // faults are usually its downstream symptoms.
    if (Fault == rt::CheckerFault::None) {
      Fault = F;
      FaultDiagnosis = Diagnosis;
      First = true;
    }
  }
  if (First) {
    if (Opts.Trace)
      Opts.Trace->instant("fault", toString(F), 0,
                          TraceRecorder::Args().str("diagnosis", Diagnosis));
    // Streaming observer (no checker lock held: the hook may take its
    // own stream lock and do I/O).
    if (Opts.FaultHook)
      Opts.FaultHook(F, Diagnosis);
  }
}

void DoubleCheckerRuntime::recordDegradation(rt::DegradationEvent E) {
  SpinLockGuard Guard(HealthLock);
  DegEvents.push_back(E);
}

void DoubleCheckerRuntime::beginShed(PerThread &PT, uint32_t Tid,
                                     Transaction *Cur) {
  PT.LogShedActive = true;
  PT.RearmCountdown = std::max(1u, Opts.RearmAfterTxs);
  ++PT.ShedCount;
  ++PT.LogDropped; // The access that hit the refused refill is dropped too.
  Cur->LogShed.store(true, std::memory_order_relaxed);
  recordDegradation({rt::DegradationEvent::Action::ShedLogging, Tid,
                     OrderClock.load(std::memory_order_relaxed)});
  if (Opts.Trace)
    Opts.Trace->instant("degrade", "shed-logging", Tid);
}

void DoubleCheckerRuntime::degradeScc(
    const std::vector<Transaction *> &Members, uint64_t Stamp) {
  // Pcd always exists on these paths: degradation is only reachable from
  // sccPass (guarded by Pcd) and the pool (which holds a Pcd reference).
  Pcd->reportPotential(Members);
  recordDegradation(
      {rt::DegradationEvent::Action::PotentialOnly, 0, Stamp});
  if (Opts.Trace)
    Opts.Trace->instant("degrade", "potential-only", 0,
                        TraceRecorder::Args()
                            .num("members", Members.size())
                            .num("stamp", Stamp));
}

void DoubleCheckerRuntime::onComponentStall(const std::string &Component,
                                            uint64_t SilentMs) {
  rt::CheckerFault F = rt::CheckerFault::GateStall;
  if (Component.rfind("pcd-worker", 0) == 0)
    F = rt::CheckerFault::PcdWorkerStall;
  else if (Component == "collector")
    F = rt::CheckerFault::CollectorStall;
  else if (Component == "ring-drainer")
    F = rt::CheckerFault::RingDrainStall;
  else if (Component == "window-flush")
    F = rt::CheckerFault::WindowFlushStall;
  recordFault(F, Component + " made no progress for " +
                     std::to_string(SilentMs) + " ms");
  // A stalled PCD worker, collector, or window flush only delays analysis
  // — the run can finish and the drains are timed. A stalled gate means no
  // program thread is retiring instructions: the run itself is wedged, so
  // convert the hang into a structured abort.
  if (F == rt::CheckerFault::GateStall && TheRT != nullptr)
    TheRT->requestAbort();
}

void DoubleCheckerRuntime::reportHealth(rt::RunResult &R) {
  SpinLockGuard Guard(HealthLock);
  R.Fault = Fault;
  R.FaultDiagnosis = FaultDiagnosis;
  R.Degradation = DegEvents;
  // Deterministic order for cross-config comparison: events are stamped
  // with OrderClock values (shed/re-arm) or max member EndTime (degrade),
  // both schedule-determined, but the recording order is not.
  std::sort(R.Degradation.begin(), R.Degradation.end(),
            [](const rt::DegradationEvent &A, const rt::DegradationEvent &B) {
              if (A.Stamp != B.Stamp)
                return A.Stamp < B.Stamp;
              if (A.A != B.A)
                return static_cast<uint8_t>(A.A) < static_cast<uint8_t>(B.A);
              return A.Tid < B.Tid;
            });
}

//===----------------------------------------------------------------------===//
// Streaming service mode: windowed retirement (DESIGN.md §15)
//===----------------------------------------------------------------------===//

void DoubleCheckerRuntime::fillHealth(rt::HealthSnapshot &H) {
  H.WindowIndex = Governor.windowsFlushed();
  H.FinishedTxs = FinishedTxs.load(std::memory_order_relaxed);
  H.LiveTxs = Governor.liveTxs();
  H.RetiredTxs = TxsSwept.load(std::memory_order_relaxed);
  H.PinnedTxs = Governor.windowPinnedLast();
  H.CrossEdges = CrossEdges.load(std::memory_order_relaxed);
  H.Violations = Violations.count();
  {
    SpinLockGuard Guard(HealthLock);
    H.Degradations = DegEvents.size();
    H.Fault = Fault;
    H.FaultDiagnosis = FaultDiagnosis;
  }
  StatisticRegistry::Snapshot Snap = Stats.snapshot();
  H.StatsStable = Snap.Stable;
  H.Stats = std::move(Snap.Values);
}

void DoubleCheckerRuntime::healthSnapshot(rt::HealthSnapshot &H) {
  fillHealth(H);
}

bool DoubleCheckerRuntime::windowFlush() {
  return windowFlushNow(HolderCollector);
}

bool DoubleCheckerRuntime::windowFlushNow(uint32_t Holder) {
  // Two threads can cross consecutive boundaries while the first flush is
  // still draining; serialize whole flushes so the second sees (and
  // retires) the first's results instead of interleaving with them.
  std::lock_guard<std::mutex> WindowGuard(WindowMu);
  const uint64_t Nth =
      WindowFlushCounter.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t T0 = Opts.Trace ? Opts.Trace->nowUs() : 0;
  if (Dog)
    Dog->beginWork(DogWindowSlot);
  if (Nth == Opts.Faults.WindowStallAt && Dog) {
    // Injected wedged flush: park busy-and-silent on the window slot until
    // the watchdog converts the stall into a structured WindowFlushStall,
    // then complete the flush normally (faults degrade observability,
    // never the run). The gate stays beaten — the program is healthy, only
    // this boundary is stuck — so the fault classification is
    // deterministic, not a race against GateStall.
    const auto Deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(2 * std::max(1u, Opts.PcdStallTimeoutMs) +
                                  50u * std::max(1u, Opts.WatchdogPollMs) +
                                  200u);
    for (;;) {
      {
        SpinLockGuard Guard(HealthLock);
        if (Fault != rt::CheckerFault::None)
          break;
      }
      if (std::chrono::steady_clock::now() >= Deadline)
        break;
      Dog->heartbeat(DogGateSlot);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  size_t DegBefore;
  {
    SpinLockGuard Guard(HealthLock);
    DegBefore = DegEvents.size();
  }
  // Stage 1 — decide everything decidable as of the boundary. Batched mode
  // claims pending roots now instead of waiting for a full SccBatch;
  // incremental mode has nothing pending (cycles are claimed at their last
  // member's retire, so mid-run there is no deferred detection state — and
  // Icd->finalize must NOT run here, it assumes end-of-run quiescence).
  if (Icd == nullptr && !PcdOnlyAnalysis && Opts.DetectIcdCycles &&
      IdgShards != nullptr)
    sccPass(Holder);
  if (Dog) {
    Dog->heartbeat(DogWindowSlot);
    Dog->heartbeat(DogGateSlot);
  }
  // Stage 2 — materialize every published log record, so stage 3's replays
  // never wait on the drain and the collector's in-flight marks are empty.
  if (Ring)
    Ring->drainAll();
  if (Dog) {
    Dog->heartbeat(DogWindowSlot);
    Dog->heartbeat(DogGateSlot);
  }
  // Stage 3 — complete in-flight precise replays for cycles wholly inside
  // the retiring window. A healthy pool drains without degrading anything
  // (the replays happen either way — only their completion moves inside
  // the boundary), which is what keeps the streamed verdict set equal to
  // batch mode's. Only a wedged pool times out, and then the steal-and-
  // degrade path turns the hang into Potential records + a fault.
  if (AsyncPcd)
    AsyncPcd->drain();
  if (Dog) {
    Dog->heartbeat(DogWindowSlot);
    Dog->heartbeat(DogGateSlot);
  }
  // Stage 4 — sound retirement: mark-sweep over {current txs, pending
  // detection roots, pins, in-flight ring records}. Everything the sweep
  // keeps is exactly the cross-window state that cannot yet be proven
  // cycle-free (still running, strongly reachable from a runner, or pinned
  // by a replay) — those transactions are carried into the next window;
  // nothing is silently dropped (DESIGN.md §15's soundness argument).
  collectNow(Holder);
  const uint64_t Pinned = Governor.liveTxs();
  Governor.windowFlushed(Pinned);
  if (Dog)
    Dog->endWork(DogWindowSlot);
  // A flush is "clean" when no stage moved work down the degradation
  // ladder. Concurrent sheds on other threads can land in the scan window
  // and mis-flag a clean flush — acceptable: the flag is a health signal,
  // and both outcomes are sound. Re-arms are recoveries, not degradations.
  bool Clean = true;
  {
    SpinLockGuard Guard(HealthLock);
    for (size_t I = DegBefore; I < DegEvents.size(); ++I)
      if (DegEvents[I].A != rt::DegradationEvent::Action::Rearm)
        Clean = false;
  }
  if (!Clean)
    WindowDegraded.fetch_add(1, std::memory_order_relaxed);
  if (Opts.Trace)
    Opts.Trace->complete("window", "window-flush", 0, T0,
                         Opts.Trace->nowUs() - T0,
                         TraceRecorder::Args()
                             .num("window", Governor.windowsFlushed())
                             .num("pinned", Pinned)
                             .num("clean", Clean ? 1 : 0));
  if (Opts.WindowHook) {
    rt::HealthSnapshot H;
    fillHealth(H);
    Opts.WindowHook(H);
  }
  return Clean;
}

StaticTransactionInfo DoubleCheckerRuntime::staticInfo() {
  // Make the accumulated site set complete as of the snapshot: batched
  // mode claims any cycles whose roots are still pending; incremental mode
  // has already claimed everything at retire time, so finalize is a
  // defensive no-op sweep.
  if (Icd) {
    IncrementalCycleDetector::ClaimList Claims;
    Icd->finalize(Claims);
    executeIcdClaims(Claims);
  } else if (IdgShards) {
    sccPass(HolderCollector);
  }
  SpinLockGuard Guard(SccStateLock);
  StaticTransactionInfo Info;
  Info.AnyUnary = SccAnyUnary;
  for (ir::MethodId Site : SccSites)
    if (Site != ir::InvalidMethodId)
      Info.MethodNames.insert(P.Methods[Site].Name);
  return Info;
}
