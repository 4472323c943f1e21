//===- analysis/Transaction.h - IDG nodes and read/write logs ---*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transactions are the nodes of ICD's imprecise dependence graph (IDG):
/// regular transactions correspond to atomic regions; unary transactions
/// absorb non-transactional accesses (consecutive unary transactions merge
/// until a cross-thread edge interrupts them, per §4 of the paper).
///
/// Each transaction carries its outgoing IDG edges and, in logging modes,
/// a read/write log. Cross-thread ordering for PCD's replay is encoded as:
///  * an EdgeIn marker in the *sink's* log (always appended by a thread
///    that owns or holds the sink quiescent), and
///  * a sampled source-log position (SrcPos) in the edge record itself.
/// Sampling instead of appending a source marker avoids writing to a live
/// transaction's log from another thread. The sampled position is exact for
/// conflicting transitions (the source is at a safe point or blocked) and
/// conservative for upgrading/fence edges — where any concurrently-logged
/// source entries are reads that commute with the sink's accesses, so the
/// replay order PCD reconstructs is still a valid linearization.
///
/// Log storage (DESIGN.md §8): the default path packs records into 16-byte
/// slots chained through fixed-size arena chunks (LogArena.h) — appends
/// never reallocate, move, or copy. The seed's std::vector<LogEntry> path
/// is kept behind DoubleCheckerOptions::LegacyLog for differential testing;
/// LogCursor reads either representation. Positions (SrcPos, LogLen) count
/// *slots* on the packed path and *entries* on the legacy path — a run
/// uses one path throughout, so comparisons are always same-unit.
///
/// LogLen publication contract: appendLog publishes the log's length with
/// release order once per *record* (after both slots of an EdgeIn), so a
/// lock-free SrcPos sample is always ≤ the owner's published length and
/// always lands on a record boundary.
///
/// Field guards under the sharded IDG (DESIGN.md §7): mutable per-node
/// state (Out, HasCrossOut, EndTime, the Log) is guarded by the owning
/// thread's IDG stripe; a cross-edge writer holds both endpoints' stripes.
/// Tarjan and the collector hold every stripe, which freezes the graph and
/// licenses their use of the unsynchronized scratch fields. Once Finished
/// is set (release, under the owner's stripe) the log and incoming-edge
/// set are immutable, which is what lets PCD replay members without locks.
///
//===----------------------------------------------------------------------===//

#ifndef DC_ANALYSIS_TRANSACTION_H
#define DC_ANALYSIS_TRANSACTION_H

#include <atomic>
#include <cstdint>
#include <vector>

#include "analysis/LogArena.h"
#include "ir/Ir.h"
#include "rt/Heap.h"
#include "support/InlineVec.h"

namespace dc {
namespace analysis {

class Transaction;
struct IcdGroup;    // IncrementalCycles.h
struct IcdEdgeNode; // IncrementalCycles.h

/// One decoded entry of a transaction's read/write log (also the legacy
/// path's stored representation). EdgeIn markers record the edge's *source
/// coordinates* — (source thread, source SeqInThread, sampled source log
/// position) — so PCD can enforce the ordering even when the source
/// transaction itself is outside the SCC being replayed: the constraint
/// then falls back to "all same-thread transactions before the source must
/// have replayed", which the source's thread order implies.
struct LogEntry {
  enum class Kind : uint8_t {
    Read,
    Write,
    EdgeIn, ///< A cross-thread edge whose sink is at this position.
  };
  Kind K = Kind::Read;
  rt::ObjectId Obj = 0;   ///< Access: object. EdgeIn: source thread id.
  rt::FieldAddr Addr = 0; ///< Access: field. EdgeIn: source log position.
  uint64_t SrcSeq = 0;    ///< EdgeIn: source transaction's SeqInThread.
  /// EdgeIn: the edge's stamp on ICD's global order clock. Replay requires
  /// every SCC member that *ended* before this stamp to have fully
  /// replayed before the sink proceeds past the marker — recovering
  /// orderings whose happens-before chain runs through transactions
  /// outside the SCC (e.g. a lock handed off via a non-member).
  uint64_t Time = 0;
};

/// An outgoing IDG edge. Intra-thread edges link consecutive transactions
/// of one thread; cross-thread edges come from Octet transitions (Fig. 4).
struct OutEdge {
  Transaction *Dst = nullptr;
  uint64_t Id = 0;
  /// Sink log entries after the EdgeIn marker happen after source log
  /// entries before SrcPos.
  uint32_t SrcPos = 0;
  bool Intra = false;
};

/// An IDG node. Allocated by DoubleCheckerRuntime's arena; reclaimed by its
/// mark-sweep collector once unreachable from any root (see DESIGN.md §2).
class Transaction {
public:
  Transaction(uint64_t Id, uint32_t Tid, uint64_t SeqInThread,
              ir::MethodId Site, bool Regular)
      : Id(Id), Tid(Tid), SeqInThread(SeqInThread), Site(Site),
        Regular(Regular) {}

  const uint64_t Id;
  const uint32_t Tid;
  /// Position in the owning thread's transaction sequence; same-thread IDG
  /// order (and PCD replay order) follows this.
  const uint64_t SeqInThread;
  /// Original (pre-instrumentation) method id for regular transactions;
  /// ir::InvalidMethodId for unary transactions.
  const ir::MethodId Site;
  const bool Regular;

  /// Set once when the transaction ends; SCC detection only expands
  /// finished transactions (§3.2.3).
  std::atomic<bool> Finished{false};

  /// Stamp on ICD's global order clock when the transaction ended
  /// (~0 while running / for hand-built transactions with no stamp).
  /// Written under the owner's stripe just before Finished; unique per
  /// transaction, so concurrent SCC detections that find the same
  /// component agree on which member (the maximal EndTime) processes it.
  uint64_t EndTime = ~0ULL;

  /// True once a cross-thread edge leaves this transaction. Only such
  /// transactions are pended as SCC detection roots: a cycle is claimed by
  /// its maximal-EndTime member, and that member always has an *outgoing*
  /// cross edge by the time it ends — every cycle edge was created while
  /// its target was unfinished, all other members end earlier, so the edge
  /// leaving the claiming member predates its end (and it cannot be the
  /// intra edge, whose target ends later). Incoming edges don't qualify:
  /// the intra edge from the predecessor always provides a way in.
  bool HasCrossOut = false; // Guarded by the owner's IDG stripe.

  /// True once a cross-thread edge enters this transaction (frozen when it
  /// finishes — edges only ever target unfinished transactions). A node
  /// with neither flag has exactly one relevant edge in each direction
  /// (the intra chain), so SCC walks skip straight across it; see
  /// DoubleCheckerRuntime::sccPass.
  bool HasCrossIn = false; // Guarded by the owner's IDG stripe.

  /// For unary transactions: a cross-thread edge interrupted the merge;
  /// the next non-transactional access starts a fresh unary transaction.
  std::atomic<bool> Interrupted{false};

  /// The owning thread shed logging while this transaction was live, so its
  /// log is incomplete and precise replay of any SCC containing it would be
  /// unsound — such SCCs are degraded to potential violations instead.
  /// Written by the owner (relaxed, outside stripes); read during SCC
  /// passes under all stripes.
  std::atomic<bool> LogShed{false};

  /// Outgoing edges (guarded by the owner's IDG stripe).
  std::vector<OutEdge> Out;

  /// Read/write log, appended by the owning thread (accesses) or by the
  /// edge-adding thread while the owner is provably quiescent (EdgeIn).
  /// Packed chunked storage; see LogArena.h.
  ChunkedLog Log;
  /// Legacy storage (DoubleCheckerOptions::LegacyLog): the seed's
  /// reallocating vector of 32-byte entries. A transaction uses exactly
  /// one representation, decided by which append method feeds it.
  std::vector<LogEntry> VecLog;
  /// Published length of the log (slots for Log, entries for VecLog),
  /// sampled lock-free for edge SrcPos. Published once per record with
  /// release order — this is the only shared-visible write an append
  /// performs on the packed path.
  std::atomic<uint32_t> LogLen{0};

  /// Ring transport only: slots the drain side has materialized into Log.
  /// The log is replay-complete when this reaches
  /// LogLen on a Finished transaction. Written under the ring drain lock
  /// with release order; completeness waiters read with acquire, which
  /// makes the materialized chain visible to the replayer.
  std::atomic<uint32_t> DrainedSlots{0};

  /// Appends to the packed log. \p Cache supplies recycled chunks on the
  /// runtime hot path; null (tests, hand-built SCCs) falls back to plain
  /// allocation.
  void appendLog(const LogEntry &E, LogChunkCache *Cache = nullptr) {
    if (E.K == LogEntry::Kind::EdgeIn)
      Log.appendEdgeIn(E.Obj, E.Addr, E.SrcSeq, E.Time, Cache);
    else
      Log.appendAccess(E.Obj, E.Addr, E.K == LogEntry::Kind::Write, Cache);
    LogLen.store(Log.size(), std::memory_order_release);
  }

  /// Appends to the legacy vector log (DoubleCheckerOptions::LegacyLog).
  void appendLogLegacy(const LogEntry &E) {
    VecLog.push_back(E);
    LogLen.store(static_cast<uint32_t>(VecLog.size()),
                 std::memory_order_release);
  }

  // --- Scratch state for Tarjan SCC, epoch-stamped to avoid clearing ---
  uint64_t SccEpoch = 0;
  uint32_t SccIndex = 0;
  uint32_t SccLow = 0;
  bool OnStack = false;
  /// Pass stamp set (under all stripes) on the roots of the batched
  /// detection pass currently running; a component is claimed exactly by
  /// the pass whose root set contains its maximal-EndTime member.
  uint64_t RootEpoch = 0;

  // --- Scratch state for the mark-sweep collector ---
  uint64_t MarkEpoch = 0;

  // --- Scratch state for incremental cycle detection (IncrementalCycles.h)
  //
  // Reorder-sensitive fields (order key, group pointer) are mutated only
  // under the detector's internal lock in seqlock writer mode, but they are
  // *read* lock-free by addEdge's consistent-edge fast path, so they are
  // atomics validated against the detector's reorder seqlock. The adjacency
  // heads are lock-free MPSC push chains. The stripe discipline cannot
  // cover any of this: edge inserts reorder transactions owned by threads
  // whose stripes the inserting thread does not hold. The detector never
  // dereferences a transaction the collector has freed — collectNow unlinks
  // doomed nodes (IncrementalCycleDetector::removeNodes) while it still
  // holds every stripe, before any free.
  /// Position in the maintained topological order (vertices that were
  /// merged into a confirmed cycle share their group's order key instead).
  /// Written in seqlock writer mode; fast-path reads validate via readRetry.
  std::atomic<uint64_t> IcdOrd{0};
  /// Condensation vertex this node was merged into, once it is known to be
  /// on a cycle; null while the node is a singleton vertex. Installed with
  /// release order so a fast-path acquire load sees the group initialized.
  std::atomic<IcdGroup *> IcdG{nullptr};
  /// Detector-private adjacency (the IDG's Out is stripe-guarded and
  /// append-only, so the detector keeps its own symmetric lists it can
  /// traverse backwards and unlink from). Singly-linked push chains of
  /// detector-owned IcdEdgeNode cells: the lock-free fast path publishes a
  /// node with a release CAS on the head, searches under the detector lock
  /// load the head with acquire order and walk plain Next pointers. Each
  /// logical edge Src→Dst is two nodes: one on Src's out-chain
  /// (Peer = Dst) and one on Dst's in-chain (Peer = Src).
  std::atomic<IcdEdgeNode *> IcdOutHead{nullptr};
  std::atomic<IcdEdgeNode *> IcdInHead{nullptr};
  /// Program-order chain: consecutive transactions of one thread. Kept
  /// outside IcdIn/IcdOut so linking a new transaction is lock-free — the
  /// owner writes the pointer once (release) while it still holds its own
  /// stripe, and detector searches (acquire) see it happens-before any
  /// cross edge that could put the new transaction on a cycle.
  std::atomic<Transaction *> IcdChainNext{nullptr};
  std::atomic<Transaction *> IcdChainPrev{nullptr};
  /// Visit stamp for the detector's bounded searches.
  uint64_t IcdEpoch = 0;
  /// Set by IncrementalCycleDetector::retire when the transaction's end has
  /// been observed; the last member of a confirmed cycle to retire claims
  /// the component.
  bool IcdRetired = false;

  /// Pin count held across PCD replays: the detecting thread pins every
  /// member (under all stripes) before releasing them, and the replaying
  /// side — an inline call or a pool worker — unpins with release order
  /// after the replay; the collector's acquire read of a zero pin count
  /// therefore happens-after the last access to the member's log.
  std::atomic<uint32_t> Pins{0};
};

/// Sequential reader over a transaction's log, transparent to the storage
/// representation. pos() is in the same units as LogLen/SrcPos (slots on
/// the packed path, entries on the legacy path), so replay's "source has
/// passed position P" checks compare like with like. Only valid while the
/// log is stable (transaction Finished, or single-threaded tests).
class LogCursor {
public:
  LogCursor() = default;

  explicit LogCursor(const Transaction &Tx) {
    if (!Tx.VecLog.empty()) {
      Vec = &Tx.VecLog;
      End = static_cast<uint32_t>(Tx.VecLog.size());
    } else {
      Chunk = Tx.Log.head();
      End = Tx.Log.size();
    }
  }

  bool atEnd() const { return Pos >= End; }
  uint32_t pos() const { return Pos; }

  /// Decodes the record at the cursor. Requires !atEnd().
  LogEntry current() const {
    if (Vec != nullptr)
      return (*Vec)[Pos];
    const LogSlot &S = slot(0);
    LogEntry E;
    switch (S.Meta & SlotTagMask) {
    case SlotTagRead:
      E.K = LogEntry::Kind::Read;
      break;
    case SlotTagWrite:
      E.K = LogEntry::Kind::Write;
      break;
    default:
      E.K = LogEntry::Kind::EdgeIn;
      break;
    }
    E.Obj = S.A;
    E.Addr = S.B;
    if (E.K == LogEntry::Kind::EdgeIn) {
      E.SrcSeq = S.Meta >> 2;
      E.Time = slot(1).Meta; // Continuation slot.
    }
    return E;
  }

  /// Consumes the current record (1 slot; 2 for EdgeIn on the packed path).
  void advance() {
    if (Vec != nullptr) {
      ++Pos;
      return;
    }
    const uint32_t N =
        (slot(0).Meta & SlotTagMask) == SlotTagEdgeIn ? 2 : 1;
    for (uint32_t I = 0; I < N; ++I) {
      ++Pos;
      if (++InChunk == LogChunk::SlotsPerChunk && Pos < End) {
        Chunk = Chunk->Next;
        InChunk = 0;
      }
    }
  }

private:
  /// Slot \p Ahead slots past the cursor (0 or 1; records may straddle a
  /// chunk boundary).
  const LogSlot &slot(uint32_t Ahead) const {
    assert(Pos + Ahead < End && "reading past the published log");
    uint32_t Idx = InChunk + Ahead;
    const LogChunk *C = Chunk;
    if (Idx >= LogChunk::SlotsPerChunk) {
      Idx -= LogChunk::SlotsPerChunk;
      C = C->Next;
    }
    return C->Slots[Idx];
  }

  const std::vector<LogEntry> *Vec = nullptr; ///< Legacy path; else chunks.
  const LogChunk *Chunk = nullptr;
  uint32_t InChunk = 0;
  uint32_t Pos = 0;
  uint32_t End = 0;
};

} // namespace analysis
} // namespace dc

#endif // DC_ANALYSIS_TRANSACTION_H
