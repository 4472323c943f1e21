//===- analysis/LogArena.h - Allocation-free access-log storage -*- C++ -*-===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage and elision machinery for the per-access logging hot path
/// (DESIGN.md §8). Three pieces, designed so that a logged access performs
/// zero shared-memory writes and zero heap allocations in the common case:
///
///  * ElisionFilter — a per-thread open-addressing duplicate-access filter
///    keyed by (object, field address) and stamped with the thread's
///    log-elision epoch (PerThread::CurTs). A transaction boundary or an
///    incoming/outgoing cross-thread edge bumps the epoch, which implicitly
///    invalidates every slot — nothing is ever cleared. The filter replaces
///    the seed's globally shared ElisionCells array, whose cache lines
///    ping-ponged between threads on read-shared fields (the very effect
///    LogRemoteMissPenalty simulates for the legacy path).
///
///  * LogSlot / LogChunk / ChunkedLog — packed log storage. An access
///    record is one 16-byte slot (half the seed's 32-byte LogEntry); the
///    rare EdgeIn marker is a full-width record spanning two consecutive
///    slots (records may straddle a chunk boundary; readers only ever scan
///    from position 0). Chunks are fixed-size blocks chained per
///    transaction, so an append never reallocates or copies — the log
///    positions published in Transaction::LogLen count slots and are stable
///    the moment they are published.
///
///  * LogChunkPool / LogChunkCache — chunk recycling. The mutator draws
///    chunks from its per-thread cache (no synchronization); the cache
///    refills in batches from the global pool (one lock per batch); the
///    mark-sweep collector returns every swept transaction's chunks to the
///    pool in one splice. Steady state allocates nothing.
///
///  * RingLog — the default publication transport (DESIGN.md §13): a
///    PerCpuRings array sized O(cores) that mutators commit records into
///    wait-free, with a single drain side (background drainer, mutator
///    self-drain on a full ring, collector peek — all serialized by one
///    internal lock) materializing records into per-transaction
///    ChunkedLogs at their mutator-assigned positions. Per-thread chunk
///    caches disappear in this mode; only the drain side holds one, and
///    it never decides a shed: each mutator keeps a chunk *credit* that
///    makes the same pool admission requests at the same log positions its
///    arena cache would have.
///
//===----------------------------------------------------------------------===//

#ifndef DC_ANALYSIS_LOGARENA_H
#define DC_ANALYSIS_LOGARENA_H

#include <atomic>
#include <cassert>
#include <cstdint>

#include "support/PerCpuRings.h"
#include "support/ResourceGovernor.h"
#include "support/SpinLock.h"

namespace dc {
namespace analysis {

class Transaction;

//===----------------------------------------------------------------------===//
// ElisionFilter
//===----------------------------------------------------------------------===//

/// Per-thread duplicate-access filter (paper §4's log elision, thread-local
/// form). Only the owning thread ever touches it, so a hit or an insert
/// costs a few private-cache accesses and no coherence traffic.
///
/// Soundness: an access is elided only when the *same* (object, field) was
/// accessed earlier in the same elision epoch and the earlier access
/// subsumes this one (read after anything; write only after write). Epochs
/// advance at transaction boundaries and whenever a cross-thread edge
/// touches the thread's current transaction, so an elided entry is always
/// a true duplicate with no intervening edge. Collisions and evictions only
/// ever *lose* elision opportunities (the access gets logged), never
/// fabricate one.
class ElisionFilter {
public:
  /// 8 KiB; power of two. Sized small on purpose: a filter entry only
  /// lives until the next epoch bump (a transaction boundary or a
  /// cross-thread edge), so it needs to hold one transaction's working set
  /// of distinct fields, not the heap's. 8 KiB leaves the rest of L1d to
  /// the log chunk being filled; evicting a live slot is always sound.
  static constexpr uint32_t NumSlots = 512;
  static constexpr uint32_t ProbeLen = 4;

  static uint64_t key(uint32_t Obj, uint32_t Addr) {
    return (static_cast<uint64_t>(Obj) << 32) | Addr;
  }

  /// Returns true iff the access may be elided. Otherwise records it so
  /// later duplicates in the same epoch can be elided. \p Epoch must be
  /// strictly positive (slot stamps of 0 mean "never used").
  ///
  /// The probe stops at the first slot whose stamp is not the current
  /// epoch. That is sound because inserts always claim the first stale
  /// slot in probe order and, within one epoch, a slot never transitions
  /// live -> stale (stamps are only ever written with the current epoch):
  /// if the key lived beyond a stale slot, it would have been inserted at
  /// or before that slot instead. So the common fresh-epoch miss — the
  /// append-heavy case — costs a single slot probe.
  bool testAndSet(uint64_t Key, uint64_t Epoch, bool IsWrite) {
    assert(Epoch > 0 && "epoch 0 is the empty-slot sentinel");
    const uint32_t Base = static_cast<uint32_t>(
        (Key * 0x9E3779B97F4A7C15ULL) >> 32);
    for (uint32_t I = 0; I < ProbeLen; ++I) {
      Slot &S = Slots[(Base + I) & (NumSlots - 1)];
      if ((S.Stamp >> 1) != Epoch) { // Stale: the key cannot be further on.
        S.Key = Key;
        S.Stamp = (Epoch << 1) | static_cast<uint64_t>(IsWrite);
        return false;
      }
      if (S.Key == Key) {
        if ((S.Stamp & 1) != 0 || !IsWrite)
          return true; // Read after anything / write after write: elide.
        S.Stamp |= 1;  // Read then write: log it, remember the write.
        return false;
      }
    }
    // Whole window live with other keys: evict the window base. Evicting a
    // live slot is sound (the victim's next duplicate just gets logged).
    Slot &Victim = Slots[Base & (NumSlots - 1)];
    Victim.Key = Key;
    Victim.Stamp = (Epoch << 1) | static_cast<uint64_t>(IsWrite);
    return false;
  }

private:
  struct Slot {
    uint64_t Key = 0;
    /// epoch << 1 | wasWrite. Epoch 0 never matches (CurTs starts at 1).
    uint64_t Stamp = 0;
  };
  Slot Slots[NumSlots];
};

//===----------------------------------------------------------------------===//
// Packed log slots and chunks
//===----------------------------------------------------------------------===//

/// One 16-byte log slot. Record encodings (tag = Meta & 3):
///   Read (0) / Write (1): A = object id, B = field address.
///   EdgeIn (2):           A = source thread id, B = sampled source log
///                         position, Meta >> 2 = source SeqInThread; the
///                         *next* slot's Meta holds the edge's OrderClock
///                         stamp (a continuation slot with no tag — cursors
///                         always consume both slots together).
struct LogSlot {
  uint32_t A = 0;
  uint32_t B = 0;
  uint64_t Meta = 0;
};
static_assert(sizeof(LogSlot) == 16, "access records must stay 16 bytes");

enum : uint64_t {
  SlotTagRead = 0,
  SlotTagWrite = 1,
  SlotTagEdgeIn = 2,
  SlotTagMask = 3,
};

/// A fixed-size block of log slots. 32 slots = 512 B of payload — sized
/// so the typical small transaction fills most of its single chunk
/// (internal fragmentation, not chunk-chain overhead, is what bloats the
/// live log footprint under the deferred collector). The chunk never
/// moves once linked, which is what lets LogLen be published per-append
/// while another thread samples it lock-free.
struct LogChunk {
  static constexpr uint32_t SlotsPerChunk = 32;
  LogChunk *Next = nullptr;
  LogSlot Slots[SlotsPerChunk];
};

//===----------------------------------------------------------------------===//
// Chunk recycling
//===----------------------------------------------------------------------===//

/// Global free list of chunks, shared by all threads of one runtime.
/// Touched only in batches: cache refills pop several chunks per lock
/// acquisition, and the collector splices a swept transaction's whole chain
/// back in one call.
class LogChunkPool {
public:
  LogChunkPool() = default;
  LogChunkPool(const LogChunkPool &) = delete;
  LogChunkPool &operator=(const LogChunkPool &) = delete;
  ~LogChunkPool();

  /// Pops up to \p Max chunks into a null-terminated chain; allocates
  /// fresh chunks for any shortfall so the result always holds \p Max.
  LogChunk *popBatch(uint32_t Max);

  /// Returns the chain [Head .. Tail] (Tail->Next ignored) of \p N chunks
  /// to the free list.
  void recycle(LogChunk *Head, LogChunk *Tail, uint64_t N);

  /// Deterministic fault injection: the Nth admitRefill() call (1-based)
  /// against this pool is refused as if allocation returned null. 0 = off.
  void failRefillAt(uint64_t N) { FailAt = N; }

  /// Charges chunk bytes leaving/re-entering the pool to \p G (may be
  /// null). Refills are refused while G's log-byte budget is breached.
  void setGovernor(ResourceGovernor *G) { Gov = G; }

  /// Counts a cache refill request and decides it. False — injected
  /// allocation failure or log-byte budget breach — means the caller must
  /// shed instead of calling popBatch. Only program threads ask, at
  /// schedule-determined log positions, so the request count is
  /// deterministic for a fixed schedule: in arena mode each thread's cache
  /// asks once per RefillBatch chunks its appends consume; in ring mode
  /// each thread's chunk credit (DoubleCheckerRuntime::ringAdmitChunk)
  /// asks at exactly the same positions, and the drain side, whose timing
  /// is wall-clock, never asks (LogChunkCache::getAdmitted).
  bool admitRefill();

  /// Chunks created with operator new (pool misses).
  uint64_t chunkAllocs() const {
    return Allocs.load(std::memory_order_relaxed);
  }
  /// Chunks served again from the free list after being recycled.
  uint64_t chunkRecycles() const {
    return Reuses.load(std::memory_order_relaxed);
  }
  /// Cache refill requests (admitted or refused).
  uint64_t refillRequests() const {
    return RefillCalls.load(std::memory_order_relaxed);
  }
  /// Refill requests refused (injected fault or budget breach).
  uint64_t refillsRefused() const {
    return Refusals.load(std::memory_order_relaxed);
  }

private:
  SpinLock Lock;
  LogChunk *Free = nullptr;
  std::atomic<uint64_t> Allocs{0};
  std::atomic<uint64_t> Reuses{0};
  std::atomic<uint64_t> RefillCalls{0};
  std::atomic<uint64_t> Refusals{0};
  uint64_t FailAt = 0;
  ResourceGovernor *Gov = nullptr;
};

/// Per-thread chunk cache: the mutator-facing face of LogChunkPool. Not
/// thread-safe; each program thread owns exactly one. With no pool
/// attached (hand-built transactions in tests/benches) it falls back to
/// plain allocation.
class LogChunkCache {
public:
  static constexpr uint32_t RefillBatch = 8;

  LogChunkCache() = default;
  LogChunkCache(const LogChunkCache &) = delete;
  LogChunkCache &operator=(const LogChunkCache &) = delete;
  ~LogChunkCache();

  void attach(LogChunkPool *P) { Pool = P; }

  /// Returns a chunk ready for use (Next == nullptr). Allocation-free
  /// whenever the cache or the pool's free list can serve it.
  LogChunk *get();

  /// Like get(), but returns null when the pool refuses the refill
  /// (injected allocation failure or log-byte budget breach) — the
  /// degradation ladder's shed trigger. get() keeps the never-fail
  /// contract for callers that cannot shed (EdgeIn markers).
  LogChunk *tryGet();

  /// Like get(), but refills without an admission request: for the ring
  /// drain side, whose records the publishing mutator already admitted
  /// (DESIGN.md §13). Never fails; the chunks are still charged to the
  /// pool's governor.
  LogChunk *getAdmitted();

private:
  LogChunkPool *Pool = nullptr;
  LogChunk *Free = nullptr;
  uint32_t Count = 0;
};

//===----------------------------------------------------------------------===//
// ChunkedLog
//===----------------------------------------------------------------------===//

/// A transaction's packed access log: a chain of chunks appended by the
/// owning thread (or, for EdgeIn markers, by a thread holding the owner
/// quiescent — the same single-writer discipline the seed's vector had).
/// Appends never move existing slots; readers (PCD replay) start only
/// after the transaction is Finished and always scan from the front.
class ChunkedLog {
public:
  ChunkedLog() = default;
  ChunkedLog(const ChunkedLog &) = delete;
  ChunkedLog &operator=(const ChunkedLog &) = delete;
  ~ChunkedLog() { freeChunks(); }

  /// Total slots appended (EdgeIn records count 2). This is the unit
  /// LogLen publishes and SrcPos samples.
  uint32_t size() const { return NumSlots; }
  bool empty() const { return NumSlots == 0; }
  const LogChunk *head() const { return Head; }

  /// Appends one access record (one slot). \p Cache may be null. Returns
  /// the new size so the caller can publish LogLen without re-reading it.
  uint32_t appendAccess(uint32_t Obj, uint32_t Addr, bool IsWrite,
                        LogChunkCache *Cache) {
    LogSlot &S = *grabSlot(Cache);
    S.A = Obj;
    S.B = Addr;
    S.Meta = IsWrite ? SlotTagWrite : SlotTagRead;
    return ++NumSlots;
  }

  /// Appends one EdgeIn marker (two slots; may straddle a chunk boundary).
  void appendEdgeIn(uint32_t SrcTid, uint32_t SrcPos, uint64_t SrcSeq,
                    uint64_t Time, LogChunkCache *Cache) {
    LogSlot &S = *grabSlot(Cache);
    S.A = SrcTid;
    S.B = SrcPos;
    S.Meta = SlotTagEdgeIn | (SrcSeq << 2);
    LogSlot &Cont = *grabSlot(Cache);
    Cont.A = 0;
    Cont.B = 0;
    Cont.Meta = Time;
    NumSlots += 2;
  }

  /// Drain-side positional write (ring transport): extends the chain to
  /// cover slot positions [0, Pos + N) and copies \p N slots at \p Pos,
  /// growing size() to at least Pos + N. Positions are assigned by the
  /// logging mutator; records drain out of ring order (a migrated thread's
  /// records split across rings), so writes land anywhere. Single-writer:
  /// only the ring drain side (under its lock) calls this, and a log
  /// written this way is never also appended to. Never fails: chunk
  /// admission belongs to the publishing mutator (DESIGN.md §13), so the
  /// drain side refills without asking.
  void writeAt(uint32_t Pos, const LogSlot *Src, uint32_t N,
               LogChunkCache *Cache) {
    const uint32_t End = Pos + N;
    while (NumChunks * LogChunk::SlotsPerChunk < End)
      adoptChunk(Cache != nullptr ? Cache->getAdmitted() : new LogChunk());
    const uint32_t ChunkIdx = Pos / LogChunk::SlotsPerChunk;
    if (DrainChunk == nullptr || ChunkIdx < DrainChunkIdx) {
      DrainChunk = Head;
      DrainChunkIdx = 0;
    }
    while (DrainChunkIdx < ChunkIdx) {
      DrainChunk = DrainChunk->Next;
      ++DrainChunkIdx;
    }
    LogChunk *C = DrainChunk;
    uint32_t CI = DrainChunkIdx;
    for (uint32_t I = 0; I < N; ++I) {
      const uint32_t P = Pos + I;
      if (P / LogChunk::SlotsPerChunk != CI) {
        C = C->Next;
        ++CI;
      }
      C->Slots[P % LogChunk::SlotsPerChunk] = Src[I];
    }
    if (End > NumSlots)
      NumSlots = End;
  }

  /// Moves every chunk to \p Pool (collector reclamation); the log becomes
  /// empty storage-wise but keeps its size (the transaction is dead).
  void releaseTo(LogChunkPool &Pool) {
    if (Head == nullptr)
      return;
    Pool.recycle(Head, Tail, NumChunks);
    Head = Tail = nullptr;
    TailUsed = LogChunk::SlotsPerChunk;
    NumChunks = 0;
    DrainChunk = nullptr;
    DrainChunkIdx = 0;
  }

  /// True when the next append needs a fresh chunk — the only point where
  /// allocation (and thus shedding, via LogChunkCache::tryGet) can happen.
  bool tailFull() const { return TailUsed == LogChunk::SlotsPerChunk; }

  /// Links \p C (Next == nullptr, e.g. from tryGet) as the new tail.
  void adoptChunk(LogChunk *C) {
    if (Tail == nullptr)
      Head = C;
    else
      Tail->Next = C;
    Tail = C;
    TailUsed = 0;
    ++NumChunks;
  }

private:
  /// One compare on the fast path: TailUsed doubles as the "no chunk yet"
  /// sentinel (it starts at SlotsPerChunk, and releaseTo restores that),
  /// so a full tail and an empty log take the same refill branch.
  LogSlot *grabSlot(LogChunkCache *Cache) {
    if (TailUsed == LogChunk::SlotsPerChunk)
      refillTail(Cache);
    return &Tail->Slots[TailUsed++];
  }

  void refillTail(LogChunkCache *Cache) {
    adoptChunk(Cache != nullptr ? Cache->get() : new LogChunk());
  }

  void freeChunks() {
    for (LogChunk *C = Head; C != nullptr;) {
      LogChunk *Next = C->Next;
      delete C;
      C = Next;
    }
    Head = Tail = nullptr;
    DrainChunk = nullptr;
    DrainChunkIdx = 0;
  }

  LogChunk *Head = nullptr;
  LogChunk *Tail = nullptr;
  uint32_t NumSlots = 0;
  /// Starts "full" so grabSlot's single compare also covers Tail == null.
  uint32_t TailUsed = LogChunk::SlotsPerChunk;
  uint32_t NumChunks = 0;
  /// writeAt's resume cursor: drains are near-sequential per transaction,
  /// so remembering the last chunk visited makes the common case O(1).
  LogChunk *DrainChunk = nullptr;
  uint32_t DrainChunkIdx = 0;
};

//===----------------------------------------------------------------------===//
// RingLog
//===----------------------------------------------------------------------===//

/// One published log record in flight between a mutator and the drain
/// side. Carries the record whole — an EdgeIn marker's two slots travel in
/// one cell — plus the slot position the mutator assigned from its
/// transaction's LogLen, so materialization is position-exact and
/// independent of drain timing (what keeps ring-mode results bit-equal
/// with arena mode on identical schedules).
struct RingRecord {
  Transaction *Tx = nullptr;
  uint32_t Pos = 0;
  uint32_t NumSlots = 0;
  LogSlot Slots[2];
};

/// The default log transport (DESIGN.md §13): bounded per-CPU rings that
/// mutators commit into wait-free-bounded, drained into per-transaction
/// ChunkedLogs off the hot path. All consumption — the background drainer,
/// a mutator self-draining a full ring, the collector's liveness peek — is
/// serialized by the internal drain lock, which also guards the single
/// drain-side chunk cache (the O(cores) footprint story: per-thread caches
/// do not exist in this mode). The drain side never sheds: chunk admission
/// was decided by the publishing mutator, so materialization cannot fail.
class RingLog {
public:
  /// Defaults: rings track the hardware, 64 KiB of cells per ring (1024
  /// records at one cache line per cell).
  static constexpr uint32_t DefaultRingBytes = 64 * 1024;

  RingLog(uint32_t NumRings, uint32_t BytesPerRing)
      : Rings(NumRings, (BytesPerRing ? BytesPerRing : DefaultRingBytes) /
                            CellBytes) {}

  void attachPool(LogChunkPool *P) { DrainCache.attach(P); }

  uint32_t numRings() const { return Rings.numRings(); }
  uint32_t capacity() const { return Rings.capacity(); }
  uint64_t footprintBytes() const { return Rings.footprintBytes(); }
  uint32_t ringFor(uint32_t CpuHint) const { return Rings.ringFor(CpuHint); }
  static uint32_t currentCpu() { return PerCpuRings<RingRecord>::currentCpu(); }

  /// Wait-free-bounded publish of one whole record at position \p Pos of
  /// \p Tx's log. The caller publishes Tx->LogLen only after Ok, so every
  /// sampled SrcPos refers to published cells.
  RingCommit commit(uint32_t RingIdx, Transaction *Tx, uint32_t Pos,
                    const LogSlot *S, uint32_t N) {
    return Rings.tryCommit(RingIdx, [&](RingRecord &R) {
      R.Tx = Tx;
      R.Pos = Pos;
      R.NumSlots = N;
      R.Slots[0] = S[0];
      if (N > 1)
        R.Slots[1] = S[1];
    });
  }

  /// Blocking drain of every ring (drainer thread, completeness waits).
  /// Returns records materialized.
  uint32_t drainAll();

  /// Opportunistic drain (mutator self-drain on a full ring): returns
  /// false without draining when the drain lock is busy — someone else is
  /// already making space.
  bool tryDrainAll(uint32_t &Drained);

  /// Visits the Transaction* of every published, unconsumed record across
  /// all rings (including records stuck behind a gap), under the drain
  /// lock. The collector uses this to keep transactions with in-flight
  /// records alive.
  template <typename VisitFn> void peekPublished(VisitFn &&Visit) {
    SpinLockGuard Guard(DrainMu);
    for (uint32_t R = 0; R < Rings.numRings(); ++R)
      Rings.peek(R, [&](RingRecord &Rec) { Visit(Rec.Tx); });
  }

  uint64_t drainPasses() const {
    return DrainPasses.load(std::memory_order_relaxed);
  }
  uint64_t recordsDrained() const {
    return RecordsDrained.load(std::memory_order_relaxed);
  }
  /// Records whose materialization was refused a chunk. Always 0: the
  /// publishing mutator admits chunks before it commits a record, so the
  /// drain side has nothing left to refuse. Kept so transport stats and
  /// bench rows keep their schema.
  uint64_t shedRefusals() const { return 0; }

private:
  /// PerCpuRings pads each cell to a cache line.
  static constexpr uint32_t CellBytes = 64;

  uint32_t drainAllLocked();

  PerCpuRings<RingRecord> Rings;
  SpinLock DrainMu;
  /// Guarded by DrainMu, like everything on the consume side.
  LogChunkCache DrainCache;
  std::atomic<uint64_t> DrainPasses{0};
  std::atomic<uint64_t> RecordsDrained{0};
};

} // namespace analysis
} // namespace dc

#endif // DC_ANALYSIS_LOGARENA_H
