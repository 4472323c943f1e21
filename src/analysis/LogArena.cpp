//===- analysis/LogArena.cpp ----------------------------------------------===//
//
// Part of the DoubleChecker reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LogArena.h"

#include "analysis/Transaction.h"

using namespace dc;
using namespace dc::analysis;

LogChunkPool::~LogChunkPool() {
  for (LogChunk *C = Free; C != nullptr;) {
    LogChunk *Next = C->Next;
    delete C;
    C = Next;
  }
}

LogChunk *LogChunkPool::popBatch(uint32_t Max) {
  LogChunk *Chain = nullptr;
  uint32_t Got = 0;
  {
    SpinLockGuard Guard(Lock);
    while (Got < Max && Free != nullptr) {
      LogChunk *C = Free;
      Free = C->Next;
      C->Next = Chain;
      Chain = C;
      ++Got;
    }
  }
  if (Got != 0)
    Reuses.fetch_add(Got, std::memory_order_relaxed);
  if (Got < Max) {
    Allocs.fetch_add(Max - Got, std::memory_order_relaxed);
    for (; Got < Max; ++Got) {
      LogChunk *C = new LogChunk();
      C->Next = Chain;
      Chain = C;
    }
  }
  if (Gov != nullptr)
    Gov->logBytes(static_cast<int64_t>(Max) * sizeof(LogChunk));
  return Chain;
}

void LogChunkPool::recycle(LogChunk *Head, LogChunk *Tail, uint64_t N) {
  if (Head == nullptr)
    return;
  if (Gov != nullptr)
    Gov->logBytes(-static_cast<int64_t>(N) * sizeof(LogChunk));
  SpinLockGuard Guard(Lock);
  Tail->Next = Free;
  Free = Head;
}

bool LogChunkPool::admitRefill() {
  uint64_t N = RefillCalls.fetch_add(1, std::memory_order_relaxed) + 1;
  if (FailAt != 0 && N == FailAt) {
    Refusals.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (Gov != nullptr && (Gov->pressure() & PressureLogBytes) != 0) {
    Refusals.fetch_add(1, std::memory_order_relaxed);
    Gov->countBreach();
    return false;
  }
  return true;
}

LogChunkCache::~LogChunkCache() {
  // Cached chunks were charged to the governor's log-byte gauge when
  // popBatch handed them out; recycling them (rather than deleting) issues
  // the matching credit, so MaxLogBytes accounting balances across
  // transports — the same chunks otherwise stayed charged forever and
  // skewed every later pressure decision.
  if (Pool != nullptr && Free != nullptr) {
    LogChunk *Tail = Free;
    while (Tail->Next != nullptr)
      Tail = Tail->Next;
    Pool->recycle(Free, Tail, Count);
    Free = nullptr;
    Count = 0;
    return;
  }
  for (LogChunk *C = Free; C != nullptr;) {
    LogChunk *Next = C->Next;
    delete C;
    C = Next;
  }
}

LogChunk *LogChunkCache::tryGet() {
  if (Free == nullptr && Pool != nullptr && !Pool->admitRefill())
    return nullptr;
  return getAdmitted();
}

LogChunk *LogChunkCache::getAdmitted() {
  if (Free == nullptr) {
    if (Pool == nullptr)
      return new LogChunk();
    Free = Pool->popBatch(RefillBatch);
    Count = RefillBatch;
  }
  LogChunk *C = Free;
  Free = C->Next;
  --Count;
  C->Next = nullptr;
  return C;
}

LogChunk *LogChunkCache::get() {
  LogChunk *C = tryGet();
  // Never-fail contract: EdgeIn markers must land even when the pool is
  // refusing refills (the shed decision belongs to access logging only).
  return C != nullptr ? C : new LogChunk();
}

uint32_t RingLog::drainAllLocked() {
  uint32_t Total = 0;
  for (uint32_t R = 0; R < Rings.numRings(); ++R) {
    Total += Rings.drain(R, [&](RingRecord &Rec) {
      Transaction *Tx = Rec.Tx;
      Tx->Log.writeAt(Rec.Pos, Rec.Slots, Rec.NumSlots, &DrainCache);
      Tx->DrainedSlots.fetch_add(Rec.NumSlots, std::memory_order_release);
    });
  }
  DrainPasses.fetch_add(1, std::memory_order_relaxed);
  if (Total != 0)
    RecordsDrained.fetch_add(Total, std::memory_order_relaxed);
  return Total;
}

uint32_t RingLog::drainAll() {
  SpinLockGuard Guard(DrainMu);
  return drainAllLocked();
}

bool RingLog::tryDrainAll(uint32_t &Drained) {
  if (!DrainMu.tryLock())
    return false;
  Drained = drainAllLocked();
  DrainMu.unlock();
  return true;
}
