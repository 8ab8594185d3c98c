#include "runtimes/atlas.h"

#include <cstring>

#include "stats/counters.h"

namespace cnvm::rt {

AtlasRuntime::AtlasRuntime(nvm::Pool& pool, alloc::PmAllocator& heap)
    : UndoRuntime(pool, heap)
{
    // The dependency ring lives in a pool-global area referenced from
    // the header so reopening the same pool reuses it.
    if (pool_.aux() == 0) {
        uint64_t off = heap_.reserve(kDepRingBytes);
        heap_.persistAllocate(off);
        pool_.fence();
        pool_.setAux(off);
    }
    depRingOff_ = pool_.aux();
}

void
AtlasRuntime::appendLockRecord(unsigned tid, uint64_t code)
{
    // Markers are bookkeeping, not memory images: recovery only needs
    // one durably *before* any later undo image is acted on, and every
    // undo entry's own required fence drains this flush first. A torn
    // marker with a durable successor entry is impossible for the same
    // reason — the successor's fence would have retired this line (see
    // DESIGN.md §12). Under the eliding log writers no such fence
    // exists, but the undo-family declared-salvage rule covers Atlas
    // too (healOngoing never claims a clean roll-back then), and the
    // zerocached staging window is strictly FIFO, so markers keep
    // their position relative to undo entries on media.
    appendLogEntry(tid, kMarkerOff, &code, sizeof(code),
                   LogFence::deferred);
    stats::bump(stats::Counter::lockLogEntries);
}

void
AtlasRuntime::appendDepRecord(unsigned tid)
{
    // Contention point: every FASE commit funnels through the global
    // dependency log, in both real and logical time. (RAII: a crash
    // injected mid-append must not leave the lock held.)
    std::lock_guard<sim::SimMutex> simG(depSimLock_);
    std::lock_guard<std::mutex> g(depRealLock_);
    uint8_t record[kDepRecordBytes] = {};
    uint64_t seq = desc(tid).txSeq;
    std::memcpy(record, &seq, sizeof(seq));
    std::memcpy(record + 8, &tid, sizeof(tid));
    uint64_t off = depRingOff_ +
        (depIndex_++ % (kDepRingBytes / kDepRecordBytes)) *
            kDepRecordBytes;
    pool_.writeAt(off, record, sizeof(record));
    // Flush without fence: the ring feeds the (offline) pruner's
    // consistent-cut scan, not single-failure recovery, so the commit
    // path's own fences are early enough to retire this line.
    pool_.flush(pool_.at(off), sizeof(record));
    stats::bump(stats::Counter::depRecords);
}

void
AtlasRuntime::pruneLogs()
{
    // Model of the Atlas log pruner: scan the dependency ring looking
    // for the newest consistent cut. The scan cost is real compute.
    std::lock_guard<std::mutex> g(depRealLock_);
    const auto* ring =
        static_cast<const uint8_t*>(pool_.at(depRingOff_));
    uint64_t newest = 0;
    for (size_t i = 0; i < kDepRingBytes / kDepRecordBytes; i++) {
        uint64_t seq;
        std::memcpy(&seq, ring + i * kDepRecordBytes, sizeof(seq));
        if (seq > newest)
            newest = seq;
    }
    // The cut itself is not needed for single-failure recovery in this
    // model (strict 2PL keeps ongoing FASEs disjoint), so the result
    // is discarded; the cost is what matters.
    (void)newest;
}

void
AtlasRuntime::txBegin(unsigned tid, txn::FuncId fid,
                      std::span<const uint8_t> args)
{
    UndoRuntime::txBegin(tid, fid, args);
    // Atlas infers FASEs from lock operations and cannot tell a
    // read-only critical section apart, so it persists eagerly.
    ensureBegun(tid);
    appendLockRecord(tid, /* acquire */ 1);
}

void
AtlasRuntime::store(unsigned tid, void* dst, const void* src, size_t n)
{
    // Atlas instruments *every* store with an undo log entry — it has
    // no TX_ADD-style per-location dedup (a large part of why the
    // paper measures it ~4x behind Clobber-NVM).
    if (n == 0)
        return;
    ensureBegun(tid);
    appendLogEntry(tid, pool_.offsetOf(dst), dst,
                   static_cast<uint32_t>(n), LogFence::required);
    stats::bump(stats::Counter::undoEntries);
    stats::bump(stats::Counter::undoBytes, n);
    writeDirty(tid, dst, src, n);
}

void
AtlasRuntime::onLock(unsigned tid)
{
    appendLockRecord(tid, /* inner */ 2);
}

void
AtlasRuntime::txCommit(unsigned tid)
{
    appendLockRecord(tid, /* release */ 3);
    appendDepRecord(tid);
    UndoRuntime::txCommit(tid);
    // Every committing thread counts; exactly one of them prunes per
    // interval (pruneLogs takes its own lock).
    if ((commits_.fetch_add(1, std::memory_order_relaxed) +
         1) % kPruneInterval == 0)
        pruneLogs();
}

}  // namespace cnvm::rt
