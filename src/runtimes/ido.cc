#include "runtimes/ido.h"

#include <cstring>

#include "common/error.h"
#include "stats/counters.h"

namespace cnvm::rt {

void
IdoRuntime::beganPersistently(unsigned tid)
{
    // iDO keeps the stack in NVM instead of copying volatile inputs at
    // FASE begin; account the equivalent bytes (this slot's staged
    // arguments) plus the initial boundary record.
    stats::bump(stats::Counter::idoEntries);
    stats::bump(stats::Counter::idoBytes,
                kRegisterSnapshotBytes + slot(tid).volatileArgs.size());
}

void
IdoRuntime::load(unsigned tid, void* dst, const void* src, size_t n)
{
    if (n == 0)
        return;
    // Same media guard as ClobberRuntime::load — recovery here is the
    // inherited restore-and-re-execute.
    if (recovering_ && pool_.faults() != nullptr)
        pool_.checkRead(src, n);
    SlotState& s = slot(tid);
    auto [first, last] = blockRangeOf(src, n);
    // loadRun invariant (iDO): run blocks carry READ|WRITTEN *and*
    // REGION_READ|REGION_WRITTEN, so both the region bookkeeping and
    // the inherited clobber bookkeeping are no-ops.
    if (!s.inLoadRun(first, last)) {
        for (uint64_t b = first; b <= last; b++) {
            uint8_t& st = s.blocks.ref(b);
            if (!(st & BlockMap::kRegionWritten))
                st |= BlockMap::kRegionRead;
            if (!(st & (BlockMap::kRead | BlockMap::kWritten)))
                st |= BlockMap::kRead;
        }
        s.noteLoadRun(first, last);
    }
    std::memcpy(dst, src, n);
}

void
IdoRuntime::store(unsigned tid, void* dst, const void* src, size_t n)
{
    if (n == 0)
        return;
    ensureBegun(tid);
    SlotState& s = slot(tid);
    auto [first, last] = blockRangeOf(dst, n);
    // storeRun invariant (iDO): run blocks are WRITTEN and
    // REGION_WRITTEN with REGION_READ clear — no anti-dependence, no
    // clobber, nothing left to record.
    if (s.inStoreRun(first, last)) {
        writeDirty(tid, dst, src, n);
        return;
    }
    // Optimistic single pass: assume no region boundary and fold the
    // anti-dependence check, the clobber check, and all bit updates
    // into one probe per block. On an anti-dependence the pass aborts
    // and re-runs after the boundary reset (rare: boundaries also pay
    // a flush + log append, so the extra pass is noise).
    bool clobbers = false;
    auto pass = [&]() {
        for (uint64_t b = first; b <= last; b++) {
            uint8_t& st = s.blocks.ref(b);
            if (st & BlockMap::kRegionRead)
                return false;
            if ((st & BlockMap::kRead) &&
                (policy_ == ClobberPolicy::conservative ||
                 !(st & BlockMap::kWritten))) {
                clobbers = true;
            }
            st |= BlockMap::kWritten | BlockMap::kRegionWritten;
        }
        return true;
    };
    if (!pass()) {
        // Idempotent-region boundary: persist the modified memory of
        // the closing region, then the register snapshot. (Under an
        // eliding log writer the snapshot's fence is gone and the
        // boundary guarantee weakens with it — harmless here, because
        // the inherited clobber recovery never resumes from a
        // boundary and declares interrupted slots instead.)
        flushDirty(tid);
        uint8_t registers[kRegisterSnapshotBytes] = {};
        appendLogEntry(tid, kMarkerOff, registers, sizeof(registers),
                       LogFence::required);
        stats::bump(stats::Counter::idoEntries);
        stats::bump(stats::Counter::idoBytes, kRegisterSnapshotBytes);
        s.blocks.clearRegionBits();
        // The region bits every cached run relied on are gone.
        s.resetRuns();
        pass();  // cannot abort again: no REGION_READ bits remain
    }
    // The clobber logging keeps the model failure-atomic; the iDO
    // measurement above never reads the clobber counters.
    if (clobbers)
        appendClobberEntry(tid, dst, n);
    if (policy_ == ClobberPolicy::refined)
        s.noteStoreRun(first, last);
    writeDirty(tid, dst, src, n);
}

}  // namespace cnvm::rt
