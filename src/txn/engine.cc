#include "txn/engine.h"

#include <algorithm>

#include "alloc/pm_allocator.h"
#include "nvm/pool.h"
#include "sim/context.h"
#include "txn/lazy_recovery.h"

namespace cnvm::txn {

namespace {
thread_local unsigned tlsTid = 0;
}  // namespace

void
setThreadTid(unsigned tid)
{
    // Validate against the ambient pool when there is one: a tid at
    // or past maxThreads would index past the slot array and corrupt
    // a neighbor slot's log area on the next txBegin.
    if (auto* p = nvm::Pool::current();
        p != nullptr && tid >= p->maxThreads())
        throw SlotRangeError(tid, p->maxThreads());
    tlsTid = tid;
}

unsigned
currentTid()
{
    if (auto* c = sim::cur())
        return c->tid();
    return tlsTid;
}

void
Engine::bindThisThread(unsigned tid) const
{
    unsigned slots = rt.pool().maxThreads();
    if (tid >= slots)
        throw SlotRangeError(tid, slots);
    tlsTid = tid;
}

RecoveryReport
Engine::recover(RecoveryMode mode, bool backgroundHealer)
{
    // A still-armed previous session ends here: crash-during-recovery
    // retries re-triage from scratch (healing is idempotent).
    lazy_.reset();
    if (mode == RecoveryMode::lazy) {
        RecoveryIndex idx = rt.recoveryTriage();
        // Arm the incremental heap rebuild BEFORE registering the
        // holds: beginLazyRebuild discards all volatile allocator
        // state, holds included.
        rt.heap().beginLazyRebuild();
        for (const HoldRange& h : idx.holds)
            rt.heap().addHold(h.tid, h.off, h.bytes);
        auto lz = std::make_shared<LazyRecovery>(rt, std::move(idx));
        lastRecovery = RecoveryReport{};
        lastRecovery.slotsScanned = rt.pool().maxThreads();
        lazy_ = lz;
        if (backgroundHealer)
            lz->startHealer();
        return lastRecovery;
    }
    lastRecovery = rt.recover();
    return lastRecovery;
}

void
Engine::admitSlotSlow(unsigned tid)
{
    // Copy the shared_ptr: finishRecovery clears lazy_ only after the
    // caller quiesced, but the session must stay alive across this
    // call regardless.
    if (auto lz = lazy_)
        lz->admit(tid);
}

RecoveryReport
Engine::finishRecovery()
{
    auto lz = lazy_;
    if (!lz)
        return lastRecovery;
    lz->stopHealer();
    lz->drain();
    RecoveryReport total;
    total.slotsScanned =
        std::max<uint64_t>(lastRecovery.slotsScanned,
                           rt.pool().maxThreads());
    total.merge(lz->report());
    lastRecovery = total;
    lazy_.reset();
    return lastRecovery;
}

void
Engine::drainRecovery()
{
    if (auto lz = lazy_) {
        lz->stopHealer();
        lz->drain();
    }
}

bool
Engine::recoveryActive() const
{
    auto lz = lazy_;
    return lz != nullptr && !lz->done();
}

uint64_t
Engine::recoveryPending() const
{
    auto lz = lazy_;
    return lz ? lz->pendingCount() : 0;
}

uint64_t
Engine::recoveryHealed() const
{
    auto lz = lazy_;
    return lz ? lz->healedCount() : 0;
}

bool
Engine::recoveryHealerDied() const
{
    auto lz = lazy_;
    return lz != nullptr && lz->healerDied();
}

RecoveryReport
Engine::recoveryReport() const
{
    auto lz = lazy_;
    if (!lz)
        return lastRecovery;
    RecoveryReport total = lastRecovery;
    total.merge(lz->report());
    return total;
}

}  // namespace cnvm::txn
