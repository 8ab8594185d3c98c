#include "txn/runtime.h"

#include "nvm/pool.h"

namespace cnvm::txn {

RecoveryReport
Runtime::recover()
{
    RecoveryIndex idx = recoveryTriage();
    RecoveryReport total;
    total.slotsScanned = pool().maxThreads();
    // Restore every slot and rebuild the heap before the first
    // re-execution: a resumed txfunc may read a block that another
    // interrupted slot clobbered (see the declaration).
    for (const IndexEntry& e : idx.entries)
        total.merge(healSlot(e));
    total.merge(healHeap(RecoveryMode::full));
    for (const IndexEntry& e : idx.entries)
        total.merge(resumeSlot(e));
    return total;
}

}  // namespace cnvm::txn
