/**
 * @file
 * iDO-model runtime (logging-volume measurement, Figure 8).
 *
 * iDO (Liu et al., MICRO '18) splits a FASE into idempotent regions: a
 * region ends when a store would overwrite a location the region has
 * already read (an anti-dependence). At each boundary iDO persists a
 * register snapshot plus any modified memory, and recovery resumes from
 * the last boundary. Its source is not public; like the paper (§5.4),
 * we reimplement the *instrumentation* to collect the transaction's
 * logging profile:
 *
 *  - boundary detection is dynamic: per-region read/write sets, a store
 *    hitting the region read set closes the region;
 *  - each boundary persists a synthetic 136-byte register-file record
 *    (~16 GPRs + flags + PC, matching "a snapshot of most registers")
 *    and flushes+fences the region's modified lines;
 *  - FASE entry persists the equivalent of iDO's NVM-resident stack
 *    state (here: the argument blob).
 *
 * Real iDO resumes from the last region boundary using the persisted
 * register snapshot — state a library reimplementation cannot
 * reconstruct. To keep the model crash-correct anyway (so the torture
 * harness can sweep it like every other protocol), load/store also run
 * the inherited clobber-logging paths and recovery is Clobber-NVM's
 * restore-and-re-execute. The Figure 8 measurement is unaffected: it
 * reads only the idoEntries/idoBytes counters, which count exactly the
 * boundary records and NVM-stack bytes of the iDO model.
 */
#ifndef CNVM_RUNTIMES_IDO_H
#define CNVM_RUNTIMES_IDO_H

#include "runtimes/clobber.h"

namespace cnvm::rt {

class IdoRuntime : public ClobberRuntime {
 public:
    /** Bytes persisted per idempotent-region boundary record. */
    static constexpr uint32_t kRegisterSnapshotBytes = 136;

    IdoRuntime(nvm::Pool& pool, alloc::PmAllocator& heap)
        : ClobberRuntime(pool, heap) {}

    const char* name() const override { return "ido"; }
    txn::RuntimeKind kind() const override
    {
        return txn::RuntimeKind::ido;
    }

    void store(unsigned tid, void* dst, const void* src,
               size_t n) override;
    void load(unsigned tid, void* dst, const void* src,
              size_t n) override;

 protected:
    void beganPersistently(unsigned tid) override;
};

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_IDO_H
