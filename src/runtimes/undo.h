/**
 * @file
 * PMDK-model hybrid undo runtime.
 *
 * Reproduces libpmemobj v1.6's protocol shape: every first store to an
 * address range undo-logs the old value — entry write, flush, fence —
 * before the in-place update (reads need no interposition); allocation
 * uses redo-style intents; recovery rolls uncommitted transactions
 * back by replaying the undo log in reverse.
 */
#ifndef CNVM_RUNTIMES_UNDO_H
#define CNVM_RUNTIMES_UNDO_H

#include "runtimes/base.h"

namespace cnvm::rt {

class UndoRuntime : public RuntimeBase {
 public:
    using RuntimeBase::RuntimeBase;

    const char* name() const override { return "pmdk"; }
    txn::RuntimeKind kind() const override
    {
        return txn::RuntimeKind::undo;
    }

    void txBegin(unsigned tid, txn::FuncId fid,
                 std::span<const uint8_t> args) override;
    void txCommit(unsigned tid) override;
    void store(unsigned tid, void* dst, const void* src,
               size_t n) override;
    void load(unsigned tid, void* dst, const void* src,
              size_t n) override;

 protected:
    /** Undo-log [dst, dst+n) if any of it is not yet logged. */
    void maybeUndoLog(unsigned tid, void* dst, size_t n);

    /** Interrupted transaction: replay the undo log in reverse. */
    void healOngoing(unsigned tid, const salvage::SlotProbe& p) override;
};

}  // namespace cnvm::rt

#endif  // CNVM_RUNTIMES_UNDO_H
