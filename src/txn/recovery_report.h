/**
 * @file
 * Structured result of a recovery pass.
 *
 * PR 5 converts the recovery stack from trust-or-abort to salvage:
 * corrupt log entries are skipped with protocol-correct semantics,
 * poisoned allocator blocks are quarantined, transient reads are
 * retried — and every such action must be *visible*, not silent.
 * RecoveryReport is that visibility: Runtime::recover() returns one,
 * txn::Engine keeps the last one, and the torture harness relaxes its
 * shadow-oracle audit only for transactions the report explicitly
 * declares salvage-aborted.
 */
#ifndef CNVM_TXN_RECOVERY_REPORT_H
#define CNVM_TXN_RECOVERY_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace cnvm::txn {

/** What recovery did with one slot's interrupted transaction. */
enum class SlotAction : uint8_t {
    none = 0,          ///< slot was idle; nothing to do
    rolledBack,        ///< undo/atlas: log replayed in reverse
    rolledForward,     ///< redo: committed write set replayed forward
    reexecuted,        ///< clobber/ido: inputs restored, txfunc re-run
    intentsCompleted,  ///< only the alloc-intent table needed finishing
    intentsReverted,   ///< only the alloc-intent table needed reverting
    salvageAborted,    ///< damage detected; transaction abandoned
};

const char* slotActionName(SlotAction a);

/** Per-slot recovery outcome. */
struct SlotRecovery {
    unsigned tid = 0;
    SlotAction action = SlotAction::none;
    /** Log entries (or redo writes) actually applied. */
    uint64_t entriesApplied = 0;
    /** Log entries dropped as corrupt (checksum/poison/resync). */
    uint64_t entriesDropped = 0;
    /** Free-form diagnosis ("mid-log checksum failure", ...). */
    std::string note;
};

/** Aggregate result of one Runtime::recover() pass. */
struct RecoveryReport {
    /** Slots examined (maxThreads). */
    uint64_t slotsScanned = 0;
    /** Valid log entries replayed across all slots. */
    uint64_t logEntriesApplied = 0;
    /** Corrupt log entries skipped across all slots. */
    uint64_t logEntriesDropped = 0;
    /** Guarded reads that hit a poisoned line during this pass's
     *  heal hooks (triage's read-only probes are not counted). */
    uint64_t poisonedReads = 0;
    /** Transient-fault retries performed during the heal hooks. */
    uint64_t transientRetries = 0;
    /** Allocator blocks quarantined by this pass. */
    uint64_t quarantinedBlocks = 0;
    uint64_t quarantinedBytes = 0;
    /** Alloc-intent tables that failed their checksum or poisoned. */
    uint64_t intentTablesLost = 0;
    /** Transactions abandoned because their log was damaged. */
    uint64_t salvageAborted = 0;

    /** Slots where recovery took any action (none are omitted). */
    std::vector<SlotRecovery> slots;

    /** No salvage, no damage: recovery was the ordinary crash path. */
    bool
    clean() const
    {
        return logEntriesDropped == 0 && poisonedReads == 0 &&
               quarantinedBlocks == 0 && intentTablesLost == 0 &&
               salvageAborted == 0;
    }

    /** Record a per-slot outcome and fold it into the counters. */
    void add(SlotRecovery s);

    /**
     * Fold another pass's report into this one (lazy recovery merges
     * one per-entry heal report at a time into a cumulative report).
     * Counters sum except slotsScanned, which takes the max: every
     * heal examines a subset of the same slot universe the triage
     * pass already counted, and per-entry heals report 0 there.
     */
    void merge(const RecoveryReport& other);

    /** Multi-line human-readable summary (tools, test logs). */
    std::string toString() const;
};

}  // namespace cnvm::txn

#endif  // CNVM_TXN_RECOVERY_REPORT_H
