/**
 * @file
 * Failure-atomic persistent heap allocator (the pmalloc substrate).
 *
 * Mirrors the structure of PMDK's allocator, which Clobber-NVM builds
 * on: allocations are *reserved* volatilely during a transaction and only
 * become persistent at commit, driven by the owning runtime's intent log
 * (redo). Frees are deferred to commit. Consequences:
 *
 *  - a crash mid-transaction leaks nothing: unreserved state is exactly
 *    what the persistent bitmap describes;
 *  - a crash mid-commit is repaired from the runtime's persistent intent
 *    log by idempotent bit writes (revertBits);
 *  - Clobber-NVM's re-execution path simply re-reserves — the volatile
 *    free map is rebuilt from the (unchanged) bitmap first, so recovery
 *    is deterministic.
 *
 * Persistent layout inside the pool's heap region (pool version 2):
 *
 *   [ AllocHeader | quarantine table | bitmap (1 bit / 16-byte
 *     granule) | data ]
 *
 * Every block is preceded by a 16-byte header recording its payload
 * size (needed by free and by bit reverts).
 *
 * The quarantine table (PR 5) records heap ranges whose media went
 * bad — a poisoned bitmap chunk, a block header that fails its
 * checksum during salvage. Quarantined ranges have their bitmap bits
 * forced allocated and the persistent table keeps rebuild() from ever
 * returning them to the free map, so a bad cell can never be handed
 * out again.
 */
#ifndef CNVM_ALLOC_PM_ALLOCATOR_H
#define CNVM_ALLOC_PM_ALLOCATOR_H

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "nvm/pool.h"

namespace cnvm::alloc {

constexpr uint64_t kGranule = 16;

/** Persistent header at the start of the heap region. */
struct AllocHeader {
    uint64_t magic;
    uint64_t bitmapOff;    ///< pool offset of the bitmap
    uint64_t bitmapBytes;
    uint64_t dataOff;      ///< pool offset of the first granule
    uint64_t dataBytes;
    uint64_t quarOff;      ///< pool offset of the quarantine table
};

/** Per-block persistent header (16 bytes, precedes the payload). */
struct BlockHeader {
    uint64_t payloadBytes;
    uint64_t check;        ///< payloadBytes ^ kBlockMagic
};

/** Why a heap range was quarantined. */
enum QuarantineReason : uint32_t {
    kQuarPoisonedBitmap = 1,  ///< its bitmap chunk is unreadable
    kQuarCorruptHeader = 2,   ///< block header failed its checksum
    kQuarPoisonedData = 3,    ///< data lines raised media faults
};

/** One quarantined heap range (absolute pool offsets). */
struct QuarantineEntry {
    uint64_t off;
    uint64_t bytes;
    uint32_t reason;       ///< QuarantineReason
    uint32_t pad;
};

/** Persistent, self-validating quarantine table. */
struct QuarantineTable {
    static constexpr uint32_t kCapacity = 64;
    uint32_t count;
    uint32_t pad;
    uint64_t checksum;     ///< quarantineChecksum(count, entries)
    QuarantineEntry entries[kCapacity];
};

/** fnv1a over the live prefix of the table (0 maps to 1). */
uint64_t quarantineChecksum(uint32_t count,
                            const QuarantineEntry* entries);

/**
 * A block header failed its checksum (thrown by payloadSize instead of
 * aborting the process: recovery quarantines the block and goes on).
 */
class CorruptBlockError : public FatalError {
 public:
    CorruptBlockError(uint64_t payloadOff, const std::string& what)
        : FatalError(what), payloadOff_(payloadOff) {}

    uint64_t payloadOff() const { return payloadOff_; }

 private:
    uint64_t payloadOff_;
};

/** What one rebuild() pass salvaged. */
struct RebuildStats {
    uint64_t quarantinedBlocks = 0;   ///< newly quarantined ranges
    uint64_t quarantinedBytes = 0;
    uint64_t poisonedChunks = 0;      ///< unreadable bitmap chunks
    bool quarantineTableReset = false;///< table itself was corrupt
    bool headerHealed = false;        ///< AllocHeader recomputed
};

class PmAllocator {
 public:
    static constexpr uint64_t kMagic = 0xA110CA7EDB17ull;
    static constexpr uint64_t kBlockMagic = 0xB10CB10CB10CB10Cull;

    /**
     * Attach to (formatting if necessary) the pool's heap region.
     * With `deferRebuild` the constructor skips the full bitmap scan
     * and arms the incremental lazy rebuild instead (instant restart:
     * the caller is expected to run beginLazyRebuild-style recovery
     * through the engine; reserve() pulls scan work on demand).
     */
    explicit PmAllocator(nvm::Pool& pool, bool deferRebuild = false);

    PmAllocator(const PmAllocator&) = delete;
    PmAllocator& operator=(const PmAllocator&) = delete;

    /**
     * Volatile-reserve a block with `payload` usable bytes.
     * @return pool offset of the payload (16-byte aligned).
     */
    uint64_t reserve(size_t payload);

    /** Roll back a reservation that never committed. */
    void releaseReservation(uint64_t payloadOff);

    /**
     * Payload size recorded in the block header.
     * @throws CorruptBlockError if the header fails its checksum;
     *         nvm::MediaFaultError if its line is poisoned.
     */
    size_t payloadSize(uint64_t payloadOff) const;

    /**
     * Commit a reservation: set its bitmap bits and flush them (plus
     * the block header). The caller issues the ordering fence.
     */
    void persistAllocate(uint64_t payloadOff);

    /**
     * Commit a deferred free: clear bitmap bits, flush, and return the
     * space to the volatile free map. Caller issues the fence.
     */
    void persistFree(uint64_t payloadOff);

    /**
     * persistFree with the payload size supplied by the caller's
     * intent table — trusts nothing on the media, so a block whose
     * header line went bad can still be freed at commit.
     */
    void persistFree(uint64_t payloadOff, size_t payloadBytes);

    /**
     * Recovery: force the bitmap bits of a block to `allocated`.
     * Idempotent; used when replaying/reverting intent logs. The size
     * comes from the caller's intent table — the block header itself
     * may have been torn by the crash.
     */
    void revertBits(uint64_t payloadOff, size_t payloadBytes,
                    bool allocated);

    /**
     * Rebuild the volatile free map from the persistent bitmap.
     * Bitmap chunks that are poisoned or tainted are quarantined (the
     * granules they administer are forced allocated, persistently)
     * rather than trusted; already-quarantined ranges never re-enter
     * the free map. @return what this pass salvaged.
     *
     * A fresh-process rebuild with nothing to redo returns at once:
     * if no bitmap bit was written, no reservation or hold taken and
     * no crash or media fault struck (Pool::mediaEvents) since the
     * last fresh-process rebuild, that pass's free map is what a
     * second scan would build — and it salvaged everything a second
     * scan could find. Full recovery relies on this: the constructor
     * scans, and healHeap scans again only if a heal wrote the bitmap.
     *
     * `keepSession` distinguishes the two callers: false (default) is
     * fresh-process recovery — stale volatile reservations and holds
     * are discarded before the scan; true is the lazy-recovery final
     * reconcile, which runs while foreground transactions are in
     * flight and must keep masking their live reservations (and any
     * not-yet-released holds) out of the free map. Either way the
     * lazy scan session ends here: its accumulated salvage stats are
     * folded into the returned stats.
     */
    RebuildStats rebuild(bool keepSession = false);

    /**
     * Arm an incremental (lazy) rebuild instead of scanning the whole
     * bitmap: discard all volatile state (fresh-process semantics),
     * heal the header and quarantine table — the O(1) prefix of
     * rebuild() — and leave the free map empty. reserve() then pulls
     * chunks of the bitmap scan on demand; rebuild(true) reconciles at
     * the end. Bounded by metadata size, not pool size.
     */
    void beginLazyRebuild();

    /** Is an armed lazy rebuild still the source of the free map? */
    bool lazyRebuildActive() const;

    /**
     * Pull up to `chunks` 64-byte chunks (512 granules each) of an
     * armed lazy rebuild's bitmap scan into the free map; reserve()
     * pulls 64 at a time on demand. @return true once the scan has
     * consumed the whole bitmap (or no lazy rebuild is armed).
     */
    bool lazyStep(uint64_t chunks);

    /**
     * Pin [off, off+bytes) out of the free map until releaseHolds(tid)
     * — lazy recovery's guard for blocks whose allocation bits may
     * have been torn by the crash (the owning slot's intent table is
     * the truth until that slot heals).
     */
    void addHold(unsigned tid, uint64_t off, uint64_t bytes);

    /** Drop every hold owned by `tid` (its slot healed). */
    void releaseHolds(unsigned tid);

    /** Outstanding hold ranges (diagnostics / tests). */
    size_t holdCount() const;

    /**
     * Persistently quarantine [payloadOff-16, ...) covering `bytes`
     * of payload: record a table entry and force the bitmap bits
     * allocated. Idempotent for an already-covered range.
     */
    void quarantine(uint64_t blockOff, uint64_t bytes,
                    QuarantineReason reason);

    /** Is any byte of [off, off+n) inside a quarantined range? */
    bool isQuarantined(uint64_t off, uint64_t n) const;
    uint32_t quarantineCount() const;
    uint64_t quarantinedBytes() const;

    /** Does any free extent overlap a quarantined range? (Torture
     *  invariant: must always be false.) */
    bool quarantineViolation() const;

    /** Total bytes in free extents (diagnostics / tests). */
    size_t freeBytes() const;

    /** Number of free extents (fragmentation diagnostics). */
    size_t freeExtents() const;

    /** Copy of the free map, offset -> length (tests). */
    std::map<uint64_t, uint64_t> freeMap() const;

    /** @name Layout accessors (fault-region map, offline verify) */
    /// @{
    uint64_t bitmapOff() const { return hdr().bitmapOff; }
    uint64_t bitmapBytes() const { return hdr().bitmapBytes; }
    uint64_t dataOff() const { return hdr().dataOff; }
    uint64_t dataBytes() const { return hdr().dataBytes; }
    uint64_t quarTableOff() const { return hdr().quarOff; }
    /// @}

    nvm::Pool& pool() { return pool_; }

 private:
    const AllocHeader& hdr() const;
    AllocHeader expectedHeader() const;
    QuarantineTable* quarTable() const;
    void quarantineLocked(uint64_t off, uint64_t bytes,
                          QuarantineReason reason);
    bool isQuarantinedLocked(uint64_t off, uint64_t n) const;
    uint64_t blockOff(uint64_t payloadOff) const
    {
        return payloadOff - sizeof(BlockHeader);
    }
    uint64_t blockGranules(uint64_t payloadOff) const;
    void setBits(uint64_t blockOff, uint64_t granules, bool value,
                 bool flushBits);
    void insertFreeExtentLocked(uint64_t off, uint64_t len);
    /** insertFreeExtentLocked minus hold/reservation overlaps. */
    void insertFreeRunMaskedLocked(uint64_t off, uint64_t len);
    uint64_t reserveLocked(uint64_t need);
    void healMetaLocked(RebuildStats* st);
    /** Bitmap bytes that administer data granules. */
    uint64_t usedBitmapBytes() const;
    /**
     * The one bitmap scanner behind rebuild() and the lazy steps:
     * consume bitmap bytes [scanCursor_, end) in guarded 64-byte
     * chunks — salvaging unreadable ones into `st`, forcing
     * quarantined granules allocated — and insert every free run it
     * finds, the run still open at `end` included. Steps 64 granules
     * at a time over all-allocated and all-free words.
     */
    void scanLocked(uint64_t end, RebuildStats* st);
    bool lazyStepLocked(uint64_t chunks);
    bool scannedLocked(uint64_t blockOff, uint64_t granules) const;

    /** A heap range pinned until its owning slot heals. */
    struct Hold {
        unsigned tid;
        uint64_t off;
        uint64_t bytes;
    };

    nvm::Pool& pool_;
    mutable std::mutex mu_;
    /** offset -> length, coalesced free extents (absolute pool offsets) */
    std::map<uint64_t, uint64_t> free_;
    /** length -> offset index for best-fit */
    std::multimap<uint64_t, uint64_t> bySize_;
    /** block offset -> total bytes of live volatile reservations (bits
     *  still clear on media; a concurrent rebuild must not free them) */
    std::map<uint64_t, uint64_t> reserved_;
    std::vector<Hold> holds_;
    /** Bitmap bytes the current scan has consumed. */
    uint64_t scanCursor_ = 0;
    /** The volatile state is exactly what the last fresh-process
     *  rebuild built (see rebuild()); mapEvents_ is the pool's
     *  mediaEvents() at its end. */
    bool mapFresh_ = false;
    uint64_t mapEvents_ = 0;
    /** @name Lazy (incremental) rebuild session */
    /// @{
    bool lazyActive_ = false;
    bool lazyScanDone_ = false;
    RebuildStats lazyStats_{};    ///< salvage found by lazy steps
    /// @}
};

}  // namespace cnvm::alloc

#endif  // CNVM_ALLOC_PM_ALLOCATOR_H
