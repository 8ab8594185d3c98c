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
 * Persistent layout inside the pool's heap region (pool version 3):
 *
 *   [ AllocHeader | quarantine table | bitmap | data ]
 *
 * Blocks carry no header (like the `none` header type of PMDK's small
 * allocation classes): a block is a run of whole 16-byte granules and
 * the bitmap alone records where it lies. The bitmap is a sequence of
 * 64-byte lines, each administering 256 granules (4 KiB of data):
 *
 *   [ 32 allocation-bit bytes | 32 start-bit bytes ]
 *
 * An allocation bit is set on every granule of a committed block, a
 * start bit on its first granule only. A block's length is therefore
 * its run of allocated granules up to the next start bit or free
 * granule. Both halves of a granule's state share a line, so one
 * flush persists an allocation or a free and one poisoned line takes
 * out both; a block whose granules one line administers costs one
 * flushed line.
 *
 * The quarantine table records heap ranges whose media went
 * bad — a poisoned bitmap line, a free naming an offset where no
 * block starts. Quarantined ranges have their allocation bits forced
 * set and the persistent table keeps rebuild() from ever returning
 * them to the free map, so a bad cell can never be handed out again.
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
/** Bytes of one bitmap line, and the granules it administers. */
constexpr uint64_t kBitmapLine = 64;
constexpr uint64_t kLineGranules = 256;
/** Offset of a line's start-bit half (its allocation bits come first). */
constexpr uint64_t kStartBitsOff = 32;

/** Persistent header at the start of the heap region. */
struct AllocHeader {
    uint64_t magic;
    uint64_t bitmapOff;    ///< pool offset of the bitmap
    uint64_t bitmapBytes;
    uint64_t dataOff;      ///< pool offset of the first granule
    uint64_t dataBytes;
    uint64_t quarOff;      ///< pool offset of the quarantine table
};

/** Why a heap range was quarantined. */
enum QuarantineReason : uint32_t {
    kQuarPoisonedBitmap = 1,  ///< its bitmap line is unreadable
    kQuarCorruptBlock = 2,    ///< no block starts where one was named
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
 * No block starts at the named offset: its granule is free, or
 * allocated without a start bit (thrown by payloadSize instead of
 * aborting the process: recovery quarantines the granule and goes
 * on).
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
    uint64_t poisonedChunks = 0;      ///< unreadable bitmap lines
    bool quarantineTableReset = false;///< table itself was corrupt
    bool headerHealed = false;        ///< AllocHeader recomputed
};

class PmAllocator {
 public:
    static constexpr uint64_t kMagic = 0xA110CA7EDB17ull;

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
     * Volatile-reserve a block of at least `payload` usable bytes,
     * rounded up to whole granules. Writes nothing to the pool.
     * @return pool offset of the block (16-byte aligned).
     */
    uint64_t reserve(size_t payload);

    /** Roll back a reservation that never committed (a no-op for
     *  one a fresh-process rebuild already dropped). */
    void releaseReservation(uint64_t payloadOff);

    /**
     * Usable bytes of the block that starts at `payloadOff`: a live
     * reservation's rounded size, else the committed block's run of
     * granules read from the bitmap.
     * @throws CorruptBlockError if no block starts there;
     *         nvm::MediaFaultError if a bitmap line it reads is
     *         poisoned.
     */
    size_t payloadSize(uint64_t payloadOff) const;

    /**
     * Commit a reservation: set its allocation bits and its start bit
     * and flush them. The caller issues the ordering fence.
     */
    void persistAllocate(uint64_t payloadOff);

    /**
     * Commit a deferred free: clear its allocation and start bits,
     * flush, and return the space to the volatile free map (unless it
     * touches a quarantined range). Caller issues the fence.
     */
    void persistFree(uint64_t payloadOff);

    /**
     * persistFree with the payload size supplied by the caller's
     * intent table — trusts nothing on the media, so a block whose
     * bitmap line went bad can still be freed at commit.
     */
    void persistFree(uint64_t payloadOff, size_t payloadBytes);

    /**
     * Recovery: force a block's allocation bits to `allocated` and
     * its start bit with them. Idempotent; used when replaying or
     * reverting intent logs. The size comes from the caller's intent
     * table — the bitmap itself may have been torn by the crash.
     */
    void revertBits(uint64_t payloadOff, size_t payloadBytes,
                    bool allocated);

    /**
     * Rebuild the volatile free map from the persistent bitmap.
     * Bitmap lines that are poisoned or tainted are quarantined (the
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
     * lines of the bitmap scan on demand; rebuild(true) reconciles at
     * the end. Bounded by metadata size, not pool size.
     */
    void beginLazyRebuild();

    /** Is an armed lazy rebuild still the source of the free map? */
    bool lazyRebuildActive() const;

    /**
     * Pull up to `lines` bitmap lines (256 granules each) of an armed
     * lazy rebuild's bitmap scan into the free map; reserve() pulls
     * 128 at a time on demand. @return true once the scan has
     * consumed the whole bitmap (or no lazy rebuild is armed).
     */
    bool lazyStep(uint64_t lines);

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
     * Persistently quarantine [blockOff, blockOff+bytes): record a
     * table entry, force the allocation bits of every granule it
     * overlaps and set the start bit of the first (so a block ending
     * just before it ends there). Idempotent for an already-covered
     * range.
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
    /** Index of the granule at pool offset `off`. */
    uint64_t granuleOf(uint64_t off) const
    {
        return (off - hdr().dataOff) / kGranule;
    }
    /** Granules of the committed block starting at `off` (bitmap). */
    uint64_t blockGranulesLocked(uint64_t off) const;
    /** What writeBitsLocked does to a granule range. */
    enum class BitOp {
        allocate,    ///< allocation bits set, start bit on the first only
        free,        ///< allocation and start bits cleared
        quarantine,  ///< allocation bits set, start bit set on the first
    };
    /** Apply `op` to granules [firstG, firstG+granules): one
     *  read-modify-write of each half a line holds, one flush per line. */
    void writeBitsLocked(uint64_t firstG, uint64_t granules, BitOp op);
    void insertFreeExtentLocked(uint64_t off, uint64_t len);
    /** insertFreeExtentLocked minus hold/reservation overlaps. */
    void insertFreeRunMaskedLocked(uint64_t off, uint64_t len);
    uint64_t reserveLocked(uint64_t need);
    void healMetaLocked(RebuildStats* st);
    /** Bitmap bytes (whole lines) that administer data granules. */
    uint64_t usedBitmapBytes() const;
    /**
     * The one bitmap scanner behind rebuild() and the lazy steps:
     * consume bitmap bytes [scanCursor_, end) one guarded line at a
     * time — salvaging unreadable ones into `st`, forcing quarantined
     * granules allocated — and insert every free run the allocation
     * bits show, the run still open at `end` included. Start bits do
     * not bound free space and are skipped. Steps 64 granules at a
     * time over all-allocated and all-free words.
     */
    void scanLocked(uint64_t end, RebuildStats* st);
    bool lazyStepLocked(uint64_t lines);
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
    /** block offset -> bytes of live volatile reservations (bits
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
