#include "alloc/pm_allocator.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/rand.h"
#include "stats/counters.h"

namespace cnvm::alloc {

namespace {

uint64_t
alignUp(uint64_t v, uint64_t a)
{
    return (v + a - 1) / a * a;
}

}  // namespace

uint64_t
quarantineChecksum(uint32_t count, const QuarantineEntry* entries)
{
    uint64_t sum = fnv1a(&count, sizeof(count));
    sum ^= fnv1a(entries, count * sizeof(QuarantineEntry));
    return sum == 0 ? 1 : sum;
}

AllocHeader
PmAllocator::expectedHeader() const
{
    // The layout is a pure function of the pool geometry — which is
    // what makes the header *healable*: a flipped or poisoned header
    // can be recomputed from scratch (see rebuild()).
    uint64_t heapOff = pool_.heapOff();
    uint64_t heapBytes = pool_.heapSize();
    uint64_t headerEnd = alignUp(heapOff + sizeof(AllocHeader), 64);
    uint64_t quarOff = headerEnd;
    uint64_t bitmapOff = alignUp(quarOff + sizeof(QuarantineTable), 64);
    uint64_t avail = heapBytes - (bitmapOff - heapOff);
    // Each 64-byte bitmap line administers 256 granules = 4 KiB of
    // data: one bitmap byte per 64 data bytes.
    uint64_t bitmapBytes = alignUp(avail / 65 + 1, kBitmapLine);
    uint64_t dataOff = alignUp(bitmapOff + bitmapBytes, kGranule);
    CNVM_CHECK(dataOff < heapOff + heapBytes,
               "heap too small to format");
    uint64_t dataBytes =
        (heapOff + heapBytes - dataOff) / kGranule * kGranule;
    CNVM_CHECK(dataBytes / kGranule <=
                   bitmapBytes / kBitmapLine * kLineGranules,
               "bitmap sizing bug");
    AllocHeader h{};
    h.magic = kMagic;
    h.bitmapOff = bitmapOff;
    h.bitmapBytes = bitmapBytes;
    h.dataOff = dataOff;
    h.dataBytes = dataBytes;
    h.quarOff = quarOff;
    return h;
}

PmAllocator::PmAllocator(nvm::Pool& pool, bool deferRebuild)
    : pool_(pool)
{
    auto* h = static_cast<AllocHeader*>(pool_.at(pool_.heapOff()));
    if (h->magic != kMagic) {
        // Format a fresh heap region. The bitmap and quarantine table
        // must be durable before the header declares the heap
        // formatted. A fresh pool is already zero, so zeroRange writes
        // only what a recycled (or faulty) region needs.
        AllocHeader newHdr = expectedHeader();
        pool_.zeroRange(newHdr.bitmapOff, newHdr.bitmapBytes);
        QuarantineTable qt{};
        qt.checksum = quarantineChecksum(0, qt.entries);
        pool_.writeAt(newHdr.quarOff, &qt, sizeof(qt));
        pool_.flush(pool_.at(newHdr.quarOff), sizeof(qt));
        pool_.fence();
        pool_.writeAt(pool_.heapOff(), &newHdr, sizeof(newHdr));
        pool_.persist(h, sizeof(*h));
    }
    if (deferRebuild)
        beginLazyRebuild();
    else
        rebuild();
}

QuarantineTable*
PmAllocator::quarTable() const
{
    return static_cast<QuarantineTable*>(pool_.at(hdr().quarOff));
}

const AllocHeader&
PmAllocator::hdr() const
{
    return *static_cast<const AllocHeader*>(pool_.at(pool_.heapOff()));
}

uint64_t
PmAllocator::blockGranulesLocked(uint64_t off) const
{
    const AllocHeader& h = hdr();
    uint64_t nGranules = h.dataBytes / kGranule;
    uint64_t g = (off - h.dataOff) / kGranule;
    // One guarded copy per line: allocation words 0-3, start words 4-7.
    uint64_t words[kBitmapLine / 8];
    uint64_t loaded = ~0ULL;
    auto load = [&](uint64_t line) {
        if (line == loaded)
            return;
        const void* src = pool_.at(h.bitmapOff + line * kBitmapLine);
        pool_.checkRead(src, kBitmapLine);
        std::memcpy(words, src, kBitmapLine);
        loaded = line;
    };
    if (off < h.dataOff || (off - h.dataOff) % kGranule != 0 ||
        g >= nGranules) {
        throw CorruptBlockError(
            off, strprintf("pool offset %llu is not a heap granule",
                           static_cast<unsigned long long>(off)));
    }
    load(g / kLineGranules);
    unsigned w = static_cast<unsigned>(g % kLineGranules / 64);
    uint64_t bit = uint64_t{1} << (g % 64);
    if ((words[w] & words[w + 4] & bit) == 0) {
        throw CorruptBlockError(
            off, strprintf("no heap block starts at pool offset %llu",
                           static_cast<unsigned long long>(off)));
    }
    // The block runs up to the next free granule or start bit; step a
    // word at a time.
    uint64_t end = g + 1;
    while (end < nGranules) {
        load(end / kLineGranules);
        w = static_cast<unsigned>(end % kLineGranules / 64);
        uint64_t stop = (~words[w] | words[w + 4]) >> (end % 64);
        if (stop != 0) {
            end += static_cast<uint64_t>(std::countr_zero(stop));
            break;
        }
        end += 64 - end % 64;
    }
    return std::min(end, nGranules) - g;
}

size_t
PmAllocator::payloadSize(uint64_t payloadOff) const
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = reserved_.find(payloadOff);
    if (it != reserved_.end())
        return it->second;
    return blockGranulesLocked(payloadOff) * kGranule;
}

void
PmAllocator::insertFreeExtentLocked(uint64_t off, uint64_t len)
{
    // Coalesce with the predecessor / successor extents.
    auto next = free_.lower_bound(off);
    if (next != free_.begin()) {
        auto prev = std::prev(next);
        if (prev->first + prev->second == off) {
            off = prev->first;
            len += prev->second;
            auto range = bySize_.equal_range(prev->second);
            for (auto it = range.first; it != range.second; ++it) {
                if (it->second == prev->first) {
                    bySize_.erase(it);
                    break;
                }
            }
            free_.erase(prev);
        }
    }
    if (next != free_.end() && off + len == next->first) {
        len += next->second;
        auto range = bySize_.equal_range(next->second);
        for (auto it = range.first; it != range.second; ++it) {
            if (it->second == next->first) {
                bySize_.erase(it);
                break;
            }
        }
        free_.erase(next);
    }
    free_[off] = len;
    bySize_.emplace(len, off);
}

void
PmAllocator::insertFreeRunMaskedLocked(uint64_t off, uint64_t len)
{
    if (holds_.empty() && reserved_.empty()) {
        insertFreeExtentLocked(off, len);
        return;
    }
    // Collect every hold / live-reservation range overlapping the run,
    // then insert only the gaps between them.
    std::vector<std::pair<uint64_t, uint64_t>> masks;
    for (const Hold& hd : holds_) {
        if (hd.off < off + len && off < hd.off + hd.bytes)
            masks.emplace_back(hd.off, hd.off + hd.bytes);
    }
    auto it = reserved_.lower_bound(off);
    if (it != reserved_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second > off)
            masks.emplace_back(prev->first,
                               prev->first + prev->second);
    }
    for (; it != reserved_.end() && it->first < off + len; ++it)
        masks.emplace_back(it->first, it->first + it->second);
    if (masks.empty()) {
        insertFreeExtentLocked(off, len);
        return;
    }
    std::sort(masks.begin(), masks.end());
    uint64_t cur = off;
    for (auto [lo, hi] : masks) {
        lo = std::max(lo, off);
        hi = std::min(hi, off + len);
        if (lo > cur)
            insertFreeExtentLocked(cur, lo - cur);
        cur = std::max(cur, hi);
    }
    if (cur < off + len)
        insertFreeExtentLocked(cur, off + len - cur);
}

uint64_t
PmAllocator::reserveLocked(uint64_t need)
{
    auto it = bySize_.lower_bound(need);
    if (it == bySize_.end())
        return 0;
    uint64_t off = it->second;
    uint64_t len = it->first;
    bySize_.erase(it);
    free_.erase(off);
    if (len > need)
        insertFreeExtentLocked(off + need, len - need);
    return off;
}

uint64_t
PmAllocator::reserve(size_t payload)
{
    uint64_t need = alignUp(std::max<uint64_t>(payload, 1), kGranule);
    uint64_t off;
    {
        std::lock_guard<std::mutex> g(mu_);
        off = reserveLocked(need);
        // During a lazy rebuild the free map only covers the scanned
        // prefix of the bitmap: pull more of the scan before declaring
        // the heap exhausted. 128 lines = 8 KiB of bitmap = 512 KiB of
        // data per pull keeps the stall bounded.
        while (off == 0 && lazyActive_ && !lazyScanDone_) {
            lazyStepLocked(128);
            off = reserveLocked(need);
        }
        if (off != 0)
            reserved_[off] = need;
        mapFresh_ = false;
    }
    if (off == 0)
        fatal("persistent heap exhausted");
    stats::bump(stats::Counter::allocs);
    return off;
}

void
PmAllocator::releaseReservation(uint64_t payloadOff)
{
    std::lock_guard<std::mutex> g(mu_);
    // A fresh-process rebuild since the reserve already counted the
    // block's (never set) bits as free space.
    auto it = reserved_.find(payloadOff);
    if (it == reserved_.end())
        return;
    uint64_t len = it->second;
    reserved_.erase(it);
    insertFreeExtentLocked(payloadOff, len);
}

void
PmAllocator::writeBitsLocked(uint64_t firstG, uint64_t granules,
                             BitOp op)
{
    mapFresh_ = false;
    const AllocHeader& h = hdr();
    uint64_t endG = firstG + granules;
    bool allocated = op != BitOp::free;
    for (uint64_t g = firstG; g < endG;) {
        uint64_t line = g / kLineGranules;
        uint64_t lo = g % kLineGranules;
        uint64_t hi = std::min(endG - line * kLineGranules, kLineGranules);
        auto* p = static_cast<uint8_t*>(
            pool_.at(h.bitmapOff + line * kBitmapLine));
        uint8_t buf[kBitmapLine];
        std::memcpy(buf, p, sizeof(buf));
        for (uint64_t i = lo; i < hi; i++) {
            auto bit = static_cast<uint8_t>(1u << (i % 8));
            uint8_t& a = buf[i / 8];
            uint8_t& s = buf[kStartBitsOff + i / 8];
            a = allocated ? a | bit : a & static_cast<uint8_t>(~bit);
            bool first = line * kLineGranules + i == firstG;
            if (first && allocated)
                s |= bit;
            else if (op != BitOp::quarantine)
                s &= static_cast<uint8_t>(~bit);
        }
        // Only the bytes of the range change: write them per half (a
        // quarantine touches one start byte, in its first line only),
        // then flush the line once.
        uint64_t b0 = lo / 8;
        uint64_t n = (hi - 1) / 8 + 1 - b0;
        pool_.write(p + b0, buf + b0, n);
        if (op != BitOp::quarantine)
            pool_.write(p + kStartBitsOff + b0, buf + kStartBitsOff + b0,
                        n);
        else if (g == firstG)
            pool_.write(p + kStartBitsOff + b0, buf + kStartBitsOff + b0,
                        1);
        pool_.flush(p + b0, kStartBitsOff + n);
        g = line * kLineGranules + hi;
    }
}

void
PmAllocator::persistAllocate(uint64_t payloadOff)
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = reserved_.find(payloadOff);
    CNVM_CHECK(it != reserved_.end(),
               "persistAllocate of an offset with no live reservation");
    writeBitsLocked(granuleOf(payloadOff),
                    it->second / kGranule, BitOp::allocate);
    reserved_.erase(it);  // the bitmap speaks for the block now
}

void
PmAllocator::persistFree(uint64_t payloadOff)
{
    persistFree(payloadOff, payloadSize(payloadOff));
}

void
PmAllocator::persistFree(uint64_t payloadOff, size_t payloadBytes)
{
    uint64_t len = alignUp(payloadBytes, kGranule);
    std::lock_guard<std::mutex> g(mu_);
    writeBitsLocked(granuleOf(payloadOff),
                    len / kGranule, BitOp::free);
    // Mid-lazy-rebuild, a range the scan has not reached yet must not
    // enter the free map twice: the cleared bits make the ongoing scan
    // (or the final reconcile) insert it exactly once. A block that
    // touches a quarantined range stays out of it for good.
    if (scannedLocked(payloadOff, len / kGranule) &&
        !isQuarantinedLocked(payloadOff, len))
        insertFreeExtentLocked(payloadOff, len);
    stats::bump(stats::Counter::frees);
}

void
PmAllocator::revertBits(uint64_t payloadOff, size_t payloadBytes,
                        bool allocated)
{
    uint64_t len = alignUp(payloadBytes, kGranule);
    std::lock_guard<std::mutex> g(mu_);
    if (allocated && lazyActive_) {
        // Lazy recovery heals concurrently with foreground traffic: a
        // block the crashed transaction allocated (and committed) may
        // since have been freed again by a committed foreground
        // transaction. Its free-map extent is the evidence — don't
        // re-force such a block allocated, or the free would leak.
        auto it = free_.upper_bound(payloadOff);
        if (it != free_.begin()) {
            auto prev = std::prev(it);
            if (prev->first <= payloadOff &&
                payloadOff + len <= prev->first + prev->second)
                return;
        }
    }
    writeBitsLocked(granuleOf(payloadOff),
                    len / kGranule,
                    allocated ? BitOp::allocate : BitOp::free);
}

void
PmAllocator::quarantineLocked(uint64_t off, uint64_t bytes,
                              QuarantineReason reason)
{
    QuarantineTable* qt = quarTable();
    // Idempotent: an already-covered range gets no second entry (the
    // bits below are re-forced anyway).
    bool covered = false;
    for (uint32_t i = 0; i < qt->count; i++) {
        const QuarantineEntry& e = qt->entries[i];
        if (e.off <= off && off + bytes <= e.off + e.bytes) {
            covered = true;
            break;
        }
    }
    if (!covered && qt->count < QuarantineTable::kCapacity) {
        QuarantineEntry e{};
        e.off = off;
        e.bytes = bytes;
        e.reason = reason;
        uint32_t count = qt->count + 1;
        pool_.write(&qt->entries[qt->count], &e, sizeof(e));
        pool_.write(&qt->count, &count, sizeof(count));
        uint64_t sum = quarantineChecksum(count, qt->entries);
        pool_.write(&qt->checksum, &sum, sizeof(sum));
        pool_.flush(qt, sizeof(QuarantineTable));
        pool_.fence();
        stats::bump(stats::Counter::quarantinedBlocks);
        stats::bump(stats::Counter::quarantinedBytes, bytes);
    }
    // Force every granule the range overlaps allocated so no future
    // rebuild can hand it out. The range is clipped to the data area
    // (a bitmap line's tail can administer granules past dataBytes).
    uint64_t d = hdr().dataOff;
    uint64_t lo = std::max(off, d);
    uint64_t hi = std::min(off + bytes, d + hdr().dataBytes);
    if (lo < hi) {
        uint64_t firstG = (lo - d) / kGranule;
        uint64_t endG = (hi - d + kGranule - 1) / kGranule;
        writeBitsLocked(firstG, endG - firstG, BitOp::quarantine);
    }
}

void
PmAllocator::quarantine(uint64_t blockOff, uint64_t bytes,
                        QuarantineReason reason)
{
    std::lock_guard<std::mutex> g(mu_);
    quarantineLocked(blockOff, bytes, reason);
    pool_.fence();
}

bool
PmAllocator::isQuarantinedLocked(uint64_t off, uint64_t n) const
{
    const QuarantineTable* qt = quarTable();
    for (uint32_t i = 0; i < qt->count; i++) {
        const QuarantineEntry& e = qt->entries[i];
        if (off < e.off + e.bytes && e.off < off + n)
            return true;
    }
    return false;
}

bool
PmAllocator::isQuarantined(uint64_t off, uint64_t n) const
{
    std::lock_guard<std::mutex> g(mu_);
    return isQuarantinedLocked(off, n);
}

uint32_t
PmAllocator::quarantineCount() const
{
    std::lock_guard<std::mutex> g(mu_);
    return quarTable()->count;
}

uint64_t
PmAllocator::quarantinedBytes() const
{
    std::lock_guard<std::mutex> g(mu_);
    const QuarantineTable* qt = quarTable();
    uint64_t sum = 0;
    for (uint32_t i = 0; i < qt->count; i++)
        sum += qt->entries[i].bytes;
    return sum;
}

bool
PmAllocator::quarantineViolation() const
{
    std::lock_guard<std::mutex> g(mu_);
    const QuarantineTable* qt = quarTable();
    for (uint32_t i = 0; i < qt->count; i++) {
        const QuarantineEntry& e = qt->entries[i];
        for (const auto& [off, len] : free_) {
            if (off < e.off + e.bytes && e.off < off + len)
                return true;
        }
    }
    return false;
}

void
PmAllocator::healMetaLocked(RebuildStats* st)
{
    // Heal the header before trusting a single offset below: its
    // layout fields are recomputable, so a flipped, poisoned or
    // simply wrong header is rewritten in place (the rewrite also
    // clears the line's poison/taint).
    {
        AllocHeader want = expectedHeader();
        auto* cur =
            static_cast<AllocHeader*>(pool_.at(pool_.heapOff()));
        bool bad = pool_.isTainted(cur, sizeof(*cur));
        if (!bad) {
            try {
                pool_.checkRead(cur, sizeof(*cur));
            } catch (const nvm::MediaFaultError&) {
                bad = true;
            }
        }
        if (!bad && std::memcmp(cur, &want, sizeof(want)) != 0)
            bad = true;
        if (bad) {
            pool_.writeAt(pool_.heapOff(), &want, sizeof(want));
            pool_.persist(pool_.at(pool_.heapOff()), sizeof(want));
            st->headerHealed = true;
        }
    }
    const AllocHeader& h = hdr();

    // Validate the quarantine table before trusting it. An unreadable
    // or checksum-failing table is reset: the ranges it described
    // still have their bitmap bits forced allocated (quarantine does
    // both), so nothing resurfaces — only the diagnostic record is
    // lost.
    QuarantineTable* qt = quarTable();
    bool tableOk = true;
    try {
        pool_.checkRead(qt, sizeof(QuarantineTable));
    } catch (const nvm::MediaFaultError&) {
        tableOk = false;
    }
    if (tableOk && (qt->count > QuarantineTable::kCapacity ||
                    quarantineChecksum(qt->count, qt->entries) !=
                        qt->checksum)) {
        tableOk = false;
    }
    if (!tableOk) {
        QuarantineTable fresh{};
        fresh.checksum = quarantineChecksum(0, fresh.entries);
        pool_.writeAt(h.quarOff, &fresh, sizeof(fresh));
        pool_.persist(pool_.at(h.quarOff), sizeof(fresh));
        st->quarantineTableReset = true;
    }
}

uint64_t
PmAllocator::usedBitmapBytes() const
{
    uint64_t nGranules = hdr().dataBytes / kGranule;
    return (nGranules + kLineGranules - 1) / kLineGranules * kBitmapLine;
}

namespace {

/** Set granule bits [from, to) of a line's local word copy. */
void
setLocalBits(uint64_t* words, uint64_t from, uint64_t to)
{
    while (from < to) {
        uint64_t bit = from % 64;
        uint64_t span = std::min<uint64_t>(64 - bit, to - from);
        words[from / 64] |=
            span == 64 ? ~0ULL : ((uint64_t{1} << span) - 1) << bit;
        from += span;
    }
}

}  // namespace

void
PmAllocator::scanLocked(uint64_t end, RebuildStats* st)
{
    const AllocHeader& h = hdr();
    uint64_t nGranules = h.dataBytes / kGranule;
    const QuarantineTable* qt = quarTable();
    bool wroteBits = false;
    uint64_t runStartG = 0;
    bool inRun = false;
    auto closeRun = [&](uint64_t endG) {
        insertFreeRunMaskedLocked(h.dataOff + runStartG * kGranule,
                                  (endG - runStartG) * kGranule);
        inRun = false;
    };

    while (scanCursor_ < end) {
        uint64_t c = scanCursor_;
        scanCursor_ += kBitmapLine;
        uint64_t firstG = c / kBitmapLine * kLineGranules;
        uint64_t lastG = std::min(firstG + kLineGranules, nGranules);
        const void* src = pool_.at(h.bitmapOff + c);
        // Allocation words 0-3; the start words 4-7 are read with them
        // but free runs are a matter of allocation bits alone.
        uint64_t words[kBitmapLine / 8];
        std::memset(words, 0xff, sizeof(words));
        bool bad = pool_.isTainted(src, kBitmapLine);
        if (!bad) {
            try {
                pool_.checkRead(src, kBitmapLine);
            } catch (const nvm::MediaFaultError&) {
                bad = true;
            }
        }
        if (!bad) {
            std::memcpy(words, src, kBitmapLine);
        } else {
            // A line that cannot be read (poison) or was bit-flipped
            // (taint) cannot tell its allocated granules from its free
            // ones: the whole 4 KiB it administers is quarantined, the
            // line rewritten all-ones (which also heals it: every
            // granule allocated and a block start, so a block running
            // in from the previous line ends at the line) and none of
            // it enters the free map.
            uint64_t bytes = (lastG - firstG) * kGranule;
            pool_.writeAt(h.bitmapOff + c, words, kBitmapLine);
            pool_.flush(src, kBitmapLine);
            wroteBits = true;
            quarantineLocked(h.dataOff + firstG * kGranule, bytes,
                             kQuarPoisonedBitmap);
            st->poisonedChunks++;
            st->quarantinedBlocks++;
            st->quarantinedBytes += bytes;
        }
        // Granules past the data area and quarantined ranges read as
        // allocated: quarantined granules never re-enter the free map,
        // even if their persistent bits were somehow cleared since.
        setLocalBits(words, lastG - firstG, kLineGranules);
        uint32_t quarCount =
            std::min(qt->count, QuarantineTable::kCapacity);
        for (uint32_t i = 0; i < quarCount; i++) {
            const QuarantineEntry& e = qt->entries[i];
            uint64_t lo = std::max(e.off, h.dataOff + firstG * kGranule);
            uint64_t hi =
                std::min(e.off + e.bytes, h.dataOff + lastG * kGranule);
            if (lo < hi) {
                setLocalBits(words, (lo - h.dataOff) / kGranule - firstG,
                             (hi - h.dataOff + kGranule - 1) / kGranule -
                                 firstG);
            }
        }
        // Step a word (64 granules) at a time over all-allocated and
        // all-free words; only mixed words walk their bit transitions.
        for (uint64_t k = 0; k < kLineGranules / 64; k++) {
            uint64_t w = words[k];
            uint64_t g0 = firstG + k * 64;
            if (w == ~0ULL) {
                if (inRun)
                    closeRun(g0);
                continue;
            }
            if (w == 0) {
                if (!inRun) {
                    runStartG = g0;
                    inRun = true;
                }
                continue;
            }
            for (unsigned bit = 0; bit < 64;) {
                uint64_t rest = (inRun ? w : ~w) >> bit;
                if (rest == 0)
                    break;
                bit += static_cast<unsigned>(std::countr_zero(rest));
                if (inRun) {
                    closeRun(g0 + bit);
                } else {
                    runStartG = g0 + bit;
                    inRun = true;
                }
            }
        }
    }
    // Flush the still-open free run up to the cursor: on a mostly
    // empty pool the tail is one huge run that would otherwise only
    // become allocatable once a lazy scan reaches the very end —
    // turning the first post-crash reserve() into a full-bitmap scan.
    // The continuation run of the next step coalesces with this
    // extent in insertFreeExtentLocked, so no fragmentation survives.
    if (inRun)
        closeRun(std::min(scanCursor_ / kBitmapLine * kLineGranules,
                          nGranules));
    if (wroteBits)
        pool_.fence();
}

RebuildStats
PmAllocator::rebuild(bool keepSession)
{
    RebuildStats st{};
    std::lock_guard<std::mutex> g(mu_);
    // Nothing the scan reads changed since the last fresh-process
    // rebuild (no bitmap write, reservation or hold, no crash or media
    // fault): its free map is what a second scan would produce.
    if (!keepSession && mapFresh_ && pool_.mediaEvents() == mapEvents_)
        return st;
    free_.clear();
    bySize_.clear();
    if (!keepSession) {
        // Fresh-process recovery: pre-crash reservations and holds are
        // dead volatile state of the previous execution.
        reserved_.clear();
        holds_.clear();
    }

    healMetaLocked(&st);
    scanCursor_ = 0;
    scanLocked(usedBitmapBytes(), &st);

    // A full rebuild supersedes any lazy session: fold its salvage
    // into this pass's stats and close it.
    if (lazyActive_) {
        st.quarantinedBlocks += lazyStats_.quarantinedBlocks;
        st.quarantinedBytes += lazyStats_.quarantinedBytes;
        st.poisonedChunks += lazyStats_.poisonedChunks;
        st.quarantineTableReset =
            st.quarantineTableReset || lazyStats_.quarantineTableReset;
        st.headerHealed = st.headerHealed || lazyStats_.headerHealed;
        lazyStats_ = RebuildStats{};
        lazyActive_ = false;
        lazyScanDone_ = true;
    }
    mapFresh_ = !keepSession;
    mapEvents_ = pool_.mediaEvents();
    return st;
}

void
PmAllocator::beginLazyRebuild()
{
    std::lock_guard<std::mutex> g(mu_);
    free_.clear();
    bySize_.clear();
    reserved_.clear();
    holds_.clear();
    mapFresh_ = false;
    lazyStats_ = RebuildStats{};
    healMetaLocked(&lazyStats_);
    lazyActive_ = true;
    lazyScanDone_ = false;
    scanCursor_ = 0;
}

bool
PmAllocator::lazyRebuildActive() const
{
    std::lock_guard<std::mutex> g(mu_);
    return lazyActive_;
}

bool
PmAllocator::lazyStep(uint64_t lines)
{
    std::lock_guard<std::mutex> g(mu_);
    return !lazyActive_ || lazyStepLocked(lines);
}

bool
PmAllocator::scannedLocked(uint64_t bOff, uint64_t granules) const
{
    if (!lazyActive_ || lazyScanDone_)
        return true;
    const AllocHeader& h = hdr();
    uint64_t lastG = (bOff - h.dataOff) / kGranule + granules - 1;
    return lastG / kLineGranules * kBitmapLine < scanCursor_;
}

bool
PmAllocator::lazyStepLocked(uint64_t lines)
{
    uint64_t used = usedBitmapBytes();
    scanLocked(std::min(used, scanCursor_ + lines * kBitmapLine),
               &lazyStats_);
    if (scanCursor_ >= used)
        lazyScanDone_ = true;
    return lazyScanDone_;
}

void
PmAllocator::addHold(unsigned tid, uint64_t off, uint64_t bytes)
{
    std::lock_guard<std::mutex> g(mu_);
    holds_.push_back({tid, off, bytes});
    mapFresh_ = false;
}

void
PmAllocator::releaseHolds(unsigned tid)
{
    std::lock_guard<std::mutex> g(mu_);
    holds_.erase(std::remove_if(holds_.begin(), holds_.end(),
                                [&](const Hold& hd) {
                                    return hd.tid == tid;
                                }),
                 holds_.end());
}

size_t
PmAllocator::holdCount() const
{
    std::lock_guard<std::mutex> g(mu_);
    return holds_.size();
}

size_t
PmAllocator::freeBytes() const
{
    std::lock_guard<std::mutex> g(mu_);
    size_t sum = 0;
    for (const auto& [off, len] : free_)
        sum += len;
    return sum;
}

size_t
PmAllocator::freeExtents() const
{
    std::lock_guard<std::mutex> g(mu_);
    return free_.size();
}

std::map<uint64_t, uint64_t>
PmAllocator::freeMap() const
{
    std::lock_guard<std::mutex> g(mu_);
    return free_;
}

}  // namespace cnvm::alloc
