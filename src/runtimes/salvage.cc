#include "runtimes/salvage.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "alloc/pm_allocator.h"
#include "common/error.h"
#include "common/rand.h"
#include "nvm/fault_model.h"
#include "nvm/pool.h"

namespace cnvm::rt::salvage {

uint64_t
entryChecksum(const LogEntryHeader& h, const uint8_t* data)
{
    uint64_t sum = fnv1a(&h.targetOff, sizeof(h.targetOff));
    sum ^= fnv1a(&h.len, sizeof(h.len));
    sum ^= fnv1a(&h.seqLo, sizeof(h.seqLo));
    sum ^= fnv1a(data, h.len);
    // A zero checksum would look like freshly-zeroed media.
    return sum == 0 ? 1 : sum;
}

uint64_t
beginChecksum(const TxDescriptor& d)
{
    uint64_t sum = fnv1a(&d.txSeq, sizeof(d.txSeq));
    sum ^= fnv1a(&d.fid, sizeof(d.fid));
    sum ^= fnv1a(&d.argLen, sizeof(d.argLen));
    if (d.argLen > 0 && d.argLen <= kMaxArgBytes)
        sum ^= fnv1a(d.args, d.argLen);
    return sum == 0 ? 1 : sum;
}

uint64_t
intentChecksum(uint64_t seq, uint32_t count, const AllocIntent* table)
{
    uint64_t sum = fnv1a(&seq, sizeof(seq));
    sum ^= fnv1a(&count, sizeof(count));
    sum ^= fnv1a(table, count * sizeof(AllocIntent));
    return sum == 0 ? 1 : sum;
}

namespace {

constexpr size_t kNoPos = ~size_t{0};

/** Guarded read probe: false if [p, p+n) is poisoned. */
bool
readable(const nvm::Pool* pool, const void* p, size_t n)
{
    if (pool == nullptr)
        return true;
    try {
        pool->checkRead(p, n);
    } catch (const nvm::MediaFaultError&) {
        return false;
    }
    return true;
}

/**
 * Find the next fully-valid entry of `seqLo` at 8-byte alignment in
 * (from, cap). Because seqLo changes every transaction and a slot's
 * log is append-only within one, a hit proves the stretch between
 * `from` and the hit is mid-log damage rather than a torn tail.
 */
size_t
resync(const nvm::Pool* pool, const uint8_t* area, size_t cap,
       uint32_t seqLo, size_t from)
{
    for (size_t pos = from + 8; pos + sizeof(LogEntryHeader) <= cap;
         pos += 8) {
        if (!readable(pool, area + pos, sizeof(LogEntryHeader)))
            continue;
        LogEntryHeader h;
        std::memcpy(&h, area + pos, sizeof(h));
        if (h.len == 0 || h.seqLo != seqLo)
            continue;
        size_t need = sizeof(LogEntryHeader) + alignUp8(h.len);
        if (pos + need > cap)
            continue;
        const uint8_t* data = area + pos + sizeof(LogEntryHeader);
        if (!readable(pool, data, h.len))
            continue;
        if (entryChecksum(h, data) == h.checksum)
            return pos;
    }
    return kNoPos;
}

}  // namespace

SlotProbe
probeSlot(nvm::Pool& pool, unsigned tid)
{
    constexpr size_t kBeginBytes = offsetof(TxDescriptor, intentSeq);
    constexpr size_t kTableBytes = sizeof(TxDescriptor) - kBeginBytes;
    const auto& d = *static_cast<const TxDescriptor*>(pool.slot(tid));
    SlotProbe p;
    // The begin record (status through the v_log args) first. One that
    // reads back but sits on a flipped line is as untrustworthy as a
    // poisoned one: a flipped status, txSeq or beginSum silently
    // misroutes the whole slot, so nothing else in it is interpreted.
    if (!readable(&pool, &d, kBeginBytes))
        p.damage = "descriptor poisoned";
    else if (pool.isTainted(&d, kBeginBytes))
        p.damage = "descriptor tainted (bit flip)";
    if (p.damage != nullptr) {
        p.cls = txn::SlotClass::damaged;
        return p;
    }
    p.beginValid = d.status != static_cast<uint64_t>(TxStatus::idle) &&
                   d.argLen <= kMaxArgBytes &&
                   beginChecksum(d) == d.beginSum;
    // The intent table carries its own checksum, so its faults do not
    // damage the begin record; the whole table is guarded, whatever
    // its count says.
    if (!readable(&pool, &d.intentSeq, kTableBytes)) {
        p.intents = IntentState::lost;
    } else if (d.intentSeq == d.txSeq && d.intentCount > 0 &&
               d.intentCount <= kMaxIntents) {
        if (intentChecksum(d.intentSeq, d.intentCount, d.intents) ==
            d.intentSum) {
            p.intents = IntentState::live;
        } else if (pool.isTainted(&d.intentSeq, kTableBytes)) {
            // Corrupted, not torn: a torn table fails on clean lines.
            p.intents = IntentState::lost;
        }
    }
    if (d.status == static_cast<uint64_t>(TxStatus::ongoing) &&
        p.beginValid) {
        p.cls = txn::SlotClass::ongoing;
    } else if (d.status ==
               static_cast<uint64_t>(TxStatus::committing)) {
        p.cls = txn::SlotClass::committing;
    } else if (p.intents != IntentState::none) {
        // A lost table needs a heal too: the heal records it.
        p.cls = txn::SlotClass::idleIntents;
    }
    if (p.intents == IntentState::live) {
        // Its blocks' bitmap bits may have torn in the crash.
        for (uint32_t i = 0; i < d.intentCount; i++) {
            const AllocIntent& in = d.intents[i];
            p.holds.push_back(txn::HoldRange{
                tid, in.payloadOff,
                (in.payloadBytes + alloc::kGranule - 1) /
                    alloc::kGranule * alloc::kGranule});
        }
    }
    return p;
}

txn::RecoveryIndex
triagePool(nvm::Pool& pool,
           const std::function<void(unsigned, const SlotProbe&)>& each)
{
    txn::RecoveryIndex idx;
    for (unsigned tid = 0; tid < pool.maxThreads(); tid++) {
        SlotProbe p = probeSlot(pool, tid);
        each(tid, p);
        if (p.cls != txn::SlotClass::clean)
            idx.entries.push_back(txn::IndexEntry{tid, p.cls});
        idx.holds.insert(idx.holds.end(), p.holds.begin(),
                         p.holds.end());
    }
    return idx;
}

void
scanLogArea(const nvm::Pool* pool, const uint8_t* area, size_t cap,
            uint32_t seqLo, std::vector<ScannedEntry>& out,
            ScanStats* stats)
{
    out.clear();
    ScanStats st;
    if (pool != nullptr && pool->faults() == nullptr)
        pool = nullptr;  // no model: skip the guarded-read machinery
    size_t pos = 0;
    auto skipTo = [&](size_t from, bool poison) {
        if (poison)
            st.sawPoison = true;
        size_t nxt = resync(pool, area, cap, seqLo, from);
        if (nxt == kNoPos) {
            // No valid successor. Poison and taint are media damage
            // regardless; an ordinary checksum failure with a clean
            // line is the familiar torn tail.
            if (!poison) {
                if (pool != nullptr &&
                    pool->isTainted(area + from,
                                    sizeof(LogEntryHeader))) {
                    st.sawCorruption = true;
                } else {
                    st.tornTail = true;
                }
            }
            return false;
        }
        st.sawCorruption = true;
        st.droppedEntries++;
        st.droppedBytes += nxt - from;
        pos = nxt;
        return true;
    };
    while (pos + sizeof(LogEntryHeader) <= cap) {
        if (!readable(pool, area + pos, sizeof(LogEntryHeader))) {
            if (!skipTo(pos, /* poison */ true))
                break;
            continue;
        }
        LogEntryHeader h;
        std::memcpy(&h, area + pos, sizeof(h));
        if (h.len == 0 || h.seqLo != seqLo) {
            // Clean-looking stop. On a tainted line it may be a flip
            // that zeroed the length or mangled the sequence — treat
            // as damage and try to carry on past it.
            if (pool != nullptr &&
                pool->isTainted(area + pos, sizeof(LogEntryHeader))) {
                st.sawCorruption = true;
                if (skipTo(pos, false))
                    continue;
            }
            break;
        }
        size_t need = sizeof(LogEntryHeader) + alignUp8(h.len);
        if (pos + need > cap) {
            // Insane length: cannot be a real append (appendLogEntry
            // bounds-checks), so this is damage, not a tail.
            st.sawCorruption = true;
            if (!skipTo(pos, false))
                break;
            continue;
        }
        const uint8_t* data = area + pos + sizeof(LogEntryHeader);
        if (!readable(pool, data, h.len)) {
            // Valid header, poisoned payload: drop just this entry.
            st.sawPoison = true;
            st.droppedEntries++;
            st.droppedBytes += need;
            pos += need;
            continue;
        }
        if (entryChecksum(h, data) != h.checksum) {
            if (!skipTo(pos, false))
                break;
            continue;
        }
        out.push_back(ScannedEntry{h.targetOff, h.len, data});
        st.entries++;
        st.payloadBytes += h.len;
        pos += need;
    }
    st.endPos = pos;
    if (stats != nullptr)
        *stats = st;
}

VerifyResult
verifyPool(nvm::Pool& pool)
{
    VerifyResult r;
    auto problem = [&](std::string s) { r.problems.push_back(std::move(s)); };
    auto note = [&](std::string s) { r.notes.push_back(std::move(s)); };

    const nvm::PoolHeader& h = pool.header();
    uint64_t slotsEnd =
        h.metaOff + static_cast<uint64_t>(h.maxThreads) * h.slotBytes;
    if (h.metaOff < sizeof(nvm::PoolHeader) || slotsEnd > h.heapOff ||
        h.heapOff + h.heapSize > h.size) {
        problem("pool header: slot/heap offsets are inconsistent");
        return r;  // nothing below can be trusted
    }
    if (h.slotBytes < logAreaOffset())
        problem(strprintf("pool header: slotBytes %llu smaller than "
                          "the %zu-byte descriptor",
                          static_cast<unsigned long long>(h.slotBytes),
                          logAreaOffset()));

    // Per-slot descriptors (through the recovery probe) and logs.
    // Only what recovery cannot repair is a problem; a slot it heals
    // is listed in r.pending.
    r.pending = triagePool(pool, [&](unsigned tid, const SlotProbe& p) {
        if (p.damage != nullptr) {
            note(strprintf("slot %u: %s (recovery salvage-resets it)",
                           tid, p.damage));
            return;
        }
        const auto* d = static_cast<const TxDescriptor*>(pool.slot(tid));
        if (d->status > static_cast<uint64_t>(TxStatus::committing)) {
            problem(strprintf("slot %u: unknown status %llu", tid,
                              static_cast<unsigned long long>(
                                  d->status)));
            return;
        }
        bool active = d->status != static_cast<uint64_t>(TxStatus::idle);
        if (active && d->argLen > kMaxArgBytes) {
            problem(strprintf("slot %u: argLen %u out of range", tid,
                              d->argLen));
        } else if (active && !p.beginValid) {
            note(strprintf("slot %u: begin record fails its checksum "
                           "(torn begin)",
                           tid));
        }
        if (d->intentCount > kMaxIntents) {
            problem(strprintf("slot %u: intent count %u out of range",
                              tid, d->intentCount));
        } else if (p.intents == IntentState::live) {
            note(strprintf("slot %u: %u live alloc intents", tid,
                           d->intentCount));
        } else if (p.intents == IntentState::lost) {
            note(strprintf("slot %u: alloc intent table unreadable or "
                           "corrupt (recovery records it lost)",
                           tid));
        } else if (d->intentCount != 0 && d->intentSeq == d->txSeq) {
            note(strprintf("slot %u: torn intent table (cut off before "
                           "its fence; recovery ignores it)",
                           tid));
        }
        const uint8_t* area =
            static_cast<const uint8_t*>(pool.slot(tid)) +
            logAreaOffset();
        size_t cap = h.slotBytes - logAreaOffset();
        std::vector<ScannedEntry> entries;
        ScanStats st;
        scanLogArea(&pool, area, cap,
                    static_cast<uint32_t>(d->txSeq), entries, &st);
        if (st.damaged()) {
            problem(strprintf(
                "slot %u: log damaged (%llu entries salvaged, %llu "
                "dropped, poison=%d)",
                tid, static_cast<unsigned long long>(st.entries),
                static_cast<unsigned long long>(st.droppedEntries),
                st.sawPoison ? 1 : 0));
        } else if (active && st.entries > 0) {
            note(strprintf("slot %u: %llu valid log entries "
                           "(interrupted transaction)",
                           tid,
                           static_cast<unsigned long long>(
                               st.entries)));
        }
    });

    // Allocator metadata: parse raw, never via PmAllocator (whose
    // constructor would *format* a heap with a damaged magic).
    const auto* ah = static_cast<const alloc::AllocHeader*>(
        pool.at(h.heapOff));
    if (!readable(&pool, ah, sizeof(*ah))) {
        problem("heap: allocator header is poisoned");
        return r;
    }
    if (ah->magic != alloc::PmAllocator::kMagic) {
        note("heap: not formatted (no allocator magic)");
        return r;
    }
    uint64_t heapEnd = h.heapOff + h.heapSize;
    if (ah->bitmapOff < h.heapOff || ah->bitmapOff >= heapEnd ||
        ah->bitmapOff + ah->bitmapBytes > heapEnd ||
        ah->dataOff < h.heapOff || ah->dataOff + ah->dataBytes > heapEnd ||
        ah->quarOff < h.heapOff || ah->quarOff >= heapEnd) {
        problem("heap: allocator header offsets out of bounds");
        return r;
    }
    const auto* qt = static_cast<const alloc::QuarantineTable*>(
        pool.at(ah->quarOff));
    if (!readable(&pool, qt, sizeof(*qt))) {
        problem("heap: quarantine table is poisoned");
    } else if (qt->count > alloc::QuarantineTable::kCapacity ||
               alloc::quarantineChecksum(qt->count, qt->entries) !=
                   qt->checksum) {
        problem("heap: quarantine table fails its checksum");
    } else if (qt->count > 0) {
        note(strprintf("heap: %u quarantined ranges", qt->count));
    }

    // Walk the bitmap and check that its two halves agree: a start
    // bit only on an allocated granule, and a start bit leading every
    // allocated run — blocks have no header, so the bitmap alone
    // bounds them. A run that starts inside a quarantined range is
    // exempt (its bits were forced), and an unreadable line reads as
    // rebuild rewrites it: every granule allocated and a block start.
    auto quarantined = [&](uint64_t off) {
        if (qt->count > alloc::QuarantineTable::kCapacity)
            return false;
        for (uint32_t i = 0; i < qt->count; i++) {
            const alloc::QuarantineEntry& e = qt->entries[i];
            if (off >= e.off && off < e.off + e.bytes)
                return true;
        }
        return false;
    };
    uint64_t nGranules = ah->dataBytes / alloc::kGranule;
    if (nGranules > ah->bitmapBytes / alloc::kBitmapLine *
                        alloc::kLineGranules) {
        problem("heap: bitmap too small for the data area");
        return r;
    }
    const auto* bitmap =
        static_cast<const uint8_t*>(pool.at(ah->bitmapOff));
    uint64_t startsOnFree = 0;
    uint64_t runsWithoutStart = 0;
    bool prevAllocated = false;
    bool prevFree = false;
    for (uint64_t g0 = 0; g0 < nGranules; g0 += alloc::kLineGranules) {
        const uint8_t* line = bitmap + g0 / alloc::kLineGranules *
                                           alloc::kBitmapLine;
        bool ok = readable(&pool, line, alloc::kBitmapLine);
        uint64_t n = std::min(alloc::kLineGranules, nGranules - g0);
        for (uint64_t i = 0; i < n; i++) {
            auto bit = static_cast<uint8_t>(1u << (i % 8));
            bool allocated = !ok || (line[i / 8] & bit) != 0;
            bool start =
                !ok || (line[alloc::kStartBitsOff + i / 8] & bit) != 0;
            if (start && !allocated)
                startsOnFree++;
            else if (allocated && !start && !prevAllocated &&
                     !quarantined(ah->dataOff + (g0 + i) *
                                                    alloc::kGranule))
                runsWithoutStart++;
            prevAllocated = allocated;
            // Free space as a rebuild maps it: quarantined granules
            // never count, whatever their bits say.
            bool free = !allocated &&
                        !quarantined(ah->dataOff +
                                     (g0 + i) * alloc::kGranule);
            if (free) {
                r.freeBytes += alloc::kGranule;
                r.freeExtents += prevFree ? 0 : 1;
            }
            prevFree = free;
        }
    }
    r.heapWalked = true;
    if (startsOnFree > 0)
        problem(strprintf("heap: %llu start bits on free granules",
                          static_cast<unsigned long long>(
                              startsOnFree)));
    if (runsWithoutStart > 0)
        problem(strprintf("heap: %llu allocated runs with no start bit",
                          static_cast<unsigned long long>(
                              runsWithoutStart)));
    return r;
}

}  // namespace cnvm::rt::salvage

namespace cnvm::rt {

void
defineFaultRegions(nvm::Pool& pool, const alloc::PmAllocator& heap)
{
    nvm::FaultModel* fm = pool.faults();
    if (fm == nullptr)
        return;
    const nvm::PoolHeader& h = pool.header();
    fm->clearRegions();
    fm->addRegion(nvm::kFaultHeader, 0, h.metaOff);
    for (unsigned tid = 0; tid < h.maxThreads; tid++) {
        uint64_t base = h.metaOff + tid * h.slotBytes;
        fm->addRegion(nvm::kFaultDesc, base, base + logAreaOffset());
        fm->addRegion(nvm::kFaultLog, base + logAreaOffset(),
                      base + h.slotBytes);
    }
    fm->addRegion(nvm::kFaultAllocMeta, h.heapOff, heap.dataOff());
    fm->addRegion(nvm::kFaultHeap, heap.dataOff(),
                  heap.dataOff() + heap.dataBytes());
}

}  // namespace cnvm::rt
