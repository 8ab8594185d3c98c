/**
 * @file
 * cnvm_inspect: offline pool inspector.
 *
 * Default mode prints a pool file's header, the state of every
 * per-thread transaction descriptor (status, sequence number, v_log
 * payload, intent table validity, pending log entries), and heap
 * statistics — without mutating anything. Useful for debugging
 * recovery issues and for verifying what survived a crash.
 *
 * `verify` mode walks the whole pool through the salvage scanner
 * (rt::salvage::verifyPool): header bounds, per-slot descriptor and
 * log checksums, allocator metadata, quarantine table and the
 * agreement of the bitmap's start and allocation bits, printing every
 * integrity violation it finds. It then
 * reports the pending-recovery state per region — the same read-only
 * classification recoveryTriage() computes: which slots a lazy
 * restart would leave pending (and why), and which heap ranges it
 * would pin until the owning slot heals. Exit status: 0 clean,
 * 1 problems found, 2 usage / unreadable pool.
 *
 * Usage:
 *   cnvm_inspect <pool-file>
 *   cnvm_inspect verify <pool-file>
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/pm_allocator.h"
#include "nvm/pool.h"
#include "runtimes/descriptor.h"
#include "runtimes/salvage.h"
#include "txn/registry.h"

using namespace cnvm;

namespace {

const char*
statusName(uint64_t s)
{
    switch (static_cast<rt::TxStatus>(s)) {
      case rt::TxStatus::idle: return "idle";
      case rt::TxStatus::ongoing: return "ONGOING";
      case rt::TxStatus::committing: return "COMMITTING";
    }
    return "corrupt";
}

/**
 * Read-only mirror of RuntimeBase::recoveryTriage()'s classification:
 * what a lazy restart would leave pending per slot, and which heap
 * ranges it would pin (holds) until the owning slot heals. Uses the
 * same media guards as triage (checkRead + isTainted over the begin
 * record, the guarded intent-table probe) and, like triage, never
 * writes to the pool.
 */
void
reportPendingRecovery(nvm::Pool& pool)
{
    constexpr size_t beginBytes = offsetof(rt::TxDescriptor, intentSeq);
    constexpr size_t tableBytes =
        sizeof(rt::TxDescriptor) - offsetof(rt::TxDescriptor, intentSeq);
    unsigned pending = 0;
    unsigned holdRanges = 0;
    uint64_t holdBytes = 0;
    for (unsigned tid = 0; tid < pool.maxThreads(); tid++) {
        const auto& d =
            *static_cast<const rt::TxDescriptor*>(pool.slot(tid));
        bool damaged = pool.isTainted(&d, beginBytes);
        if (!damaged) {
            try {
                pool.checkRead(&d, beginBytes);
            } catch (const nvm::MediaFaultError&) {
                damaged = true;
            }
        }
        // Guarded intent-table probe (liveIntentsGuarded): 1 = live
        // table, -1 = unreadable/corrupt (heal records it as lost),
        // 0 = nothing there.
        int intents = 0;
        bool live = d.intentSeq == d.txSeq && d.intentCount > 0 &&
                    d.intentCount <= rt::kMaxIntents;
        try {
            pool.checkRead(&d.intentSeq, tableBytes);
            if (live &&
                rt::salvage::intentChecksum(d.intentSeq, d.intentCount,
                                            d.intents) == d.intentSum)
                intents = 1;
            else if (live && pool.isTainted(&d.intentSeq, tableBytes))
                intents = -1;
        } catch (const nvm::MediaFaultError&) {
            intents = -1;
        }

        const char* cls = nullptr;
        if (damaged) {
            cls = "damaged descriptor (heal aborts + quarantines)";
        } else if (d.status ==
                       static_cast<uint64_t>(rt::TxStatus::ongoing) &&
                   d.argLen <= rt::kMaxArgBytes &&
                   rt::salvage::beginChecksum(d) == d.beginSum) {
            cls = "interrupted transaction (heal rolls back or "
                  "re-executes)";
        } else if (d.status == static_cast<uint64_t>(
                                   rt::TxStatus::committing)) {
            cls = "interrupted commit (heal completes it)";
        } else if (intents != 0) {
            cls = intents > 0
                      ? "idle slot with live intent table (heal "
                        "settles the allocations)"
                      : "idle slot with corrupt intent table (heal "
                        "records the allocations as lost)";
        }
        if (cls == nullptr)
            continue;
        pending++;
        std::printf("pending: slot %u seq=%llu: %s\n", tid,
                    static_cast<unsigned long long>(d.txSeq), cls);
        if (!damaged && intents == 1) {
            for (uint32_t i = 0; i < d.intentCount; i++) {
                const rt::AllocIntent& in = d.intents[i];
                uint64_t off = in.payloadOff;
                uint64_t bytes =
                    (in.payloadBytes + alloc::kGranule - 1) /
                    alloc::kGranule * alloc::kGranule;
                std::printf("pending:   hold [%llu, +%llu) until "
                            "slot %u heals\n",
                            static_cast<unsigned long long>(off),
                            static_cast<unsigned long long>(bytes),
                            tid);
                holdRanges++;
                holdBytes += bytes;
            }
        }
    }
    if (pending == 0) {
        std::printf("recovery: no slot pending — a lazy restart "
                    "admits transactions with nothing to heal\n");
        return;
    }
    std::printf("recovery: %u slot(s) pending", pending);
    if (holdRanges > 0)
        std::printf(", %u heap range(s) / %llu B pinned until their "
                    "slots heal",
                    holdRanges,
                    static_cast<unsigned long long>(holdBytes));
    std::printf("; a lazy restart admits transactions after triage "
                "and heals these on first touch\n");
}

int
verifyMain(const char* path)
{
    std::unique_ptr<nvm::Pool> pool;
    try {
        pool = nvm::Pool::open(path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    rt::salvage::VerifyResult r = rt::salvage::verifyPool(*pool);
    for (const std::string& n : r.notes)
        std::printf("note:    %s\n", n.c_str());
    for (const std::string& p : r.problems)
        std::printf("PROBLEM: %s\n", p.c_str());
    reportPendingRecovery(*pool);
    std::printf("%s: %zu problem(s), %zu note(s)\n",
                r.ok() ? "CLEAN" : "CORRUPT", r.problems.size(),
                r.notes.size());
    return r.ok() ? 0 : 1;
}

int
inspectMain(const char* path)
{
    std::unique_ptr<nvm::Pool> pool;
    try {
        pool = nvm::Pool::open(path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    const auto& h = pool->header();
    std::printf("pool %s\n", path);
    std::printf("  size        %llu MiB\n",
                static_cast<unsigned long long>(h.size >> 20));
    std::printf("  root        offset %llu%s\n",
                static_cast<unsigned long long>(h.rootOff),
                h.rootOff == 0 ? " (unset)" : "");
    std::printf("  aux         offset %llu\n",
                static_cast<unsigned long long>(h.auxOff));
    std::printf("  slots       %u x %llu KiB\n", h.maxThreads,
                static_cast<unsigned long long>(h.slotBytes >> 10));
    std::printf("  heap        offset %llu, %llu MiB\n",
                static_cast<unsigned long long>(h.heapOff),
                static_cast<unsigned long long>(h.heapSize >> 20));

    unsigned interrupted = 0;
    for (unsigned tid = 0; tid < pool->maxThreads(); tid++) {
        const auto& d =
            *static_cast<const rt::TxDescriptor*>(pool->slot(tid));
        bool interesting =
            d.status != static_cast<uint64_t>(rt::TxStatus::idle) ||
            (d.intentCount > 0 && d.intentSeq == d.txSeq);
        if (!interesting && d.txSeq == 0)
            continue;  // slot never used
        // The media-aware scanner reports damaged stretches instead
        // of silently truncating at the first bad entry.
        const auto* area =
            static_cast<const uint8_t*>(pool->slot(tid)) +
            rt::logAreaOffset();
        size_t cap = pool->slotBytes() - rt::logAreaOffset();
        std::vector<rt::ScannedEntry> entries;
        rt::salvage::ScanStats st;
        rt::salvage::scanLogArea(nullptr, area, cap,
                                 static_cast<uint32_t>(d.txSeq),
                                 entries, &st);
        std::printf("slot %-2u %-10s seq=%llu", tid,
                    statusName(d.status),
                    static_cast<unsigned long long>(d.txSeq));
        if (d.status ==
            static_cast<uint64_t>(rt::TxStatus::ongoing)) {
            interrupted++;
            bool valid = rt::salvage::beginChecksum(d) == d.beginSum;
            std::printf(" begin=%s fid=0x%08x (%s) args=%uB",
                        valid ? "valid" : "TORN", d.fid,
                        txn::txFuncName(d.fid), d.argLen);
        }
        std::printf(" log: %llu entries / %llu B",
                    static_cast<unsigned long long>(st.entries),
                    static_cast<unsigned long long>(st.payloadBytes));
        if (st.damaged()) {
            std::printf(" [DAMAGED: %llu entries dropped]",
                        static_cast<unsigned long long>(
                            st.droppedEntries));
        }
        if (d.intentCount > 0 && d.intentSeq == d.txSeq) {
            bool ok = d.intentCount <= rt::kMaxIntents &&
                      rt::salvage::intentChecksum(
                          d.intentSeq, d.intentCount, d.intents) ==
                          d.intentSum;
            std::printf(" intents: %u (%s)", d.intentCount,
                        ok ? "valid" : "TORN");
        }
        std::printf("\n");
    }

    // Heap statistics (builds the volatile free map; read-only with
    // respect to persistent state).
    alloc::PmAllocator heap(*pool);
    std::printf("heap: %zu free bytes in %zu extents\n",
                heap.freeBytes(), heap.freeExtents());
    std::printf("%u interrupted transaction(s)%s\n", interrupted,
                interrupted > 0 ? " — run recovery before use" : "");
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc == 3 && std::strcmp(argv[1], "verify") == 0)
        return verifyMain(argv[2]);
    if (argc == 2 && std::strcmp(argv[1], "verify") != 0)
        return inspectMain(argv[1]);
    std::fprintf(stderr,
                 "usage: %s <pool-file>\n"
                 "       %s verify <pool-file>\n",
                 argv[0], argv[0]);
    return 2;
}
