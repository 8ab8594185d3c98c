/**
 * @file
 * cnvm_inspect: offline pool inspector. Never writes the pool.
 *
 * Default mode prints a pool file's header, the state of every
 * per-thread transaction descriptor (status, sequence number, v_log
 * payload, pending log entries, and the begin-record and intent-table
 * validity recovery's own probe, rt::salvage::probeSlot, reads), and
 * the heap's free space from verifyPool's read-only bitmap walk. It
 * constructs no PmAllocator, which would format a heap whose magic is
 * damaged. Useful for debugging recovery issues and for verifying
 * what survived a crash.
 *
 * `verify` mode walks the whole pool through the salvage scanner
 * (rt::salvage::verifyPool): header bounds, per-slot descriptor and
 * log checksums, allocator metadata, quarantine table and the
 * agreement of the bitmap's start and allocation bits, printing every
 * integrity violation it finds. It then prints the pending-recovery
 * state: the index recovery's triage (rt::salvage::triagePool)
 * yields — which slots a lazy restart would leave pending (and why),
 * and which heap ranges it would pin until the owning slot heals.
 * Exit status: 0 clean, 1 problems found, 2 usage / unreadable pool.
 *
 * Usage:
 *   cnvm_inspect <pool-file>
 *   cnvm_inspect verify <pool-file>
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

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

/** What healing index entry `e` will do. */
const char*
pendingWhy(const txn::RecoveryIndex& idx, const txn::IndexEntry& e)
{
    switch (e.cls) {
      case txn::SlotClass::damaged:
        return "damaged descriptor (heal salvage-resets the slot)";
      case txn::SlotClass::ongoing:
        return "interrupted transaction (heal rolls back or "
               "re-executes)";
      case txn::SlotClass::committing:
        return "interrupted commit (heal completes it)";
      case txn::SlotClass::idleIntents:
        // A live table pins its blocks; a lost one pins nothing.
        for (const txn::HoldRange& h : idx.holds) {
            if (h.tid == e.tid)
                return "idle slot with live intent table (heal "
                       "settles the allocations)";
        }
        return "idle slot with corrupt intent table (heal records "
               "the allocations as lost)";
      case txn::SlotClass::clean:
        break;
    }
    return "clean";
}

/** Print triage's index: pending slots and the ranges they pin. */
void
printPending(nvm::Pool& pool, const txn::RecoveryIndex& idx)
{
    uint64_t holdBytes = 0;
    for (const txn::IndexEntry& e : idx.entries) {
        const auto& d =
            *static_cast<const rt::TxDescriptor*>(pool.slot(e.tid));
        std::printf("pending: slot %u seq=%llu: %s\n", e.tid,
                    static_cast<unsigned long long>(d.txSeq),
                    pendingWhy(idx, e));
        for (const txn::HoldRange& h : idx.holds) {
            if (h.tid != e.tid)
                continue;
            std::printf("pending:   hold [%llu, +%llu) until slot %u "
                        "heals\n",
                        static_cast<unsigned long long>(h.off),
                        static_cast<unsigned long long>(h.bytes),
                        h.tid);
            holdBytes += h.bytes;
        }
    }
    if (idx.entries.empty()) {
        std::printf("recovery: no slot pending — a lazy restart "
                    "admits transactions with nothing to heal\n");
        return;
    }
    std::printf("recovery: %zu slot(s) pending", idx.entries.size());
    if (!idx.holds.empty())
        std::printf(", %zu heap range(s) / %llu B pinned until their "
                    "slots heal",
                    idx.holds.size(),
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
    printPending(*pool, r.pending);
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
        rt::salvage::SlotProbe p = rt::salvage::probeSlot(*pool, tid);
        if (p.cls == txn::SlotClass::clean && d.txSeq == 0)
            continue;  // slot never used
        std::printf("slot %-2u %-10s seq=%llu", tid,
                    statusName(d.status),
                    static_cast<unsigned long long>(d.txSeq));
        if (p.damage != nullptr) {
            std::printf(" [%s]\n", p.damage);
            continue;
        }
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
        if (d.status ==
            static_cast<uint64_t>(rt::TxStatus::ongoing)) {
            interrupted++;
            std::printf(" begin=%s fid=0x%08x (%s) args=%uB",
                        p.beginValid ? "valid" : "TORN", d.fid,
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
        if (p.intents != rt::salvage::IntentState::none ||
            (d.intentCount > 0 && d.intentSeq == d.txSeq)) {
            const char* state =
                p.intents == rt::salvage::IntentState::live   ? "valid"
                : p.intents == rt::salvage::IntentState::lost ? "LOST"
                                                               : "TORN";
            std::printf(" intents: %u (%s)", d.intentCount, state);
        }
        std::printf("\n");
    }

    rt::salvage::VerifyResult v = rt::salvage::verifyPool(*pool);
    if (v.heapWalked) {
        std::printf("heap: %llu free bytes in %llu extents\n",
                    static_cast<unsigned long long>(v.freeBytes),
                    static_cast<unsigned long long>(v.freeExtents));
    } else {
        std::printf("heap: no readable allocator metadata (run "
                    "cnvm_inspect verify)\n");
    }
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
