/**
 * @file
 * Media-fault salvage tests: recovery over a pool whose NVM is not
 * just torn but *corrupt* — flipped bits mid-log, poisoned lines,
 * damaged intent tables. Each protocol must skip the damage with its
 * protocol-correct semantics (DESIGN.md §13), declare every salvage
 * action in the RecoveryReport, and leave the pool usable.
 *
 * The torture media sweep covers the same ground statistically; these
 * tests pin the individual salvage paths deterministically so a
 * regression names the exact path that broke.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "alloc/pm_allocator.h"
#include "common/error.h"
#include "nvm/fault_model.h"
#include "nvm/pool.h"
#include "runtimes/descriptor.h"
#include "runtimes/salvage.h"
#include "stats/counters.h"
#include "testing/crash_scheduler.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using torture::CrashScheduler;
using txn::RuntimeKind;

/** Append one self-validating entry; returns the next append pos. */
size_t
appendEntry(uint8_t* area, size_t pos, uint64_t targetOff,
            uint32_t seqLo, const uint8_t* payload, uint32_t len)
{
    rt::LogEntryHeader h{};
    h.targetOff = targetOff;
    h.len = len;
    h.seqLo = seqLo;
    h.checksum = rt::salvage::entryChecksum(h, payload);
    std::memcpy(area + pos, &h, sizeof(h));
    std::memcpy(area + pos + sizeof(h), payload, len);
    return pos + sizeof(h) + rt::salvage::alignUp8(len);
}

rt::TxDescriptor&
desc0(Harness& h)
{
    return *static_cast<rt::TxDescriptor*>(h.pool->slot(0));
}

uint8_t*
logArea0(Harness& h)
{
    return static_cast<uint8_t*>(h.pool->slot(0)) +
           rt::logAreaOffset();
}

size_t
logCap(Harness& h)
{
    return h.pool->slotBytes() - rt::logAreaOffset();
}

void
attachFaults(Harness& h)
{
    nvm::FaultConfig fc;
    fc.bitFlips = 1;
    fc.poisons = 1;
    fc.injectOnCrash = false;  // this suite injects by hand
    h.pool->setFaultModel(std::make_unique<nvm::FaultModel>(fc));
}

/**
 * Crash a push at successive persistency events until slot 0 is left
 * status=ongoing with at least `minEntries` valid log entries. The
 * pool is left in the crashed (all-lost) state; attempts that crash
 * too early or too late are recovered and retried. Returns false if
 * the sweep runs out of crash points.
 */
bool
crashWithOngoingLog(Harness& h, CrashScheduler& sched,
                    txn::Engine& eng, size_t minEntries,
                    std::vector<rt::ScannedEntry>& entries)
{
    int quietInARow = 0;
    for (uint64_t k = 1; quietInARow < 2 && k < 1500; k++) {
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kPushNode, h.rootPtr().raw(), 100 + k);
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        sched.disarm();
        if (!crashed) {
            quietInARow++;
            continue;
        }
        quietInARow = 0;
        h.pool->cache().crashAllLost();
        rt::TxDescriptor& d = desc0(h);
        if (d.status == static_cast<uint64_t>(rt::TxStatus::ongoing)) {
            rt::salvage::ScanStats st;
            rt::salvage::scanLogArea(nullptr, logArea0(h), logCap(h),
                                     static_cast<uint32_t>(d.txSeq),
                                     entries, &st);
            if (!st.damaged() && entries.size() >= minEntries)
                return true;
        }
        h.runtime->recover();
    }
    return false;
}

// ---------------------------------------------------------------
// scanLogArea unit tests: the resync / torn-tail / poison triage.
// ---------------------------------------------------------------

TEST(ScanSalvage, ResyncsAcrossMidLogCorruption)
{
    alignas(64) uint8_t area[1024] = {};
    uint8_t pay[64];
    std::memset(pay, 0xab, sizeof(pay));
    size_t p1 = appendEntry(area, 0, 4096, 7, pay, 32);
    size_t p2 = appendEntry(area, p1, 8192, 7, pay, 32);
    appendEntry(area, p2, 12288, 7, pay, 32);
    // Corrupt the middle entry's payload: the scan must drop exactly
    // that entry, prove the damage via the valid same-seq successor,
    // and keep going.
    area[p1 + sizeof(rt::LogEntryHeader)] ^= 0x40;

    std::vector<rt::ScannedEntry> out;
    rt::salvage::ScanStats st;
    rt::salvage::scanLogArea(nullptr, area, sizeof(area), 7, out, &st);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].targetOff, 4096u);
    EXPECT_EQ(out[1].targetOff, 12288u);
    EXPECT_EQ(st.droppedEntries, 1u);
    EXPECT_TRUE(st.sawCorruption);
    EXPECT_FALSE(st.tornTail);
    EXPECT_TRUE(st.damaged());
}

TEST(ScanSalvage, TornTailWithoutSuccessorIsNotCorruption)
{
    alignas(64) uint8_t area[1024] = {};
    uint8_t pay[64];
    std::memset(pay, 0xcd, sizeof(pay));
    size_t p1 = appendEntry(area, 0, 4096, 9, pay, 32);
    size_t p2 = appendEntry(area, p1, 8192, 9, pay, 32);
    appendEntry(area, p2, 12288, 9, pay, 32);
    // Corrupt the LAST entry: with no valid same-seq successor this
    // is indistinguishable from an ordinary torn append and must NOT
    // be classified as media damage.
    area[p2 + sizeof(rt::LogEntryHeader)] ^= 0x40;

    std::vector<rt::ScannedEntry> out;
    rt::salvage::ScanStats st;
    rt::salvage::scanLogArea(nullptr, area, sizeof(area), 9, out, &st);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_TRUE(st.tornTail);
    EXPECT_FALSE(st.sawCorruption);
    EXPECT_FALSE(st.damaged());
}

TEST(ScanSalvage, PoisonedPayloadDropsSingleEntry)
{
    Harness h(RuntimeKind::undo);
    attachFaults(h);
    // Build a three-entry log in (unused) slot 1 sized so that entry
    // 1's payload occupies exactly one cache line of its own.
    uint8_t* area = static_cast<uint8_t*>(h.pool->slot(1)) +
                    rt::logAreaOffset();
    uint8_t pay[64];
    std::memset(pay, 0x5a, sizeof(pay));
    size_t p1 = appendEntry(area, 0, 4096, 3, pay, 16);   // ends at 40
    ASSERT_EQ(p1, 40u);
    size_t p2 = appendEntry(area, p1, 8192, 3, pay, 64);  // pay @ 64
    ASSERT_EQ(p2, 128u);
    appendEntry(area, p2, 12288, 3, pay, 16);
    h.pool->faults()->poisonAt(h.pool->offsetOf(area + 64));

    std::vector<rt::ScannedEntry> out;
    rt::salvage::ScanStats st;
    rt::salvage::scanLogArea(h.pool.get(), area, 512, 3, out, &st);
    // Valid header, poisoned payload: drop just that entry.
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(st.droppedEntries, 1u);
    EXPECT_TRUE(st.sawPoison);
    EXPECT_FALSE(st.sawCorruption);
    EXPECT_TRUE(st.damaged());
}

// ---------------------------------------------------------------
// Protocol salvage paths.
// ---------------------------------------------------------------

TEST(UndoSalvage, MidLogFlipAbortsVisiblyAndHeals)
{
    Harness h(RuntimeKind::undo);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);

    std::vector<rt::ScannedEntry> entries;
    ASSERT_TRUE(crashWithOngoingLog(h, sched, eng, 2, entries));
    attachFaults(h);
    // Flip one bit in the FIRST entry's pre-image: mid-log damage
    // with valid successors — the rollback cannot fully revert.
    h.pool->faults()->flipBit(
        *h.pool, h.pool->offsetOf(entries[0].data), 3);

    txn::RecoveryReport rep = h.runtime->recover();
    EXPECT_EQ(rep.salvageAborted, 1u);
    EXPECT_GE(rep.logEntriesDropped, 1u);
    EXPECT_FALSE(rep.clean());
    ASSERT_FALSE(rep.slots.empty());
    bool declared = false;
    for (const auto& s : rep.slots) {
        if (s.action == txn::SlotAction::salvageAborted) {
            declared = true;
            EXPECT_EQ(s.note, "undo log corrupted mid-log");
        }
    }
    EXPECT_TRUE(declared);

    // The slot was rebuilt (healed), so the engine keeps working and
    // the next recovery pass has nothing left to salvage.
    size_t len = h.listLen();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{999});
    EXPECT_EQ(h.listLen(), len + 1);
    EXPECT_TRUE(h.runtime->recover().clean());
}

TEST(ClobberSalvage, PoisonedLogRestoresWithoutReexecution)
{
    Harness h(RuntimeKind::clobber);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);

    std::vector<rt::ScannedEntry> entries;
    ASSERT_TRUE(crashWithOngoingLog(h, sched, eng, 1, entries));
    attachFaults(h);
    // Poison the first log line: some clobbered inputs are gone, so
    // re-executing the txfunc would read garbage. Recovery must
    // restore what validated and refuse to resume.
    h.pool->faults()->poisonAt(h.pool->offsetOf(logArea0(h)));

    auto pre = stats::aggregate();
    txn::RecoveryReport rep = h.runtime->recover();
    auto delta = stats::aggregate() - pre;
    EXPECT_EQ(delta[stats::Counter::reexecutions], 0u);
    EXPECT_GE(rep.salvageAborted, 1u);
    EXPECT_GE(rep.poisonedReads, 1u);
    bool declared = false;
    for (const auto& s : rep.slots) {
        if (s.action == txn::SlotAction::salvageAborted) {
            declared = true;
            EXPECT_EQ(s.note, "clobber log poisoned");
        }
    }
    EXPECT_TRUE(declared);

    // Log appends overwrite the poisoned line, healing it.
    size_t len = h.listLen();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{999});
    EXPECT_EQ(h.listLen(), len + 1);
    EXPECT_TRUE(h.runtime->recover().clean());
}

TEST(RedoSalvage, CommittingLogCorruptionLosesTransactionVisibly)
{
    // Redo's committing state promises roll-forward; a damaged log
    // breaks that promise and must be declared as a LOST committed
    // transaction, never replayed partially.
    bool exercised = false;
    for (uint64_t k = 1; k < 1500 && !exercised; k++) {
        Harness h(RuntimeKind::redo);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{1});
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{2});
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{777});
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        sched.disarm();
        if (!crashed)
            break;  // k is past every event of a push
        h.pool->cache().crashAllLost();
        rt::TxDescriptor& d = desc0(h);
        if (d.status != static_cast<uint64_t>(rt::TxStatus::committing))
            continue;
        std::vector<rt::ScannedEntry> entries;
        rt::salvage::ScanStats st;
        rt::salvage::scanLogArea(nullptr, logArea0(h), logCap(h),
                                 static_cast<uint32_t>(d.txSeq),
                                 entries, &st);
        if (st.damaged() || entries.empty())
            continue;
        attachFaults(h);
        h.pool->faults()->flipBit(
            *h.pool, h.pool->offsetOf(entries[0].data), 1);

        txn::RecoveryReport rep = h.runtime->recover();
        EXPECT_GE(rep.salvageAborted, 1u);
        bool declared = false;
        for (const auto& s : rep.slots) {
            if (s.action == txn::SlotAction::salvageAborted) {
                declared = true;
                EXPECT_NE(s.note.find("committed transaction lost"),
                          std::string::npos);
            }
        }
        EXPECT_TRUE(declared);
        // The baseline survives and the engine stays usable.
        EXPECT_GE(h.listLen(), 2u);
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{999});
        EXPECT_TRUE(h.runtime->recover().clean());
        exercised = true;
    }
    EXPECT_TRUE(exercised);
}

TEST(IntentSalvage, PoisonedIntentTableIsDeclaredLost)
{
    Harness h(RuntimeKind::undo);
    auto eng = h.engine();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{1});

    // Stage a live-looking intent table on the idle slot, then poison
    // it: the guarded intent path must declare the table lost instead
    // of replaying garbage into the allocator bitmap — and must not
    // be shadowed by the begin-record vetting in slotRecoverable.
    rt::TxDescriptor& d = desc0(h);
    d.intentSeq = d.txSeq;
    d.intentCount = 1;
    d.intents[0].payloadOff = h.root().head.raw();
    d.intents[0].payloadBytes = sizeof(TestNode);
    d.intents[0].isFree = 0;
    d.intentSum = rt::salvage::intentChecksum(d.intentSeq,
                                              d.intentCount, d.intents);
    attachFaults(h);
    // Poison a line wholly inside the table: the line holding
    // intentSeq itself also carries the tail of the v_log args, so
    // poisoning it trips the (stricter) begin-record guard instead.
    h.pool->faults()->poisonAt(h.pool->offsetOf(&d.intents[16]));

    txn::RecoveryReport rep = h.runtime->recover();
    EXPECT_EQ(rep.intentTablesLost, 1u);
    EXPECT_GE(rep.salvageAborted, 1u);
    bool declared = false;
    for (const auto& s : rep.slots) {
        if (s.action == txn::SlotAction::salvageAborted) {
            declared = true;
            EXPECT_EQ(s.note, "alloc intent table unreadable or corrupt");
        }
    }
    EXPECT_TRUE(declared);
    // The reset rewrote the descriptor, clearing the poison.
    EXPECT_TRUE(h.runtime->recover().clean());
}

// ---------------------------------------------------------------
// Instant restart: the hooks behind both recovery schedules.
// Runtime::recover() is triage, healSlot for every entry, healHeap,
// then resumeSlot for every entry; lazy recovery runs healSlot and
// resumeSlot per entry on first touch. These tests pin the pieces
// individually.
// ---------------------------------------------------------------

/**
 * Crash a push on slot 0 at successive event indices until the torn
 * image actually leaves the slot pending (a crash before the status
 * line durably flipped reverts to a clean slot, which triage rightly
 * ignores). Attempts that land clean are recovered and retried.
 * @return false if the sweep runs out of crash points.
 */
bool
crashUntilTriagePending(Harness& h, CrashScheduler& sched,
                        txn::Engine& eng)
{
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    for (uint64_t k = 5; k < 1500; k++) {
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{50});
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        sched.disarm();
        if (!crashed)
            return false;  // swept past every event of the push
        h.pool->cache().crashAllLost();
        if (!h.runtime->recoveryTriage().entries.empty())
            return true;
        h.runtime->recover();  // clean image: discard, next index
    }
    return false;
}

/**
 * Triage must be repeatable: running it twice over the same torn
 * image yields the same classification, and it never touches the
 * dirty slot's durable state (healing is a separate, later step).
 */
TEST(LazyTriage, TriageIsStableAndLeavesDirtySlotsUntouched)
{
    for (RuntimeKind kind :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber,
          RuntimeKind::atlas, RuntimeKind::ido}) {
        SCOPED_TRACE(static_cast<int>(kind));
        Harness h(kind);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        ASSERT_TRUE(crashUntilTriagePending(h, sched, eng));

        rt::TxDescriptor before = desc0(h);
        txn::RecoveryIndex a = h.runtime->recoveryTriage();
        txn::RecoveryIndex b = h.runtime->recoveryTriage();
        ASSERT_EQ(a.entries.size(), b.entries.size());
        for (size_t i = 0; i < a.entries.size(); i++) {
            EXPECT_EQ(a.entries[i].tid, b.entries[i].tid);
            EXPECT_EQ(static_cast<int>(a.entries[i].cls),
                      static_cast<int>(b.entries[i].cls));
        }
        ASSERT_FALSE(a.entries.empty());
        EXPECT_EQ(a.entries[0].tid, 0u);
        rt::TxDescriptor& after = desc0(h);
        EXPECT_EQ(after.status, before.status);
        EXPECT_EQ(after.txSeq, before.txSeq);

        // The untouched image still heals fully.
        h.runtime->recover();
        EXPECT_TRUE(h.listLen() == 4 || h.listLen() == 5);
        EXPECT_EQ(h.root().sum, h.listSum());
    }
}

/**
 * healSlot + resumeSlot are the per-entry heal step: applying them to
 * every triaged entry plus one healHeap must equal a full recover(),
 * and applying them twice must change nothing (the heal re-derives
 * the slot's class from the media, and a healed slot is simply
 * clean).
 */
TEST(LazyHeal, PerEntryHealsAreCompleteAndIdempotent)
{
    for (RuntimeKind kind :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber,
          RuntimeKind::atlas, RuntimeKind::ido}) {
        SCOPED_TRACE(static_cast<int>(kind));
        Harness h(kind);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        ASSERT_TRUE(crashUntilTriagePending(h, sched, eng));

        txn::RecoveryIndex idx = h.runtime->recoveryTriage();
        ASSERT_FALSE(idx.entries.empty());
        for (const txn::IndexEntry& e : idx.entries) {
            h.runtime->healSlot(e);
            h.runtime->resumeSlot(e);
        }
        size_t len = h.listLen();
        uint64_t sum = h.root().sum;
        EXPECT_TRUE(len == 4 || len == 5);
        EXPECT_EQ(sum, h.listSum());
        // Healing an already-healed entry is a no-op.
        for (const txn::IndexEntry& e : idx.entries) {
            h.runtime->healSlot(e);
            h.runtime->resumeSlot(e);
        }
        EXPECT_EQ(h.listLen(), len);
        EXPECT_EQ(h.root().sum, sum);
        h.runtime->healHeap(txn::RecoveryMode::lazy);

        EXPECT_TRUE(h.runtime->recover().clean());
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{999});
        EXPECT_EQ(h.listLen(), len + 1);
    }
}

/**
 * Exhaustive re-tear of the lazy path itself: arm the crash trap at
 * every event index inside triage + first-touch heals + settle,
 * re-tearing after each trap, until a full lazy recovery runs quiet.
 * Every retry re-triages from scratch; the final state must satisfy
 * the protocol's atomicity contract.
 */
TEST(LazyReTear, LazyRecoverySurvivesCrashesAtEveryIndex)
{
    for (RuntimeKind kind :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber,
          RuntimeKind::atlas, RuntimeKind::ido}) {
        SCOPED_TRACE(static_cast<int>(kind));
        Harness h(kind);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        ASSERT_TRUE(crashUntilTriagePending(h, sched, eng));

        int recoveryCrashes = 0;
        for (uint64_t k = 1; k < 800; k++) {
            sched.arm(k);
            bool recCrashed = false;
            try {
                eng.recover(txn::RecoveryMode::lazy,
                            /* backgroundHealer */ false);
                for (unsigned t = 0; t < h.pool->maxThreads(); t++)
                    eng.admitSlot(t);
                eng.finishRecovery();
            } catch (const nvm::CrashInjected&) {
                recCrashed = true;
                recoveryCrashes++;
            }
            sched.disarm();
            if (!recCrashed)
                break;
            h.pool->cache().crashAllLost();
        }
        EXPECT_GT(recoveryCrashes, 0);
        EXPECT_EQ(eng.recoveryPending(), 0u);
        EXPECT_TRUE(h.listLen() == 4 || h.listLen() == 5);
        EXPECT_EQ(h.root().sum, h.listSum());
        EXPECT_TRUE(h.runtime->recover().clean());
    }
}

/**
 * Triaged hold ranges pin suspect heap blocks out of the free map
 * until the owning slot's entry heals; settling the session releases
 * everything and reconciles the heap.
 */
TEST(LazyHolds, IntentHoldsPinnedUntilEntryHeals)
{
    Harness h(RuntimeKind::undo);
    auto eng = h.engine();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{1});

    // Stage a live intent table on the idle slot: triage must report
    // the slot pending and pin the intent's block as a hold range.
    rt::TxDescriptor& d = desc0(h);
    d.intentSeq = d.txSeq;
    d.intentCount = 1;
    d.intents[0].payloadOff = h.root().head.raw();
    d.intents[0].payloadBytes = sizeof(TestNode);
    d.intents[0].isFree = 0;
    d.intentSum = rt::salvage::intentChecksum(d.intentSeq,
                                              d.intentCount, d.intents);

    txn::RecoveryIndex idx = h.runtime->recoveryTriage();
    ASSERT_EQ(idx.entries.size(), 1u);
    EXPECT_EQ(idx.entries[0].tid, 0u);
    EXPECT_EQ(static_cast<int>(idx.entries[0].cls),
              static_cast<int>(txn::SlotClass::idleIntents));
    ASSERT_EQ(idx.holds.size(), 1u);
    EXPECT_EQ(idx.holds[0].tid, 0u);

    eng.recover(txn::RecoveryMode::lazy, /* backgroundHealer */ false);
    EXPECT_EQ(h.heap->holdCount(), 1u);
    EXPECT_GE(eng.recoveryPending(), 1u);

    // First touch heals the entry and releases its holds.
    eng.admitSlot(0);
    EXPECT_EQ(h.heap->holdCount(), 0u);

    eng.finishRecovery();
    EXPECT_EQ(eng.recoveryPending(), 0u);
    EXPECT_TRUE(h.runtime->recover().clean());
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{2});
    EXPECT_EQ(h.listLen(), 2u);
}

// ---------------------------------------------------------------
// One recovery loop, two schedules.
// ---------------------------------------------------------------

/** sum = counter * 100: reads the block kIncrCounter clobbers. */
const txn::FuncId kScaleCounter = txn::registerTxFunc(
    "salvage_scale_counter", [](txn::Tx& tx, txn::ArgReader& a) {
        auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
        tx.st(root->sum, tx.ld(root->counter) * 100);
    });

/**
 * Full recovery restores every interrupted slot before it re-executes
 * any. Slot 1 crashed after clobbering the counter in place; slot 0
 * crashed before it read the counter. Slot 0's re-execution must read
 * slot 1's restored pre-image, not slot 1's uncommitted value — which
 * it would if full mode healed and resumed slot by slot.
 */
TEST(RecoveryOrder, FullRestoresEverySlotBeforeReexecuting)
{
    Harness h(RuntimeKind::clobber);
    auto eng = h.engine();
    for (int i = 0; i < 3; i++)
        txn::run(eng, kIncrCounter, h.rootPtr().raw());
    ASSERT_EQ(h.root().counter, 3u);

    txn::ArgWriter w;
    txn::writeArg(w, h.rootPtr().raw());
    txn::Runtime& rtm = *h.runtime;
    // Slot 1: counter++ has clobbered the counter, durably.
    rtm.txBegin(1, kIncrCounter, w.bytes());
    txn::Tx tx1(rtm, 1);
    tx1.st(h.root().counter, tx1.ld(h.root().counter) + 1);
    h.pool->persist(&h.root().counter, sizeof(uint64_t));
    // Slot 0: begun (v_log durable), but its body never ran.
    rtm.txBegin(0, kScaleCounter, w.bytes());
    txn::Tx tx0(rtm, 0);
    tx0.st(h.root().sum, uint64_t{7});
    h.pool->simulateCrashAllLost();

    txn::RecoveryReport rep = rtm.recover();
    EXPECT_TRUE(rep.clean()) << rep.toString();
    uint64_t reexecuted = 0;
    for (const auto& sr : rep.slots)
        reexecuted += sr.action == txn::SlotAction::reexecuted ? 1 : 0;
    EXPECT_EQ(reexecuted, 2u) << rep.toString();
    EXPECT_EQ(h.root().sum, 300u);
    EXPECT_EQ(h.root().counter, 4u);
}

/** What one crash-and-recover run left behind. */
struct Recovered {
    bool crashed = false;
    std::vector<uint64_t> values;  ///< the list, head first
    uint64_t sum = 0;
    uint64_t counter = 0;
    txn::RecoveryReport report;
};

/**
 * Push 4 nodes, crash a fifth at event `k`, tear with a seed derived
 * from `k`, and recover in `mode` (lazy: triage, first touch of every
 * slot, finishRecovery). `crashed` is false when the push ran past
 * event `k`.
 */
Recovered
crashAndRecover(RuntimeKind kind, uint64_t k, txn::RecoveryMode mode)
{
    Harness h(kind, rt::ClobberPolicy::refined, 8ULL << 20);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    Recovered r;
    {
        CrashScheduler sched(*h.pool);
        sched.arm(k);
        try {
            txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{50});
        } catch (const nvm::CrashInjected&) {
            r.crashed = true;
        }
    }
    if (!r.crashed)
        return r;
    h.pool->simulateCrash(500 + k);
    if (mode == txn::RecoveryMode::full) {
        r.report = h.runtime->recover();
    } else {
        eng.recover(txn::RecoveryMode::lazy, /* backgroundHealer */ false);
        for (unsigned t = 0; t < h.pool->maxThreads(); t++)
            eng.admitSlot(t);
        r.report = eng.finishRecovery();
    }
    for (auto n = h.root().head; !n.isNull(); n = n->next)
        r.values.push_back(n->value);
    r.sum = h.root().sum;
    r.counter = h.root().counter;
    return r;
}

/**
 * Full and lazy recovery are two schedules of one heal code: the same
 * torn crash, recovered once by recover() and once lazily, yields the
 * same structure and the same report, at every crash index.
 */
TEST(RecoveryOrder, FullAndLazyAgreeAtEveryCrashIndex)
{
    for (RuntimeKind kind :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber,
          RuntimeKind::atlas, RuntimeKind::ido}) {
        SCOPED_TRACE(static_cast<int>(kind));
        uint64_t crashes = 0;
        for (uint64_t k = 1; k < 1500; k++) {
            SCOPED_TRACE(k);
            Recovered a = crashAndRecover(kind, k, txn::RecoveryMode::full);
            Recovered b = crashAndRecover(kind, k, txn::RecoveryMode::lazy);
            ASSERT_EQ(a.crashed, b.crashed);
            if (!a.crashed)
                break;
            crashes++;
            ASSERT_EQ(a.values, b.values);
            EXPECT_EQ(a.sum, b.sum);
            EXPECT_EQ(a.counter, b.counter);
            const txn::RecoveryReport& x = a.report;
            const txn::RecoveryReport& y = b.report;
            EXPECT_EQ(x.slotsScanned, y.slotsScanned);
            EXPECT_EQ(x.logEntriesApplied, y.logEntriesApplied);
            EXPECT_EQ(x.logEntriesDropped, y.logEntriesDropped);
            EXPECT_EQ(x.poisonedReads, y.poisonedReads);
            EXPECT_EQ(x.transientRetries, y.transientRetries);
            EXPECT_EQ(x.quarantinedBlocks, y.quarantinedBlocks);
            EXPECT_EQ(x.quarantinedBytes, y.quarantinedBytes);
            EXPECT_EQ(x.intentTablesLost, y.intentTablesLost);
            EXPECT_EQ(x.salvageAborted, y.salvageAborted);
            ASSERT_EQ(x.slots.size(), y.slots.size());
            for (size_t i = 0; i < x.slots.size(); i++) {
                EXPECT_EQ(x.slots[i].tid, y.slots[i].tid);
                EXPECT_EQ(x.slots[i].action, y.slots[i].action);
                EXPECT_EQ(x.slots[i].note, y.slots[i].note);
            }
        }
        EXPECT_GT(crashes, 0u);
    }
}

// ---------------------------------------------------------------
// Regression guards: the ordinary crash path stays clean, and the
// report is surfaced through the engine.
// ---------------------------------------------------------------

TEST(CleanCrash, OrdinaryTornRecoveryReportsClean)
{
    for (RuntimeKind kind :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber,
          RuntimeKind::atlas, RuntimeKind::ido}) {
        Harness h(kind);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        for (uint64_t v = 1; v <= 4; v++)
            txn::run(eng, kPushNode, h.rootPtr().raw(), v);
        bool crashed = false;
        for (uint64_t k = 5; k < 1500 && !crashed; k++) {
            sched.arm(k);
            try {
                txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{50});
            } catch (const nvm::CrashInjected&) {
                crashed = true;
            }
            sched.disarm();
        }
        ASSERT_TRUE(crashed) << "kind " << static_cast<int>(kind);
        h.pool->cache().crashAllLost();
        txn::RecoveryReport rep = h.runtime->recover();
        EXPECT_TRUE(rep.clean()) << rep.toString();
        EXPECT_TRUE(h.listLen() == 4 || h.listLen() == 5);
    }
}

TEST(EngineReport, LastRecoveryIsKept)
{
    Harness h(RuntimeKind::undo);
    auto eng = h.engine();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t{1});
    txn::RecoveryReport rep = eng.recover();
    EXPECT_EQ(rep.slotsScanned, h.pool->maxThreads());
    EXPECT_EQ(eng.lastRecovery.slotsScanned, h.pool->maxThreads());
    EXPECT_TRUE(eng.lastRecovery.clean());
}

// ---------------------------------------------------------------
// Header-less heap: the bitmap's start and allocation bits agree.
// ---------------------------------------------------------------

/** Flip granule `off`'s start (or allocation) bit by a raw poke. */
void
flipBit(nvm::Pool& pool, const alloc::PmAllocator& heap, uint64_t off,
        bool startBit)
{
    uint64_t g = (off - heap.dataOff()) / alloc::kGranule;
    pool.base()[heap.bitmapOff() +
                g / alloc::kLineGranules * alloc::kBitmapLine +
                (startBit ? alloc::kStartBitsOff : 0) +
                g % alloc::kLineGranules / 8] ^=
        static_cast<uint8_t>(1u << (g % 8));
}

bool
hasProblem(const rt::salvage::VerifyResult& r, const char* what)
{
    for (const std::string& p : r.problems) {
        if (p.find(what) != std::string::npos)
            return true;
    }
    return false;
}

TEST(VerifyPool, FlagsStartBitOnFreeGranuleAndRunWithoutStart)
{
    Harness h(RuntimeKind::undo);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 3; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    rt::salvage::VerifyResult clean = rt::salvage::verifyPool(*h.pool);
    EXPECT_TRUE(clean.ok()) << (clean.problems.empty()
                                    ? ""
                                    : clean.problems.front());

    // A start bit on a granule well past every allocation.
    uint64_t freeOff = h.heap->dataOff() + (h.heap->dataBytes() / 2) /
                                               alloc::kGranule *
                                               alloc::kGranule;
    flipBit(*h.pool, *h.heap, freeOff, true);
    rt::salvage::VerifyResult r1 = rt::salvage::verifyPool(*h.pool);
    EXPECT_TRUE(hasProblem(r1, "start bits on free granules"));
    EXPECT_FALSE(hasProblem(r1, "no start bit"));
    flipBit(*h.pool, *h.heap, freeOff, true);

    // The root leads the heap's first allocated run: without its start
    // bit the run names no block.
    flipBit(*h.pool, *h.heap, h.pool->root(), true);
    rt::salvage::VerifyResult r2 = rt::salvage::verifyPool(*h.pool);
    EXPECT_TRUE(hasProblem(r2, "allocated runs with no start bit"));
    EXPECT_FALSE(hasProblem(r2, "start bits on free"));
    flipBit(*h.pool, *h.heap, h.pool->root(), true);
    EXPECT_TRUE(rt::salvage::verifyPool(*h.pool).ok());
}

/** Run `cnvm_inspect [verify] <path>`; its exit status and output. */
int
runInspect(bool verify, const std::string& path, std::string* out)
{
    std::string cmd = std::string(CNVM_INSPECT_BIN) +
                      (verify ? " verify '" : " '") + path + "' 2>&1";
    FILE* p = ::popen(cmd.c_str(), "r");
    if (p == nullptr)
        return -1;
    char buf[512];
    while (std::fgets(buf, sizeof(buf), p) != nullptr)
        *out += buf;
    int status = ::pclose(p);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(VerifyPool, InspectVerifyFlagsBitmapDisagreement)
{
    std::string path = ::testing::TempDir() + "cnvm_verify_bits.pool";
    uint64_t freeOff = 0;
    uint64_t rootOff = 0;
    {
        nvm::PoolConfig cfg;
        cfg.path = path;
        cfg.size = 8ULL << 20;
        cfg.maxThreads = 2;
        cfg.slotBytes = 64ULL << 10;
        auto pool = nvm::Pool::create(cfg);
        alloc::PmAllocator heap(*pool);
        auto rtm = rt::makeRuntime(RuntimeKind::clobber, *pool, heap,
                                   rt::ClobberPolicy::refined);
        uint64_t root = heap.reserve(sizeof(TestRoot));
        heap.persistAllocate(root);
        uint64_t item = heap.reserve(112);
        heap.persistAllocate(item);
        pool->fence();
        rootOff = root;
        freeOff = item + 112 + 10 * alloc::kGranule;
    }
    auto poke = [&](uint64_t off, bool startBit) {
        auto pool = nvm::Pool::open(path);
        alloc::PmAllocator heap(*pool);
        flipBit(*pool, heap, off, startBit);
    };
    std::string out;
    EXPECT_EQ(runInspect(true, path, &out), 0) << out;

    poke(freeOff, true);
    out.clear();
    EXPECT_EQ(runInspect(true, path, &out), 1) << out;
    EXPECT_NE(out.find("PROBLEM: heap: 1 start bits on free granules"),
              std::string::npos)
        << out;
    poke(freeOff, true);

    poke(rootOff, true);
    out.clear();
    EXPECT_EQ(runInspect(true, path, &out), 1) << out;
    EXPECT_NE(out.find("PROBLEM: heap: 1 allocated runs with no start bit"),
              std::string::npos)
        << out;
    std::remove(path.c_str());
}

/** node = a 112-byte block (TestNode + 96 bytes), pushed at the head. */
const txn::FuncId kPushWide = txn::registerTxFunc(
    "salvage_push_wide", [](txn::Tx& tx, txn::ArgReader& a) {
        auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
        auto value = a.get<uint64_t>();
        auto node = tx.pnew<TestNode>(96);
        tx.st(node->value, value);
        tx.st(node->next, tx.ld(root->head));
        tx.st(root->head, node);
        tx.st(root->sum, tx.ld(root->sum) + value);
    });

/** Free the head node and push a fresh 112-byte one: one allocation
 *  and one free in the same transaction. */
const txn::FuncId kReplaceWide = txn::registerTxFunc(
    "salvage_replace_wide", [](txn::Tx& tx, txn::ArgReader& a) {
        auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
        auto value = a.get<uint64_t>();
        auto old = tx.ld(root->head);
        auto node = tx.pnew<TestNode>(96);
        tx.st(node->value, value);
        tx.st(node->next, tx.ld(old->next));
        tx.st(root->head, node);
        tx.st(root->sum, tx.ld(root->sum) - tx.ld(old->value) + value);
        tx.pfree(old);
    });

/**
 * Blocks the raw bitmap describes, start offset -> bytes. Fails the
 * test on a start bit over a free granule or an allocated run with no
 * start bit.
 */
std::map<uint64_t, uint64_t>
bitmapBlocks(const nvm::Pool& pool, const alloc::PmAllocator& heap)
{
    std::map<uint64_t, uint64_t> blocks;
    const auto* bitmap =
        static_cast<const uint8_t*>(pool.at(heap.bitmapOff()));
    uint64_t open = 0;
    bool inBlock = false;
    for (uint64_t g = 0; g < heap.dataBytes() / alloc::kGranule; g++) {
        const uint8_t* line =
            bitmap + g / alloc::kLineGranules * alloc::kBitmapLine;
        uint64_t i = g % alloc::kLineGranules;
        auto bit = static_cast<uint8_t>(1u << (i % 8));
        bool allocated = (line[i / 8] & bit) != 0;
        bool start = (line[alloc::kStartBitsOff + i / 8] & bit) != 0;
        uint64_t off = heap.dataOff() + g * alloc::kGranule;
        EXPECT_FALSE(start && !allocated) << "start bit on free " << off;
        EXPECT_FALSE(allocated && !start && !inBlock)
            << "allocated run with no start bit at " << off;
        if (allocated && start) {
            open = off;
            inBlock = true;
        }
        inBlock = inBlock && allocated;
        if (inBlock)
            blocks[open] += alloc::kGranule;
    }
    return blocks;
}

/**
 * Tear a transaction that frees one 112-byte node and allocates
 * another at every write index, recover fully or lazily, and audit
 * the heap: the bitmap's blocks are exactly the root and the list's
 * nodes — each run of allocated granules starts one block per start
 * bit, nothing leaked and nothing double-counted — and the free map
 * holds every other byte. verifyPool then agrees with recovery: no
 * problem (a torn intent table recovery ignored is a note), no slot
 * pending, and the allocator's free space.
 */
TEST(HeaderlessHeap, AllocFreeCrashSweepKeepsOneStartBitPerBlock)
{
    for (RuntimeKind kind :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber}) {
        for (txn::RecoveryMode mode :
             {txn::RecoveryMode::full, txn::RecoveryMode::lazy}) {
            SCOPED_TRACE(testing::Message()
                         << "kind " << static_cast<int>(kind) << " mode "
                         << static_cast<int>(mode));
            uint64_t crashes = 0;
            for (uint64_t k = 1; k < 2000; k++) {
                SCOPED_TRACE(k);
                Harness h(kind, rt::ClobberPolicy::refined, 8ULL << 20);
                auto eng = h.engine();
                for (uint64_t v = 1; v <= 4; v++)
                    txn::run(eng, kPushWide, h.rootPtr().raw(), v);
                bool crashed = false;
                {
                    CrashScheduler sched(*h.pool);
                    sched.arm(k);
                    try {
                        txn::run(eng, kReplaceWide, h.rootPtr().raw(),
                                 uint64_t{50});
                    } catch (const nvm::CrashInjected&) {
                        crashed = true;
                    }
                }
                if (!crashed)
                    break;
                crashes++;
                h.pool->simulateCrash(900 + k);
                if (mode == txn::RecoveryMode::full) {
                    txn::RecoveryReport rep = h.runtime->recover();
                    ASSERT_TRUE(rep.clean()) << rep.toString();
                } else {
                    eng.recover(txn::RecoveryMode::lazy,
                                /* backgroundHealer */ false);
                    for (unsigned t = 0; t < h.pool->maxThreads(); t++)
                        eng.admitSlot(t);
                    txn::RecoveryReport rep = eng.finishRecovery();
                    ASSERT_TRUE(rep.clean()) << rep.toString();
                }
                std::map<uint64_t, uint64_t> want{
                    {h.pool->root(), sizeof(TestRoot)}};
                for (auto n = h.root().head; !n.isNull(); n = n->next)
                    want[n.raw()] = sizeof(TestNode) + 96;
                ASSERT_EQ(want.size(), 5u);
                ASSERT_EQ(bitmapBlocks(*h.pool, *h.heap), want);
                uint64_t used = 0;
                for (const auto& [off, bytes] : want) {
                    EXPECT_EQ(h.heap->payloadSize(off), bytes);
                    used += bytes;
                }
                h.heap->rebuild();
                EXPECT_EQ(h.heap->freeBytes(), h.heap->dataBytes() - used);
                rt::salvage::VerifyResult vr =
                    rt::salvage::verifyPool(*h.pool);
                EXPECT_TRUE(vr.ok()) << vr.problems.front();
                EXPECT_TRUE(vr.pending.entries.empty());
                EXPECT_EQ(vr.freeBytes, h.heap->freeBytes());
                EXPECT_EQ(vr.freeExtents, h.heap->freeExtents());
            }
            EXPECT_GT(crashes, 10u);
        }
    }
}

/** The whole file, byte for byte. */
std::string
fileBytes(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

/**
 * cnvm_inspect reads and never writes, in either mode — even when the
 * allocator magic is damaged, where constructing a PmAllocator would
 * format a fresh heap over the bitmap it was asked to show. Its free
 * space comes from verifyPool's bitmap walk, which on a healthy heap
 * matches the allocator's own free map.
 */
TEST(VerifyPool, InspectLeavesPoolFileUntouched)
{
    std::string path = ::testing::TempDir() + "cnvm_inspect_ro.pool";
    std::remove(path.c_str());
    std::string healthy;
    {
        Harness h(RuntimeKind::undo, rt::ClobberPolicy::refined,
                  8ULL << 20, 64ULL << 10, path);
        auto eng = h.engine();
        for (uint64_t v = 1; v <= 3; v++)
            txn::run(eng, kPushWide, h.rootPtr().raw(), v);
        txn::run(eng, kReplaceWide, h.rootPtr().raw(), uint64_t{7});
        h.heap->rebuild();
        rt::salvage::VerifyResult r = rt::salvage::verifyPool(*h.pool);
        EXPECT_TRUE(r.heapWalked);
        EXPECT_EQ(r.freeBytes, h.heap->freeBytes());
        EXPECT_EQ(r.freeExtents, h.heap->freeExtents());
        healthy = strprintf("heap: %zu free bytes in %zu extents",
                            h.heap->freeBytes(), h.heap->freeExtents());
    }
    std::string before = fileBytes(path);
    std::string out;
    EXPECT_EQ(runInspect(false, path, &out), 0) << out;
    EXPECT_NE(out.find(healthy), std::string::npos) << out;
    EXPECT_TRUE(fileBytes(path) == before);

    // Flip one bit of the allocator magic.
    {
        auto pool = nvm::Pool::open(path);
        pool->base()[pool->heapOff() + offsetof(alloc::AllocHeader,
                                                magic)] ^= 1;
    }
    before = fileBytes(path);
    for (bool verify : {false, true}) {
        out.clear();
        runInspect(verify, path, &out);
        EXPECT_TRUE(fileBytes(path) == before) << out;
    }
    std::remove(path.c_str());
}

/**
 * `cnvm_inspect verify` prints recovery's own triage: crash a free +
 * alloc transaction on a pool file at event indices across the whole
 * transaction, and its `pending: slot` and `hold [...)` lines name
 * exactly the entries and hold ranges recoveryTriage() computes on the
 * same image. After recovery the image verifies clean with nothing
 * pending.
 */
TEST(VerifyPool, InspectVerifyPrintsRecoveryTriage)
{
    std::string path = ::testing::TempDir() + "cnvm_inspect_triage.pool";
    const std::map<txn::SlotClass, const char*> phrase{
        {txn::SlotClass::damaged, "damaged descriptor"},
        {txn::SlotClass::ongoing, "interrupted transaction"},
        {txn::SlotClass::committing, "interrupted commit"},
        {txn::SlotClass::idleIntents, "intent table"}};
    for (RuntimeKind kind :
         {RuntimeKind::undo, RuntimeKind::redo, RuntimeKind::clobber}) {
        SCOPED_TRACE(static_cast<int>(kind));
        uint64_t pendingImages = 0;
        uint64_t holdImages = 0;
        for (uint64_t k = 1; k < 2000; k++) {
            SCOPED_TRACE(k);
            std::remove(path.c_str());
            Harness h(kind, rt::ClobberPolicy::refined, 8ULL << 20,
                      64ULL << 10, path);
            auto eng = h.engine();
            for (uint64_t v = 1; v <= 4; v++)
                txn::run(eng, kPushWide, h.rootPtr().raw(), v);
            bool crashed = false;
            {
                CrashScheduler sched(*h.pool);
                sched.arm(k);
                try {
                    txn::run(eng, kReplaceWide, h.rootPtr().raw(),
                             uint64_t{50});
                } catch (const nvm::CrashInjected&) {
                    crashed = true;
                }
            }
            if (!crashed)
                break;
            h.pool->simulateCrash(900 + k);

            std::string out;
            runInspect(true, path, &out);
            std::map<unsigned, std::string> slots;
            std::vector<txn::HoldRange> holds;
            std::istringstream lines(out);
            for (std::string line; std::getline(lines, line);) {
                unsigned tid = 0;
                unsigned long long off = 0, bytes = 0;
                if (std::sscanf(line.c_str(), "pending: slot %u", &tid) ==
                    1) {
                    slots[tid] = line;
                } else if (std::sscanf(line.c_str(),
                                       "pending: hold [%llu, +%llu) "
                                       "until slot %u",
                                       &off, &bytes, &tid) == 3) {
                    holds.push_back(txn::HoldRange{tid, off, bytes});
                }
            }
            txn::RecoveryIndex idx = h.runtime->recoveryTriage();
            ASSERT_EQ(slots.size(), idx.entries.size()) << out;
            for (const txn::IndexEntry& e : idx.entries) {
                ASSERT_EQ(slots.count(e.tid), 1u) << out;
                EXPECT_NE(slots[e.tid].find(phrase.at(e.cls)),
                          std::string::npos)
                    << out;
            }
            ASSERT_EQ(holds.size(), idx.holds.size()) << out;
            for (size_t i = 0; i < holds.size(); i++) {
                EXPECT_EQ(holds[i].tid, idx.holds[i].tid) << out;
                EXPECT_EQ(holds[i].off, idx.holds[i].off) << out;
                EXPECT_EQ(holds[i].bytes, idx.holds[i].bytes) << out;
            }
            pendingImages += idx.entries.empty() ? 0 : 1;
            holdImages += idx.holds.empty() ? 0 : 1;

            txn::RecoveryReport rep = h.runtime->recover();
            ASSERT_TRUE(rep.clean()) << rep.toString();
            out.clear();
            EXPECT_EQ(runInspect(true, path, &out), 0) << out;
            EXPECT_NE(out.find("recovery: no slot pending"),
                      std::string::npos)
                << out;
        }
        EXPECT_GT(pendingImages, 3u);
        EXPECT_GT(holdImages, 0u);
    }
    std::remove(path.c_str());
}

}  // namespace
}  // namespace cnvm::test
