/**
 * @file
 * Crash-injection property tests: for every runtime and every possible
 * crash point inside a transaction, the recovered state must satisfy
 * the structure invariants and the protocol's atomicity contract
 * (roll-back for undo/redo/atlas, roll-*forward* for Clobber-NVM).
 *
 * Crash points are persistency-event indices counted by the
 * CrashScheduler (store/clwb/sfence, DESIGN.md §11), not pool-write
 * ordinals: a protocol change that adds flushes or fences without
 * adding writes still creates crash windows the sweep can reach.
 */
#include <gtest/gtest.h>

#include "stats/counters.h"
#include "testing/crash_scheduler.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using torture::CrashScheduler;
using txn::RuntimeKind;

/** Crash mode applied once the trap fires. */
enum class CrashMode { allLost, randomTear };

struct CrashCase {
    RuntimeKind kind;
    CrashMode mode;
};

class CrashSweep : public ::testing::TestWithParam<CrashCase> {};

/**
 * Push nodes, crashing each push at successive persistency events.
 * After recovery the list/sum invariants must hold, and the
 * interrupted push must be either fully absent (roll-back) or fully
 * present exactly once (Clobber re-execution).
 */
TEST_P(CrashSweep, PushInterruptedAtEveryEvent)
{
    auto [kind, mode] = GetParam();
    Harness h(kind);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();

    // Committed baseline.
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    uint64_t expectedSum = 10;
    size_t expectedLen = 4;

    bool sawCrash = false;
    int quietInARow = 0;
    for (uint64_t k = 1; quietInARow < 2 && k < 1500; k++) {
        uint64_t value = 100 + k;
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kPushNode, h.rootPtr().raw(), value);
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            sawCrash = true;
        }
        sched.disarm();
        if (crashed) {
            quietInARow = 0;
            if (mode == CrashMode::allLost)
                h.pool->cache().crashAllLost();
            else
                h.pool->simulateCrash(1234 + k);
            auto preRec = stats::aggregate();
            h.runtime->recover();
            auto rec = stats::aggregate() - preRec;
            size_t len = h.listLen();
            if (kind == RuntimeKind::clobber &&
                rec[stats::Counter::reexecutions] > 0) {
                // Recovery-via-resumption: the push completed.
                ASSERT_EQ(len, expectedLen + 1) << "crash point " << k;
            } else {
                // Roll-back protocols, or a clobber crash that either
                // preceded the v_log persist (never begun) or followed
                // the commit point (already durable).
                ASSERT_TRUE(len == expectedLen || len == expectedLen + 1)
                    << "crash point " << k;
            }
            if (len == expectedLen + 1) {
                expectedLen = len;
                expectedSum += value;
            }
        } else {
            quietInARow++;
            expectedLen++;
            expectedSum += value;
        }
        // Core invariants after every iteration.
        ASSERT_EQ(h.listLen(), expectedLen) << "crash point " << k;
        ASSERT_EQ(h.root().sum, expectedSum) << "crash point " << k;
        ASSERT_EQ(h.listSum(), expectedSum) << "crash point " << k;
    }
    EXPECT_TRUE(sawCrash);
}

/** Same sweep for pops (exercises the deferred-free protocol). */
TEST_P(CrashSweep, PopInterruptedAtEveryEvent)
{
    auto [kind, mode] = GetParam();
    Harness h(kind);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();

    for (uint64_t v = 1; v <= 60; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    size_t expectedLen = 60;

    bool sawCrash = false;
    int quietInARow = 0;
    for (uint64_t k = 1; quietInARow < 2 && k < 1000 && expectedLen > 2;
         k++) {
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kPopNode, h.rootPtr().raw());
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            sawCrash = true;
        }
        sched.disarm();
        if (crashed) {
            quietInARow = 0;
            if (mode == CrashMode::allLost)
                h.pool->cache().crashAllLost();
            else
                h.pool->simulateCrash(777 + k);
            auto preRec = stats::aggregate();
            h.runtime->recover();
            auto rec = stats::aggregate() - preRec;
            size_t len = h.listLen();
            if (kind == RuntimeKind::clobber &&
                rec[stats::Counter::reexecutions] > 0) {
                ASSERT_EQ(len, expectedLen - 1) << "crash point " << k;
            } else {
                ASSERT_TRUE(len == expectedLen || len == expectedLen - 1)
                    << "crash point " << k;
            }
            expectedLen = len;
        } else {
            quietInARow++;
            expectedLen--;
        }
        ASSERT_EQ(h.listLen(), expectedLen);
        ASSERT_EQ(h.root().sum, h.listSum()) << "crash point " << k;
    }
    EXPECT_TRUE(sawCrash);
}

/** Crash during recovery itself: recovery must be restartable. */
TEST_P(CrashSweep, CrashDuringRecoveryIsRepairable)
{
    auto [kind, mode] = GetParam();
    Harness h(kind);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 4; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);

    // Interrupt a push mid-flight, past the begin record (a committed
    // push's event count tells us where the middle is; crashing in the
    // begin window would leave nothing for clobber to re-execute).
    uint64_t eventsPerPush;
    {
        uint64_t before = sched.eventCount();
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(5));
        eventsPerPush = sched.eventCount() - before;
    }
    sched.arm(eventsPerPush / 2);
    bool crashed = false;
    try {
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(50));
    } catch (const nvm::CrashInjected&) {
        crashed = true;
    }
    sched.disarm();
    ASSERT_TRUE(crashed);
    h.pool->cache().crashAllLost();

    // Now crash the recovery at successive points, then finish it.
    for (uint64_t k = 1; k < 400; k++) {
        sched.arm(k);
        bool recCrashed = false;
        try {
            h.runtime->recover();
        } catch (const nvm::CrashInjected&) {
            recCrashed = true;
        }
        sched.disarm();
        if (!recCrashed)
            break;
        if (mode == CrashMode::allLost)
            h.pool->cache().crashAllLost();
        else
            h.pool->simulateCrash(31 + k);
    }
    h.runtime->recover();
    size_t len = h.listLen();
    if (kind == RuntimeKind::clobber)
        EXPECT_EQ(len, 6u);
    else
        EXPECT_TRUE(len == 5u || len == 6u);
    EXPECT_EQ(h.root().sum, h.listSum());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CrashSweep,
    ::testing::Values(
        CrashCase{RuntimeKind::undo, CrashMode::allLost},
        CrashCase{RuntimeKind::undo, CrashMode::randomTear},
        CrashCase{RuntimeKind::redo, CrashMode::allLost},
        CrashCase{RuntimeKind::redo, CrashMode::randomTear},
        CrashCase{RuntimeKind::clobber, CrashMode::allLost},
        CrashCase{RuntimeKind::clobber, CrashMode::randomTear},
        CrashCase{RuntimeKind::atlas, CrashMode::allLost},
        CrashCase{RuntimeKind::atlas, CrashMode::randomTear}),
    [](const auto& info) {
        std::string name;
        switch (info.param.kind) {
          case RuntimeKind::undo: name = "pmdk"; break;
          case RuntimeKind::redo: name = "mnemosyne"; break;
          case RuntimeKind::clobber: name = "clobber"; break;
          case RuntimeKind::atlas: name = "atlas"; break;
          default: name = "other"; break;
        }
        name += info.param.mode == CrashMode::allLost ? "_alllost"
                                                      : "_tear";
        return name;
    });

/**
 * Two 4-byte fields that share one 8-byte block, each incremented by
 * its own store. Block-granular suppression must not leave the second
 * store unlogged: a roll-back restores both fields or neither.
 */
const txn::FuncId kSplitBlockIncr = txn::registerTxFunc(
    "test_split_block_incr", [](txn::Tx& tx, txn::ArgReader& a) {
        auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
        auto* half = reinterpret_cast<uint32_t*>(&root->pad[0]);
        for (int i = 0; i < 2; i++) {
            uint32_t v;
            tx.ldBytes(&v, &half[i], sizeof(v));
            v++;
            tx.stBytes(&half[i], &v, sizeof(v));
        }
    });

class SplitBlockSweep : public ::testing::TestWithParam<CrashCase> {};

/**
 * Crash kSplitBlockIncr at every persistency event: after recovery
 * the two fields are equal, and hold the committed count or one more.
 */
TEST_P(SplitBlockSweep, BothFieldsRollBackTogether)
{
    auto [kind, mode] = GetParam();
    Harness h(kind);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    const auto* half =
        reinterpret_cast<const uint32_t*>(&h.root().pad[0]);

    uint32_t committed = 0;
    bool sawCrash = false;
    int quietInARow = 0;
    for (uint64_t k = 1; quietInARow < 2 && k < 1000; k++) {
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kSplitBlockIncr, h.rootPtr().raw());
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            sawCrash = true;
        }
        sched.disarm();
        if (crashed) {
            quietInARow = 0;
            if (mode == CrashMode::allLost)
                h.pool->cache().crashAllLost();
            else
                h.pool->simulateCrash(77 + k);
            h.runtime->recover();
            ASSERT_TRUE(half[0] == committed || half[0] == committed + 1)
                << "crash point " << k;
        } else {
            quietInARow++;
            ASSERT_EQ(half[0], committed + 1) << "crash point " << k;
        }
        ASSERT_EQ(half[1], half[0]) << "crash point " << k;
        committed = half[0];
    }
    EXPECT_TRUE(sawCrash);
}

INSTANTIATE_TEST_SUITE_P(
    UndoFamily, SplitBlockSweep,
    ::testing::Values(
        CrashCase{RuntimeKind::undo, CrashMode::allLost},
        CrashCase{RuntimeKind::undo, CrashMode::randomTear},
        CrashCase{RuntimeKind::atlas, CrashMode::allLost},
        CrashCase{RuntimeKind::atlas, CrashMode::randomTear}),
    [](const auto& info) {
        std::string name =
            info.param.kind == RuntimeKind::undo ? "pmdk" : "atlas";
        name += info.param.mode == CrashMode::allLost ? "_alllost"
                                                      : "_tear";
        return name;
    });

/** Clobber re-execution must observe the *restored* inputs. */
TEST(ClobberRecovery, ReexecutionSeesRestoredInputs)
{
    Harness h(RuntimeKind::clobber);
    CrashScheduler sched(*h.pool);
    auto eng = h.engine();
    for (int i = 0; i < 3; i++)
        txn::run(eng, kIncrCounter, h.rootPtr().raw());
    ASSERT_EQ(h.root().counter, 3u);

    // Crash an increment after its clobber log + in-place store: the
    // re-execution must produce 4, not 5.
    uint64_t eventsPerIncr;
    {
        uint64_t before = sched.eventCount();
        txn::run(eng, kIncrCounter, h.rootPtr().raw());
        eventsPerIncr = sched.eventCount() - before;
    }
    ASSERT_EQ(h.root().counter, 4u);
    for (uint64_t k = 1; k <= eventsPerIncr; k++) {
        uint64_t before = h.root().counter;
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kIncrCounter, h.rootPtr().raw());
            sched.disarm();
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            sched.disarm();
            h.pool->cache().crashAllLost();
        }
        if (crashed) {
            auto preRec = stats::aggregate();
            h.runtime->recover();
            auto rec = stats::aggregate() - preRec;
            if (rec[stats::Counter::reexecutions] > 0) {
                // Re-execution must produce exactly one increment.
                ASSERT_EQ(h.root().counter, before + 1)
                    << "crash point " << k;
            } else {
                // Never begun (pre-v_log) or already committed.
                ASSERT_TRUE(h.root().counter == before ||
                            h.root().counter == before + 1)
                    << "crash point " << k;
            }
        } else {
            ASSERT_EQ(h.root().counter, before + 1);
        }
    }
}

/** The v_log must reproduce argument bytes exactly at re-execution. */
TEST(ClobberRecovery, VlogPreservesVolatileArguments)
{
    static const txn::FuncId kWriteBlob = txn::registerTxFunc(
        "test_write_blob", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            auto bytes = a.getBytes();
            // Read-modify-write so a clobber entry + v_log both exist.
            uint64_t c = tx.ld(root->counter);
            tx.st(root->counter, c + 1);
            auto node = tx.pnew<TestNode>(bytes.size());
            tx.st(node->value, uint64_t(bytes.size()));
            tx.stBytes(node.get() + 1, bytes.data(), bytes.size());
            tx.st(root->head, node);
        });

    std::string payload = "volatile-input-that-must-survive";

    // Sweep crash points on fresh harnesses until one lands after the
    // v_log persist, so recovery re-executes the txfunc from its
    // logged argument bytes.
    bool sawReexecution = false;
    for (uint64_t k = 1; k < 120 && !sawReexecution; k++) {
        Harness h(RuntimeKind::clobber);
        CrashScheduler sched(*h.pool);
        auto eng = h.engine();
        sched.arm(k);
        bool crashed = false;
        try {
            txn::run(eng, kWriteBlob, h.rootPtr().raw(),
                     std::string_view(payload));
            sched.disarm();
        } catch (const nvm::CrashInjected&) {
            crashed = true;
            sched.disarm();
        }
        if (!crashed)
            break;  // the whole txfunc ran without reaching event k
        h.pool->cache().crashAllLost();
        auto preRec = stats::aggregate();
        h.runtime->recover();
        auto rec = stats::aggregate() - preRec;
        if (rec[stats::Counter::reexecutions] == 0)
            continue;  // crashed before the v_log persist
        sawReexecution = true;
        ASSERT_EQ(h.root().counter, 1u) << "crash point " << k;
        auto node = h.root().head;
        ASSERT_FALSE(node.isNull()) << "crash point " << k;
        ASSERT_EQ(node->value, payload.size()) << "crash point " << k;
        EXPECT_EQ(
            std::string(reinterpret_cast<const char*>(node.get() + 1),
                        payload.size()),
            payload)
            << "crash point " << k;
    }
    EXPECT_TRUE(sawReexecution);
}

}  // namespace
}  // namespace cnvm::test
