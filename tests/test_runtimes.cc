/** @file Functional tests of every runtime's transaction semantics. */
#include <gtest/gtest.h>

#include "stats/counters.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using txn::RuntimeKind;

class RuntimeSemantics
    : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(RuntimeSemantics, CounterIncrements)
{
    Harness h(GetParam());
    auto eng = h.engine();
    for (int i = 0; i < 10; i++)
        txn::run(eng, kIncrCounter, h.rootPtr().raw());
    EXPECT_EQ(h.root().counter, 10u);
}

TEST_P(RuntimeSemantics, ListPushPopKeepsSumInvariant)
{
    Harness h(GetParam());
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 20; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    EXPECT_EQ(h.listLen(), 20u);
    EXPECT_EQ(h.root().sum, 210u);
    EXPECT_EQ(h.listSum(), 210u);
    for (int i = 0; i < 5; i++)
        txn::run(eng, kPopNode, h.rootPtr().raw());
    EXPECT_EQ(h.listLen(), 15u);
    EXPECT_EQ(h.root().sum, h.listSum());
}

TEST_P(RuntimeSemantics, FreedMemoryIsReusable)
{
    Harness h(GetParam());
    auto eng = h.engine();
    size_t before = h.heap->freeBytes();
    for (int round = 0; round < 50; round++) {
        txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(7));
        txn::run(eng, kPopNode, h.rootPtr().raw());
    }
    EXPECT_EQ(h.listLen(), 0u);
    EXPECT_EQ(h.heap->freeBytes(), before);
}

TEST_P(RuntimeSemantics, CommittedStateSurvivesTotalCacheLoss)
{
    if (GetParam() == RuntimeKind::noLog)
        GTEST_SKIP() << "no-log gives no durability guarantee";
    Harness h(GetParam());
    auto eng = h.engine();
    for (uint64_t v = 1; v <= 8; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    // Power loss right after the last commit: all 8 pushes must hold.
    h.pool->cache().crashAllLost();
    h.runtime->recover();
    EXPECT_EQ(h.listLen(), 8u);
    EXPECT_EQ(h.root().sum, 36u);
    EXPECT_EQ(h.listSum(), 36u);
}

TEST_P(RuntimeSemantics, ReadOnlyTransactionsCostNoFences)
{
    Harness h(GetParam());
    if (GetParam() == RuntimeKind::atlas)
        GTEST_SKIP() << "Atlas logs every critical section";
    auto eng = h.engine();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(1));
    auto before = stats::aggregate();
    for (int i = 0; i < 10; i++)
        txn::run(eng, kReadOnly, h.rootPtr().raw());
    auto delta = stats::aggregate() - before;
    EXPECT_EQ(delta[stats::Counter::fences], 0u);
    EXPECT_EQ(delta[stats::Counter::txCommits], 10u);
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, RuntimeSemantics,
    ::testing::Values(RuntimeKind::noLog, RuntimeKind::undo,
                      RuntimeKind::redo, RuntimeKind::clobber,
                      RuntimeKind::atlas, RuntimeKind::ido),
    [](const auto& info) {
        switch (info.param) {
          case RuntimeKind::noLog: return "nolog";
          case RuntimeKind::undo: return "pmdk";
          case RuntimeKind::redo: return "mnemosyne";
          case RuntimeKind::clobber: return "clobber";
          case RuntimeKind::atlas: return "atlas";
          case RuntimeKind::ido: return "ido";
        }
        return "?";
    });

TEST(ClobberLogging, BlindWritesAreNotLogged)
{
    Harness h(txn::RuntimeKind::clobber);
    auto eng = h.engine();
    auto before = stats::aggregate();
    txn::run(eng, kBlindWrite, h.rootPtr().raw(), uint64_t(99));
    auto delta = stats::aggregate() - before;
    // sum was never read: an output-only store needs no clobber log.
    EXPECT_EQ(delta[stats::Counter::clobberEntries], 0u);
    EXPECT_EQ(h.root().sum, 99u);
}

TEST(ClobberLogging, ReadModifyWriteIsLoggedOnce)
{
    Harness h(txn::RuntimeKind::clobber);
    auto eng = h.engine();
    auto before = stats::aggregate();
    txn::run(eng, kIncrCounter, h.rootPtr().raw());
    auto delta = stats::aggregate() - before;
    EXPECT_EQ(delta[stats::Counter::clobberEntries], 1u);
    EXPECT_EQ(delta[stats::Counter::clobberBytes], 8u);
    EXPECT_EQ(delta[stats::Counter::vlogEntries], 1u);
}

TEST(ClobberLogging, FreshAllocationsAreNeverLogged)
{
    Harness h(txn::RuntimeKind::clobber);
    auto eng = h.engine();
    auto before = stats::aggregate();
    txn::run(eng, kPushNode, h.rootPtr().raw(), uint64_t(5));
    auto delta = stats::aggregate() - before;
    // push reads head + sum and overwrites both: exactly 2 clobber
    // entries; the node/value writes are to fresh memory.
    EXPECT_EQ(delta[stats::Counter::clobberEntries], 2u);
}

TEST(ClobberLogging, UndoLogsStrictlyMore)
{
    Harness hC(txn::RuntimeKind::clobber);
    {
        auto eng = hC.engine();
        stats::resetAll();
        for (uint64_t v = 0; v < 50; v++)
            txn::run(eng, kPushNode, hC.rootPtr().raw(), v);
    }
    auto clobber = stats::aggregate();

    Harness hU(txn::RuntimeKind::undo);
    {
        auto eng = hU.engine();
        stats::resetAll();
        for (uint64_t v = 0; v < 50; v++)
            txn::run(eng, kPushNode, hU.rootPtr().raw(), v);
    }
    auto undo = stats::aggregate();

    EXPECT_GT(undo[stats::Counter::undoEntries],
              clobber[stats::Counter::clobberEntries]);
    stats::resetAll();
}

TEST(ClobberPolicy, ConservativeLogsAtLeastAsMuch)
{
    Harness hR(txn::RuntimeKind::clobber, rt::ClobberPolicy::refined);
    stats::resetAll();
    {
        auto eng = hR.engine();
        for (uint64_t v = 0; v < 30; v++)
            txn::run(eng, kPushNode, hR.rootPtr().raw(), v);
    }
    auto refined = stats::aggregate();

    Harness hCo(txn::RuntimeKind::clobber,
                rt::ClobberPolicy::conservative);
    stats::resetAll();
    {
        auto eng = hCo.engine();
        for (uint64_t v = 0; v < 30; v++)
            txn::run(eng, kPushNode, hCo.rootPtr().raw(), v);
    }
    auto cons = stats::aggregate();
    EXPECT_GE(cons[stats::Counter::clobberEntries],
              refined[stats::Counter::clobberEntries]);
    stats::resetAll();
}

TEST(IdoLogging, LogsAtLeastAsManyBytesAsClobber)
{
    Harness hC(txn::RuntimeKind::clobber);
    stats::resetAll();
    {
        auto eng = hC.engine();
        for (uint64_t v = 0; v < 30; v++)
            txn::run(eng, kPushNode, hC.rootPtr().raw(), v);
    }
    auto clobber = stats::aggregate();

    Harness hI(txn::RuntimeKind::ido);
    stats::resetAll();
    {
        auto eng = hI.engine();
        for (uint64_t v = 0; v < 30; v++)
            txn::run(eng, kPushNode, hI.rootPtr().raw(), v);
    }
    auto ido = stats::aggregate();
    EXPECT_GE(ido[stats::Counter::idoBytes],
              clobber[stats::Counter::clobberBytes] +
                  clobber[stats::Counter::vlogBytes]);
    stats::resetAll();
}

TEST(AtlasLogging, LockAndDependencyRecords)
{
    Harness h(txn::RuntimeKind::atlas);
    auto eng = h.engine();
    auto before = stats::aggregate();
    txn::run(eng, kIncrCounter, h.rootPtr().raw());
    auto delta = stats::aggregate() - before;
    EXPECT_GE(delta[stats::Counter::lockLogEntries], 2u);
    EXPECT_EQ(delta[stats::Counter::depRecords], 1u);
}

TEST(RedoRuntime, ReadsSeeOwnWritesInsideTx)
{
    Harness h(txn::RuntimeKind::redo);
    auto eng = h.engine();
    // incr twice inside independent txs; each read must see the
    // previous committed value even though stores are buffered.
    txn::run(eng, kIncrCounter, h.rootPtr().raw());
    txn::run(eng, kIncrCounter, h.rootPtr().raw());
    EXPECT_EQ(h.root().counter, 2u);

    static const txn::FuncId kDoubleIncr = txn::registerTxFunc(
        "test_double_incr", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            // Two RMWs in one tx: the second must see the first.
            tx.st(root->counter, tx.ld(root->counter) + 1);
            tx.st(root->counter, tx.ld(root->counter) + 1);
        });
    txn::run(eng, kDoubleIncr, h.rootPtr().raw());
    EXPECT_EQ(h.root().counter, 4u);
}

TEST(RedoRuntime, FewerFencesThanUndoForBigTx)
{
    static const txn::FuncId kManyStores = txn::registerTxFunc(
        "test_many_stores", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            for (uint64_t i = 0; i < 16; i++) {
                uint64_t v = tx.ld(root->pad[i % 5]);
                tx.st(root->pad[i % 5], v + i);
            }
        });

    Harness hU(txn::RuntimeKind::undo);
    stats::resetAll();
    {
        auto eng = hU.engine();
        txn::run(eng, kManyStores, hU.rootPtr().raw());
    }
    auto undo = stats::aggregate();

    Harness hR(txn::RuntimeKind::redo);
    stats::resetAll();
    {
        auto eng = hR.engine();
        txn::run(eng, kManyStores, hR.rootPtr().raw());
    }
    auto redo = stats::aggregate();
    EXPECT_LT(redo[stats::Counter::fences],
              undo[stats::Counter::fences]);
    stats::resetAll();
}

// Shared by the fence-accounting tests below: a scratch region big
// enough that each stored word lands in its own 8-byte block.
const txn::FuncId kMakeRegion = txn::registerTxFunc(
    "test_make_region", [](txn::Tx& tx, txn::ArgReader& a) {
        auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
        uint64_t off = tx.pmallocOff(1024);
        tx.st(root->counter, off);
    });

const txn::FuncId kStoreWords = txn::registerTxFunc(
    "test_store_words", [](txn::Tx& tx, txn::ArgReader& a) {
        uint64_t regionOff = a.get<uint64_t>();
        uint64_t count = a.get<uint64_t>();
        auto* w = static_cast<uint64_t*>(tx.pool().at(regionOff));
        for (uint64_t i = 0; i < count; i++)
            tx.st(w[i], i + 1);
    });

TEST(ZeroLengthAccess, CostsNoFencesOrLogEntries)
{
    static const txn::FuncId kZeroLenOnly = txn::registerTxFunc(
        "test_zero_len_only", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            uint8_t buf = 0;
            tx.ldBytes(&buf, &root->sum, 0);
            tx.stBytes(&root->sum, &buf, 0);
        });
    for (auto kind : {RuntimeKind::noLog, RuntimeKind::undo,
                      RuntimeKind::redo, RuntimeKind::clobber,
                      RuntimeKind::ido}) {
        Harness h(kind);
        auto eng = h.engine();
        auto before = stats::aggregate();
        txn::run(eng, kZeroLenOnly, h.rootPtr().raw());
        auto delta = stats::aggregate() - before;
        // An empty access touches no block, so the transaction stays
        // on the read-only fast path (regression: forEachBlock used to
        // visit one block for n == 0).
        EXPECT_EQ(delta[stats::Counter::fences], 0u)
            << h.runtime->name();
        EXPECT_EQ(delta[stats::Counter::txCommits], 1u);
    }
}

TEST(ZeroLengthAccess, DoesNotPolluteClobberReadSet)
{
    static const txn::FuncId kZeroLdThenStore = txn::registerTxFunc(
        "test_zero_ld_then_store", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            uint8_t buf;
            tx.ldBytes(&buf, &root->sum, 0);  // empty read of sum
            tx.st(root->sum, uint64_t{77});   // still a blind write
        });
    Harness h(RuntimeKind::clobber);
    auto eng = h.engine();
    auto before = stats::aggregate();
    txn::run(eng, kZeroLdThenStore, h.rootPtr().raw());
    auto delta = stats::aggregate() - before;
    EXPECT_EQ(delta[stats::Counter::clobberEntries], 0u);
    EXPECT_EQ(h.root().sum, 77u);
}

TEST(RedoRuntime, CommitFencesAreConstantPerTx)
{
    Harness h(RuntimeKind::redo);
    auto eng = h.engine();
    txn::run(eng, kMakeRegion, h.rootPtr().raw());
    uint64_t regionOff = h.root().counter;
    auto fencesFor = [&](uint64_t count) {
        auto before = stats::aggregate();
        txn::run(eng, kStoreWords, regionOff, count);
        return (stats::aggregate() - before)[stats::Counter::fences];
    };
    // Redo entries are flushed without a fence; only the commit
    // sequence (log drain, commit record, write-back, release) pays
    // them, so the count is O(1) in the number of stores.
    uint64_t small = fencesFor(2);
    uint64_t large = fencesFor(64);
    EXPECT_EQ(small, large);
    EXPECT_LE(large, 4u);
}

TEST(CommitWriteBack, CompactedDirtyLinesAllPersist)
{
    // Each pass stores one word per line, so consecutive stores never
    // share a line: the same-line memo never fires and the slot's
    // dirty-line list compacts twice before commit.
    static const txn::FuncId kStridedPasses = txn::registerTxFunc(
        "test_strided_passes", [](txn::Tx& tx, txn::ArgReader& a) {
            auto root = nvm::PPtr<TestRoot>(a.get<uint64_t>());
            uint64_t lines = a.get<uint64_t>();
            uint64_t off = tx.pmallocOff(lines * nvm::kCacheLine);
            tx.st(root->counter, off);
            auto* w = static_cast<uint64_t*>(tx.pool().at(off));
            for (uint64_t pass = 0; pass < 8; pass++) {
                for (uint64_t ln = 0; ln < lines; ln++)
                    tx.st(w[ln * 8 + pass], ln * 8 + pass + 1);
            }
        });
    constexpr uint64_t kLines = 256;
    for (auto kind : {RuntimeKind::undo, RuntimeKind::redo,
                      RuntimeKind::clobber, RuntimeKind::ido}) {
        Harness h(kind);
        auto eng = h.engine();
        txn::run(eng, kStridedPasses, h.rootPtr().raw(), kLines);
        h.pool->cache().crashAllLost();
        h.runtime->recover();
        const auto* w =
            static_cast<const uint64_t*>(h.pool->at(h.root().counter));
        for (uint64_t i = 0; i < kLines * 8; i++)
            ASSERT_EQ(w[i], i + 1) << h.runtime->name() << " word " << i;
    }
}

TEST(AtlasLogging, MarkerRecordsAreFlushedWithoutFences)
{
    Harness h(RuntimeKind::atlas);
    auto eng = h.engine();
    txn::run(eng, kMakeRegion, h.rootPtr().raw());
    uint64_t regionOff = h.root().counter;
    auto fencesFor = [&](uint64_t count) {
        auto before = stats::aggregate();
        txn::run(eng, kStoreWords, regionOff, count);
        return (stats::aggregate() - before)[stats::Counter::fences];
    };
    // Undo images keep their per-entry fence (they must beat the
    // in-place write), but lock markers and dependency records are
    // flush-only, leaving one fence per store plus a constant per-tx
    // overhead (begin persist, commit write-back, release).
    uint64_t f8 = fencesFor(8);
    uint64_t f32 = fencesFor(32);
    EXPECT_EQ(f32 - f8, 24u);  // exactly one fence per extra store
    EXPECT_EQ(f8, 8u + 3u);
}

}  // namespace
}  // namespace cnvm::test
