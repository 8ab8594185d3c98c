/** @file Tests for the YCSB and memslap workload generators. */
#include <gtest/gtest.h>

#include <set>

#include "workloads/memslap.h"
#include "workloads/ycsb.h"

namespace cnvm::wl {
namespace {

TEST(Ycsb, LoadProducesUniqueOrderedlessKeys)
{
    Ycsb gen(YcsbKind::load, 10000, 8, 256, 1);
    std::set<std::string> keys;
    for (int i = 0; i < 5000; i++) {
        auto req = gen.next();
        EXPECT_EQ(req.op, YcsbOp::insert);
        EXPECT_EQ(req.key.size(), 8u);
        EXPECT_EQ(req.value.size(), 256u);
        EXPECT_TRUE(keys.insert(req.key).second) << "dup at " << i;
    }
}

TEST(Ycsb, DeterministicStreams)
{
    Ycsb a(YcsbKind::a, 1000, 8, 64, 9);
    Ycsb b(YcsbKind::a, 1000, 8, 64, 9);
    for (int i = 0; i < 1000; i++) {
        auto ra = a.next();
        auto rb = b.next();
        EXPECT_EQ(ra.key, rb.key);
        EXPECT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op));
    }
}

TEST(Ycsb, MixRatiosRoughlyHold)
{
    Ycsb gen(YcsbKind::b, 1000, 8, 64, 3);
    int reads = 0;
    for (int i = 0; i < 10000; i++)
        reads += gen.next().op == YcsbOp::read;
    EXPECT_GT(reads, 9200);
    EXPECT_LT(reads, 9800);
}

TEST(Ycsb, BptreeKeysPadTo32)
{
    Ycsb gen(YcsbKind::load, 100, 32, 16, 1);
    EXPECT_EQ(gen.keyOf(5).size(), 32u);
}

TEST(Memslap, KeyAndValueSizesMatchPaper)
{
    Memslap gen(0.95, 10000, 1);
    for (int i = 0; i < 200; i++) {
        auto req = gen.next();
        EXPECT_EQ(req.key.size(), 16u);
        if (req.op == KvOp::set) {
            EXPECT_EQ(req.value.size(), 64u);
        }
    }
}

TEST(Memslap, InsertFractionHolds)
{
    for (const auto& mix : memslapMixes()) {
        Memslap gen(mix.insertFraction, 1000, 11);
        int sets = 0;
        constexpr int kN = 20000;
        for (int i = 0; i < kN; i++)
            sets += gen.next().op == KvOp::set;
        double frac = static_cast<double>(sets) / kN;
        EXPECT_NEAR(frac, mix.insertFraction, 0.02) << mix.name;
    }
}

}  // namespace
}  // namespace cnvm::wl
