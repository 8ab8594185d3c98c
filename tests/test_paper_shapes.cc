/**
 * @file
 * Paper shapes: the scorecard's claims (EXPERIMENTS.md) asserted on
 * exact counters at smoke scale (ctest `paper_shapes`, label perfgate).
 *
 * Each claim compares deterministic per-transaction counts — log
 * entries, log bytes, fences, compiler-pass sites — never throughput,
 * which the sim executor derives from measured compute time:
 *
 *  - Fig. 7: per structure, Clobber-NVM (both logs) logs fewer entries
 *    and issues fewer fences per transaction than PMDK's undo log;
 *  - Fig. 7: with only the v_log enabled, every transaction logs
 *    exactly one v_log entry and nothing else;
 *  - Fig. 8: iDO logs at least as many bytes per transaction as
 *    Clobber-NVM on every structure;
 *  - Fig. 13 (static): refinement removes 2 of the 5 skiplist clobber
 *    candidates;
 *  - Fig. 13 (dynamic): unoptimized (conservative) runs log more
 *    clobber entries than optimized (refined) ones on bptree and
 *    rbtree, and never fewer on memcached's insert-intensive mix.
 *    (Memcached's sets now log the same entries under both policies:
 *    an in-place update is a blind write, so no store re-clobbers an
 *    input the transaction already wrote.)
 *
 * Sizes are fixed here; nothing is read from the environment.
 */
#include <gtest/gtest.h>

#include <string>

#include "apps/kv/kv_server.h"
#include "cir/builders.h"
#include "cir/clobber_pass.h"
#include "runtimes/clobber.h"
#include "stats/counters.h"
#include "structures/kv.h"
#include "testutil.h"
#include "workloads/memslap.h"
#include "workloads/ycsb.h"

namespace cnvm::test {
namespace {

using stats::Counter;
using txn::RuntimeKind;

constexpr size_t kOps = 500;

/** Per-transaction counts of one YCSB-Load insert run. */
struct PerTx {
    double entries = 0;
    double bytes = 0;
    double fences = 0;
    uint64_t vlogEntries = 0;
    uint64_t clobberEntries = 0;
    uint64_t txs = 0;
};

PerTx
loadRun(RuntimeKind kind, const std::string& structure,
        rt::ClobberPolicy policy = rt::ClobberPolicy::refined,
        bool vlog = true, bool clobberLog = true)
{
    Harness h(kind, policy, 64ULL << 20, 256ULL << 10);
    if (kind == RuntimeKind::clobber) {
        auto* cl = dynamic_cast<rt::ClobberRuntime*>(h.runtime.get());
        cl->setVlogEnabled(vlog);
        cl->setClobberLogEnabled(clobberLog);
    }
    txn::Engine eng = h.engine();
    auto kv = ds::makeKv(structure, eng);
    size_t keyLen = structure == "bptree" ? 32 : 8;
    wl::Ycsb ycsb(wl::YcsbKind::load, kOps, keyLen, 256);
    auto before = stats::aggregate();
    for (size_t i = 0; i < kOps; i++)
        kv->insert(ycsb.keyOf(i), ycsb.valueOf(i));
    auto d = stats::aggregate() - before;

    PerTx r;
    r.txs = d[Counter::txCommits];
    r.vlogEntries = d[Counter::vlogEntries];
    r.clobberEntries = d[Counter::clobberEntries];
    uint64_t entries = 0;
    uint64_t bytes = 0;
    if (kind == RuntimeKind::undo) {
        entries = d[Counter::undoEntries];
        bytes = d[Counter::undoBytes];
    } else if (kind == RuntimeKind::ido) {
        entries = d[Counter::idoEntries];
        bytes = d[Counter::idoBytes];
    } else {
        entries = d[Counter::clobberEntries] + d[Counter::vlogEntries];
        bytes = d[Counter::clobberBytes] + d[Counter::vlogBytes];
    }
    auto n = static_cast<double>(r.txs);
    r.entries = static_cast<double>(entries) / n;
    r.bytes = static_cast<double>(bytes) / n;
    r.fences = static_cast<double>(d[Counter::fences]) / n;
    return r;
}

TEST(PaperShapes, ClobberLogsAndFencesLessThanPmdk)
{
    for (const std::string& s : ds::benchmarkStructures()) {
        PerTx clob = loadRun(RuntimeKind::clobber, s);
        PerTx pmdk = loadRun(RuntimeKind::undo, s);
        ASSERT_EQ(clob.txs, kOps) << s;
        ASSERT_EQ(pmdk.txs, kOps) << s;
        EXPECT_LT(clob.entries, pmdk.entries) << s;
        EXPECT_LT(clob.fences, pmdk.fences) << s;
        std::printf("fig7 %-8s entries/tx clobber %.3f pmdk %.3f, "
                    "fences/tx clobber %.3f pmdk %.3f\n",
                    s.c_str(), clob.entries, pmdk.entries, clob.fences,
                    pmdk.fences);
    }
}

TEST(PaperShapes, VlogOnlyLogsOneEntryPerTransaction)
{
    for (const std::string& s : ds::benchmarkStructures()) {
        PerTx v = loadRun(RuntimeKind::clobber, s,
                          rt::ClobberPolicy::refined, /* vlog */ true,
                          /* clobberLog */ false);
        EXPECT_EQ(v.txs, kOps) << s;
        EXPECT_EQ(v.vlogEntries, v.txs) << s;
        EXPECT_EQ(v.clobberEntries, 0u) << s;
    }
}

TEST(PaperShapes, IdoLogsAtLeastClobbersBytes)
{
    for (const std::string& s : ds::benchmarkStructures()) {
        PerTx ido = loadRun(RuntimeKind::ido, s);
        PerTx clob = loadRun(RuntimeKind::clobber, s);
        EXPECT_GE(ido.bytes, clob.bytes) << s;
        std::printf("fig8 %-8s bytes/tx ido %.1f clobber %.1f\n",
                    s.c_str(), ido.bytes, clob.bytes);
    }
}

TEST(PaperShapes, RefinementRemovesTwoOfFiveSkiplistCandidates)
{
    // The paper's one-level insert has 5 candidate sites; the
    // benchmark's three-level one has 7, and refinement removes the
    // same 2.
    cir::ClobberResult one =
        cir::analyzeClobbers(cir::buildSkiplistInsert(1));
    EXPECT_EQ(one.conservativeSites.size(), 5u);
    EXPECT_EQ(one.refinedSites.size(), 3u);
    cir::ClobberResult three =
        cir::analyzeClobbers(cir::buildSkiplistInsert(3));
    EXPECT_EQ(three.conservativeSites.size() - three.refinedSites.size(),
              2u);
}

TEST(PaperShapes, UnoptimizedTreesLogMoreEntries)
{
    for (const char* s : {"bptree", "rbtree"}) {
        uint64_t cons = loadRun(RuntimeKind::clobber, s,
                                rt::ClobberPolicy::conservative)
                            .clobberEntries;
        uint64_t refined = loadRun(RuntimeKind::clobber, s).clobberEntries;
        EXPECT_GT(cons, refined) << s;
        std::printf("fig13 %-8s clobber entries: conservative %llu "
                    "refined %llu\n",
                    s, static_cast<unsigned long long>(cons),
                    static_cast<unsigned long long>(refined));
    }
}

/** Clobber entries of memcached sets/gets under `policy`. */
uint64_t
memcachedEntries(rt::ClobberPolicy policy)
{
    Harness h(RuntimeKind::clobber, policy, 64ULL << 20, 256ULL << 10);
    txn::Engine eng = h.engine();
    apps::KvServer server(eng);
    wl::Memslap gen(wl::memslapMixes().front().insertFraction, kOps, 3);
    ds::LookupResult sink;
    auto before = stats::aggregate();
    for (size_t i = 0; i < kOps; i++) {
        auto req = gen.next();
        if (req.op == wl::KvOp::set)
            server.set(req.key, req.value);
        else
            server.get(req.key, &sink);
    }
    return (stats::aggregate() - before)[Counter::clobberEntries];
}

TEST(PaperShapes, UnoptimizedMemcachedNeverLogsFewerEntries)
{
    ASSERT_STREQ(wl::memslapMixes().front().name, "insert-intensive");
    uint64_t cons = memcachedEntries(rt::ClobberPolicy::conservative);
    uint64_t refined = memcachedEntries(rt::ClobberPolicy::refined);
    // The paper's 32% more entries unoptimized does not reproduce: a
    // set re-clobbers nothing, so the two policies log the same.
    EXPECT_GE(cons, refined);
    std::printf("fig13 memcached-insert-intensive clobber entries: "
                "conservative %llu refined %llu\n",
                static_cast<unsigned long long>(cons),
                static_cast<unsigned long long>(refined));
}

}  // namespace
}  // namespace cnvm::test
