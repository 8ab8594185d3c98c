/**
 * @file
 * Tests for the persistency checker: the static CIR lint
 * (analysis/persist_check) and the dynamic durability validator
 * (analysis/durability).
 */
#include <gtest/gtest.h>

#include "analysis/durability.h"
#include "analysis/fixtures.h"
#include "analysis/persist_check.h"
#include "analysis/reexec_check.h"
#include "cir/builders.h"
#include "cir/clobber_pass.h"
#include "cir/summaries.h"
#include "stats/counters.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using analysis::CheckKind;
using analysis::Severity;
using txn::RuntimeKind;

// ---------------------------------------------------------------------
// Static lint: seeded-violation fixtures.

TEST(PersistCheck, FlagsEverySeededViolation)
{
    auto fixtures = analysis::seededViolationFixtures();
    ASSERT_EQ(fixtures.size(), 4u);
    for (const auto& [fn, expected] : fixtures) {
        auto rep = analysis::checkPersistency(fn);
        EXPECT_TRUE(rep.has(expected))
            << fn.name() << ": seeded "
            << analysis::checkKindName(expected) << " not flagged\n"
            << rep.toString(fn);
    }
}

TEST(PersistCheck, MissingFlushIsAnError)
{
    auto fn = analysis::buildMissingFlushFixture();
    auto rep = analysis::checkPersistency(fn);
    EXPECT_TRUE(rep.has(CheckKind::missingFlush));
    EXPECT_FALSE(rep.clean());
    EXPECT_GE(rep.count(Severity::error), 1);
    // The bug is the flush, not the logging.
    EXPECT_FALSE(rep.has(CheckKind::unloggedClobber)) << rep.toString(fn);
}

TEST(PersistCheck, MissingFenceIsAnError)
{
    auto fn = analysis::buildMissingFenceFixture();
    auto rep = analysis::checkPersistency(fn);
    EXPECT_TRUE(rep.has(CheckKind::missingFence));
    EXPECT_FALSE(rep.clean());
    EXPECT_FALSE(rep.has(CheckKind::missingFlush)) << rep.toString(fn);
}

TEST(PersistCheck, UnloggedClobberIsAnError)
{
    auto fn = analysis::buildUnloggedClobberFixture();
    auto rep = analysis::checkPersistency(fn);
    EXPECT_TRUE(rep.has(CheckKind::unloggedClobber));
    EXPECT_FALSE(rep.clean());
    EXPECT_FALSE(rep.has(CheckKind::missingFlush)) << rep.toString(fn);
    EXPECT_FALSE(rep.has(CheckKind::missingFence)) << rep.toString(fn);
}

TEST(PersistCheck, DoubleFlushIsAWarningOnly)
{
    auto fn = analysis::buildDoubleFlushFixture();
    auto rep = analysis::checkPersistency(fn);
    EXPECT_TRUE(rep.has(CheckKind::doubleFlush));
    // A redundant flush is a perf diagnostic, not a correctness bug.
    EXPECT_TRUE(rep.clean()) << rep.toString(fn);
    EXPECT_GE(rep.count(Severity::warning), 1);
}

TEST(PersistCheck, CleanFixtureReportsNothing)
{
    auto fn = analysis::buildCleanFixture();
    auto rep = analysis::checkPersistency(fn);
    EXPECT_TRUE(rep.violations.empty()) << rep.toString(fn);
    EXPECT_GE(rep.storesChecked, 1);
    EXPECT_GE(rep.flushesChecked, 1);
}

// ---------------------------------------------------------------------
// Static lint over the benchmark corpus.

TEST(PersistCheck, UninstrumentedBenchmarksFailTheLint)
{
    // Every benchmark function stores to NVM but emits no persistence
    // intrinsics, so the raw functions must be flagged.
    for (const auto& mod : cir::benchmarkModules()) {
        for (const auto& fn : mod.functions) {
            auto rep = analysis::checkPersistency(fn);
            if (rep.storesChecked == 0)
                continue;
            EXPECT_TRUE(rep.has(CheckKind::missingFlush))
                << mod.name << "/" << fn.name();
        }
    }
}

TEST(PersistCheck, InstrumentedBenchmarksAreViolationFree)
{
    // instrumentPersistency is the compiler-emission step; its output
    // must satisfy the checker with zero errors AND zero warnings
    // (no false positives on any of the eight benchmark bodies).
    for (const auto& mod : cir::benchmarkModules()) {
        for (const auto& fn : mod.functions) {
            auto res = cir::analyzeClobbers(fn);
            auto inst = analysis::instrumentPersistency(fn, res);
            auto rep = analysis::checkPersistency(inst);
            EXPECT_TRUE(rep.clean())
                << mod.name << "/" << rep.toString(inst);
            EXPECT_EQ(rep.count(Severity::warning), 0)
                << mod.name << "/" << rep.toString(inst);
        }
    }
}

TEST(PersistCheck, InstrumentationPreservesClobberAnalysis)
{
    // The intrinsics define no SSA values, so value numbering — and
    // with it the clobber analysis — is unchanged by instrumentation.
    for (const auto& mod : cir::benchmarkModules()) {
        for (const auto& fn : mod.functions) {
            auto before = cir::analyzeClobbers(fn);
            auto inst =
                analysis::instrumentPersistency(fn, before);
            auto after = cir::analyzeClobbers(inst);
            EXPECT_EQ(after.refinedSites.size(),
                      before.refinedSites.size())
                << mod.name << "/" << fn.name();
        }
    }
}

// ---------------------------------------------------------------------
// Re-execution-safety verifier: seeded interprocedural fixtures.

const cir::Function&
findFn(const cir::IrModule& mod, const std::string& name)
{
    for (const auto& fn : mod.functions)
        if (fn.name() == name)
            return fn;
    ADD_FAILURE() << mod.name << ": no function " << name;
    return mod.functions.front();
}

TEST(ReexecCheck, FlagsEverySeededViolation)
{
    auto fixtures = analysis::seededReexecFixtures();
    ASSERT_EQ(fixtures.size(), 4u);
    for (const auto& fix : fixtures) {
        cir::ModuleSummaries sums(fix.mod.functions);
        const auto& tx = findFn(fix.mod, fix.txFunction);
        auto rep = analysis::checkReexecSafety(tx, sums);
        EXPECT_TRUE(rep.has(fix.expected))
            << tx.name() << ": seeded "
            << analysis::checkKindName(fix.expected)
            << " not flagged\n"
            << rep.toString(tx);
        EXPECT_FALSE(rep.clean()) << tx.name();
        // Every finding ships a fix-it hint.
        for (const auto& v : rep.violations)
            EXPECT_FALSE(v.hint.empty())
                << tx.name() << ": "
                << analysis::checkKindName(v.kind);
    }
}

TEST(ReexecCheck, NondeterminismSeenThroughPureDeclaredCall)
{
    // The tx declares its helper call pure; the helper reaches
    // rdtsc. Only the transitive summary can catch the lie.
    auto mod = analysis::buildNondetTxModule();
    cir::ModuleSummaries sums(mod.functions);
    const auto& tx = findFn(mod, "seed_nondet_call");
    auto rep = analysis::checkReexecSafety(tx, sums);
    ASSERT_EQ(rep.count(CheckKind::nondetInTx), 1);
    for (const auto& v : rep.violations)
        if (v.kind == CheckKind::nondetInTx) {
            EXPECT_EQ(v.callee, "get_stamp");
        }
    // The helper itself is also unsafe to replay.
    auto hrep =
        analysis::checkReexecSafety(findFn(mod, "get_stamp"), sums);
    EXPECT_TRUE(hrep.has(CheckKind::nondetInTx));
}

TEST(ReexecCheck, CleanModuleIsSilent)
{
    auto mod = analysis::buildReexecCleanModule();
    cir::ModuleSummaries sums(mod.functions);
    for (const auto& fn : mod.functions) {
        auto rep = analysis::checkReexecSafety(fn, sums);
        EXPECT_TRUE(rep.violations.empty())
            << fn.name() << "\n" << rep.toString(fn);
        EXPECT_GE(rep.callsChecked, 0);
        auto prep = analysis::checkPersistency(fn, &sums);
        EXPECT_TRUE(prep.clean())
            << fn.name() << "\n" << prep.toString(fn);
        EXPECT_EQ(prep.count(Severity::warning), 0)
            << fn.name() << "\n" << prep.toString(fn);
    }
}

TEST(ReexecCheck, HiddenClobberNeedsSummaries)
{
    // The acceptance pin at fixture level: the tx body is a single
    // call, so the intraprocedural clobber pass provably finds no
    // sites, while the interprocedural pass pins the call site and
    // both interprocedural audits flag the missing log.
    auto mod = analysis::buildHiddenClobberModule();
    const auto& tx = findFn(mod, "seed_hidden_clobber");

    auto intra = cir::analyzeClobbers(tx);
    EXPECT_TRUE(intra.conservativeSites.empty());
    EXPECT_TRUE(intra.refinedSites.empty());

    cir::ModuleSummaries sums(mod.functions);
    auto inter = cir::analyzeClobbers(tx, sums);
    ASSERT_EQ(inter.refinedSites.size(), 1u);
    EXPECT_EQ(tx.at(inter.refinedSites[0]).callee,
              "sum_bump_unlogged");

    auto rrep = analysis::checkReexecSafety(tx, sums);
    EXPECT_TRUE(rrep.has(CheckKind::hiddenClobber));
    auto prep = analysis::checkPersistency(tx, &sums);
    EXPECT_TRUE(prep.has(CheckKind::unloggedClobber))
        << prep.toString(tx);
}

TEST(ReexecCheck, CallerSideLogDischargesHiddenClobber)
{
    // Same unlogged helper, but the caller clobber_logs the argument
    // before the call: the obligation is met at the call site.
    auto mod = analysis::buildHiddenClobberModule();
    cir::Function tx("tx_logged_at_caller");
    int b = tx.addBlock("entry");
    cir::ValueId p = cir::emitArg(tx, b, "p");
    cir::emitClobberLog(tx, b, p, "clobber_log p (caller side)");
    cir::emitCall(tx, b, "sum_bump_unlogged",
                  cir::Effect::writesNVM, {p});
    mod.functions.push_back(tx);

    cir::ModuleSummaries sums(mod.functions);
    auto rep = analysis::checkReexecSafety(
        findFn(mod, "tx_logged_at_caller"), sums);
    EXPECT_FALSE(rep.has(CheckKind::hiddenClobber))
        << rep.toString(tx);
}

TEST(ReexecCheck, RuntimeTxCorpusVerifiesClean)
{
    // The acceptance gate in unit-test form: every runtime tx
    // function passes both interprocedural audits with zero errors.
    auto mod = cir::runtimeTxModule();
    cir::ModuleSummaries sums(mod.functions);
    for (const auto& fn : mod.functions) {
        auto prep = analysis::checkPersistency(fn, &sums);
        EXPECT_TRUE(prep.clean())
            << fn.name() << "\n" << prep.toString(fn);
        EXPECT_EQ(prep.count(Severity::warning), 0)
            << fn.name() << "\n" << prep.toString(fn);
        auto rrep = analysis::checkReexecSafety(fn, sums);
        EXPECT_TRUE(rrep.violations.empty())
            << fn.name() << "\n" << rrep.toString(fn);
    }
    // The tx entry points really do lean on their callees.
    EXPECT_FALSE(sums.callees(findFn(mod, "tx_push")).empty());
}

TEST(PersistCheck, SummaryAwareCrossesCallBoundaries)
{
    // The caller's store is flushed and fenced only inside a helper:
    // the intraprocedural audit flags it, the summary-aware audit
    // sees the callee's coverage.
    cir::Function helper("persist_field");
    int hb = helper.addBlock("entry");
    cir::ValueId q = cir::emitArg(helper, hb, "q");
    cir::emitFlush(helper, hb, q, "flush q");
    cir::emitFence(helper, hb, "fence");

    cir::Function tx("tx_delegated_persist");
    int b = tx.addBlock("entry");
    cir::ValueId p = cir::emitArg(tx, b, "p");
    cir::ValueId x = cir::emitLoad(tx, b, p, "input read");
    cir::emitClobberLog(tx, b, p, "clobber_log p");
    cir::emitStore(tx, b, p, x, "clobber");
    cir::emitCall(tx, b, "persist_field", cir::Effect::writesNVM,
                  {p});

    auto intra = analysis::checkPersistency(tx);
    EXPECT_TRUE(intra.has(CheckKind::missingFlush));

    cir::ModuleSummaries sums(
        std::vector<cir::Function>{helper, tx});
    auto inter = analysis::checkPersistency(tx, &sums);
    EXPECT_TRUE(inter.clean()) << inter.toString(tx);
    EXPECT_FALSE(inter.has(CheckKind::missingFlush))
        << inter.toString(tx);
    EXPECT_FALSE(inter.has(CheckKind::missingFence))
        << inter.toString(tx);
    EXPECT_GE(inter.callsChecked, 1);
}

TEST(PersistCheck, ReportNamesCalleeForCallFindings)
{
    // Call-derived findings print the callee symbol, not a bare
    // instruction index, and carry their fix-it hint.
    auto mod = analysis::buildHiddenClobberModule();
    const auto& tx = findFn(mod, "seed_hidden_clobber");
    cir::ModuleSummaries sums(mod.functions);
    auto rep = analysis::checkReexecSafety(tx, sums);
    ASSERT_FALSE(rep.violations.empty());
    std::string text = rep.toString(tx);
    EXPECT_NE(text.find("at call 'sum_bump_unlogged'"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("fix:"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// Dynamic validator: all six runtimes audit clean, including across
// a total-cache-loss crash and recovery.

class ValidatorClean : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(ValidatorClean, NoCommitLeavesDirtyLines)
{
    Harness h(GetParam());
    analysis::DurabilityValidator::Options opt;
    opt.requireDurability = GetParam() != RuntimeKind::noLog;
    analysis::DurabilityValidator validator(h.pool->cache(), opt);
    txn::Engine eng(*h.runtime, &validator);

    for (uint64_t v = 1; v <= 20; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), v);
    for (int i = 0; i < 10; i++)
        txn::run(eng, kIncrCounter, h.rootPtr().raw());
    for (int i = 0; i < 5; i++)
        txn::run(eng, kPopNode, h.rootPtr().raw());
    txn::run(eng, kBlindWrite, h.rootPtr().raw(), uint64_t(99));
    txn::run(eng, kReadOnly, h.rootPtr().raw());

    ASSERT_TRUE(validator.violations().empty()) << validator.summary();

    // Power loss, recovery, and a second round: the audit must stay
    // clean on the recovered image too.
    h.pool->cache().crashAllLost();
    h.runtime->recover();
    for (uint64_t v = 1; v <= 10; v++)
        txn::run(eng, kPushNode, h.rootPtr().raw(), 100 + v);
    for (int i = 0; i < 10; i++)
        txn::run(eng, kPopNode, h.rootPtr().raw());

    EXPECT_TRUE(validator.violations().empty()) << validator.summary();
    EXPECT_GE(validator.commitsChecked(), 57u);
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, ValidatorClean,
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
        return "unknown";
    });

// ---------------------------------------------------------------------
// Dynamic validator: seeded violations are caught.

TEST(DurabilityValidator, CatchesDirtyLineAtCommit)
{
    Harness h(RuntimeKind::clobber);
    analysis::DurabilityValidator validator(h.pool->cache());
    // A store that bypasses the runtime: written, never flushed.
    uint64_t junk = 0xDEAD;
    h.pool->writeAt(h.pool->heapOff() + 4096, &junk, sizeof(junk));
    validator.afterCommit(0);
    ASSERT_EQ(validator.violations().size(), 1u);
    EXPECT_EQ(validator.violations()[0].dirtyLines, 1u);
    EXPECT_EQ(validator.violations()[0].pendingLines, 0u);
    EXPECT_FALSE(validator.violations()[0].sample.empty());
}

TEST(DurabilityValidator, FlushWithoutFenceIsPendingNotDirty)
{
    Harness h(RuntimeKind::clobber);
    analysis::DurabilityValidator validator(h.pool->cache());
    uint64_t junk = 0xBEEF;
    uint64_t off = h.pool->heapOff() + 4096;
    h.pool->writeAt(off, &junk, sizeof(junk));
    h.pool->flush(h.pool->at(off), sizeof(junk));
    // Default options: flushed-but-unfenced is an advisory only.
    validator.afterCommit(0);
    EXPECT_TRUE(validator.violations().empty());
    EXPECT_EQ(validator.pendingAdvisories(), 1u);
    // failOnPending upgrades the same state to a violation.
    analysis::DurabilityValidator::Options strict;
    strict.failOnPending = true;
    analysis::DurabilityValidator v2(h.pool->cache(), strict);
    h.pool->writeAt(off, &junk, sizeof(junk));
    h.pool->flush(h.pool->at(off), sizeof(junk));
    v2.afterCommit(0);
    ASSERT_EQ(v2.violations().size(), 1u);
    EXPECT_EQ(v2.violations()[0].pendingLines, 1u);
    // A fence retires the pending line; the next audit is clean.
    h.pool->fence();
    v2.afterCommit(0);
    EXPECT_EQ(v2.violations().size(), 1u);
}

TEST(DurabilityValidator, CrashResetsTracking)
{
    Harness h(RuntimeKind::clobber);
    analysis::DurabilityValidator validator(h.pool->cache());
    uint64_t junk = 1;
    h.pool->writeAt(h.pool->heapOff() + 4096, &junk, sizeof(junk));
    EXPECT_EQ(validator.dirtyNow(), 1u);
    // Torn lines are gone, not dirty: the mirror must follow.
    h.pool->cache().crashAllLost();
    EXPECT_EQ(validator.dirtyNow(), 0u);
    validator.afterCommit(0);
    EXPECT_TRUE(validator.violations().empty());
}

TEST(DurabilityValidator, CountsCommitsViaStats)
{
    Harness h(RuntimeKind::clobber);
    analysis::DurabilityValidator validator(h.pool->cache());
    txn::Engine eng(*h.runtime, &validator);
    auto before = stats::aggregate();
    for (int i = 0; i < 7; i++)
        txn::run(eng, kIncrCounter, h.rootPtr().raw());
    auto delta = stats::aggregate() - before;
    EXPECT_EQ(delta[stats::Counter::persistChecks], 7u);
    EXPECT_EQ(delta[stats::Counter::persistDirtyAtCommit], 0u);
    EXPECT_EQ(validator.commitsChecked(), 7u);
}

TEST(DurabilityValidator, DetachesOnDestruction)
{
    Harness h(RuntimeKind::clobber);
    {
        analysis::DurabilityValidator validator(h.pool->cache());
        uint64_t junk = 1;
        h.pool->writeAt(h.pool->heapOff() + 4096, &junk,
                        sizeof(junk));
        EXPECT_EQ(validator.dirtyNow(), 1u);
    }
    // After detach, cache events must not touch the dead observer.
    uint64_t junk = 2;
    h.pool->writeAt(h.pool->heapOff() + 8192, &junk, sizeof(junk));
    h.pool->persist(h.pool->at(h.pool->heapOff() + 8192),
                    sizeof(junk));
}

}  // namespace
}  // namespace cnvm::test
