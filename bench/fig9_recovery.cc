/**
 * @file
 * Figure 9: recovery overhead after a random crash, Clobber-NVM vs
 * PMDK, on the four data structures.
 *
 * Method (paper Section 5.5): load the structure, crash a random
 * insert mid-transaction, then measure the three recovery steps —
 * reopening the pool (allocator/bitmap rebuild dominates, the paper's
 * "pool management"), applying the log (undo rollback vs clobber_log
 * restore), and, for Clobber-NVM, re-executing the interrupted
 * transaction. Latencies here are real wall time of the recovery code.
 *
 * On top of the figure, the binary always runs an instant-restart
 * sweep: time-to-first-transaction (TTFT) after a crash, full restart
 * (eager allocator scan + stop-the-world recover) vs lazy restart
 * (deferred rebuild + triage + first-touch heal), across pool sizes.
 * Each cell reports the median of its CNVM_REPS repetitions (default
 * 5) with the min and max. Results land in argv[1] (default
 * BENCH_recovery.json in the working directory); the binary exits
 * non-zero when it cannot write them. To refresh the committed file
 * from the repo root, skipping the slow figure loop:
 *
 *   build/bench/fig9_recovery --benchmark_filter='^$'
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"
#include "structures/kv.h"
#include "workloads/ycsb.h"

namespace {

using namespace cnvm;

bench::Csv& csv()
{
    static bench::Csv c("fig9.csv");
    static bool once = [] {
        c.comment("fig9: system,structure,crash_point,"
                  "recover_total_us,rebuild_us");
        return true;
    }();
    (void)once;
    return c;
}

void
runFig9(benchmark::State& state, const std::string& structure,
        txn::RuntimeKind kind)
{
    size_t ops = bench::totalOps(20000) / 2;
    size_t keyLen = structure == "bptree" ? 32 : 8;
    Xorshift rng(2026);

    double totalUs = 0;
    double rebuildUs = 0;
    int runs = 0;
    for (auto _ : state) {
        bench::Env env(kind);
        auto eng = env.engine();
        auto kv = ds::makeKv(structure, eng);
        wl::Ycsb ycsb(wl::YcsbKind::load, ops, keyLen, 256);
        for (size_t i = 0; i < ops; i++)
            kv->insert(ycsb.keyOf(i), ycsb.valueOf(i));

        // Crash a random insert at a random write.
        uint64_t trap = 1 + rng.nextUint(30);
        env.pool->armWriteTrap(trap);
        bool crashed = false;
        try {
            kv->insert(ycsb.keyOf(ops + 1), ycsb.valueOf(ops + 1));
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        env.pool->armWriteTrap(0);
        if (crashed)
            env.pool->simulateCrash(rng.next());

        // Recovery = allocator rebuild ("pool open") + log apply +
        // (clobber) re-execution. recover() performs all three; the
        // rebuild share is measured separately afterwards, as the
        // bitmap scan a fresh process's allocator pays on open (a
        // second env.heap->rebuild() would find nothing to redo).
        auto t0 = std::chrono::steady_clock::now();
        env.runtime->recover();
        auto t1 = std::chrono::steady_clock::now();
        { alloc::PmAllocator reopened(*env.pool); }
        auto t2 = std::chrono::steady_clock::now();

        double recUs =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        double rbUs =
            std::chrono::duration<double, std::micro>(t2 - t1).count();
        state.SetIterationTime(
            std::chrono::duration<double>(t1 - t0).count());
        totalUs += recUs;
        rebuildUs += rbUs;
        runs++;
        csv().row("%s,%s,%lu,%.1f,%.1f", bench::systemName(kind),
                  structure.c_str(), trap, recUs, rbUs);
    }
    if (runs > 0) {
        state.counters["recover_us"] = totalUs / runs;
        state.counters["pool_mgmt_us"] = rebuildUs / runs;
    }
}

/** One repetition of one cell of the instant-restart sweep. */
struct TtftRow {
    std::string system;
    size_t poolMB = 0;
    std::string mode;      ///< "full" or "lazy"
    double recoverUs = 0;  ///< restart to "transactions admitted"
    double ttftUs = 0;     ///< restart to first commit acked
    uint64_t pendingAtFirstTx = 0;  ///< heal items still outstanding
};

/**
 * A cell over its repetitions: median recover and TTFT times, the TTFT
 * spread, and the most heal items any repetition left pending.
 */
struct TtftCell {
    TtftRow median;
    double ttftMinUs = 0;
    double ttftMaxUs = 0;
};

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

TtftCell
summarize(const std::vector<TtftRow>& runs)
{
    TtftCell c;
    c.median = runs.front();
    std::vector<double> recover, ttft;
    for (const TtftRow& r : runs) {
        recover.push_back(r.recoverUs);
        ttft.push_back(r.ttftUs);
        c.median.pendingAtFirstTx =
            std::max(c.median.pendingAtFirstTx, r.pendingAtFirstTx);
    }
    c.median.recoverUs = medianOf(recover);
    c.median.ttftUs = medianOf(ttft);
    auto [lo, hi] = std::minmax_element(ttft.begin(), ttft.end());
    c.ttftMinUs = *lo;
    c.ttftMaxUs = *hi;
    return c;
}

double
usBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/**
 * Crash a loaded hashmap, then restart the way a fresh process would:
 * construct the allocator and runtime over the surviving pool and run
 * recovery in `mode`. TTFT is the wall time from the first restart
 * instruction to the first committed transaction. The lazy arm defers
 * the bitmap scan (beginLazyRebuild + incremental reserve pulls) and
 * heals the dirty slot on first touch; the drain to a fully healed
 * pool happens after the clock stops, exactly as the background healer
 * would do it in a server.
 */
TtftRow
runTtftCell(txn::RuntimeKind kind, size_t poolMB, bool lazy,
            size_t ops, Xorshift& rng)
{
    bench::Env env(kind, rt::ClobberPolicy::refined, poolMB << 20);
    uint64_t rootOff = 0;
    {
        auto eng = env.engine();
        auto kv = ds::makeKv("hashmap", eng);
        rootOff = kv->rootOff();
        wl::Ycsb ycsb(wl::YcsbKind::load, ops + 2, 8, 256);
        for (size_t i = 0; i < ops; i++)
            kv->insert(ycsb.keyOf(i), ycsb.valueOf(i));

        env.pool->armWriteTrap(1 + rng.nextUint(30));
        bool crashed = false;
        try {
            kv->insert(ycsb.keyOf(ops), ycsb.valueOf(ops));
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        env.pool->armWriteTrap(0);
        if (crashed)
            env.pool->simulateCrash(rng.next());
    }

    TtftRow row;
    row.system = bench::systemName(kind);
    row.poolMB = poolMB;
    row.mode = lazy ? "lazy" : "full";

    wl::Ycsb ycsb(wl::YcsbKind::load, ops + 2, 8, 256);
    auto t0 = std::chrono::steady_clock::now();
    env.heap =
        std::make_unique<alloc::PmAllocator>(*env.pool, lazy);
    env.runtime = rt::makeRuntime(kind, *env.pool, *env.heap,
                                  rt::ClobberPolicy::refined);
    auto eng = env.engine();
    eng.recover(lazy ? txn::RecoveryMode::lazy
                     : txn::RecoveryMode::full,
                /* backgroundHealer */ false);
    auto tAdmit = std::chrono::steady_clock::now();
    auto kv = ds::makeKv("hashmap", eng, rootOff);
    kv->insert(ycsb.keyOf(ops + 1), ycsb.valueOf(ops + 1));
    auto tFirst = std::chrono::steady_clock::now();

    row.recoverUs = usBetween(t0, tAdmit);
    row.ttftUs = usBetween(t0, tFirst);
    row.pendingAtFirstTx = eng.recoveryPending();
    eng.finishRecovery();  // off the clock: the healer's share
    return row;
}

/**
 * The instant-restart sweep: full vs lazy TTFT over clobber and undo
 * at increasing pool sizes. The acceptance bar for lazy recovery: a
 * TTFT win at every pool size and >=10x on the largest pool, where
 * full restart's bitmap scan (word-stepping, ~1.9 ms at 512 MiB)
 * still dominates and lazy stays flat (~0.1 ms). Writes `path` and
 * prints the ratios; false when `path` cannot be written.
 */
bool
runTtftSweep(const char* path)
{
    size_t ops = bench::totalOps(20000) / 2;
    std::vector<size_t> poolsMB =
        bench::smokeMode() ? std::vector<size_t>{64}
                           : std::vector<size_t>{64, 256, 512};
    size_t reps = std::max<size_t>(1, bench::envSize("CNVM_REPS", 5));

    std::vector<TtftCell> cells;
    for (auto kind :
         {txn::RuntimeKind::clobber, txn::RuntimeKind::undo}) {
        for (size_t mb : poolsMB) {
            for (bool lazy : {false, true}) {
                Xorshift rng(2026 + mb + (lazy ? 1 : 0));
                std::vector<TtftRow> runs;
                for (size_t r = 0; r < reps; r++)
                    runs.push_back(
                        runTtftCell(kind, mb, lazy, ops, rng));
                cells.push_back(summarize(runs));
            }
        }
    }

    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return false;
    }
    std::fprintf(f, "{\n  \"load_ops\": %zu,\n  \"reps\": %zu,\n",
                 ops, reps);
    std::fprintf(f, "  \"ttft\": [\n");
    for (size_t i = 0; i < cells.size(); i++) {
        const TtftRow& r = cells[i].median;
        std::fprintf(f,
                     "    {\"system\": \"%s\", \"pool_mb\": %zu, "
                     "\"mode\": \"%s\", \"recover_us\": %.1f, "
                     "\"ttft_us\": %.1f, \"ttft_min_us\": %.1f, "
                     "\"ttft_max_us\": %.1f, "
                     "\"pending_at_first_tx\": %llu}%s\n",
                     r.system.c_str(), r.poolMB, r.mode.c_str(),
                     r.recoverUs, r.ttftUs, cells[i].ttftMinUs,
                     cells[i].ttftMaxUs,
                     static_cast<unsigned long long>(
                         r.pendingAtFirstTx),
                     i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (std::fclose(f) != 0) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return false;
    }

    for (size_t i = 0; i + 1 < cells.size(); i += 2) {
        const TtftCell& full = cells[i];
        const TtftCell& lz = cells[i + 1];
        std::printf("ttft %-8s pool=%3zuMB  full=%9.1fus [%.1f-%.1f]  "
                    "lazy=%8.1fus [%.1f-%.1f]  speedup=%.1fx\n",
                    full.median.system.c_str(), full.median.poolMB,
                    full.median.ttftUs, full.ttftMinUs, full.ttftMaxUs,
                    lz.median.ttftUs, lz.ttftMinUs, lz.ttftMaxUs,
                    full.median.ttftUs / lz.median.ttftUs);
    }
    return true;
}

void
registerAll()
{
    for (const auto& structure : ds::benchmarkStructures()) {
        for (auto kind :
             {txn::RuntimeKind::clobber, txn::RuntimeKind::undo}) {
            std::string name = std::string("fig9/") +
                               bench::systemName(kind) + "/" +
                               structure;
            benchmark::RegisterBenchmark(
                name.c_str(),
                [structure, kind](benchmark::State& st) {
                    runFig9(st, structure, kind);
                })
                ->UseManualTime()
                ->Iterations(5)
                ->Unit(benchmark::kMicrosecond);
        }
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    // A leading non-flag argument is the instant-restart JSON path
    // (google-benchmark flags all start with '-').
    const char* ttftOut = "BENCH_recovery.json";
    if (argc > 1 && argv[1][0] != '-') {
        ttftOut = argv[1];
        for (int i = 1; i + 1 < argc; i++)
            argv[i] = argv[i + 1];
        argc--;
    }
    if (!runTtftSweep(ttftOut))
        return 1;

    registerAll();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
