/**
 * @file
 * Transaction hot-path microbenchmark for the runtime layer.
 *
 * micro_hotpath measures the NVM model (Pool/CacheSim); this bench sits
 * one layer up and measures what a txfunc actually pays per interposed
 * load/store in each protocol runtime: block-state bookkeeping probes,
 * log appends, and ordering fences. Wall-clock, real threads.
 *
 * Series (per protocol, per thread count):
 *   rmw8       read-modify-write of 8-byte words round-robin over a
 *              512-word working set, many ops per transaction. After
 *              the first pass every access hits already-read /
 *              already-written blocks — the set-probe hot path the
 *              block-state map and access-run memoization target.
 *   seqcpy     blind sequential 64-byte stores sweeping a 16 KiB
 *              region, several passes per transaction (b+tree
 *              shift-insert / value-copy pattern).
 *   logheavy   one read-modify-write per distinct word of a 4 KiB
 *              region per transaction: every store is a first-touch,
 *              so undo-family protocols pay one log append (+ fence
 *              where the protocol requires it) per op.
 *   e2e_hashmap end-to-end hashmap YCSB-load-style inserts through
 *              txn::run (fig6-style anchor, wall clock).
 *
 * Every JSON row also carries fences/tx and log entries/tx from the
 * stats counters (all threads' transactions) — the fence-elision
 * evidence.
 *
 * Scale knobs: CNVM_OPS (ops per series per thread), CNVM_MAXTHREADS,
 * CNVM_POOL_MB, CNVM_SMOKE. Output: argv[1] (default
 * BENCH_txpath.current.json); scripts/bench_txpath.sh merges it into
 * BENCH_txpath.json under a series label.
 */
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "structures/kv.h"
#include "txn/txrun.h"

namespace {

using namespace cnvm;
using Clock = std::chrono::steady_clock;

constexpr size_t kRmwWords = 512;
constexpr size_t kSeqBytes = 16ULL << 10;
constexpr size_t kSeqChunk = 64;
/**
 * Sweep passes per transaction. Pass 1 pays the per-protocol logging;
 * the rest exercise the suppressed-store path (already written /
 * already logged), which is what the block-state map speeds up.
 * Protocols that log every store unconditionally (atlas, redo) get no
 * suppression and would overflow the slot log area at 12 passes, so
 * they keep the lower count.
 */
constexpr size_t kSeqPasses = 12;
constexpr size_t kSeqPassesEveryStoreLogged = 4;
constexpr size_t kLogWords = 512;  // 4 KiB

/** Largest per-thread region any series touches. */
constexpr size_t kRegionBytes = kSeqBytes;

struct Row {
    std::string op;
    std::string system;
    unsigned threads;
    double opsPerSec = 0;
    // Per-tx counters: the run's stats::aggregate() delta (exited
    // threads included) over the transactions of all threads.
    double fencesPerTx = 0;
    double entriesPerTx = 0;
    double flushesPerTx = 0;  // log-writer flushes
    double logBytesPerTx = 0; // appended log bytes
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Setup txfunc: allocate `count` regions of `bytes` and publish their
 * offsets as a root-anchored array the bench reads back directly.
 */
const txn::FuncId kTxpSetup = txn::registerTxFunc(
    "txp_setup", [](txn::Tx& tx, txn::ArgReader& a) {
        auto count = a.get<uint64_t>();
        auto bytes = a.get<uint64_t>();
        uint64_t dirOff = tx.pmallocOff(count * sizeof(uint64_t));
        for (uint64_t i = 0; i < count; i++) {
            uint64_t off = tx.pmallocOff(bytes);
            auto* slotp = static_cast<uint64_t*>(
                tx.pool().at(dirOff + i * sizeof(uint64_t)));
            tx.stBytes(slotp, &off, sizeof(off));
        }
        tx.pool().setRoot(dirOff);
    });

/** rmw8: args (regionOff, words, ops). */
const txn::FuncId kTxpRmw = txn::registerTxFunc(
    "txp_rmw", [](txn::Tx& tx, txn::ArgReader& a) {
        auto off = a.get<uint64_t>();
        auto words = a.get<uint64_t>();
        auto ops = a.get<uint64_t>();
        auto* base = static_cast<uint8_t*>(tx.pool().at(off));
        uint64_t w = 0;
        for (uint64_t i = 0; i < ops; i++) {
            uint64_t v;
            tx.ldBytes(&v, base + w * 8, 8);
            v += i;
            tx.stBytes(base + w * 8, &v, 8);
            if (++w == words)
                w = 0;
        }
    });

/** seqcpy: args (regionOff, bytes, passes). Blind 64-byte stores. */
const txn::FuncId kTxpSeq = txn::registerTxFunc(
    "txp_seq", [](txn::Tx& tx, txn::ArgReader& a) {
        auto off = a.get<uint64_t>();
        auto bytes = a.get<uint64_t>();
        auto passes = a.get<uint64_t>();
        auto* base = static_cast<uint8_t*>(tx.pool().at(off));
        uint8_t buf[kSeqChunk];
        std::memset(buf, 0x5a, sizeof(buf));
        for (uint64_t p = 0; p < passes; p++) {
            buf[0] = static_cast<uint8_t>(p);
            for (uint64_t o = 0; o + kSeqChunk <= bytes; o += kSeqChunk)
                tx.stBytes(base + o, buf, kSeqChunk);
        }
    });

/** logheavy: args (regionOff, words). One RMW per distinct word. */
const txn::FuncId kTxpLog = txn::registerTxFunc(
    "txp_log", [](txn::Tx& tx, txn::ArgReader& a) {
        auto off = a.get<uint64_t>();
        auto words = a.get<uint64_t>();
        auto* base = static_cast<uint8_t*>(tx.pool().at(off));
        for (uint64_t w = 0; w < words; w++) {
            uint64_t v;
            tx.ldBytes(&v, base + w * 8, 8);
            v ^= w;
            tx.stBytes(base + w * 8, &v, 8);
        }
    });

std::vector<uint64_t>
setupRegions(bench::Env& env, unsigned threads)
{
    auto eng = env.engine();
    txn::run(eng, kTxpSetup, static_cast<uint64_t>(threads),
             static_cast<uint64_t>(kRegionBytes));
    std::vector<uint64_t> offs(threads);
    const auto* dir =
        static_cast<const uint64_t*>(env.pool->at(env.pool->root()));
    for (unsigned t = 0; t < threads; t++)
        offs[t] = dir[t];
    return offs;
}

/**
 * Run `txBody(eng, regionOff)` repeatedly on `threads` OS threads
 * (each with its own runtime slot and region) until every thread has
 * issued `txPerThread` transactions. Returns wall seconds.
 */
template <typename Fn>
double
timedTxLoop(bench::Env& env, const std::vector<uint64_t>& offs,
            unsigned threads, size_t txPerThread, Fn&& txBody)
{
    auto t0 = Clock::now();
    auto worker = [&](unsigned t) {
        txn::setThreadTid(t);
        auto eng = env.engine();
        for (size_t i = 0; i < txPerThread; i++)
            txBody(eng, offs[t]);
    };
    if (threads == 1) {
        worker(0);
    } else {
        std::vector<std::thread> ts;
        ts.reserve(threads);
        for (unsigned t = 0; t < threads; t++)
            ts.emplace_back(worker, t);
        for (auto& th : ts)
            th.join();
        txn::setThreadTid(0);
    }
    return secondsSince(t0);
}

uint64_t
logEntries(const stats::Snapshot& d)
{
    // clobber entries are a subset of undoEntries; don't double count.
    return d[stats::Counter::undoEntries] +
           d[stats::Counter::redoEntries] +
           d[stats::Counter::idoEntries] +
           d[stats::Counter::lockLogEntries];
}

Row
runMicroSeries(txn::RuntimeKind kind, const std::string& op,
               unsigned threads, size_t opsPerThread)
{
    bench::Env env(kind);
    auto offs = setupRegions(env, threads);

    size_t opsPerTx;
    std::function<void(txn::Engine&, uint64_t)> body;
    if (op == "rmw8") {
        // Pass 1 over the working set populates the per-block sets;
        // the remaining passes are the pure probe hot path. iDO is
        // capped lower: it emits a 160-byte boundary record per RMW,
        // and 8 passes would overflow the slot log area.
        size_t passes = kind == txn::RuntimeKind::ido ? 2 : 8;
        opsPerTx = std::min<size_t>(kRmwWords * passes, opsPerThread);
        body = [opsPerTx](txn::Engine& eng, uint64_t off) {
            txn::run(eng, kTxpRmw, off,
                     static_cast<uint64_t>(kRmwWords),
                     static_cast<uint64_t>(opsPerTx));
        };
    } else if (op == "seqcpy") {
        size_t passes = (kind == txn::RuntimeKind::atlas ||
                         kind == txn::RuntimeKind::redo)
                            ? kSeqPassesEveryStoreLogged
                            : kSeqPasses;
        opsPerTx = (kSeqBytes / kSeqChunk) * passes;
        body = [passes](txn::Engine& eng, uint64_t off) {
            txn::run(eng, kTxpSeq, off,
                     static_cast<uint64_t>(kSeqBytes),
                     static_cast<uint64_t>(passes));
        };
    } else {  // logheavy
        opsPerTx = kLogWords;
        body = [](txn::Engine& eng, uint64_t off) {
            txn::run(eng, kTxpLog, off,
                     static_cast<uint64_t>(kLogWords));
        };
    }

    size_t txPerThread =
        std::max<size_t>(1, opsPerThread / opsPerTx);
    stats::resetAll();
    auto before = stats::aggregate();
    double secs =
        timedTxLoop(env, offs, threads, txPerThread, body);
    auto delta = stats::aggregate() - before;

    Row r;
    r.op = op;
    r.system = env.runtime->name();
    r.threads = threads;
    r.opsPerSec = static_cast<double>(txPerThread) * opsPerTx *
                  threads / (secs > 0 ? secs : 1e-9);
    double txs = static_cast<double>(txPerThread) * threads;
    r.fencesPerTx = delta[stats::Counter::fences] / txs;
    r.entriesPerTx = static_cast<double>(logEntries(delta)) / txs;
    r.flushesPerTx = delta[stats::Counter::logFlushes] / txs;
    r.logBytesPerTx = delta[stats::Counter::logBytes] / txs;
    return r;
}

Row
runE2eHashmap(txn::RuntimeKind kind, size_t inserts)
{
    bench::Env env(kind);
    auto eng = env.engine();
    auto kv = ds::makeKv("hashmap", eng);
    std::string val(64, 'v');
    char key[32];
    stats::resetAll();
    auto before = stats::aggregate();
    auto t0 = Clock::now();
    for (size_t i = 0; i < inserts; i++) {
        std::snprintf(key, sizeof(key), "user%010zu", i);
        kv->insert(key, val);
    }
    double secs = secondsSince(t0);
    auto delta = stats::aggregate() - before;

    Row r;
    r.op = "e2e_hashmap";
    r.system = env.runtime->name();
    r.threads = 1;
    r.opsPerSec =
        static_cast<double>(inserts) / (secs > 0 ? secs : 1e-9);
    double txs =
        static_cast<double>(delta[stats::Counter::txCommits]);
    if (txs > 0) {
        r.fencesPerTx = delta[stats::Counter::fences] / txs;
        r.entriesPerTx = static_cast<double>(logEntries(delta)) / txs;
        r.flushesPerTx = delta[stats::Counter::logFlushes] / txs;
        r.logBytesPerTx = delta[stats::Counter::logBytes] / txs;
    }
    return r;
}

}  // namespace

int
main(int argc, char** argv)
{
    size_t ops = bench::totalOps(800000);
    auto maxThreads =
        static_cast<unsigned>(bench::envSize("CNVM_MAXTHREADS", 2));
    std::vector<unsigned> threadCounts{1u};
    if (maxThreads >= 2)
        threadCounts.push_back(2u);

    const std::vector<txn::RuntimeKind> kinds = {
        txn::RuntimeKind::clobber, txn::RuntimeKind::undo,
        txn::RuntimeKind::redo, txn::RuntimeKind::atlas,
        txn::RuntimeKind::ido};

    std::vector<Row> rows;
    for (auto kind : kinds) {
        for (unsigned t : threadCounts) {
            rows.push_back(runMicroSeries(kind, "rmw8", t, ops));
            rows.push_back(runMicroSeries(kind, "seqcpy", t, ops));
            rows.push_back(
                runMicroSeries(kind, "logheavy", t, ops / 4));
        }
        rows.push_back(
            runE2eHashmap(kind, std::min<size_t>(ops / 20, 50000)));
    }

    const char* path =
        argc > 1 ? argv[1] : "BENCH_txpath.current.json";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(f, "{\n  \"ops_per_thread\": %zu,\n", ops);
    std::fprintf(f, "  \"series\": [\n");
    for (size_t i = 0; i < rows.size(); i++) {
        const Row& r = rows[i];
        std::fprintf(
            f,
            "    {\"op\": \"%s\", \"system\": \"%s\", \"threads\": "
            "%u, \"ops_per_sec\": %.0f, \"fences_per_tx\": %.2f, "
            "\"log_entries_per_tx\": %.2f, "
            "\"log_flushes_per_tx\": %.2f, "
            "\"log_bytes_per_tx\": %.0f}%s\n",
            r.op.c_str(), r.system.c_str(), r.threads, r.opsPerSec,
            r.fencesPerTx, r.entriesPerTx, r.flushesPerTx,
            r.logBytesPerTx,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);

    for (const auto& r : rows) {
        std::printf("%-12s %-12s threads=%u  %8.2f Mops/s  "
                    "fences/tx=%.1f entries/tx=%.1f flushes/tx=%.1f\n",
                    r.op.c_str(), r.system.c_str(), r.threads,
                    r.opsPerSec / 1e6, r.fencesPerTx, r.entriesPerTx,
                    r.flushesPerTx);
    }
    return 0;
}
