/**
 * @file
 * Counter gate: exact per-transaction persistence counts against a
 * committed baseline (tests/counters_baseline.txt, ctest label
 * perfgate).
 *
 * The paper's "log less, fence less" evidence is a count per
 * transaction of log entries and fences (Fig. 7). This gate runs every
 * protocol × log writer × op on one thread for a fixed number of
 * transactions and requires the run's totals of fences, protocol log
 * entries, log flushes and log bytes to equal the baseline row
 * exactly. A change that adds one fence per transaction to one
 * protocol fails here with that protocol's rows named.
 *
 * Ops (sizes fixed here; nothing is read from the environment):
 *   rmw8        read-modify-write of 8-byte words round-robin over a
 *               512-word set, 8 passes per transaction (iDO 2: its
 *               160-byte boundary record per RMW would overflow the
 *               slot log at 8). Pass 1 pays the logging; the rest hit
 *               already-read / already-written blocks.
 *   seqcpy      blind 64-byte stores sweeping 16 KiB, 12 passes per
 *               transaction (4 for atlas and mnemosyne, which log every
 *               store and would overflow the slot log at 12).
 *   logheavy    one read-modify-write per word of a 4 KiB region: every
 *               store is a first touch.
 *   e2e_hashmap hashmap inserts through ds::makeKv (64-byte values);
 *               the row's transactions are the commits counted.
 *
 * Each protocol's rmw8 cell also runs on 2 real threads, each on its
 * own slot and region, and must cost exactly twice the 1-thread totals.
 *
 * On a mismatch the test names the row and the counter, then prints
 * the whole fresh table in baseline format. A change that moves a
 * count on purpose replaces the file with that table and says why.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtimes/log_writer.h"
#include "stats/counters.h"
#include "structures/kv.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using rt::LogWriterKind;
using txn::RuntimeKind;

constexpr size_t kRmwWords = 512;
constexpr size_t kSeqBytes = 16ULL << 10;
constexpr size_t kSeqChunk = 64;
constexpr size_t kLogWords = 512;  // 4 KiB
constexpr size_t kRegionBytes = kSeqBytes;
constexpr uint64_t kTxs = 4;              // per op cell and thread
constexpr size_t kHashmapInserts = 200;   // e2e_hashmap

/** The compared fields of a row, in baseline-file order. */
constexpr size_t kFields = 5;
const char* const kFieldNames[kFields] = {
    "txs", "fences", "log_entries", "log_flushes", "log_bytes"};

struct Row {
    std::string system;
    std::string writer;
    std::string op;
    std::array<uint64_t, kFields> v{};

    std::string key() const { return system + "/" + writer + "/" + op; }
};

/**
 * Setup txfunc: allocate `count` regions of `bytes` and publish their
 * offsets as a root-anchored array.
 */
const txn::FuncId kSetup = txn::registerTxFunc(
    "counters_setup", [](txn::Tx& tx, txn::ArgReader& a) {
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
const txn::FuncId kRmw = txn::registerTxFunc(
    "counters_rmw", [](txn::Tx& tx, txn::ArgReader& a) {
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
const txn::FuncId kSeq = txn::registerTxFunc(
    "counters_seq", [](txn::Tx& tx, txn::ArgReader& a) {
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
const txn::FuncId kLog = txn::registerTxFunc(
    "counters_log", [](txn::Tx& tx, txn::ArgReader& a) {
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

/** One transaction of `op` on the region at `off`. */
void
runOp(txn::Engine& eng, RuntimeKind kind, const std::string& op,
      uint64_t off)
{
    if (op == "rmw8") {
        uint64_t passes = kind == RuntimeKind::ido ? 2 : 8;
        txn::run(eng, kRmw, off, static_cast<uint64_t>(kRmwWords),
                 static_cast<uint64_t>(kRmwWords * passes));
    } else if (op == "seqcpy") {
        uint64_t passes =
            kind == RuntimeKind::atlas || kind == RuntimeKind::redo ? 4
                                                                    : 12;
        txn::run(eng, kSeq, off, static_cast<uint64_t>(kSeqBytes),
                 passes);
    } else {
        txn::run(eng, kLog, off, static_cast<uint64_t>(kLogWords));
    }
}

std::array<uint64_t, kFields>
fieldsOf(uint64_t txs, const stats::Snapshot& d)
{
    using stats::Counter;
    // clobber entries are a subset of undoEntries; not counted twice.
    return {txs, d[Counter::fences],
            d[Counter::undoEntries] + d[Counter::redoEntries] +
                d[Counter::idoEntries] + d[Counter::lockLogEntries],
            d[Counter::logFlushes], d[Counter::logBytes]};
}

/** Run one cell on `threads` real threads; the totals of all threads. */
Row
runCell(RuntimeKind kind, LogWriterKind writer, const std::string& op,
        unsigned threads)
{
    // 256 KiB slots: atlas logs ~128 KiB per rmw8 transaction.
    Harness h(kind, rt::ClobberPolicy::refined, 64ULL << 20,
              256ULL << 10);
    rt::selectLogWriter(*h.runtime, writer);

    Row r;
    r.system = h.runtime->name();
    r.writer = rt::logWriterName(writer);
    r.op = op;
    if (op == "e2e_hashmap") {
        auto eng = h.engine();
        auto kv = ds::makeKv("hashmap", eng);
        std::string val(64, 'v');
        char key[32];
        auto before = stats::aggregate();
        for (size_t i = 0; i < kHashmapInserts; i++) {
            std::snprintf(key, sizeof(key), "user%010zu", i);
            kv->insert(key, val);
        }
        auto delta = stats::aggregate() - before;
        r.v = fieldsOf(delta[stats::Counter::txCommits], delta);
    } else {
        std::vector<uint64_t> offs(threads);
        {
            auto eng = h.engine();
            txn::run(eng, kSetup, static_cast<uint64_t>(threads),
                     static_cast<uint64_t>(kRegionBytes));
            const auto* dir = static_cast<const uint64_t*>(
                h.pool->at(h.pool->root()));
            for (unsigned t = 0; t < threads; t++)
                offs[t] = dir[t];
        }
        auto worker = [&](unsigned t) {
            txn::setThreadTid(t);
            auto eng = h.engine();
            for (uint64_t i = 0; i < kTxs; i++)
                runOp(eng, kind, op, offs[t]);
        };
        auto before = stats::aggregate();
        if (threads == 1) {
            worker(0);
        } else {
            std::vector<std::thread> ts;
            for (unsigned t = 0; t < threads; t++)
                ts.emplace_back(worker, t);
            for (auto& th : ts)
                th.join();
            txn::setThreadTid(0);
        }
        r.v = fieldsOf(kTxs * threads, stats::aggregate() - before);
    }
    return r;
}

const RuntimeKind kKinds[] = {RuntimeKind::clobber, RuntimeKind::undo,
                              RuntimeKind::redo, RuntimeKind::atlas,
                              RuntimeKind::ido};
const LogWriterKind kWriters[] = {LogWriterKind::baseline,
                                  LogWriterKind::zerocached};
const char* const kOps[] = {"rmw8", "seqcpy", "logheavy",
                            "e2e_hashmap"};

std::string
formatTable(const std::vector<Row>& rows)
{
    std::string out = "# system writer op";
    for (const char* name : kFieldNames)
        out.append(" ").append(name);
    out += '\n';
    for (const Row& r : rows) {
        out.append(r.system).append(" ").append(r.writer);
        out.append(" ").append(r.op);
        for (uint64_t x : r.v)
            out.append(" ").append(std::to_string(x));
        out += '\n';
    }
    return out;
}

std::map<std::string, Row>
readBaseline()
{
    std::map<std::string, Row> rows;
    std::ifstream in(CNVM_COUNTERS_BASELINE);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        Row r;
        ss >> r.system >> r.writer >> r.op;
        for (auto& x : r.v)
            ss >> x;
        if (ss)
            rows[r.key()] = r;
    }
    return rows;
}

TEST(CounterGate, OneThreadTotalsMatchBaseline)
{
    std::vector<Row> rows;
    for (auto writer : kWriters)
        for (auto kind : kKinds)
            for (const char* op : kOps)
                rows.push_back(runCell(kind, writer, op, 1));

    auto committed = readBaseline();
    EXPECT_EQ(rows.size(), committed.size())
        << "rows in " << CNVM_COUNTERS_BASELINE;
    for (const Row& r : rows) {
        auto it = committed.find(r.key());
        if (it == committed.end()) {
            ADD_FAILURE() << r.key() << ": no baseline row";
            continue;
        }
        for (size_t f = 0; f < kFields; f++) {
            uint64_t fresh = r.v[f];
            uint64_t baseline = it->second.v[f];
            EXPECT_EQ(fresh, baseline)
                << r.key() << ": " << kFieldNames[f];
        }
    }
    if (HasFailure())
        std::printf("fresh table (baseline format):\n%s",
                    formatTable(rows).c_str());
}

TEST(CounterGate, TwoThreadsCostTwiceOneThread)
{
    for (auto writer : kWriters) {
        for (auto kind : kKinds) {
            Row one = runCell(kind, writer, "rmw8", 1);
            Row two = runCell(kind, writer, "rmw8", 2);
            for (size_t f = 0; f < kFields; f++) {
                EXPECT_EQ(two.v[f], 2 * one.v[f])
                    << two.key() << " threads=2: " << kFieldNames[f];
            }
        }
    }
}

}  // namespace
}  // namespace cnvm::test
