/**
 * @file
 * Tests for the network KV service stack: the memcached text-protocol
 * parser (incremental feeds, errors), the group-commit service layer
 * (model equivalence, overflow fallback, slot validation), and the
 * TCP front-end end to end over a real loopback socket.
 */
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "apps/kv/kv_server.h"
#include "common/rand.h"
#include "nvm/hooks.h"
#include "server/kv_service.h"
#include "server/loadgen.h"
#include "server/protocol.h"
#include "server/tcp_server.h"
#include "stats/counters.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using server::proto::Cmd;
using server::proto::Command;
using server::proto::Parser;
using txn::RuntimeKind;

// ---------------------------------------------------------------
// Protocol parser

Parser::Status
feedAll(Parser& p, const std::string& bytes, Command* out,
        std::string* err)
{
    p.feed(bytes.data(), bytes.size());
    return p.next(out, err);
}

TEST(ProtoParser, ParsesGetAndMultiGet)
{
    Parser p;
    Command c;
    std::string err;
    ASSERT_EQ(feedAll(p, "get foo\r\n", &c, &err),
              Parser::Status::ok);
    EXPECT_EQ(c.cmd, Cmd::get);
    ASSERT_EQ(c.keys.size(), 1u);
    EXPECT_EQ(c.keys[0], "foo");

    ASSERT_EQ(feedAll(p, "gets a b c\r\n", &c, &err),
              Parser::Status::ok);
    EXPECT_EQ(c.cmd, Cmd::gets);
    ASSERT_EQ(c.keys.size(), 3u);
    EXPECT_EQ(c.keys[2], "c");
}

TEST(ProtoParser, ParsesSetWithDataBlock)
{
    Parser p;
    Command c;
    std::string err;
    ASSERT_EQ(feedAll(p, "set k 7 0 5\r\nhello\r\n", &c, &err),
              Parser::Status::ok);
    EXPECT_EQ(c.cmd, Cmd::set);
    EXPECT_EQ(c.keys[0], "k");
    EXPECT_EQ(c.flags, 7u);
    EXPECT_EQ(c.data, "hello");
    EXPECT_FALSE(c.noreply);
}

TEST(ProtoParser, HandlesBytewiseFeeds)
{
    // The whole pipeline must survive arbitrary TCP segmentation.
    std::string wire = "set key1 3 0 4 noreply\r\nabcd\r\n"
                       "cas key2 0 0 2 99\r\nxy\r\n"
                       "delete key1\r\n";
    Parser p;
    Command c;
    std::string err;
    std::vector<Command> got;
    for (char ch : wire) {
        p.feed(&ch, 1);
        for (;;) {
            auto st = p.next(&c, &err);
            if (st != Parser::Status::ok)
                break;
            got.push_back(c);
        }
    }
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].cmd, Cmd::set);
    EXPECT_TRUE(got[0].noreply);
    EXPECT_EQ(got[0].data, "abcd");
    EXPECT_EQ(got[1].cmd, Cmd::cas);
    EXPECT_EQ(got[1].casUnique, 99u);
    EXPECT_EQ(got[1].data, "xy");
    EXPECT_EQ(got[2].cmd, Cmd::del);
    EXPECT_EQ(got[2].keys[0], "key1");
}

TEST(ProtoParser, ReportsErrorsAndKeepsGoing)
{
    Parser p;
    Command c;
    std::string err;
    EXPECT_EQ(feedAll(p, "frobnicate\r\n", &c, &err),
              Parser::Status::error);
    EXPECT_EQ(err, "ERROR\r\n");

    EXPECT_EQ(feedAll(p, "set k x 0 5\r\n", &c, &err),
              Parser::Status::error);
    EXPECT_EQ(err, "CLIENT_ERROR bad command line format\r\n");

    std::string longKey(server::proto::kMaxProtoKeyLen + 1, 'k');
    EXPECT_EQ(feedAll(p, "get " + longKey + "\r\n", &c, &err),
              Parser::Status::error);
    EXPECT_EQ(err, "CLIENT_ERROR bad key\r\n");

    // A data block not terminated by CRLF is a chunk error.
    EXPECT_EQ(feedAll(p, "set k 0 0 2\r\nabXY", &c, &err),
              Parser::Status::error);
    EXPECT_EQ(err, "CLIENT_ERROR bad data chunk\r\n");

    // The connection still parses afterwards.
    EXPECT_EQ(feedAll(p, "get ok\r\n", &c, &err),
              Parser::Status::ok);
    EXPECT_EQ(c.keys[0], "ok");
}

TEST(ProtoParser, RejectsOversizedDeclaredBlock)
{
    Parser p;
    Command c;
    std::string err;
    EXPECT_EQ(feedAll(p, "set k 0 0 999999999\r\n", &c, &err),
              Parser::Status::error);
    EXPECT_EQ(err, "SERVER_ERROR object too large for cache\r\n");
}

// ---------------------------------------------------------------
// Store: cas + batch transaction paths

class KvMutationTest : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(KvMutationTest, CasFollowsVersioning)
{
    Harness h(GetParam(), rt::ClobberPolicy::refined, 64ULL << 20);
    auto eng = h.engine();
    apps::KvServer::Config cfg;
    cfg.shards = 4;
    cfg.bucketsPerShard = 32;
    apps::KvServer kv(eng, 0, cfg);

    EXPECT_EQ(kv.cas("k", "v", 0, 1), apps::MutResult::notFound);
    kv.set("k", "v0", 3);

    // CAS ids are opaque: read them back instead of predicting them.
    apps::KvReadResult r;
    ASSERT_TRUE(kv.get("k", &r));
    EXPECT_EQ(r.str(), "v0");
    EXPECT_EQ(r.flags, 3u);
    uint64_t id0 = r.version;
    EXPECT_NE(id0, 0u);

    EXPECT_EQ(kv.cas("k", "v1", 4, id0), apps::MutResult::stored);
    EXPECT_EQ(kv.cas("k", "v2", 5, id0),
              apps::MutResult::exists);  // stale id
    ASSERT_TRUE(kv.get("k", &r));
    EXPECT_EQ(r.str(), "v1");
    EXPECT_EQ(r.flags, 4u);
    uint64_t id1 = r.version;
    EXPECT_NE(id1, id0);

    // A plain set issues a fresh id too, so the last one goes stale.
    kv.set("k", "v3", 6);
    ASSERT_TRUE(kv.get("k", &r));
    EXPECT_NE(r.version, id0);
    EXPECT_NE(r.version, id1);
    EXPECT_EQ(kv.cas("k", "v4", 7, id1), apps::MutResult::exists);
    EXPECT_EQ(kv.cas("k", "v4", 7, r.version), apps::MutResult::stored);
}

TEST_P(KvMutationTest, CasRejectsIdOfDeletedItem)
{
    // ABA: an id read before a delete must not match the re-created
    // item, even though both hold the same key (and value).
    Harness h(GetParam(), rt::ClobberPolicy::refined, 64ULL << 20);
    auto eng = h.engine();
    apps::KvServer::Config cfg;
    cfg.shards = 4;
    cfg.bucketsPerShard = 32;
    apps::KvServer kv(eng, 0, cfg);

    kv.set("k", "v");
    apps::KvReadResult r;
    ASSERT_TRUE(kv.get("k", &r));
    uint64_t old = r.version;
    ASSERT_TRUE(kv.del("k"));
    kv.set("k", "v");
    EXPECT_EQ(kv.cas("k", "w", 0, old), apps::MutResult::exists);
    ASSERT_TRUE(kv.get("k", &r));
    EXPECT_EQ(r.str(), "v");
}

TEST_P(KvMutationTest, ApplyBatchMatchesSingles)
{
    Harness h(GetParam(), rt::ClobberPolicy::refined, 64ULL << 20);
    auto eng = h.engine();
    apps::KvServer::Config cfg;
    cfg.shards = 8;
    cfg.bucketsPerShard = 32;
    apps::KvServer kv(eng, 0, cfg);

    std::map<std::string, std::string> model;
    Xorshift rng(17);
    std::vector<std::string> keys, vals;
    for (int round = 0; round < 40; round++) {
        keys.clear();
        vals.clear();
        std::vector<apps::MutOp> ops;
        for (int i = 0; i < 6; i++) {
            keys.push_back("bk" + std::to_string(rng.nextUint(30)));
            vals.push_back("val-" + std::to_string(round) + "-" +
                           std::to_string(i));
        }
        for (int i = 0; i < 6; i++) {
            apps::MutOp op;
            op.key = keys[i];
            if (rng.nextUint(10) < 8) {
                op.kind = apps::MutKind::set;
                op.val = vals[i];
                model[keys[i]] = vals[i];
            } else {
                op.kind = apps::MutKind::del;
                model.erase(keys[i]);
            }
            ops.push_back(op);
        }
        std::vector<apps::MutResult> results(ops.size());
        kv.applyBatch(ops, results.data());
        for (size_t i = 0; i < ops.size(); i++) {
            if (ops[i].kind == apps::MutKind::set) {
                EXPECT_EQ(results[i], apps::MutResult::stored);
            }
        }
    }
    EXPECT_EQ(kv.itemCount(), model.size());
    for (const auto& [k, v] : model) {
        ds::LookupResult r;
        ASSERT_TRUE(kv.get(k, &r)) << k;
        EXPECT_EQ(r.str(), v);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Runtimes, KvMutationTest,
    ::testing::Values(RuntimeKind::clobber, RuntimeKind::undo,
                      RuntimeKind::redo),
    [](const auto& info) {
        switch (info.param) {
          case RuntimeKind::undo: return "pmdk";
          case RuntimeKind::redo: return "mnemosyne";
          default: return "clobber";
        }
    });

apps::KvServer::Config
smallKvCfg()
{
    apps::KvServer::Config cfg;
    cfg.shards = 4;
    cfg.bucketsPerShard = 32;
    return cfg;
}

uint64_t
idOf(apps::KvServer& kv, std::string_view key)
{
    apps::KvReadResult r;
    EXPECT_TRUE(kv.get(key, &r)) << key;
    return r.version;
}

/** 16-byte keys and 64-byte values, as in the benchmark. */
std::string
key16(int i)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "key-%012d", i);
    return buf;
}

std::string
val64(int i, char fill)
{
    std::string v(64, fill);
    std::memcpy(v.data(), &i, sizeof(i));
    return v;
}

TEST(KvCasIds, ReattachNeverReissuesAnId)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    auto eng = h.engine();
    std::set<uint64_t> issued;
    uint64_t rootOff = 0;
    for (int open = 0; open < 4; open++) {
        apps::KvServer kv(eng, rootOff, smallKvCfg());
        rootOff = kv.rootOff();
        for (int i = 0; i < 10; i++) {
            std::string key = key16(i);
            kv.set(key, val64(open, 'v'));
            EXPECT_TRUE(issued.insert(idOf(kv, key)).second)
                << "open " << open << " key " << key;
        }
        std::vector<std::string> keys{"b0", "b1", "b2", "b3"};
        std::vector<apps::MutOp> ops;
        for (const auto& key : keys)
            ops.push_back({apps::MutKind::set, key, "x"});
        std::vector<apps::MutResult> res(ops.size());
        kv.applyBatch(ops, res.data());
        for (const auto& key : keys) {
            EXPECT_TRUE(issued.insert(idOf(kv, key)).second)
                << "open " << open << " key " << key;
        }
    }
}

TEST(KvLayout, AttachRejectsForeignLayoutTag)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    auto eng = h.engine();
    uint64_t rootOff = 0;
    {
        apps::KvServer kv(eng, 0, smallKvCfg());
        kv.set("k", "v");
        rootOff = kv.rootOff();
    }
    // A root in the earlier layout starts with {nShards,
    // bucketsPerShard} and has no tag word.
    auto* words = static_cast<uint64_t*>(h.pool->at(rootOff));
    uint64_t legacy[2] = {4, 32};
    uint64_t saved[2] = {words[0], words[1]};
    h.pool->write(words, legacy, sizeof(legacy));
    try {
        apps::KvServer kv(eng, rootOff, smallKvCfg());
        FAIL() << "attached to a root without the layout tag";
    } catch (const apps::KvLayoutError& e) {
        EXPECT_EQ(e.found(), 4u);
    }
    h.pool->write(words, saved, sizeof(saved));
    apps::KvServer kv(eng, rootOff, smallKvCfg());
    ds::LookupResult r;
    ASSERT_TRUE(kv.get("k", &r));
    EXPECT_EQ(r.str(), "v");
}

// ---------------------------------------------------------------
// Log less: an in-place set is a blind write

template <typename Fn>
stats::Snapshot
countersOf(Fn&& fn)
{
    auto before = stats::aggregate();
    fn();
    return stats::aggregate() - before;
}

TEST(KvLogLess, InPlaceSetLogsNothing)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    auto eng = h.engine();
    apps::KvServer kv(eng, 0, smallKvCfg());
    for (int i = 0; i < 8; i++)
        kv.set(key16(i), val64(i, 'a'));

    auto d = countersOf([&] { kv.set(key16(3), val64(3, 'b')); });
    EXPECT_EQ(d[stats::Counter::logEntries], 0u);
    EXPECT_EQ(d[stats::Counter::clobberEntries], 0u);
    ds::LookupResult r;
    ASSERT_TRUE(kv.get(key16(3), &r));
    EXPECT_EQ(r.str(), val64(3, 'b'));
}

TEST(KvLogLess, BatchOfInPlaceSetsLogsNothingAndFencesLikeOne)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    auto eng = h.engine();
    apps::KvServer kv(eng, 0, smallKvCfg());
    std::vector<std::string> keys, vals;
    for (int i = 0; i < 8; i++) {
        keys.push_back(key16(i));
        vals.push_back(val64(i, 'c'));
        kv.set(keys.back(), val64(i, 'a'));
    }
    std::vector<apps::MutOp> ops;
    for (int i = 0; i < 8; i++)
        ops.push_back({apps::MutKind::set, keys[i], vals[i], 9});
    apps::MutResult res[8];

    auto one = countersOf([&] { kv.applyBatch({ops.data(), 1}, res); });
    auto eight = countersOf([&] { kv.applyBatch(ops, res); });
    EXPECT_EQ(one[stats::Counter::logEntries], 0u);
    EXPECT_EQ(eight[stats::Counter::logEntries], 0u);
    EXPECT_EQ(eight[stats::Counter::fences], one[stats::Counter::fences]);
    for (int i = 0; i < 8; i++) {
        apps::KvReadResult r;
        ASSERT_TRUE(kv.get(keys[i], &r));
        EXPECT_EQ(r.str(), vals[i]);
        EXPECT_EQ(r.flags, 9u);
    }
}

TEST(KvLogLess, InsertLogsOnlyTheBucketHeadAndWritesValuesOnce)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    auto eng = h.engine();
    apps::KvServer kv(eng, 0, smallKvCfg());
    auto small = countersOf([&] { kv.set(key16(1), "s"); });
    EXPECT_EQ(small[stats::Counter::logEntries], 1u);
    EXPECT_EQ(small[stats::Counter::clobberBytes], 8u);  // bucket head

    // Value bytes reach NVM twice per insert (v_log argument + item);
    // zero-filling the item first would make it three times.
    std::string big(1000, 'z');
    auto large = countersOf([&] { kv.set(key16(2), big); });
    EXPECT_EQ(large[stats::Counter::logEntries], 1u);
    uint64_t grew = large[stats::Counter::nvmWriteBytes] -
                    small[stats::Counter::nvmWriteBytes];
    uint64_t extra = big.size() - 1;
    EXPECT_GE(grew, 2 * extra);
    EXPECT_LT(grew, 2 * extra + 64);
}

TEST(KvLogLess, UndoLogsOneRangePerStoredField)
{
    // Undo logging (PMDK) logs every stored range: an in-place set
    // logs its value and its metadata, flags and CAS id as ONE range.
    Harness h(RuntimeKind::undo, rt::ClobberPolicy::refined,
              64ULL << 20);
    auto eng = h.engine();
    apps::KvServer kv(eng, 0, smallKvCfg());
    kv.set(key16(1), val64(1, 'a'));
    auto d = countersOf([&] { kv.set(key16(1), val64(1, 'b')); });
    EXPECT_EQ(d[stats::Counter::undoEntries], 2u);
    EXPECT_EQ(d[stats::Counter::undoBytes], 64u + sizeof(apps::KvMeta));
}

/**
 * Power-fail `h`'s pool (torn per `seed`) and restart as a fresh
 * process would: new allocator, runtime and engine, recovery, and a
 * re-attached KvServer. Lazy recovery is settled before returning.
 */
void
restartKv(Harness& h, std::unique_ptr<txn::Engine>& eng,
          std::unique_ptr<apps::KvServer>& kv, uint64_t seed, bool lazy)
{
    uint64_t rootOff = kv->rootOff();
    h.pool->simulateCrash(seed);
    kv.reset();
    eng.reset();
    h.runtime.reset();
    h.heap = std::make_unique<alloc::PmAllocator>(*h.pool, lazy);
    h.runtime = rt::makeRuntime(RuntimeKind::clobber, *h.pool, *h.heap);
    eng = std::make_unique<txn::Engine>(*h.runtime);
    eng->recover(lazy ? txn::RecoveryMode::lazy : txn::RecoveryMode::full,
                 /* backgroundHealer */ false);
    kv = std::make_unique<apps::KvServer>(*eng, rootOff, smallKvCfg());
    eng->finishRecovery();
}

/**
 * A batched in-place set of 8 existing keys, torn at every write
 * index and recovered (full and lazy) by a fresh process: each key
 * holds its old value with its old id or its new value with the id
 * the batch issued it, never a mix, and the batch is all-or-nothing.
 * Ids issued after the re-attach are all new.
 */
TEST(KvBlindUpdateCrash, BatchedInPlaceSetsAtEveryWriteIndex)
{
    for (bool lazy : {false, true}) {
        SCOPED_TRACE(lazy ? "lazy" : "full");
        Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
                  16ULL << 20);
        auto eng = std::make_unique<txn::Engine>(*h.runtime);
        auto kv = std::make_unique<apps::KvServer>(*eng, 0, smallKvCfg());

        constexpr int kKeys = 8;
        std::vector<std::string> keys, vals(kKeys);
        std::vector<uint64_t> ids(kKeys);
        std::set<uint64_t> issued;
        for (int i = 0; i < kKeys; i++) {
            keys.push_back(key16(i));
            vals[i] = val64(i, 'a');
            kv->set(keys[i], vals[i]);
            ids[i] = idOf(*kv, keys[i]);
            issued.insert(ids[i]);
        }

        int crashes = 0;
        for (uint64_t k = 1; k < 200; k++) {
            // The id just before the batch pins the batch's ids:
            // op i stores marker + 1 + i.
            kv->set("marker", "m");
            uint64_t marker = idOf(*kv, "marker");
            EXPECT_TRUE(issued.insert(marker).second);
            std::vector<std::string> next(kKeys);
            std::vector<apps::MutOp> ops;
            for (int i = 0; i < kKeys; i++) {
                next[i] = val64(i, static_cast<char>('b' + k % 20));
                ops.push_back({apps::MutKind::set, keys[i], next[i]});
            }
            apps::MutResult res[kKeys];
            bool crashed = false;
            h.pool->armWriteTrap(k);
            try {
                kv->applyBatch(ops, res);
            } catch (const nvm::CrashInjected&) {
                crashed = true;
            }
            h.pool->armWriteTrap(0);
            for (int i = 0; i < kKeys; i++)
                issued.insert(marker + 1 + i);
            if (crashed) {
                crashes++;
                restartKv(h, eng, kv, 4000 + k, lazy);
            }
            int fresh = 0;
            for (int i = 0; i < kKeys; i++) {
                apps::KvReadResult r;
                ASSERT_TRUE(kv->get(keys[i], &r)) << "write " << k;
                if (r.str() == next[i]) {
                    EXPECT_EQ(r.version, marker + 1 + i)
                        << "write " << k << " key " << i;
                    vals[i] = next[i];
                    ids[i] = r.version;
                    fresh++;
                } else {
                    EXPECT_EQ(r.str(), vals[i])
                        << "write " << k << " key " << i;
                    EXPECT_EQ(r.version, ids[i])
                        << "write " << k << " key " << i;
                }
            }
            EXPECT_TRUE(fresh == 0 || fresh == kKeys) << "write " << k;
            if (!crashed) {
                EXPECT_EQ(fresh, kKeys);
                break;
            }
            kv->set("after", "a");
            EXPECT_TRUE(issued.insert(idOf(*kv, "after")).second)
                << "write " << k;
        }
        EXPECT_GT(crashes, 10);
        kv.reset();
        eng.reset();
    }
}

/** Throws CrashInjected right after the `at`-th flush the calling
 *  thread issues: power fails between a clwb and the fence that would
 *  have retired it. */
class CrashAfterFlush : public nvm::PersistObserver {
 public:
    explicit CrashAfterFlush(uint64_t at) : left_(at) {}
    void
    flushed(uint64_t) override
    {
        if (left_ > 0 && --left_ == 0)
            throw nvm::CrashInjected{};
    }
    void fenced() override {}

 private:
    uint64_t left_;
};

/**
 * The first transaction after an attach, crashed at every write index
 * and right after every flush, each under several tear seeds (no
 * other transaction runs in between). Whatever id recovery leaves in
 * the item, the ids the next attach issues are new: the attach's
 * epoch must be durable before the begin fence of its first
 * transaction, whose descriptor may survive a tear that loses an
 * unfenced epoch.
 */
TEST(KvBlindUpdateCrash, FirstTransactionAfterAttach)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              16ULL << 20);
    auto eng = std::make_unique<txn::Engine>(*h.runtime);
    auto kv = std::make_unique<apps::KvServer>(*eng, 0, smallKvCfg());
    const std::string key = "k";
    std::string val = "0";
    kv->set(key, val);
    std::set<uint64_t> issued{idOf(*kv, key)};

    int crashes = 0, redone = 0;
    for (bool atFlush : {false, true}) {
        SCOPED_TRACE(atFlush ? "after flush" : "at write");
        // The window that matters (begin flush issued, begin fence
        // not yet) needs the descriptor kept and the epoch lost, a
        // few percent of tears: sweep many seeds there.
        const uint64_t kSeeds = atFlush ? 256 : 8;
        bool pastEnd = false;
        for (uint64_t k = 1; !pastEnd && k < 100; k++) {
            for (uint64_t seed = 0; seed < kSeeds; seed++) {
                // A clean re-attach: the set below is its first
                // transaction.
                uint64_t rootOff = kv->rootOff();
                kv.reset();
                kv = std::make_unique<apps::KvServer>(*eng, rootOff,
                                                      smallKvCfg());
                std::string next = std::to_string(k * kSeeds + seed + 1);
                CrashAfterFlush trap(k);
                if (atFlush)
                    nvm::setPersistObserver(&trap);
                else
                    h.pool->armWriteTrap(k);
                bool crashed = false;
                try {
                    kv->set(key, next);
                } catch (const nvm::CrashInjected&) {
                    crashed = true;
                }
                nvm::setPersistObserver(nullptr);
                h.pool->armWriteTrap(0);
                if (!crashed) {
                    EXPECT_TRUE(issued.insert(idOf(*kv, key)).second);
                    val = next;
                    pastEnd = true;
                    break;
                }
                crashes++;
                restartKv(h, eng, kv, 9000 + k * kSeeds + seed,
                          /* lazy */ false);
                apps::KvReadResult r;
                ASSERT_TRUE(kv->get(key, &r)) << "point " << k;
                if (r.str() == next) {
                    // Re-executed: it stored the id the crashed run
                    // drew, which nobody issued before.
                    EXPECT_TRUE(issued.insert(r.version).second)
                        << "point " << k << " seed " << seed;
                    val = next;
                    redone++;
                } else {
                    EXPECT_EQ(r.str(), val) << "point " << k;
                    EXPECT_TRUE(issued.count(r.version))
                        << "point " << k << " seed " << seed;
                }
                kv->set("after", "a");
                EXPECT_TRUE(issued.insert(idOf(*kv, "after")).second)
                    << "point " << k << " seed " << seed;
            }
        }
        EXPECT_TRUE(pastEnd);
    }
    EXPECT_GT(crashes, 100);
    EXPECT_GT(redone, 10);
    kv.reset();
    eng.reset();
}

// ---------------------------------------------------------------
// Service layer

TEST(KvService, GroupCommitMatchesModel)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    auto eng = h.engine();
    apps::KvServer::Config cfg;
    cfg.shards = 16;
    apps::KvServer kv(eng, 0, cfg);

    server::ServiceConfig svcCfg;
    svcCfg.workers = 2;
    svcCfg.batchMax = 8;
    server::KvService svc(kv, svcCfg);
    svc.start();

    // Submit windows of mixed traffic; per-key order is preserved by
    // shard routing, so the final state must match in-order apply.
    std::map<std::string, std::string> model;
    Xorshift rng(23);
    std::deque<server::Request> reqs;
    for (int round = 0; round < 50; round++) {
        server::Completion done;
        reqs.clear();
        for (int i = 0; i < 16; i++) {
            reqs.emplace_back();
            auto& r = reqs.back();
            r.key = "sk" + std::to_string(rng.nextUint(40));
            if (rng.nextUint(10) < 7) {
                r.op = server::Request::Op::set;
                r.value = "sv-" + std::to_string(round) + "-" +
                          std::to_string(i);
                model[r.key] = r.value;
            } else {
                r.op = server::Request::Op::del;
                model.erase(r.key);
            }
            r.done = &done;
        }
        done.expect(16);
        for (auto& r : reqs)
            svc.submit(&r);
        done.wait();
    }
    auto st = svc.totalStats();
    svc.stop();
    EXPECT_EQ(st.ops, 50u * 16u);
    EXPECT_GT(st.batches, 0u);  // group commit actually engaged

    EXPECT_EQ(kv.itemCount(), model.size());
    for (const auto& [k, v] : model) {
        ds::LookupResult r;
        ASSERT_TRUE(kv.get(k, &r)) << k;
        EXPECT_EQ(r.str(), v);
    }
}

TEST(KvService, BatchOverflowFallsBackPerOp)
{
    // A slot log too small for an 8-op batch of 1 KiB values: the
    // batch transaction must abort cleanly and replay op-by-op.
    nvm::PoolConfig pcfg;
    pcfg.size = 64ULL << 20;
    pcfg.maxThreads = 4;
    pcfg.slotBytes = 16384;  // ~7 KiB log area after the descriptor
    auto pool = nvm::Pool::create(pcfg);
    nvm::Pool::setCurrent(pool.get());
    alloc::PmAllocator heap(*pool);
    auto runtime =
        rt::makeRuntime(RuntimeKind::clobber, *pool, heap);
    txn::Engine eng(*runtime);

    apps::KvServer::Config cfg;
    cfg.shards = 4;
    cfg.bucketsPerShard = 32;
    apps::KvServer kv(eng, 0, cfg);

    server::ServiceConfig svcCfg;
    svcCfg.workers = 1;
    svcCfg.batchMax = 8;
    server::KvService svc(kv, svcCfg);
    svc.start();

    server::Completion done;
    std::deque<server::Request> reqs;
    std::string big(1024, 'z');
    for (int i = 0; i < 8; i++) {
        reqs.emplace_back();
        auto& r = reqs.back();
        r.op = server::Request::Op::set;
        r.key = "of" + std::to_string(i);
        r.value = big;
        r.done = &done;
    }
    done.expect(8);
    // One submission, so the worker sees all 8 as one group however
    // the threads are scheduled.
    std::vector<server::Request*> run;
    for (auto& r : reqs)
        run.push_back(&r);
    svc.submitMany(0, run.data(), run.size());
    done.wait();
    auto st = svc.totalStats();
    svc.stop();

    EXPECT_GE(st.overflows, 1u);
    for (int i = 0; i < 8; i++) {
        EXPECT_EQ(reqs[i].result, apps::MutResult::stored);
        ds::LookupResult r;
        ASSERT_TRUE(kv.get("of" + std::to_string(i), &r));
        EXPECT_EQ(r.str(), big);
    }
    nvm::Pool::setCurrent(nullptr);
}

TEST(KvService, RejectsWorkerCountBeyondPoolSlots)
{
    Harness h(RuntimeKind::clobber);  // maxThreads = 8
    auto eng = h.engine();
    apps::KvServer kv(eng);
    server::ServiceConfig svcCfg;
    svcCfg.workers = 9;
    server::KvService svc(kv, svcCfg);
    try {
        svc.start();
        FAIL() << "start() accepted 9 workers on an 8-slot pool";
    } catch (const txn::SlotRangeError& e) {
        EXPECT_EQ(e.tid(), 8u);
        EXPECT_EQ(e.slots(), 8u);
    }
}

// ---------------------------------------------------------------
// TCP front-end, end to end over loopback

class SockClient {
 public:
    explicit SockClient(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
    }

    ~SockClient() { ::close(fd_); }

    /** Send `req`, read exactly `expect.size()` bytes back. */
    std::string
    roundTrip(const std::string& req, size_t expectBytes)
    {
        EXPECT_EQ(::send(fd_, req.data(), req.size(), 0),
                  static_cast<ssize_t>(req.size()));
        std::string out;
        char buf[4096];
        while (out.size() < expectBytes) {
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0)
                break;
            out.append(buf, static_cast<size_t>(n));
        }
        return out;
    }

    /** Send `req`, read until the reply ends with `terminator`. */
    std::string
    roundTripUntil(const std::string& req, std::string_view terminator)
    {
        EXPECT_EQ(::send(fd_, req.data(), req.size(), 0),
                  static_cast<ssize_t>(req.size()));
        std::string out;
        char buf[4096];
        while (!out.ends_with(terminator)) {
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0)
                break;
            out.append(buf, static_cast<size_t>(n));
        }
        return out;
    }

    /**
     * `gets key` for a single hit whose header starts with `prefix`
     * ("VALUE <key> <flags> <bytes> ") and whose data is `data`.
     * @return the cas unique, which memcached clients treat as opaque.
     */
    uint64_t
    getsUnique(const std::string& key, const std::string& prefix,
               const std::string& data)
    {
        std::string got = roundTripUntil("gets " + key + "\r\n",
                                         "END\r\n");
        EXPECT_TRUE(got.starts_with(prefix)) << got;
        std::string tail = "\r\n" + data + "\r\nEND\r\n";
        EXPECT_TRUE(got.ends_with(tail)) << got;
        if (!got.starts_with(prefix) || !got.ends_with(tail) ||
            got.size() <= prefix.size() + tail.size())
            return 0;
        std::string digits = got.substr(
            prefix.size(), got.size() - prefix.size() - tail.size());
        EXPECT_EQ(digits.find_first_not_of("0123456789"),
                  std::string::npos)
            << got;
        return std::stoull(digits);
    }

 private:
    int fd_ = -1;
};

struct Stack {
    explicit Stack(Harness& h)
        : eng(h.engine()), kv(eng, 0, kvCfg()),
          svc(kv, svcCfg()), tcp(svc, kv, server::TcpConfig{})
    {
        svc.start();
        tcp.start();
    }

    ~Stack()
    {
        tcp.stop();
        svc.stop();
    }

    static apps::KvServer::Config
    kvCfg()
    {
        apps::KvServer::Config cfg;
        cfg.shards = 16;
        return cfg;
    }

    static server::ServiceConfig
    svcCfg()
    {
        server::ServiceConfig cfg;
        cfg.workers = 2;
        cfg.batchMax = 8;
        return cfg;
    }

    txn::Engine eng;
    apps::KvServer kv;
    server::KvService svc;
    server::TcpServer tcp;
};

TEST(TcpServer, MemcachedConversation)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    Stack s(h);
    SockClient c(s.tcp.port());

    std::string exp = "STORED\r\n";
    EXPECT_EQ(c.roundTrip("set foo 7 0 3\r\nbar\r\n", exp.size()),
              exp);

    uint64_t id = c.getsUnique("foo", "VALUE foo 7 3 ", "bar");
    ASSERT_NE(id, 0u);
    std::string unique = std::to_string(id);

    exp = "STORED\r\n";
    EXPECT_EQ(c.roundTrip("cas foo 7 0 3 " + unique + "\r\nbaz\r\n",
                          exp.size()),
              exp);
    exp = "EXISTS\r\n";  // stale cas unique
    EXPECT_EQ(c.roundTrip("cas foo 7 0 3 " + unique + "\r\nnew\r\n",
                          exp.size()),
              exp);
    exp = "NOT_FOUND\r\n";
    EXPECT_EQ(c.roundTrip("cas nil 0 0 1 1\r\nx\r\n", exp.size()),
              exp);

    uint64_t next = c.getsUnique("foo", "VALUE foo 7 3 ", "baz");
    EXPECT_NE(next, 0u);
    EXPECT_NE(next, id);

    exp = "DELETED\r\n";
    EXPECT_EQ(c.roundTrip("delete foo\r\n", exp.size()), exp);
    exp = "NOT_FOUND\r\n";
    EXPECT_EQ(c.roundTrip("delete foo\r\n", exp.size()), exp);

    exp = "END\r\n";  // miss
    EXPECT_EQ(c.roundTrip("get foo\r\n", exp.size()), exp);

    exp = "ERROR\r\n";
    EXPECT_EQ(c.roundTrip("bogus\r\n", exp.size()), exp);
}

TEST(TcpServer, CasUniqueIsNotTruncated)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    Stack s(h);
    SockClient c(s.tcp.port());

    std::string exp = "STORED\r\n";
    EXPECT_EQ(c.roundTrip("set foo 0 0 2\r\nab\r\n", exp.size()), exp);
    uint64_t id = c.getsUnique("foo", "VALUE foo 0 2 ", "ab");
    ASSERT_NE(id, 0u);

    // The same id plus 2^32: equal in the low 32 bits only.
    std::string alias = std::to_string(id + (uint64_t{1} << 32));
    exp = "EXISTS\r\n";
    EXPECT_EQ(c.roundTrip("cas foo 0 0 2 " + alias + "\r\ncd\r\n",
                          exp.size()),
              exp);
    exp = "STORED\r\n";
    EXPECT_EQ(c.roundTrip("cas foo 0 0 2 " + std::to_string(id) +
                              "\r\nef\r\n",
                          exp.size()),
              exp);
    c.getsUnique("foo", "VALUE foo 0 2 ", "ef");
}

TEST(TcpServer, PipelinedWindowKeepsCommandOrder)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    Stack s(h);
    SockClient c(s.tcp.port());

    // One burst: 4 sets + 1 get + 1 delete, answered in order.
    std::string req = "set a 0 0 2\r\naa\r\n"
                      "set b 0 0 2\r\nbb\r\n"
                      "set a 0 0 2\r\nAA\r\n"
                      "set c 0 0 2\r\ncc\r\n"
                      "get a\r\n"
                      "delete b\r\n";
    std::string exp = "STORED\r\nSTORED\r\nSTORED\r\nSTORED\r\n"
                      "VALUE a 0 2\r\nAA\r\nEND\r\n"
                      "DELETED\r\n";
    EXPECT_EQ(c.roundTrip(req, exp.size()), exp);
}

TEST(TcpServer, LoadGeneratorRoundTrip)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    Stack s(h);

    server::LoadConfig cfg;
    cfg.port = s.tcp.port();
    cfg.connections = 2;
    cfg.totalOps = 4000;
    cfg.window = 16;
    cfg.keySpace = 500;
    cfg.valueLen = 64;
    cfg.writeRatio = 0.5;
    auto res = server::runLoad(cfg);
    EXPECT_EQ(res.opsAcked, 4000u);
    EXPECT_EQ(res.errors, 0u);
    EXPECT_FALSE(res.serverDied);
    EXPECT_GT(res.opsPerSec, 0.0);
    EXPECT_GT(res.p99us, 0.0);
    EXPECT_GE(res.p99us, res.p50us);

    // Group commit engaged under pipelined load.
    auto st = s.svc.totalStats();
    EXPECT_GT(st.batches, 0u);
    EXPECT_GT(st.batchedOps, st.batches);
}

}  // namespace
}  // namespace cnvm::test
