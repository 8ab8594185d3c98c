#include "apps/kv/kv_server.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/rand.h"
#include "runtimes/descriptor.h"
#include "txn/txrun.h"

namespace cnvm::apps {

namespace {

uint64_t
bucketIndex(txn::Tx& tx, nvm::PPtr<PKvStore> root, std::string_view key)
{
    uint64_t shards = tx.ld(root->nShards);
    uint64_t perShard = tx.ld(root->bucketsPerShard);
    uint64_t h = fnv1a(key.data(), key.size());
    return (h % shards) * perShard + (h / shards) % perShard;
}

bool
keyEquals(txn::Tx& tx, nvm::PPtr<KvItem> it, std::string_view key)
{
    uint32_t klen = tx.ld(it->keyLen);
    if (klen != key.size())
        return false;
    char buf[ds::kMaxKeyLen];
    CNVM_CHECK(klen <= ds::kMaxKeyLen, "key too long");
    tx.ldBytes(buf, it->keyBytes(), klen);
    return std::memcmp(buf, key.data(), klen) == 0;
}

/**
 * A fresh item with every payload byte written by one store: header,
 * key and value. Nothing is read back and nothing is left for a
 * zero-fill to cover, so the allocation skips pnew's zeroing.
 */
nvm::PPtr<KvItem>
makeItem(txn::Tx& tx, std::string_view key, std::string_view val,
         KvMeta meta, nvm::PPtr<KvItem> next)
{
    CNVM_CHECK(key.size() <= ds::kMaxKeyLen, "key too long");
    CNVM_CHECK(val.size() <= ds::kMaxValLen, "value too long");
    size_t valOff = sizeof(KvItem) + KvItem::keySpan(key.size());
    size_t n = valOff + val.size();
    alignas(KvItem) char buf[sizeof(KvItem) + ds::kMaxKeyLen +
                             ds::kMaxValLen];
    KvItem hdr{next, static_cast<uint32_t>(key.size()),
               static_cast<uint32_t>(val.size()), meta};
    std::memcpy(buf, &hdr, sizeof(hdr));
    std::memcpy(buf + sizeof(hdr), key.data(), key.size());
    std::memset(buf + sizeof(hdr) + key.size(), 0,
                valOff - sizeof(hdr) - key.size());
    std::memcpy(buf + valOff, val.data(), val.size());
    auto it = nvm::PPtr<KvItem>(tx.pmallocOff(n));
    tx.stBytes(it.get(), buf, n);
    return it;
}

/** Where a key's chain walk ended. */
struct Found {
    nvm::PPtr<KvItem>* head;  ///< the key's bucket
    nvm::PPtr<KvItem>* link;  ///< the pointer to `it` (head or ->next)
    nvm::PPtr<KvItem> it;     ///< the item; null on a miss
};

Found
findItem(txn::Tx& tx, nvm::PPtr<PKvStore> root, std::string_view key)
{
    auto* head = &root->buckets()[bucketIndex(tx, root, key)];
    auto* link = head;
    auto it = tx.ld(*link);
    while (!it.isNull() && !keyEquals(tx, it, key)) {
        link = &it->next;
        it = tx.ld(*link);
    }
    return {head, link, it};
}

/**
 * Give the found item a new value and metadata: in place when the
 * value length is unchanged, else through a fresh item spliced in at
 * the link. The in-place path stores only blocks this transaction
 * never loads (value bytes, KvMeta) — a blind write, which recovery
 * redoes by re-execution instead of restoring from a log.
 */
void
writeItem(txn::Tx& tx, const Found& f, std::string_view key,
          std::string_view val, KvMeta meta)
{
    if (tx.ld(f.it->valLen) == val.size()) {
        tx.stBytes(f.it->valBytes(static_cast<uint32_t>(key.size())),
                   val.data(), val.size());
        tx.st(f.it->meta, meta);
    } else {
        tx.st(*f.link, makeItem(tx, key, val, meta, tx.ld(f.it->next)));
        tx.pfree(f.it);
    }
}

/**
 * Replace (or insert) the item under `key`. Shared by the set txfunc
 * and the batch txfunc, so single-op and group-commit paths execute
 * identical structure code. The CAS id in `meta` comes from the
 * caller (v_log), never from the item: a set reads no metadata.
 */
void
doSet(txn::Tx& tx, nvm::PPtr<PKvStore> root, std::string_view key,
      std::string_view val, KvMeta meta)
{
    Found f = findItem(tx, root, key);
    if (f.it.isNull())
        tx.st(*f.head, makeItem(tx, key, val, meta, tx.ld(*f.head)));
    else
        writeItem(tx, f, key, val, meta);
}

MutResult
doDel(txn::Tx& tx, nvm::PPtr<PKvStore> root, std::string_view key)
{
    Found f = findItem(tx, root, key);
    if (f.it.isNull())
        return MutResult::notFound;
    tx.st(*f.link, tx.ld(f.it->next));
    tx.pfree(f.it);
    return MutResult::deleted;
}

/**
 * Compare-and-store: the id check happens inside the transaction, so
 * the paper's CAS semantics hold under both normal execution and
 * recovery re-execution (the re-run sees the same pre-transaction id
 * the original run saw, because the original run's effects were
 * rolled back / never made durable). Loading the id makes the
 * metadata store a clobber write: cas stays logged.
 */
MutResult
doCas(txn::Tx& tx, nvm::PPtr<PKvStore> root, std::string_view key,
      std::string_view val, KvMeta meta, uint64_t expectedVersion)
{
    Found f = findItem(tx, root, key);
    if (f.it.isNull())
        return MutResult::notFound;
    if (tx.ld(f.it->meta.version) != expectedVersion)
        return MutResult::exists;
    writeItem(tx, f, key, val, meta);
    return MutResult::stored;
}

void
kvSetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PKvStore>(a.get<uint64_t>());
    auto key = a.getString();
    auto val = a.getString();
    auto flags = a.get<uint32_t>();
    auto id = a.get<uint64_t>();
    doSet(tx, root, key, val, KvMeta{flags, 0, id});
}

void
kvGetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PKvStore>(a.get<uint64_t>());
    auto key = a.getString();
    auto* out = reinterpret_cast<KvReadResult*>(a.get<uint64_t>());
    // Read-only transactions are never re-executed (their begin record
    // is never persisted), but keep the dangling-pointer guard
    // anyway: it documents the volatile-out-pointer contract.
    if (tx.recovering())
        return;
    Found f = findItem(tx, root, key);
    out->found = !f.it.isNull();
    if (!out->found)
        return;
    out->len = tx.ld(f.it->valLen);
    KvMeta meta = tx.ld(f.it->meta);
    out->flags = meta.flags;
    out->version = meta.version;
    CNVM_CHECK(out->len <= ds::kMaxValLen, "value too long");
    tx.ldBytes(out->value,
               f.it->valBytes(static_cast<uint32_t>(key.size())),
               out->len);
}

void
kvDelFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PKvStore>(a.get<uint64_t>());
    auto key = a.getString();
    auto* out = reinterpret_cast<MutResult*>(a.get<uint64_t>());
    MutResult r = doDel(tx, root, key);
    // The out pointer is a stack address of the crashed process during
    // recovery re-execution — never dereference it then.
    if (out != nullptr && !tx.recovering())
        *out = r;
}

void
kvCasFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PKvStore>(a.get<uint64_t>());
    auto key = a.getString();
    auto val = a.getString();
    auto flags = a.get<uint32_t>();
    auto expected = a.get<uint64_t>();
    auto id = a.get<uint64_t>();
    auto* out = reinterpret_cast<MutResult*>(a.get<uint64_t>());
    MutResult r = doCas(tx, root, key, val, KvMeta{flags, 0, id},
                        expected);
    if (out != nullptr && !tx.recovering())
        *out = r;
}

/** Batch blob op tag: MutKind in the low bits, then presence bits. */
constexpr uint8_t kTagKind = 0x3;
constexpr uint8_t kTagFlags = 0x4;  ///< a u32 flags word follows
constexpr uint8_t kTagCas = 0x8;    ///< a u64 expected CAS id follows

std::string_view
getChars(txn::ArgReader& r, size_t len)
{
    auto s = r.getRaw(len);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
}

/**
 * Group commit body: the serialized batch rides in one length-prefixed
 * blob, so the whole batch is one v_log entry and recovery re-executes
 * it as one unit — all of the batch or none of it is ever durable.
 * Blob: u32 count, u64 base CAS id, then per op a u8 tag, a u8 key
 * length and a u16 value length, the flags and expected id only when
 * the tag says so (absent = 0), and the raw key and value bytes.
 * Op i stores id base + i.
 */
void
kvBatchFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto root = nvm::PPtr<PKvStore>(a.get<uint64_t>());
    auto* results = reinterpret_cast<MutResult*>(a.get<uint64_t>());
    bool live = !tx.recovering();
    txn::ArgReader ops(a.getBytes());
    auto count = ops.get<uint32_t>();
    auto baseId = ops.get<uint64_t>();
    for (uint32_t i = 0; i < count; i++) {
        auto tag = ops.get<uint8_t>();
        auto klen = ops.get<uint8_t>();
        auto vlen = ops.get<uint16_t>();
        uint32_t flags = (tag & kTagFlags) ? ops.get<uint32_t>() : 0;
        uint64_t expected = (tag & kTagCas) ? ops.get<uint64_t>() : 0;
        auto key = getChars(ops, klen);
        auto val = getChars(ops, vlen);
        KvMeta meta{flags, 0, baseId + i};
        MutResult r = MutResult::error;
        switch (static_cast<MutKind>(tag & kTagKind)) {
          case MutKind::set:
            doSet(tx, root, key, val, meta);
            r = MutResult::stored;
            break;
          case MutKind::del:
            r = doDel(tx, root, key);
            break;
          case MutKind::cas:
            r = doCas(tx, root, key, val, meta, expected);
            break;
        }
        if (live && results != nullptr)
            results[i] = r;
    }
}

const txn::FuncId kKvSet = txn::registerTxFunc("kv_set", kvSetFn);
const txn::FuncId kKvGet = txn::registerTxFunc("kv_get", kvGetFn);
const txn::FuncId kKvDel = txn::registerTxFunc("kv_del", kvDelFn);
const txn::FuncId kKvCas = txn::registerTxFunc("kv_cas", kvCasFn);
const txn::FuncId kKvBatch = txn::registerTxFunc("kv_batch", kvBatchFn);

}  // namespace

KvServer::KvServer(txn::Engine& eng, uint64_t rootOff,
                   const Config& cfg)
    : eng_(eng), lockMode_(cfg.lockMode)
{
    uint64_t epoch = 1;
    if (rootOff == 0) {
        size_t nBuckets = cfg.shards * cfg.bucketsPerShard;
        rootOff = ds::rawCreate(
            eng_, sizeof(PKvStore) +
                      nBuckets * sizeof(nvm::PPtr<KvItem>));
        root_ = nvm::PPtr<PKvStore>(rootOff);
        auto& pool = eng_.rt.pool();
        PKvStore init{};
        init.magic = kKvLayoutMagic;
        init.nShards = cfg.shards;
        init.bucketsPerShard = cfg.bucketsPerShard;
        init.epoch = epoch;
        pool.write(root_.get(), &init, sizeof(init));
        pool.persist(root_.get(), sizeof(init));
    } else {
        root_ = nvm::PPtr<PKvStore>(rootOff);
        if (root_->magic != kKvLayoutMagic)
            throw KvLayoutError(rootOff, root_->magic);
        epoch = root_->epoch + 1;
        writeEpoch(epoch);
    }
    epoch_.store(epoch, std::memory_order_relaxed);
    nextId_.store((epoch << 32) + 1, std::memory_order_relaxed);
    shards_ = std::vector<ShardState>(root_->nShards);
}

void
KvServer::writeEpoch(uint64_t epoch)
{
    auto& pool = eng_.rt.pool();
    pool.write(&root_->epoch, &epoch, sizeof(epoch));
    pool.persist(&root_->epoch, sizeof(epoch));
}

uint64_t
KvServer::drawIds(uint64_t n)
{
    uint64_t base = nextId_.fetch_add(n, std::memory_order_relaxed);
    // 2^32 ids into an epoch the counter enters the next one, which
    // must be on media before any of its ids is handed out.
    uint64_t epoch = (base + n - 1) >> 32;
    if (epoch > epoch_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> g(epochMu_);
        if (epoch > epoch_.load(std::memory_order_relaxed)) {
            writeEpoch(epoch);
            epoch_.store(epoch, std::memory_order_release);
        }
    }
    return base;
}

size_t
KvServer::shardOf(std::string_view key) const
{
    return fnv1a(key.data(), key.size()) % root_->nShards;
}

void
KvServer::lockShard(size_t idx, bool exclusive)
{
    if (lockMode_ == LockMode::spin) {
        shards_[idx].spin.lock();
    } else if (exclusive) {
        shards_[idx].rw.lock();
    } else {
        shards_[idx].rw.lock_shared();
    }
}

void
KvServer::unlockShard(size_t idx, bool exclusive)
{
    if (lockMode_ == LockMode::spin) {
        shards_[idx].spin.unlock();
    } else if (exclusive) {
        shards_[idx].rw.unlock();
    } else {
        shards_[idx].rw.unlock_shared();
    }
}

namespace {

/** Exception-safe shard lock (a simulated crash mid-transaction must
 *  not leave the lock held). */
class ShardGuard {
 public:
    ShardGuard(KvServer& server, size_t idx, bool exclusive)
        : server_(server), idx_(idx), exclusive_(exclusive)
    {
        server_.lockShard(idx_, exclusive_);
    }
    ~ShardGuard() { server_.unlockShard(idx_, exclusive_); }
    ShardGuard(const ShardGuard&) = delete;
    ShardGuard& operator=(const ShardGuard&) = delete;

 private:
    KvServer& server_;
    size_t idx_;
    bool exclusive_;
};

/**
 * Exception-safe exclusive lock over a batch's shard set. Indices are
 * locked in ascending order — concurrent batches from different
 * workers may overlap shard sets, and ordered acquisition is what
 * rules deadlock out.
 */
class MultiShardGuard {
 public:
    MultiShardGuard(KvServer& server, std::vector<size_t>&& sorted)
        : server_(server), idx_(std::move(sorted))
    {
        for (size_t i : idx_)
            server_.lockShard(i, true);
    }
    ~MultiShardGuard()
    {
        for (auto it = idx_.rbegin(); it != idx_.rend(); ++it)
            server_.unlockShard(*it, true);
    }
    MultiShardGuard(const MultiShardGuard&) = delete;
    MultiShardGuard& operator=(const MultiShardGuard&) = delete;

 private:
    KvServer& server_;
    std::vector<size_t> idx_;
};

}  // namespace

void
KvServer::set(std::string_view key, std::string_view val,
              uint32_t flags)
{
    size_t shard = shardOf(key);
    shards_[shard].stats.sets.fetch_add(1, std::memory_order_relaxed);
    ShardGuard g(*this, shard, true);
    txn::run(eng_, kKvSet, root_.raw(), key, val, flags, drawIds(1));
}

bool
KvServer::get(std::string_view key, KvReadResult* out)
{
    size_t shard = shardOf(key);
    auto& st = shards_[shard].stats;
    st.gets.fetch_add(1, std::memory_order_relaxed);
    ShardGuard g(*this, shard, false);
    txn::run(eng_, kKvGet, root_.raw(), key,
             reinterpret_cast<uint64_t>(out));
    if (out->found)
        st.hits.fetch_add(1, std::memory_order_relaxed);
    return out->found;
}

bool
KvServer::get(std::string_view key, ds::LookupResult* out)
{
    KvReadResult full;
    if (!get(key, &full)) {
        out->found = false;
        return false;
    }
    out->found = true;
    out->len = full.len;
    std::memcpy(out->value, full.value, full.len);
    return true;
}

MutResult
KvServer::cas(std::string_view key, std::string_view val,
              uint32_t flags, uint64_t expectedVersion)
{
    size_t shard = shardOf(key);
    MutResult r = MutResult::error;
    {
        ShardGuard g(*this, shard, true);
        txn::run(eng_, kKvCas, root_.raw(), key, val, flags,
                 expectedVersion, drawIds(1),
                 reinterpret_cast<uint64_t>(&r));
    }
    auto& st = shards_[shard].stats;
    if (r == MutResult::stored)
        st.casStores.fetch_add(1, std::memory_order_relaxed);
    else
        st.casMisses.fetch_add(1, std::memory_order_relaxed);
    return r;
}

bool
KvServer::del(std::string_view key)
{
    size_t shard = shardOf(key);
    auto& st = shards_[shard].stats;
    st.dels.fetch_add(1, std::memory_order_relaxed);
    MutResult r = MutResult::error;
    {
        ShardGuard g(*this, shard, true);
        txn::run(eng_, kKvDel, root_.raw(), key,
                 reinterpret_cast<uint64_t>(&r));
    }
    if (r == MutResult::deleted) {
        st.delHits.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

void
KvServer::applyBatch(std::span<const MutOp> ops, MutResult* results)
{
    if (ops.empty())
        return;
    // One key hash per op: the lock set and both stats loops reuse it.
    std::vector<size_t> opShard;
    opShard.reserve(ops.size());
    for (const auto& op : ops)
        opShard.push_back(shardOf(op.key));
    std::vector<size_t> shardIdx(opShard);
    std::sort(shardIdx.begin(), shardIdx.end());
    shardIdx.erase(std::unique(shardIdx.begin(), shardIdx.end()),
                   shardIdx.end());

    // Blob format: see kvBatchFn.
    txn::ArgWriter blob;
    blob.put(static_cast<uint32_t>(ops.size()));
    blob.put(drawIds(ops.size()));
    for (const auto& op : ops) {
        CNVM_CHECK(op.key.size() <= ds::kMaxKeyLen, "key too long");
        CNVM_CHECK(op.val.size() <= ds::kMaxValLen, "value too long");
        uint8_t tag = static_cast<uint8_t>(op.kind);
        if (op.flags != 0)
            tag |= kTagFlags;
        if (op.casVersion != 0)
            tag |= kTagCas;
        blob.put(tag);
        blob.put(static_cast<uint8_t>(op.key.size()));
        blob.put(static_cast<uint16_t>(op.val.size()));
        if (op.flags != 0)
            blob.put(op.flags);
        if (op.casVersion != 0)
            blob.put(op.casVersion);
        blob.putRaw(op.key.data(), op.key.size());
        blob.putRaw(op.val.data(), op.val.size());
    }

    // The batch blob rides in the descriptor's v_log argument area
    // alongside the root/results words and span framing. Reject
    // oversized batches with the same typed error as a log overflow
    // so callers fall back to op-by-op replay instead of panicking.
    constexpr size_t kBatchArgSlack = 64;
    if (blob.bytes().size() + kBatchArgSlack > rt::kMaxArgBytes)
        throw txn::LogOverflowError(
            blob.bytes().size() + kBatchArgSlack, rt::kMaxArgBytes);

    for (size_t i = 0; i < ops.size(); i++) {
        auto& st = shards_[opShard[i]].stats;
        if (ops[i].kind == MutKind::set)
            st.sets.fetch_add(1, std::memory_order_relaxed);
        else if (ops[i].kind == MutKind::del)
            st.dels.fetch_add(1, std::memory_order_relaxed);
    }

    MultiShardGuard g(*this, std::move(shardIdx));
    txn::run(eng_, kKvBatch, root_.raw(),
             reinterpret_cast<uint64_t>(results), blob.bytes());

    for (size_t i = 0; i < ops.size(); i++) {
        auto& st = shards_[opShard[i]].stats;
        if (ops[i].kind == MutKind::del &&
            results[i] == MutResult::deleted)
            st.delHits.fetch_add(1, std::memory_order_relaxed);
        else if (ops[i].kind == MutKind::cas &&
                 results[i] == MutResult::stored)
            st.casStores.fetch_add(1, std::memory_order_relaxed);
        else if (ops[i].kind == MutKind::cas)
            st.casMisses.fetch_add(1, std::memory_order_relaxed);
    }
}

uint64_t
KvServer::itemCount() const
{
    uint64_t n = 0;
    uint64_t buckets = root_->nShards * root_->bucketsPerShard;
    for (uint64_t b = 0; b < buckets; b++) {
        for (auto it = root_->buckets()[b]; !it.isNull();
             it = it->next) {
            n++;
        }
    }
    return n;
}

KvServer::StatsTotals
KvServer::statsTotals() const
{
    StatsTotals t;
    for (const auto& s : shards_) {
        t.gets += s.stats.gets.load(std::memory_order_relaxed);
        t.hits += s.stats.hits.load(std::memory_order_relaxed);
        t.sets += s.stats.sets.load(std::memory_order_relaxed);
        t.dels += s.stats.dels.load(std::memory_order_relaxed);
        t.delHits += s.stats.delHits.load(std::memory_order_relaxed);
        t.casStores +=
            s.stats.casStores.load(std::memory_order_relaxed);
        t.casMisses +=
            s.stats.casMisses.load(std::memory_order_relaxed);
    }
    return t;
}

}  // namespace cnvm::apps
