/**
 * @file
 * Memcached-like persistent key-value store (paper Section 5.6).
 *
 * The paper ports memcached 1.2.5 to Mnemosyne/PMDK/Clobber-NVM and
 * drives it with memslap (16-byte keys, 64-byte values). This module
 * is the equivalent server core: a persistent hash table with
 * memcached-style items (flags + version for CAS), sharded locking,
 * and — because old memcached's coarse lock scaled poorly — two
 * selectable lock implementations, spinlock and reader-writer lock
 * (the paper's Figure 10 compares exactly these).
 *
 * The store is the engine room of the network-facing KV service
 * (src/server/): every piece of state one shard owns — its locks,
 * its served-request counters, and the engine slot of the worker
 * thread that owns it in thread-per-core mode — lives in one
 * ShardState struct, so a server worker touches exactly one cache
 * neighborhood per shard. Mutations can be applied one per
 * transaction (set/del/cas) or batched into a single transaction
 * (applyBatch — the group-commit path: one begin persist, one seal,
 * one commit fence for the whole batch).
 */
#ifndef CNVM_APPS_KV_SERVER_H
#define CNVM_APPS_KV_SERVER_H

#include <atomic>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "nvm/pptr.h"
#include "sim/lock.h"
#include "structures/kv.h"
#include "txn/engine.h"

namespace cnvm::apps {

/**
 * Item metadata that every set replaces: the memcached flags and the
 * CAS id. One interposed store writes both, so a set never loads the
 * blocks it overwrites (a blind write: Clobber-NVM logs nothing for
 * it), and protocols that log every stored range (undo, redo) log
 * this as one range.
 */
struct KvMeta {
    uint32_t flags;
    uint32_t pad;
    uint64_t version;  ///< memcached "cas unique": opaque, server-issued
};

/**
 * Persistent item: header + inline key and value bytes. The value
 * starts at the next 8-byte boundary after the key, so no block holds
 * both key bytes (loaded by every lookup) and value bytes (stored by
 * an in-place set).
 */
struct KvItem {
    nvm::PPtr<KvItem> next;
    uint32_t keyLen;
    uint32_t valLen;
    KvMeta meta;

    /** Key bytes plus padding, i.e. the value's offset from keyBytes. */
    static constexpr size_t
    keySpan(size_t klen)
    {
        return (klen + 7) & ~size_t{7};
    }

    char*
    keyBytes()
    {
        return reinterpret_cast<char*>(this + 1);
    }
    char*
    valBytes(uint32_t klen)
    {
        return keyBytes() + keySpan(klen);
    }
};

static_assert(sizeof(KvItem) == 32);

/** PKvStore::magic of this item/root layout ("CNVMKV02"). */
constexpr uint64_t kKvLayoutMagic = 0x3230564b4d564e43ULL;

struct PKvStore {
    uint64_t magic;  ///< kKvLayoutMagic, checked on attach
    uint64_t nShards;
    uint64_t bucketsPerShard;
    /**
     * Bumped at every attach; CAS ids are (epoch << 32) + n with n
     * counted in DRAM, so ids never repeat across opens (DESIGN.md
     * §16.4).
     */
    uint64_t epoch;

    nvm::PPtr<KvItem>*
    buckets()
    {
        return reinterpret_cast<nvm::PPtr<KvItem>*>(this + 1);
    }
};

/** Attach to a root whose layout tag is not kKvLayoutMagic (another
 *  layout, or not a KV root at all). */
class KvLayoutError : public FatalError {
 public:
    KvLayoutError(uint64_t rootOff, uint64_t found)
        : FatalError(strprintf(
              "KV root at offset %llu has layout tag %#llx, expected "
              "%#llx",
              static_cast<unsigned long long>(rootOff),
              static_cast<unsigned long long>(found),
              static_cast<unsigned long long>(kKvLayoutMagic))),
          found_(found)
    {
    }

    uint64_t found() const { return found_; }

 private:
    uint64_t found_;
};

/**
 * Volatile out-parameter of get/gets: the value plus the memcached
 * item metadata (flags and the CAS id, i.e. KvMeta::version).
 */
struct KvReadResult {
    bool found = false;
    uint32_t len = 0;
    uint32_t flags = 0;
    uint64_t version = 0;  ///< memcached "cas unique"
    char value[ds::kMaxValLen];

    std::string
    str() const
    {
        return {value, len};
    }
};

/** Mutation kinds accepted by applyBatch. */
enum class MutKind : uint8_t { set = 0, del = 1, cas = 2 };

/** Outcome of one mutation (maps 1:1 onto protocol responses). */
enum class MutResult : uint8_t {
    stored = 0,    ///< set/cas wrote the item
    deleted = 1,   ///< del removed the item
    notFound = 2,  ///< del/cas: no such key
    exists = 3,    ///< cas: version mismatch, item untouched
    error = 4,     ///< transaction failed (e.g. log overflow)
};

/** One mutation of a batch. Views must outlive applyBatch. */
struct MutOp {
    MutKind kind = MutKind::set;
    std::string_view key;
    std::string_view val;     ///< unused for del
    uint32_t flags = 0;
    uint64_t casVersion = 0;  ///< cas only: expected KvMeta::version
};

class KvServer {
 public:
    enum class LockMode { spin, rw };

    struct Config {
        size_t shards = 64;
        size_t bucketsPerShard = 2048;
        LockMode lockMode = LockMode::rw;
    };

    /**
     * Everything one shard owns, in one struct: its two lock
     * implementations (one is active per LockMode), its serving
     * counters, and — in thread-per-core server mode — the engine
     * slot of the worker thread that owns the shard. The counters
     * are relaxed atomics: they are served from the protocol `stats`
     * command while workers mutate them.
     */
    struct ShardState {
        sim::SimMutex spin{/* spin */ true};
        sim::SimSharedMutex rw;

        struct Stats {
            std::atomic<uint64_t> gets{0};
            std::atomic<uint64_t> hits{0};
            std::atomic<uint64_t> sets{0};
            std::atomic<uint64_t> dels{0};
            std::atomic<uint64_t> delHits{0};
            std::atomic<uint64_t> casStores{0};
            std::atomic<uint64_t> casMisses{0};
        } stats;

        /** Engine slot of the owning worker (server mode; set by
         *  KvService before its workers start, 0 otherwise). */
        unsigned ownerSlot = 0;
    };

    /** Aggregate of every shard's counters (stats command). */
    struct StatsTotals {
        uint64_t gets = 0, hits = 0, sets = 0, dels = 0, delHits = 0,
                 casStores = 0, casMisses = 0;
    };

    /**
     * Format a new store (`rootOff` 0; shape from `cfg`) or attach to
     * the one at `rootOff` (shape from the root), starting a new CAS
     * id epoch.
     * @throws KvLayoutError if the root's layout tag does not match.
     */
    explicit KvServer(txn::Engine& eng, uint64_t rootOff,
                      const Config& cfg);
    explicit KvServer(txn::Engine& eng) : KvServer(eng, 0, Config{}) {}

    uint64_t rootOff() const { return root_.raw(); }

    /** Store (insert or replace) under a fresh CAS id. */
    void set(std::string_view key, std::string_view val,
             uint32_t flags = 0);

    /** @return true and fill `out` on hit. */
    bool get(std::string_view key, ds::LookupResult* out);

    /** get with item metadata (the `gets`/CAS read path). */
    bool get(std::string_view key, KvReadResult* out);

    /**
     * Compare-and-store: replace the item iff its CAS id equals
     * `expectedVersion` (memcached `cas`); the item gets a fresh id.
     * @return stored, exists (id mismatch) or notFound.
     */
    MutResult cas(std::string_view key, std::string_view val,
                  uint32_t flags, uint64_t expectedVersion);

    /** @return true if the key existed. */
    bool del(std::string_view key);

    /**
     * Group commit: apply every mutation of `ops` in ONE transaction,
     * op i storing CAS id base + i for one base drawn per batch,
     * paying one begin persist, one log seal and one commit fence for
     * the whole batch. Locks every involved shard (in index order, so
     * concurrent batches cannot deadlock) for the duration. Fills
     * `results[i]` for each op. Throws txn::LogOverflowError — with
     * no mutation applied — when the batch outgrows the slot's log
     * area; callers retry op-by-op (see server::KvService).
     */
    void applyBatch(std::span<const MutOp> ops, MutResult* results);

    /** Item count by direct traversal (diagnostics; not safe against
     *  concurrent mutation). */
    uint64_t itemCount() const;

    /** @name Shard topology (the server partitions these) */
    /// @{
    size_t shardCount() const { return shards_.size(); }
    size_t shardOf(std::string_view key) const;
    ShardState& shardState(size_t idx) { return shards_[idx]; }
    StatsTotals statsTotals() const;
    /// @}

    txn::Engine& engine() { return eng_; }
    LockMode lockMode() const { return lockMode_; }

    /** @name internal (public for the RAII guard) */
    /// @{
    void lockShard(size_t idx, bool exclusive);
    void unlockShard(size_t idx, bool exclusive);
    /// @}

 private:
    /**
     * Reserve `n` consecutive CAS ids. The ids travel to the txfunc in
     * its v_log arguments, so a re-execution stores the same ids.
     * @return the first.
     */
    uint64_t drawIds(uint64_t n);
    /** Write + persist (flush and fence) PKvStore::epoch, so it is
     *  durable before any id of `epoch` is issued. */
    void writeEpoch(uint64_t epoch);

    txn::Engine& eng_;
    nvm::PPtr<PKvStore> root_;
    LockMode lockMode_;
    std::vector<ShardState> shards_;
    std::atomic<uint64_t> nextId_{0};
    /** Highest epoch written to PKvStore::epoch. */
    std::atomic<uint64_t> epoch_{0};
    std::mutex epochMu_;
};

}  // namespace cnvm::apps

#endif  // CNVM_APPS_KV_SERVER_H
