/**
 * @file
 * Thread-per-core KV service: the execution layer between a front-end
 * (TCP server or in-process load generator) and the persistent
 * KvServer store.
 *
 * Topology. The store's shards are partitioned statically over N
 * worker threads: shard s belongs to worker s % N, and every request
 * for a key is routed to the worker that owns the key's shard
 * (workerOf). Each worker binds a dedicated engine slot
 * (Engine::bindThisThread), so per-thread log areas are never shared
 * and no two workers ever contend on a slot. Because routing is by
 * shard, per-key ordering is total: all operations on one key land in
 * one worker's FIFO queue.
 *
 * Group commit. A worker drains its queue in FIFO order and groups
 * consecutive *mutations* (set/del/cas) into one transaction via
 * KvServer::applyBatch, up to batchMax per transaction — one begin
 * persist, one log seal, one commit fence for the whole group. Reads
 * break a group (read-your-writes: a get must observe the mutations
 * queued before it, so those commit first). Completions are signaled
 * only after the covering transaction commits, which is what makes a
 * client-visible ack a durability guarantee (DESIGN.md §16).
 *
 * If a batch overflows the slot's log area (txn::LogOverflowError,
 * thrown before any mutation applies), the worker falls back to
 * applying that group op-by-op; an op that overflows alone reports
 * MutResult::error.
 */
#ifndef CNVM_SERVER_KV_SERVICE_H
#define CNVM_SERVER_KV_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/kv/kv_server.h"

namespace cnvm::server {

/**
 * Completion latch: a front-end submits a window of requests, arms
 * expect(n), and wait()s until every one has been executed (and, for
 * mutations, committed).
 *
 * arrive() is lock-free except for the final arrival of a window:
 * workers signal once per request, so the latch sits on the per-op
 * hot path and must not cost a mutex round trip per op.
 */
class Completion {
 public:
    void
    expect(unsigned n)
    {
        outstanding_.fetch_add(n, std::memory_order_acq_rel);
    }

    void
    arrive(long n = 1)
    {
        if (outstanding_.fetch_sub(n, std::memory_order_acq_rel) == n) {
            std::lock_guard<std::mutex> g(mu_);
            cv_.notify_all();
        }
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> g(mu_);
        cv_.wait(g, [&] {
            return outstanding_.load(std::memory_order_acquire) <= 0;
        });
    }

 private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::atomic<long> outstanding_{0};
};

/** One queued operation. String members own their bytes (the socket
 *  buffer they were parsed from is reused immediately). */
struct Request {
    enum class Op : uint8_t { get, set, del, cas };

    Op op = Op::get;
    std::string key;
    std::string value;        ///< set/cas payload
    uint32_t flags = 0;
    uint64_t casVersion = 0;  ///< cas: expected item CAS id

    /** get: caller-owned result buffer, filled before arrive(). */
    apps::KvReadResult* read = nullptr;
    /** set/del/cas outcome, written before arrive(). */
    apps::MutResult result = apps::MutResult::error;

    Completion* done = nullptr;
};

struct ServiceConfig {
    unsigned workers = 2;
    /** Max mutations fused into one transaction; 0 → $CNVM_BATCH,
     *  default 8. 1 disables group commit (one tx per mutation). */
    unsigned batchMax = 0;
    /** Per-worker queue bound; submit() blocks when full. */
    size_t queueCap = 4096;
    /** First engine slot; worker w binds slot slotBase + w. */
    unsigned slotBase = 0;

    /** batchMax with the env default applied. */
    unsigned resolvedBatchMax() const;
};

class KvService {
 public:
    struct WorkerStats {
        uint64_t ops = 0;        ///< requests executed
        uint64_t batches = 0;    ///< group-commit transactions
        uint64_t batchedOps = 0; ///< mutations covered by those
        uint64_t singles = 0;    ///< mutations run one-per-tx
        uint64_t overflows = 0;  ///< batches retried op-by-op
    };

    KvService(apps::KvServer& kv, const ServiceConfig& cfg);
    ~KvService();

    KvService(const KvService&) = delete;
    KvService& operator=(const KvService&) = delete;

    /** Bind shards to workers and launch the worker threads.
     *  @throws txn::SlotRangeError if slotBase + workers exceeds the
     *          pool's runtime slots. */
    void start();

    /** Drain every queue, then stop and join the workers. Queued
     *  requests still execute and signal their completions. */
    void stop();

    /** Worker owning `key`'s shard. */
    unsigned workerOf(std::string_view key) const;

    /**
     * Hand one request to its owning worker (FIFO per worker). Blocks
     * while the worker's queue is at queueCap. The request object must
     * stay alive until its completion arrives.
     */
    void submit(Request* req);

    /**
     * Hand a run of requests that all route to worker `worker`
     * (workerOf on each key must agree) to that worker in one lock
     * acquisition and one wakeup — the per-window submission path.
     * Order within the run is preserved. Blocks for queue room.
     */
    void submitMany(unsigned worker, Request* const* reqs, size_t n);

    unsigned workers() const { return cfg_.workers; }
    unsigned batchMax() const { return batchMax_; }

    WorkerStats workerStats(unsigned w) const;
    WorkerStats totalStats() const;

 private:
    struct Worker {
        mutable std::mutex mu;
        std::condition_variable nonEmpty;
        std::condition_variable nonFull;
        std::deque<Request*> queue;
        WorkerStats stats;  ///< guarded by mu
        std::thread thread;
        /** execGroup's batch buffers, reused across groups (worker
         *  thread only). */
        std::vector<apps::MutOp> ops;
        std::vector<apps::MutResult> results;
    };

    void workerLoop(unsigned w);
    void execGroup(Worker& wk, Request** group, size_t n);

    apps::KvServer& kv_;
    ServiceConfig cfg_;
    unsigned batchMax_;
    bool running_ = false;
    std::atomic<bool> stopping_{false};
    std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace cnvm::server

#endif  // CNVM_SERVER_KV_SERVICE_H
