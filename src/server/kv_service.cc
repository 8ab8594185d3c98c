#include "server/kv_service.h"

#include <cstdlib>

#include "common/error.h"
#include "nvm/pool.h"
#include "txn/runtime.h"

namespace cnvm::server {

unsigned
ServiceConfig::resolvedBatchMax() const
{
    if (batchMax != 0)
        return batchMax;
    if (const char* v = std::getenv("CNVM_BATCH")) {
        unsigned long n = std::strtoul(v, nullptr, 10);
        if (n >= 1)
            return static_cast<unsigned>(n);
    }
    return 8;
}

KvService::KvService(apps::KvServer& kv, const ServiceConfig& cfg)
    : kv_(kv), cfg_(cfg), batchMax_(cfg.resolvedBatchMax())
{
    CNVM_CHECK(cfg_.workers >= 1, "need at least one worker");
    CNVM_CHECK(cfg_.queueCap >= 1, "queueCap must be positive");
}

KvService::~KvService()
{
    if (running_)
        stop();
}

void
KvService::start()
{
    CNVM_CHECK(!running_, "service already started");
    // Validate the whole slot range up front, on the caller's thread,
    // so a misconfigured worker count is a catchable error instead of
    // an uncaught exception inside a std::thread.
    unsigned slots = kv_.engine().rt.pool().maxThreads();
    if (cfg_.slotBase + cfg_.workers > slots)
        throw txn::SlotRangeError(cfg_.slotBase + cfg_.workers - 1,
                                  slots);

    for (size_t s = 0; s < kv_.shardCount(); s++)
        kv_.shardState(s).ownerSlot =
            cfg_.slotBase + static_cast<unsigned>(s) % cfg_.workers;

    stopping_.store(false, std::memory_order_relaxed);
    workers_.clear();
    for (unsigned w = 0; w < cfg_.workers; w++)
        workers_.push_back(std::make_unique<Worker>());
    for (unsigned w = 0; w < cfg_.workers; w++)
        workers_[w]->thread =
            std::thread([this, w] { workerLoop(w); });
    running_ = true;
}

void
KvService::stop()
{
    if (!running_)
        return;
    stopping_.store(true, std::memory_order_relaxed);
    for (auto& wk : workers_) {
        {
            std::lock_guard<std::mutex> g(wk->mu);
        }
        wk->nonEmpty.notify_all();
        wk->nonFull.notify_all();
    }
    for (auto& wk : workers_)
        wk->thread.join();
    running_ = false;
}

unsigned
KvService::workerOf(std::string_view key) const
{
    return static_cast<unsigned>(kv_.shardOf(key)) % cfg_.workers;
}

void
KvService::submit(Request* req)
{
    submitMany(workerOf(req->key), &req, 1);
}

void
KvService::submitMany(unsigned worker, Request* const* reqs, size_t n)
{
    Worker& wk = *workers_[worker];
    size_t i = 0;
    while (i < n) {
        std::unique_lock<std::mutex> g(wk.mu);
        wk.nonFull.wait(g, [&] {
            return wk.queue.size() < cfg_.queueCap ||
                   stopping_.load(std::memory_order_relaxed);
        });
        while (i < n && wk.queue.size() < cfg_.queueCap)
            wk.queue.push_back(reqs[i++]);
        g.unlock();
        wk.nonEmpty.notify_one();
    }
}

KvService::WorkerStats
KvService::workerStats(unsigned w) const
{
    const Worker& wk = *workers_[w];
    std::lock_guard<std::mutex> g(wk.mu);
    return wk.stats;
}

KvService::WorkerStats
KvService::totalStats() const
{
    WorkerStats t;
    for (unsigned w = 0; w < workers_.size(); w++) {
        WorkerStats s = workerStats(w);
        t.ops += s.ops;
        t.batches += s.batches;
        t.batchedOps += s.batchedOps;
        t.singles += s.singles;
        t.overflows += s.overflows;
    }
    return t;
}

namespace {

apps::MutOp
toMutOp(const Request& r)
{
    apps::MutOp op;
    switch (r.op) {
    case Request::Op::set:
        op.kind = apps::MutKind::set;
        break;
    case Request::Op::del:
        op.kind = apps::MutKind::del;
        break;
    case Request::Op::cas:
        op.kind = apps::MutKind::cas;
        break;
    case Request::Op::get:
        panic("get in mutation group");
    }
    op.key = r.key;
    op.val = r.value;
    op.flags = r.flags;
    op.casVersion = r.casVersion;
    return op;
}

}  // namespace

void
KvService::execGroup(Worker& wk, Request** group, size_t n)
{
    WorkerStats delta;
    auto single = [&](Request* r) {
        try {
            switch (r->op) {
            case Request::Op::set:
                kv_.set(r->key, r->value, r->flags);
                r->result = apps::MutResult::stored;
                break;
            case Request::Op::del:
                r->result = kv_.del(r->key)
                                ? apps::MutResult::deleted
                                : apps::MutResult::notFound;
                break;
            case Request::Op::cas:
                r->result =
                    kv_.cas(r->key, r->value, r->flags, r->casVersion);
                break;
            case Request::Op::get:
                panic("get in mutation group");
            }
        } catch (const txn::LogOverflowError&) {
            r->result = apps::MutResult::error;
        }
        delta.singles++;
    };

    if (n == 1) {
        single(group[0]);
    } else {
        std::vector<apps::MutOp>& ops = wk.ops;
        std::vector<apps::MutResult>& results = wk.results;
        ops.clear();
        for (size_t i = 0; i < n; i++)
            ops.push_back(toMutOp(*group[i]));
        results.assign(n, apps::MutResult::error);
        try {
            kv_.applyBatch(ops, results.data());
            for (size_t i = 0; i < n; i++)
                group[i]->result = results[i];
            delta.batches++;
            delta.batchedOps += n;
        } catch (const txn::LogOverflowError&) {
            // Nothing applied (the batch aborted whole): replay the
            // group op-by-op, preserving order.
            delta.overflows++;
            for (size_t i = 0; i < n; i++)
                single(group[i]);
        }
    }
    delta.ops += n;

    // Merge stats BEFORE signaling completions: once a caller has
    // seen every ack, totalStats() must already cover those ops.
    {
        std::lock_guard<std::mutex> g(wk.mu);
        wk.stats.ops += delta.ops;
        wk.stats.batches += delta.batches;
        wk.stats.batchedOps += delta.batchedOps;
        wk.stats.singles += delta.singles;
        wk.stats.overflows += delta.overflows;
    }

    // The covering transaction has committed: acks are durable now.
    // Requests of one window share a Completion; coalesce runs of the
    // same latch into one arrive so the latch is touched once per
    // group, not once per op.
    size_t i = 0;
    while (i < n) {
        Completion* done = group[i]->done;
        size_t j = i + 1;
        while (j < n && group[j]->done == done)
            j++;
        if (done != nullptr)
            done->arrive(static_cast<long>(j - i));
        i = j;
    }
}

void
KvService::workerLoop(unsigned w)
{
    Worker& wk = *workers_[w];
    unsigned slot = cfg_.slotBase + w;
    kv_.engine().bindThisThread(slot);

    std::vector<Request*> local;
    for (;;) {
        // Lazy-recovery first-touch gate. txn::run repeats this for
        // mutations, but gets bypass txn::run entirely — and even they
        // must not serve from a slot whose interrupted transaction has
        // not healed. One pointer test once recovery is over.
        kv_.engine().admitSlot(slot);
        local.clear();
        {
            std::unique_lock<std::mutex> g(wk.mu);
            wk.nonEmpty.wait(g, [&] {
                return !wk.queue.empty() ||
                       stopping_.load(std::memory_order_relaxed);
            });
            if (wk.queue.empty()) {
                if (stopping_.load(std::memory_order_relaxed))
                    return;
                continue;
            }
            while (!wk.queue.empty()) {
                local.push_back(wk.queue.front());
                wk.queue.pop_front();
            }
        }
        wk.nonFull.notify_all();

        size_t i = 0;
        while (i < local.size()) {
            Request* r = local[i];
            if (r->op == Request::Op::get) {
                apps::KvReadResult scratch;
                apps::KvReadResult* out =
                    r->read != nullptr ? r->read : &scratch;
                kv_.get(r->key, out);
                {
                    std::lock_guard<std::mutex> g(wk.mu);
                    wk.stats.ops++;
                }
                if (r->done != nullptr)
                    r->done->arrive();
                i++;
                continue;
            }
            // Fuse the run of consecutive mutations, capped at
            // batchMax, into one group-commit transaction.
            size_t j = i + 1;
            while (j < local.size() &&
                   local[j]->op != Request::Op::get &&
                   j - i < batchMax_)
                j++;
            execGroup(wk, local.data() + i, j - i);
            i = j;
        }
    }
}

}  // namespace cnvm::server
