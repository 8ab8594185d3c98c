/**
 * @file
 * restart: a 256 MiB pool holds a KvServer with 200k items. Each
 * cycle
 *  1. crashes one set mid-flight: Pool::armWriteTrap at a seeded
 *     write of the set (when the draw falls past the set's last
 *     write, the set is acked and the crash follows it), then
 *     Pool::simulateCrash, which tears every unflushed line;
 *  2. restarts the way a fresh process would: a new PmAllocator,
 *     rt::makeRuntime and Engine::recover (no background healer, so
 *     the run is deterministic);
 *  3. commits one set — time to first transaction is measured from
 *     the first restart call to here;
 *  4. finishes recovery (off the clock) and verifies.
 * Cycles alternate full (even) and lazy (odd) recovery.
 */
#include <algorithm>
#include <cstdio>
#include <set>

#include "common.h"
#include "runtimes/factory.h"

namespace pb {
namespace {

using namespace cnvm;

constexpr size_t kPoolMb = 256;
constexpr uint64_t kItems = 200'000;
constexpr uint64_t kCountCycles = 32;    ///< deterministic count window
constexpr uint64_t kSamplePerCycle = 512;  ///< preload keys re-read

struct Phases {
    std::vector<double> open, make, recover, first, finish, ttft;
    std::vector<double> pending;
};

class Cycler {
 public:
    Cycler(std::unique_ptr<Store> s, uint64_t seed, Report& r, Tracer& tr)
        : s_(std::move(s)), rootOff_(s_->kv->rootOff()),
          rng_(streamSeed(seed, 9)), seed_(seed), model_(kItems, 1), r_(r),
          tr_(tr)
    {
        // Writes one set issues: the range the crash trap is drawn from.
        uint64_t w0 = s_->pool->writeCount();
        setKey(0);
        trapSpan_ = std::max<uint64_t>(1, s_->pool->writeCount() - w0);
    }

    /** One crash/restart/verify cycle. */
    void
    cycle(uint64_t n, Phases& ph)
    {
        bool lazy = n % 2 == 1;
        uint64_t g = n + 1;

        // (1) Crash one set mid-flight.
        uint64_t key = pickKey();
        uint32_t before = model_[key];
        uint32_t ver = ++seq_;
        bool crashed = false;
        uint64_t trap = 1 + rng_.uniform(trapSpan_);
        mix(trap);
        s_->pool->armWriteTrap(trap);
        try {
            SpanScope sp(tr_, "apps.crash_set", g);
            s_->kv->set(keyOf(key), valueOf(key, ver));
        } catch (const nvm::CrashInjected&) {
            crashed = true;
        }
        s_->pool->armWriteTrap(0);
        if (!crashed) {  // acked: it must survive the crash below
            model_[key] = ver;
            userBytes_ += kKeyLen + kValLen;
        }
        s_->pool->simulateCrash(streamSeed(seed_, 1000 + n));
        touched_.insert(key);
        // The dying process loses every volatile object.
        s_->kv.reset();
        s_->eng.reset();
        s_->runtime.reset();
        s_->heap.reset();

        // (2) Restart.
        int64_t t0 = nowNs(), t;
        {
            SpanScope sp(tr_, "alloc.open", g);
            s_->heap = std::make_unique<alloc::PmAllocator>(*s_->pool, lazy);
        }
        t = nowNs();
        ph.open.push_back(double(t - t0) / 1e6);
        {
            SpanScope sp(tr_, "runtimes.make", g);
            s_->runtime = rt::makeRuntime(txn::RuntimeKind::clobber,
                                          *s_->pool, *s_->heap,
                                          rt::ClobberPolicy::refined);
        }
        int64_t t1 = nowNs();
        ph.make.push_back(double(t1 - t) / 1e6);
        s_->eng = std::make_unique<txn::Engine>(*s_->runtime);
        {
            SpanScope sp(tr_, "txn.recover", g);
            s_->eng->recover(lazy ? txn::RecoveryMode::lazy
                                  : txn::RecoveryMode::full,
                             /* backgroundHealer */ false);
        }
        {
            SpanScope sp(tr_, "apps.open", g);
            apps::KvServer::Config kc;
            kc.shards = kShards;
            s_->kv = std::make_unique<apps::KvServer>(*s_->eng, rootOff_,
                                                      kc);
        }
        int64_t t2 = nowNs();
        ph.recover.push_back(double(t2 - t1) / 1e6);

        // (3) First committed set.
        uint64_t first = pickKey();
        {
            SpanScope sp(tr_, "apps.first_set", g);
            setKey(first);
        }
        int64_t t3 = nowNs();
        ph.first.push_back(double(t3 - t2) / 1e6);
        ph.ttft.push_back(double(t3 - t0) / 1e6);
        if (lazy)
            ph.pending.push_back(double(s_->eng->recoveryPending()));

        // (4) Drain (off the clock) and verify.
        {
            SpanScope sp(tr_, "txn.finish", g);
            s_->eng->finishRecovery();
        }
        ph.finish.push_back(double(nowNs() - t3) / 1e6);
        r_.attempt();
        if (s_->eng->recoveryPending() != 0)
            r_.fail("recovery still pending after finishRecovery");

        SpanScope sp(tr_, "apps.verify", g);
        // The crashed set is all-or-nothing.
        if (crashed) {
            r_.attempt();
            apps::KvReadResult rr;
            bool found = s_->kv->get(keyOf(key), &rr);
            if (found && rr.str() == valueOf(key, ver))
                model_[key] = ver;
            else if (!(before == 0 ? !found
                                   : found && rr.str() == valueOf(key, before)))
                r_.fail("crashed set on key " + std::to_string(key) +
                        " is neither old nor new");
        }
        for (uint64_t k : touched_)
            check(k);
        for (uint64_t i = 0; i < kSamplePerCycle; i++)
            check((n * kSamplePerCycle + i) % kItems);
    }

    /** Full read-back of every key plus the item count. */
    void
    verifyAll()
    {
        SpanScope sp(tr_, "apps.verify", 0);
        uint64_t live = 0;
        for (uint64_t k = 0; k < model_.size(); k++) {
            check(k);
            live += model_[k] != 0;
        }
        r_.attempt();
        if (s_->kv->itemCount() != live)
            r_.fail("itemCount does not match the model");
    }

    uint64_t userBytes() const { return userBytes_; }
    /** Hash of the generated inputs (keys, trap points) so far. */
    uint64_t digest() const { return digest_; }
    uint64_t trapSpan() const { return trapSpan_; }

 private:
    /** 50% update of an existing key, 50% insert of a new one. */
    uint64_t
    pickKey()
    {
        uint64_t key = model_.size();
        if (rng_.real() < 0.5)
            key = rng_.uniform(model_.size());
        else
            model_.push_back(0);
        mix(key);
        return key;
    }

    void
    mix(uint64_t v)
    {
        digest_ = (digest_ ^ v) * 0x100000001b3ULL;
    }

    void
    setKey(uint64_t key)
    {
        uint32_t ver = ++seq_;
        s_->kv->set(keyOf(key), valueOf(key, ver));
        model_[key] = ver;
        userBytes_ += kKeyLen + kValLen;
        touched_.insert(key);
    }

    void
    check(uint64_t key)
    {
        r_.attempt();
        apps::KvReadResult rr;
        bool found = s_->kv->get(keyOf(key), &rr);
        bool ok = model_[key] == 0
                      ? !found
                      : found && rr.str() == valueOf(key, model_[key]);
        if (!ok)
            r_.fail("acked set lost at key " + std::to_string(key));
    }

    std::unique_ptr<Store> s_;
    uint64_t rootOff_;
    Rng rng_;
    uint64_t seed_;
    std::vector<uint32_t> model_;
    std::set<uint64_t> touched_;  ///< keys written during cycles
    Report& r_;
    Tracer& tr_;
    uint64_t trapSpan_ = 1;
    uint32_t seq_ = 1;
    uint64_t userBytes_ = 0;
    uint64_t digest_ = 0xcbf29ce484222325ULL;
};

std::vector<double>
everyOther(const std::vector<double>& v, size_t first)
{
    std::vector<double> out;
    for (size_t i = first; i < v.size(); i += 2)
        out.push_back(v[i]);
    return out;
}

}  // namespace

void
runRestart(const Options& o, Report& r)
{
    recordConfig(o, r, kPoolMb);
    r.config("items", static_cast<double>(kItems));
    r.config("count_cycles", static_cast<double>(kCountCycles));
    r.config("modes", "alternating full, lazy");

    Tracer tr(o.trace);
    auto store = timedSetUps<Store>(r, o.trace ? 1 : kSetupReps, [&](int i) {
        auto s = makeStore(kPoolMb, tr, uint64_t(i) + 1);
        preload(*s, 0, kItems, 1, tr, uint64_t(i) + 1);
        return s;
    });

    Cycler cy(std::move(store), o.seed, r, tr);
    r.config("trap_span_writes", static_cast<double>(cy.trapSpan()));
    PricingObserver obs;
    PricingScope scope(obs);

    Phases ph;
    auto c0 = stats::local().snapshot();
    stats::Snapshot countDelta;
    uint64_t countStall = 0;
    const uint64_t userBytes0 = cy.userBytes();
    int64_t t0 = nowNs();
    int64_t deadline = t0 + int64_t(o.seconds * 1e9);
    uint64_t n = 0;
    // Costs are taken per pair of cycles (one full, one lazy), and a
    // traced run alternates tracing by pair; the cycle rates of its two
    // halves give the overhead.
    double pairNs[2] = {0, 0};
    uint64_t pairs[2] = {0, 0};
    int64_t pairStart = t0;
    double pairCpu = cpuSeconds();
    std::vector<double> cpuPerCycle;
    while (n < kCountCycles || nowNs() < deadline) {
        cy.cycle(n, ph);
        n++;
        if (n % 2 == 0) {
            int64_t now = nowNs();
            double cpu = cpuSeconds();
            cpuPerCycle.push_back((cpu - pairCpu) * 1e6 / 2);
            pairCpu = cpu;
            if (o.trace) {
                int half = tr.on() ? 0 : 1;
                pairNs[half] += double(now - pairStart);
                pairs[half]++;
                tr.setOn(!tr.on());
            }
            pairStart = now;
        }
        if (n == kCountCycles) {
            countDelta = stats::local().snapshot() - c0;
            countStall = obs.stallNs();
            char hex[32];
            std::snprintf(hex, sizeof(hex), "%016llx",
                          static_cast<unsigned long long>(cy.digest()));
            r.config("input_digest", hex);
        }
    }
    double secs = double(nowNs() - t0) / 1e9;
    auto d = stats::local().snapshot() - c0;
    noteRss();

    auto full = everyOther(ph.ttft, 0);
    auto lazy = everyOther(ph.ttft, 1);
    r.setNull("kv_ops_per_s");
    r.setNull("tx_ops_per_s");
    r.setNull("get_p50_us");
    r.setNull("get_p99_us");
    r.setNull("set_p50_us");
    r.setNull("set_p99_us");
    r.setNull("kv_max_rate_ops_per_s");
    r.set("recovery_p50_ms", percentile(full, 0.5));
    r.set("recovery_p90_ms", percentile(full, 0.9));
    r.set("ttft_lazy_p50_ms", percentile(lazy, 0.5));
    r.set("ttft_lazy_p90_ms", percentile(lazy, 0.9));
    r.set("restart_cycles_per_s", double(n) / secs);
    r.set("cpu_us_per_op", median(cpuPerCycle));
    r.set("nvm_bytes_per_user_byte",
          double(d[stats::Counter::nvmWriteBytes]) /
              double(cy.userBytes() - userBytes0));
    r.set("samples.full", double(full.size()));
    r.set("samples.lazy", double(lazy.size()));

    auto med = [](const std::vector<double>& v, size_t first) {
        return median(everyOther(v, first));
    };
    r.set("alloc.open_ms", med(ph.open, 0));
    r.set("alloc.open_lazy_ms", med(ph.open, 1));
    r.set("runtimes.make_ms", med(ph.make, 0));
    r.set("runtimes.make_lazy_ms", med(ph.make, 1));
    r.set("txn.recover_ms", med(ph.recover, 0));
    r.set("txn.recover_lazy_ms", med(ph.recover, 1));
    r.set("apps.first_set_ms", med(ph.first, 1));
    r.set("apps.first_set_full_ms", med(ph.first, 0));
    r.set("txn.finish_ms", med(ph.finish, 1));
    r.set("txn.pending_at_first_tx", median(ph.pending));
    // Counts over the first kCountCycles cycles: exact for a seed.
    double cc = double(kCountCycles);
    r.countersPerOp(countDelta, cc);
    r.set("txn.reexecutions",
          double(countDelta[stats::Counter::reexecutions]) / cc);
    r.set("txn.recoveries",
          double(countDelta[stats::Counter::recoveries]) / cc);
    r.set("runtimes.salvage_aborts",
          double(countDelta[stats::Counter::salvageAborts]) / cc);
    r.set("nvm.stall_ns_per_op", double(countStall) / cc);

    if (o.trace) {
        tr.setOn(true);
        double traced = 2e9 * double(pairs[0]) / pairNs[0];
        double untraced = 2e9 * double(pairs[1]) / pairNs[1];
        r.set("trace.overhead_ops_per_s", untraced - traced);
        r.set("trace.overhead_share", (untraced - traced) / untraced);
    }

    cy.verifyAll();
    r.set("failed_op_frac", double(r.failed()) / double(r.attempted()));
    r.set("peak_rss_mb", peakRssMb());
    if (o.trace)
        tr.summarize(r);
    if (!o.traceOut.empty() && o.trace && !tr.write(o.traceOut))
        r.fail("cannot write " + o.traceOut);
}

}  // namespace pb
