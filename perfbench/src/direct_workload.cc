/**
 * @file
 * tx_direct: no sockets. The benchmark's thread calls KvServer::set,
 * del and get directly, one transaction per mutation, with a
 * PricingObserver installed so every flush and fence it issues is
 * charged the default NVM cost. The key space is kv_write's: 1M
 * preloaded keys; the mix is 50% updates, 25% inserts of new keys,
 * 10% deletes and 15% gets, uniform.
 *
 * The workload is single-threaded, so counter deltas over the first
 * kCountOps timed ops repeat exactly for a fixed seed.
 */
#include <cstdio>

#include "common.h"

namespace pb {
namespace {

using namespace cnvm;

constexpr uint64_t kKeys = 1'000'000;
constexpr size_t kPoolMb = 512;
constexpr uint64_t kWarmOps = 20'000;   ///< untimed, count-based
constexpr uint64_t kCountOps = 50'000;  ///< deterministic count window

enum class Kind : uint8_t { update, insert, del, get };

struct Samples {
    std::vector<double> setNs, delNs, getNs;  ///< wall per call
    std::vector<double> mutUs, getUs;         ///< wall + stall, µs
    uint64_t ops = 0, gets = 0, hits = 0, sets = 0;
    uint64_t userBytes = 0;
    uint64_t setStallNs = 0;
    uint64_t stallNs = 0;
    int64_t wallNs = 0;
    /** Ops per second of wall + stall, per kSliceNs slice. */
    std::vector<double> sliceRates;
    /** Traced run: rates of the slices run with tracing off. */
    std::vector<double> plainRates;
    /** Process CPU µs per op, per slice. */
    std::vector<double> sliceCpu;
};

constexpr int64_t kSliceNs = 100'000'000;

class DirectClient {
 public:
    DirectClient(Store& s, uint64_t seed, Report& r, Tracer& tr)
        : s_(s), rng_(streamSeed(seed, 7)), model_(kKeys, 1), r_(r),
          tr_(tr), tracing_(tr.on())
    {
    }

    /** Run `maxOps` ops or until `deadline`, whichever first (but at
     *  least kCountOps when `countDelta` is given). */
    void
    run(uint64_t maxOps, int64_t deadline, Samples* out,
        stats::Snapshot* countDelta, uint64_t* countStall)
    {
        PricingScope scope(obs_);
        auto c0 = stats::local().snapshot();
        uint64_t s0 = obs_.stallNs();
        int64_t t0 = nowNs();
        int64_t sliceT = t0;
        uint64_t sliceN = 0, sliceStall = s0;
        double sliceCpu = cpuSeconds();
        uint64_t n = 0;
        for (; n < maxOps; n++) {
            if (n % 64 == 0) {
                int64_t now = nowNs();
                // A counting run always covers the count window.
                if (now >= deadline &&
                    (countDelta == nullptr || n >= kCountOps))
                    break;
                if (out != nullptr && now - sliceT >= kSliceNs) {
                    double ns = double(now - sliceT) +
                                double(obs_.stallNs() - sliceStall);
                    double rate = double(n - sliceN) * 1e9 / ns;
                    // A traced run alternates tracing by slice, so
                    // both halves see the same store.
                    (tracing_ && !tr_.on() ? out->plainRates
                                           : out->sliceRates)
                        .push_back(rate);
                    if (tracing_)
                        tr_.setOn(!tr_.on());
                    double cpu = cpuSeconds();
                    out->sliceCpu.push_back((cpu - sliceCpu) * 1e6 /
                                            double(n - sliceN));
                    sliceCpu = cpu;
                    sliceT = now;
                    sliceN = n;
                    sliceStall = obs_.stallNs();
                }
            }
            one(out);
            if (countDelta != nullptr && n + 1 == kCountOps) {
                *countDelta = stats::local().snapshot() - c0;
                *countStall = obs_.stallNs() - s0;
                countDigest_ = digest_;
            }
        }
        if (out != nullptr) {
            out->wallNs = nowNs() - t0;
            out->stallNs = obs_.stallNs() - s0;
        }
    }

    /** Read every key back and compare with the model. */
    void
    verify()
    {
        SpanScope sp(tr_, "apps.verify", 0);
        apps::KvReadResult rr;
        uint64_t live = 0;
        for (uint64_t key = 0; key < model_.size(); key++) {
            r_.attempt();
            bool found = s_.kv->get(keyOf(key), &rr);
            live += model_[key] != 0;
            bool ok = model_[key] == 0
                          ? !found
                          : found && rr.str() == valueOf(key, model_[key]);
            if (!ok)
                r_.fail("read-back mismatch at key " + std::to_string(key));
        }
        r_.attempt();
        uint64_t items = s_.kv->itemCount();
        if (items != live)
            r_.fail("itemCount " + std::to_string(items) + " != model " +
                    std::to_string(live));
    }

    /** Hash of the (kind, key) stream of the count window. */
    uint64_t digest() const { return countDigest_; }

 private:
    void
    one(Samples* out)
    {
        double u = rng_.real();
        Kind k = u < 0.50 ? Kind::update
                 : u < 0.75 ? Kind::insert
                 : u < 0.85 ? Kind::del
                            : Kind::get;
        uint64_t key = k == Kind::insert ? model_.size()
                                         : rng_.uniform(model_.size());
        if (k == Kind::insert)
            model_.push_back(0);
        digest_ = (digest_ ^ (key * 4 + uint64_t(k))) * 0x100000001b3ULL;
        std::string ks = keyOf(key);
        uint64_t id = ++opId_;
        r_.attempt();

        uint64_t st0 = obs_.stallNs();
        int64_t t0 = nowNs();
        bool ok = true;
        if (k == Kind::get) {
            SpanScope sp(tr_, "apps.get", id, true);
            bool found = s_.kv->get(ks, &rr_);
            ok = model_[key] == 0
                     ? !found
                     : found && rr_.str() == valueOf(key, model_[key]);
            if (out != nullptr) {
                out->gets++;
                out->hits += found;
            }
        } else if (k == Kind::del) {
            SpanScope sp(tr_, "apps.del", id, true);
            bool hit = s_.kv->del(ks);
            ok = hit == (model_[key] != 0);
            model_[key] = 0;
        } else {
            uint32_t ver = ++seq_;
            std::string v = valueOf(key, ver);
            SpanScope sp(tr_, "apps.set", id, true);
            s_.kv->set(ks, v);
            model_[key] = ver;
        }
        int64_t wall = nowNs() - t0;
        uint64_t stall = obs_.stallNs() - st0;
        if (!ok)
            r_.fail("direct op mismatch at key " + std::to_string(key));
        if (out == nullptr)
            return;
        out->ops++;
        double us = double(wall + int64_t(stall)) / 1e3;
        switch (k) {
          case Kind::get:
            out->getNs.push_back(double(wall));
            out->getUs.push_back(us);
            break;
          case Kind::del:
            out->delNs.push_back(double(wall));
            out->mutUs.push_back(us);
            out->userBytes += kKeyLen;
            break;
          default:
            out->setNs.push_back(double(wall));
            out->mutUs.push_back(us);
            out->sets++;
            out->setStallNs += stall;
            out->userBytes += kKeyLen + kValLen;
        }
    }

    Store& s_;
    Rng rng_;
    std::vector<uint32_t> model_;  ///< version per key id, 0 = absent
    Report& r_;
    Tracer& tr_;
    bool tracing_;  ///< a traced run: toggle tracing by slice
    PricingObserver obs_;
    apps::KvReadResult rr_;
    uint32_t seq_ = 1;
    uint64_t opId_ = 0;
    uint64_t digest_ = 0xcbf29ce484222325ULL;
    uint64_t countDigest_ = 0;
};

/** Median over slices, so a host stall in one slice does not set it. */
double
opsPerSec(const Samples& s)
{
    if (s.sliceRates.empty())
        return double(s.ops) / (double(s.wallNs + int64_t(s.stallNs)) / 1e9);
    return median(s.sliceRates);
}

}  // namespace

void
runTxDirect(const Options& o, Report& r)
{
    recordConfig(o, r, kPoolMb);
    r.config("keys", static_cast<double>(kKeys));
    r.config("count_ops", static_cast<double>(kCountOps));
    r.config("mix", "50% update, 25% insert, 10% delete, 15% get");

    Tracer tr(o.trace);
    auto store = timedSetUps<Store>(r, o.trace ? 1 : kSetupReps, [&](int i) {
        auto s = makeStore(kPoolMb, tr, uint64_t(i) + 1);
        preload(*s, 0, kKeys, 1, tr, uint64_t(i) + 1);
        return s;
    });

    DirectClient drv(*store, o.seed, r, tr);
    {
        bool on = tr.on();
        tr.setOn(false);
        drv.run(kWarmOps, INT64_MAX, nullptr, nullptr, nullptr);
        tr.setOn(on);
    }

    auto c0 = stats::aggregate();
    Samples s;
    stats::Snapshot countDelta;
    uint64_t countStall = 0;
    drv.run(UINT64_MAX, nowNs() + int64_t(o.seconds * 1e9), &s,
            &countDelta, &countStall);
    auto d = stats::aggregate() - c0;
    noteRss();

    double tput = opsPerSec(s);
    r.setNull("kv_ops_per_s");
    r.set("tx_ops_per_s", tput);
    r.set("cpu_us_per_op", median(s.sliceCpu));
    r.setNull("get_p50_us");
    r.setNull("get_p99_us");
    r.setNull("set_p50_us");
    r.setNull("set_p99_us");
    r.setNull("kv_max_rate_ops_per_s");
    r.setNull("recovery_p50_ms");
    r.setNull("recovery_p90_ms");
    r.setNull("ttft_lazy_p50_ms");
    r.setNull("ttft_lazy_p90_ms");
    r.set("nvm_bytes_per_user_byte",
          double(d[stats::Counter::nvmWriteBytes]) / double(s.userBytes));
    // Direct-call latency (wall + modeled stall) by op class.
    r.set("tx_mut_p50_us", percentile(s.mutUs, 0.5));
    r.set("tx_mut_p99_us", percentile(s.mutUs, 0.99));
    r.set("tx_get_p50_us", percentile(s.getUs, 0.5));
    r.set("tx_get_p99_us", percentile(s.getUs, 0.99));
    r.set("samples.get", double(s.getUs.size()));
    r.set("samples.set", double(s.mutUs.size()));

    r.set("apps.set_ns_p50", percentile(s.setNs, 0.5));
    r.set("apps.set_ns_p99", percentile(s.setNs, 0.99));
    r.set("apps.del_ns_p50", percentile(s.delNs, 0.5));
    r.set("apps.get_ns_p50", percentile(s.getNs, 0.5));
    r.set("apps.get_ns_p99", percentile(s.getNs, 0.99));
    r.set("apps.set_stall_ns_mean",
          s.sets ? double(s.setStallNs) / double(s.sets) : 0.0);
    r.set("apps.get_hit_ratio",
          s.gets ? double(s.hits) / double(s.gets) : 0.0);
    // Counts over the first kCountOps ops: exact for a fixed seed.
    r.countersPerOp(countDelta, double(kCountOps));
    r.set("nvm.stall_ns_per_op", double(countStall) / double(kCountOps));
    r.set("nvm.stall_share",
          double(s.stallNs) / double(s.wallNs + int64_t(s.stallNs)));
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(drv.digest()));
    r.config("input_digest", hex);

    if (o.trace) {
        tr.setOn(true);
        double untraced = median(s.plainRates);
        r.set("trace.overhead_ops_per_s", untraced - tput);
        r.set("trace.overhead_share", (untraced - tput) / untraced);
    }

    drv.verify();
    r.set("failed_op_frac", double(r.failed()) / double(r.attempted()));
    r.set("peak_rss_mb", peakRssMb());
    if (o.trace)
        tr.summarize(r);
    if (!o.traceOut.empty() && o.trace && !tr.write(o.traceOut))
        r.fail("cannot write " + o.traceOut);
}

}  // namespace pb
