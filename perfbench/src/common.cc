#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace pb {

using cnvm::stats::Counter;

double
Rng::exponential(double mean)
{
    double u = real();
    return -mean * std::log1p(-u);
}

uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    Rng r(seed * 0x100000001b3ULL ^ (stream + 0x51ed27));
    r.next();
    return r.next();
}

Zipf::Zipf(uint64_t n, uint64_t seed, double theta)
    : n_(n), theta_(theta), perm_(n)
{
    double zeta2 = 1.0 + std::pow(0.5, theta);
    zetan_ = 0;
    for (uint64_t i = 1; i <= n; i++)
        zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
    for (uint64_t i = 0; i < n; i++)
        perm_[i] = static_cast<uint32_t>(i);
    Rng r(seed);
    for (uint64_t i = n; i > 1; i--)
        std::swap(perm_[i - 1], perm_[r.uniform(i)]);
}

uint64_t
Zipf::next(Rng& rng)
{
    double u = rng.real();
    double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0)
        rank = 0;
    else if (uz < 1.0 + std::pow(0.5, theta_))
        rank = 1;
    else
        rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                     std::pow(eta_ * u - eta_ + 1.0,
                                              alpha_));
    return perm_[std::min(rank, n_ - 1)];
}

std::string
keyOf(uint64_t id)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "k%015llu",
                  static_cast<unsigned long long>(id));
    return std::string(buf, kKeyLen);
}

std::string
valueOf(uint64_t id, uint32_t ver)
{
    char buf[80];
    int n = std::snprintf(buf, sizeof(buf), "%015llu:%010u:",
                          static_cast<unsigned long long>(id), ver);
    std::string v(buf, static_cast<size_t>(n));
    char fill = static_cast<char>('a' + (id + ver) % 26);
    v.resize(kValLen, fill);
    return v;
}

double
percentile(std::vector<double>& v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    return percentile(v, 0.5);
}

namespace {
double gRssPeakMb = 0;
}  // namespace

double
rssMb()
{
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    unsigned long long size = 0, resident = 0;
    if (f != nullptr) {
        if (std::fscanf(f, "%llu %llu", &size, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return double(resident) * double(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

void
noteRss()
{
    // Sampled at fixed points rather than getrusage's high-water mark,
    // which also catches transient allocator and socket-buffer peaks
    // whose size varies from run to run.
    gRssPeakMb = std::max(gRssPeakMb, rssMb());
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double
peakRssMb()
{
    noteRss();
    return gRssPeakMb;
}

void
Report::set(const std::string& name, double v)
{
    auto it = index_.find(name);
    if (it != index_.end()) {
        metrics_[it->second].second = v;
        return;
    }
    index_[name] = metrics_.size();
    metrics_.emplace_back(name, v);
}

void
Report::setNull(const std::string& name)
{
    if (index_.count(name) != 0)
        return;
    index_[name] = metrics_.size();
    metrics_.emplace_back(name, std::nullopt);
}

void
Report::config(const std::string& key, const std::string& v)
{
    config_.emplace_back(key, "\"" + v + "\"");
}

void
Report::config(const std::string& key, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    config_.emplace_back(key, buf);
}

void
Report::raw(const std::string& key, const std::string& json)
{
    raw_.emplace_back(key, json);
}

void
Report::fail(const std::string& why)
{
    failed_++;
    if (failures_.size() < 8)
        failures_.push_back(why);
}

void
Report::countersPerOp(const cnvm::stats::Snapshot& d, double ops)
{
    auto per = [&](const char* name, Counter c) {
        set(name, static_cast<double>(d[c]) / ops);
    };
    per("txn.tx_per_op", Counter::txCommits);
    set("txn.aborts", static_cast<double>(d[Counter::txBegins]) -
                          static_cast<double>(d[Counter::txCommits]));
    per("runtimes.fences_per_op", Counter::fences);
    per("runtimes.flushes_per_op", Counter::flushes);
    per("runtimes.log_entries_per_op", Counter::logEntries);
    per("runtimes.log_bytes_per_op", Counter::logBytes);
    per("runtimes.log_flushes_per_op", Counter::logFlushes);
    per("runtimes.clobber_entries_per_op", Counter::clobberEntries);
    per("runtimes.undo_entries_per_op", Counter::undoEntries);
    per("runtimes.vlog_bytes_per_op", Counter::vlogBytes);
    per("nvm.write_bytes_per_op", Counter::nvmWriteBytes);
    per("nvm.writes_per_op", Counter::nvmWrites);
    per("nvm.reads_per_op", Counter::nvmReads);
    per("alloc.allocs_per_op", Counter::allocs);
    per("alloc.frees_per_op", Counter::frees);
}

namespace {

std::string
escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out;
}

}  // namespace

std::string
Report::json(const std::string& workload) const
{
    std::string out = "{\"workload\": \"" + escape(workload) + "\"";
    out += ", \"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"failures\": [";
    for (size_t i = 0; i < failures_.size(); i++)
        out += (i ? ", \"" : "\"") + escape(failures_[i]) + "\"";
    out += "], \"config\": {";
    for (size_t i = 0; i < config_.size(); i++)
        out += (i ? ", \"" : "\"") + config_[i].first +
               "\": " + config_[i].second;
    out += "}, \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); i++) {
        out += (i ? ", \"" : "\"") + metrics_[i].first + "\": ";
        if (metrics_[i].second && std::isfinite(*metrics_[i].second)) {
            std::snprintf(buf, sizeof(buf), "%.17g",
                          *metrics_[i].second);
            out += buf;
        } else {
            out += "null";
        }
    }
    out += "}";
    for (const auto& [k, v] : raw_)
        out += ", \"" + k + "\": " + v;
    out += "}";
    return out;
}

uint32_t
Tracer::nameId(const char* name)
{
    for (uint32_t i = 0; i < names_.size(); i++)
        if (names_[i] == name)
            return i;
    names_.emplace_back(name);
    totals_.emplace_back();
    return static_cast<uint32_t>(names_.size() - 1);
}

int
Tracer::begin(const char* name, uint64_t group, bool counters)
{
    if (!on_)
        return -1;
    Open o{};
    o.name = nameId(name);
    o.group = group;
    o.counters = counters;
    o.stored = -1;
    if (spans_.size() < kMaxSpans) {
        int32_t parent = stack_.empty() ? -1 : stack_.back().stored;
        o.stored = static_cast<int32_t>(spans_.size());
        spans_.push_back({group, 0, 0, parent, o.name});
    } else {
        dropped_++;
    }
    if (counters)
        o.snap = cnvm::stats::local().snapshot();
    o.start = nowNs();
    if (o.stored >= 0)
        spans_[static_cast<size_t>(o.stored)].start = o.start;
    stack_.push_back(o);
    return static_cast<int>(stack_.size() - 1);
}

void
Tracer::end(int handle)
{
    if (handle < 0 || stack_.empty())
        return;
    int64_t t = nowNs();
    Open o = stack_.back();
    stack_.pop_back();
    int64_t dur = t - o.start;
    Totals& tot = totals_[o.name];
    tot.calls++;
    tot.totalNs += dur;
    tot.selfNs += dur - o.childNs;
    if (o.counters) {
        tot.counted = true;
        tot.delta += cnvm::stats::local().snapshot() - o.snap;
    }
    if (!stack_.empty())
        stack_.back().childNs += dur;
    if (o.stored >= 0)
        spans_[static_cast<size_t>(o.stored)].end = t;
}

void
Tracer::add(const char* name, uint64_t group, int64_t start,
            int64_t end)
{
    if (!on_)
        return;
    uint32_t id = nameId(name);
    Totals& tot = totals_[id];
    tot.calls++;
    tot.totalNs += end - start;
    tot.selfNs += end - start;
    if (spans_.size() < kMaxSpans)
        spans_.push_back({group, start, end, -1, id});
    else
        dropped_++;
}

void
Tracer::summarize(Report& r) const
{
    std::map<std::string, int64_t> layerSelf;
    uint64_t total = 0;
    for (size_t i = 0; i < names_.size(); i++) {
        const Totals& t = totals_[i];
        const std::string& n = names_[i];
        total += t.calls;
        std::string p = "span." + n + ".";
        r.set(p + "calls", static_cast<double>(t.calls));
        r.set(p + "self_ms", static_cast<double>(t.selfNs) / 1e6);
        r.set(p + "mean_us", t.calls ? static_cast<double>(t.totalNs) /
                                           1e3 / static_cast<double>(t.calls)
                                     : 0);
        layerSelf[n.substr(0, n.find('.'))] += t.selfNs;
        if (t.counted && t.calls > 0) {
            double c = static_cast<double>(t.calls);
            auto per = [&](const char* k, Counter ctr) {
                r.set(p + k, static_cast<double>(t.delta[ctr]) / c);
            };
            per("fences_per_call", Counter::fences);
            per("flushes_per_call", Counter::flushes);
            per("log_bytes_per_call", Counter::logBytes);
            per("nvm_write_bytes_per_call", Counter::nvmWriteBytes);
            per("allocs_per_call", Counter::allocs);
        }
    }
    for (const auto& [layer, ns] : layerSelf)
        r.set(layer + ".self_ms", static_cast<double>(ns) / 1e6);
    r.set("trace.spans", static_cast<double>(total));
    r.set("trace.spans_dropped", static_cast<double>(dropped_));
}

bool
Tracer::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id\tgroup\tparent\tname\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span& s = spans_[i];
        std::fprintf(f, "%zu\t%llu\t%d\t%s\t%lld\t%lld\n", i,
                     static_cast<unsigned long long>(s.group), s.parent,
                     names_[s.name].c_str(),
                     static_cast<long long>(s.start),
                     static_cast<long long>(s.end));
    }
    return std::fclose(f) == 0;
}

}  // namespace pb

#include "runtimes/factory.h"

namespace pb {

Store::~Store()
{
    kv.reset();
    eng.reset();
    runtime.reset();
    heap.reset();
    if (cnvm::nvm::Pool::current() == pool.get())
        cnvm::nvm::Pool::setCurrent(nullptr);
    pool.reset();
}

std::unique_ptr<Store>
makeStore(size_t poolMb, Tracer& tr, uint64_t group)
{
    auto s = std::make_unique<Store>();
    cnvm::nvm::PoolConfig cfg;
    cfg.size = poolMb << 20;
    {
        SpanScope sp(tr, "nvm.pool_create", group);
        s->pool = cnvm::nvm::Pool::create(cfg);
    }
    cnvm::nvm::Pool::setCurrent(s->pool.get());
    {
        SpanScope sp(tr, "alloc.open", group);
        s->heap = std::make_unique<cnvm::alloc::PmAllocator>(*s->pool);
    }
    {
        SpanScope sp(tr, "runtimes.make", group);
        s->runtime = cnvm::rt::makeRuntime(
            cnvm::txn::RuntimeKind::clobber, *s->pool, *s->heap,
            cnvm::rt::ClobberPolicy::refined);
    }
    s->eng = std::make_unique<cnvm::txn::Engine>(*s->runtime);
    {
        SpanScope sp(tr, "apps.open", group);
        cnvm::apps::KvServer::Config kc;
        kc.shards = kShards;
        kc.lockMode = cnvm::apps::KvServer::LockMode::rw;
        s->kv = std::make_unique<cnvm::apps::KvServer>(*s->eng, 0, kc);
    }
    return s;
}

void
preload(Store& s, uint64_t first, uint64_t n, uint32_t ver, Tracer& tr,
        uint64_t group)
{
    SpanScope sp(tr, "apps.preload", group);
    constexpr size_t kChunk = 16;  // well inside the v_log arg area
    std::vector<std::string> keys(kChunk), vals(kChunk);
    std::vector<cnvm::apps::MutOp> ops(kChunk);
    std::vector<cnvm::apps::MutResult> res(kChunk);
    for (uint64_t i = 0; i < n; i += kChunk) {
        size_t m = static_cast<size_t>(std::min<uint64_t>(kChunk, n - i));
        for (size_t j = 0; j < m; j++) {
            keys[j] = keyOf(first + i + j);
            vals[j] = valueOf(first + i + j, ver);
            ops[j] = {cnvm::apps::MutKind::set, keys[j], vals[j], 0, 0};
        }
        s.kv->applyBatch({ops.data(), m}, res.data());
    }
}

void
recordConfig(const Options& o, Report& r, size_t poolMb)
{
    r.config("runtime", kRuntime);
    r.config("policy", kPolicy);
    r.config("log_writer", kLogWriter);
    r.config("batch", kBatch);
    r.config("recovery_default", "full");
    r.config("shards", kShards);
    r.config("lock_mode", "rw");
    r.config("key_bytes", static_cast<double>(kKeyLen));
    r.config("value_bytes", static_cast<double>(kValLen));
    r.config("pool_mib", static_cast<double>(poolMb));
    r.config("seed", static_cast<double>(o.seed));
    r.config("seconds", o.seconds);
    r.config("trace", o.trace ? 1 : 0);
    r.config("nproc", static_cast<double>(
                          std::thread::hardware_concurrency()));
    r.config("setup_reps_min", kSetupReps);
}

}  // namespace pb
