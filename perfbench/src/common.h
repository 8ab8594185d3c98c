/**
 * @file
 * Shared pieces of the end-to-end benchmark: the pinned
 * configuration, seeded input generation, the result report, the
 * in-memory span tracer and the NVM pricing observer.
 *
 * The benchmark drives the system only through public entry points
 * (server::TcpServer, apps::KvServer, the restart calls) and reads
 * stats::aggregate() / KvService counters around them. Nothing here
 * changes how the program runs; it only times, counts and checks.
 */
#ifndef CNVM_PERFBENCH_COMMON_H
#define CNVM_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc/pm_allocator.h"
#include "apps/kv/kv_server.h"
#include "nvm/hooks.h"
#include "nvm/pool.h"
#include "stats/counters.h"
#include "stats/simtime.h"
#include "txn/engine.h"
#include "txn/runtime.h"

namespace pb {

/** @name Pinned configuration (recorded in every report) */
/// @{
constexpr const char* kRuntime = "clobber";
constexpr const char* kPolicy = "refined";
constexpr const char* kLogWriter = "baseline";
constexpr unsigned kBatch = 8;
constexpr unsigned kWorkers = 2;
constexpr unsigned kConns = 2;
constexpr unsigned kShards = 64;
constexpr unsigned kWindow = 32;      ///< closed-loop ops per window
constexpr size_t kKeyLen = 16;        ///< memslap key size
constexpr size_t kValLen = 64;        ///< memslap value size
constexpr double kLatencyLimitUs = 1000;  ///< p99 limit of a rung
constexpr int kSetupReps = 3;         ///< least set-ups timed per run
/// @}

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;  ///< span dump path ("" → none)
};

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** splitmix64: the benchmark's own generator, so a change to the
 *  program's RNG cannot change the benchmark's inputs. */
class Rng {
 public:
    explicit Rng(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    uint64_t uniform(uint64_t n) { return next() % n; }

    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Exponential gap with the given mean (Poisson arrivals). */
    double exponential(double mean);

 private:
    uint64_t s_;
};

/** Derive an independent stream seed from (seed, stream). */
uint64_t streamSeed(uint64_t seed, uint64_t stream);

/** YCSB zipfian over [0, n) (theta 0.99), ranks scrambled through a
 *  seeded permutation so hot keys land on random shards. */
class Zipf {
 public:
    Zipf(uint64_t n, uint64_t seed, double theta = 0.99);
    uint64_t next(Rng& rng);

 private:
    uint64_t n_;
    double theta_, alpha_, zetan_, eta_;
    std::vector<uint32_t> perm_;
};

/** 16-byte key of key id `id`. */
std::string keyOf(uint64_t id);
/** 64-byte value of (key id, version): a pure function, so a reader
 *  can check any value it gets back against the model. */
std::string valueOf(uint64_t id, uint32_t ver);

/** Nearest-rank percentile, q in [0, 1]; sorts `v`. */
double percentile(std::vector<double>& v, double q);
/** Median of a sample (copy; nearest rank). */
double median(std::vector<double> v);

/** Resident set of this process now, in MiB (/proc/self/statm). */
double rssMb();
/** Sample the resident set (after each set-up, after the phase). */
void noteRss();
/** Largest resident set sampled so far, in MiB (takes a sample). */
double peakRssMb();
/** User + system CPU time of this process (all threads), seconds. */
double cpuSeconds();

/**
 * The result of one run. Metrics keep insertion order; a metric the
 * workload does not measure is stored as null, never as 0.
 */
class Report {
 public:
    void set(const std::string& name, double v);
    void setNull(const std::string& name);
    void config(const std::string& key, const std::string& v);
    void config(const std::string& key, double v);
    /** Attach a raw JSON value (e.g. the rung table). */
    void raw(const std::string& key, const std::string& json);

    /** Count one attempted op / one failed op (with a reason). */
    void attempt(uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string& why);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** Per-op counter metrics from a counter delta over `ops` ops. */
    void countersPerOp(const cnvm::stats::Snapshot& d, double ops);

    std::string json(const std::string& workload) const;

 private:
    std::vector<std::pair<std::string, std::optional<double>>> metrics_;
    std::map<std::string, size_t> index_;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<std::pair<std::string, std::string>> raw_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * In-memory span recorder. A span has a name ("<layer>.<call>"), a
 * start, an end, a parent and a group id shared by every span of one
 * request or restart cycle. Spans opened with begin() nest on the
 * calling thread; add() records a finished span with no children (a
 * pipelined request). Self time — duration minus the time children
 * cover — and counter deltas are accumulated per name as spans end;
 * the spans themselves are kept (up to a cap) and written out at the
 * end of the run.
 */
class Tracer {
 public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }
    void setOn(bool on) { on_ = on; }

    /** Open a span; returns a handle for end() (-1 when off). When
     *  `counters` is set, the calling thread's counter delta over the
     *  span is added to the name's totals. */
    int begin(const char* name, uint64_t group, bool counters = false);
    void end(int handle);

    void add(const char* name, uint64_t group, int64_t start,
             int64_t end);

    /** Per-name and per-layer summaries into the report. */
    void summarize(Report& r) const;

    /** Write every kept span as TSV; returns false on I/O error. */
    bool write(const std::string& path) const;

 private:
    struct Span {
        uint64_t group;
        int64_t start;
        int64_t end;
        int32_t parent;
        uint32_t name;
    };
    struct Open {
        uint32_t name;
        int32_t stored;  ///< index in spans_, or -1 past the cap
        uint64_t group;
        int64_t start;
        int64_t childNs;
        bool counters;
        cnvm::stats::Snapshot snap;
    };
    struct Totals {
        uint64_t calls = 0;
        int64_t totalNs = 0;
        int64_t selfNs = 0;
        bool counted = false;
        cnvm::stats::Snapshot delta;
    };
    static constexpr size_t kMaxSpans = 1u << 20;

    uint32_t nameId(const char* name);

    bool on_;
    std::vector<std::string> names_;
    std::vector<Totals> totals_;
    std::vector<Span> spans_;
    std::vector<Open> stack_;
    uint64_t dropped_ = 0;
};

/** RAII span (no-op when the tracer is off). */
class SpanScope {
 public:
    SpanScope(Tracer& t, const char* name, uint64_t group,
              bool counters = false)
        : t_(t), h_(t.begin(name, group, counters))
    {
    }
    ~SpanScope() { t_.end(h_); }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

 private:
    Tracer& t_;
    int h_;
};

/**
 * Prices the calling thread's flushes and fences with the default
 * stats::PersistParams through a stats::PersistClock. Its clock
 * advances by modeled stall only (compute time is not folded in), so
 * the stall of an op is a pure function of its flush/fence sequence
 * and repeats exactly for a fixed input.
 */
class PricingObserver : public cnvm::nvm::PersistObserver {
 public:
    PricingObserver() : clock_(cnvm::stats::PersistParams{}) {}

    void
    flushed(uint64_t bytes) override
    {
        clock_.onFlush(stallNs_, bytes);
    }

    void
    fenced() override
    {
        stallNs_ += clock_.onFence(stallNs_);
    }

    uint64_t stallNs() const { return stallNs_; }

 private:
    cnvm::stats::PersistClock clock_;
    uint64_t stallNs_ = 0;
};

/** Installs a PricingObserver on the calling thread for its scope. */
class PricingScope {
 public:
    explicit PricingScope(PricingObserver& obs)
    {
        cnvm::nvm::setPersistObserver(&obs);
    }
    ~PricingScope() { cnvm::nvm::setPersistObserver(nullptr); }

    PricingScope(const PricingScope&) = delete;
    PricingScope& operator=(const PricingScope&) = delete;
};

/**
 * One persistent store: pool, allocator, runtime, engine and KvServer,
 * torn down in reverse order. The pool is made the ambient pool.
 */
struct Store {
    std::unique_ptr<cnvm::nvm::Pool> pool;
    std::unique_ptr<cnvm::alloc::PmAllocator> heap;
    std::unique_ptr<cnvm::txn::Runtime> runtime;
    std::unique_ptr<cnvm::txn::Engine> eng;
    std::unique_ptr<cnvm::apps::KvServer> kv;

    Store() = default;
    ~Store();
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;
};

/** Create a fresh `poolMb` store (spans nvm.pool_create, alloc.open,
 *  runtimes.make, apps.open under `group`). */
std::unique_ptr<Store> makeStore(size_t poolMb, Tracer& tr,
                                 uint64_t group);

/** Store keys [first, first + n) at version `ver` through
 *  KvServer::applyBatch on the calling thread (span apps.preload). */
void preload(Store& s, uint64_t first, uint64_t n, uint32_t ver,
             Tracer& tr, uint64_t group);

/** Record the pinned configuration every workload shares. */
void recordConfig(const Options& o, Report& r, size_t poolMb);

/**
 * Run `make(i)` at least `reps` times — more, up to kMaxSetupReps,
 * while they total under a second, so a set-up of a few milliseconds
 * is still a steady median — dropping each result before the next,
 * and keep the last. Records setup_s and setup_rss_mb as the medians
 * of the set-ups' wall time and of the resident set right after each.
 */
template <typename T, typename Make>
std::unique_ptr<T>
timedSetUps(Report& r, int reps, Make make)
{
    constexpr int kMaxSetupReps = 15;
    std::vector<double> secs, rss;
    std::unique_ptr<T> kept;
    double total = 0;
    for (int i = 0;
         i < reps || (reps > 1 && total < 1.0 && i < kMaxSetupReps); i++) {
        kept.reset();
        int64_t t0 = nowNs();
        kept = make(i);
        secs.push_back(double(nowNs() - t0) / 1e9);
        total += secs.back();
        rss.push_back(rssMb());
        noteRss();
    }
    r.set("setup_s", median(secs));
    r.set("setup_rss_mb", median(rss));
    r.set("samples.setups", double(secs.size()));
    return kept;
}


/** @name Workload entry points (fill `r`; false → bad usage) */
/// @{
void runKv(const Options& o, Report& r);
void runTxDirect(const Options& o, Report& r);
void runRestart(const Options& o, Report& r);
/// @}

}  // namespace pb

#endif  // CNVM_PERFBENCH_COMMON_H
