/**
 * @file
 * kv_write and kv_read: the in-process KV service on an ephemeral
 * loopback port (TcpServer → KvService → KvServer), driven by the
 * benchmark's own single-threaded client over two connections.
 *
 * The timed phase has two parts:
 *  - a closed loop (window of kWindow requests per connection; the
 *    next window is sent when the previous one has fully answered),
 *    which gives capacity (kv_ops_per_s) and window round trips;
 *  - an open loop over a fixed rate ladder (Poisson arrivals, each
 *    request timed from its scheduled send time), which gives get/set
 *    latency at the middle rung and the highest rung whose p99 meets
 *    kLatencyLimitUs.
 *
 * Keys are partitioned by connection (key id % kConns), and the
 * server keeps per-key FIFO order, so the client's model fixes the
 * exact reply of every request; each reply is checked against it, and
 * after the run the store is read back directly and compared.
 */
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "common.h"
#include "server/kv_service.h"
#include "server/tcp_server.h"

namespace pb {
namespace {

using namespace cnvm;

enum class Op : uint8_t { get, gets, set, del };

struct KvSpec {
    uint64_t keys;    ///< preloaded keys = key space
    double setFrac;
    double delFrac;
    double getsFrac;  ///< share of reads sent as `gets`
    bool zipf;
    size_t poolMb;
    std::vector<double> ladder;  ///< open-loop rates, ops/s
};

KvSpec
specFor(const std::string& w)
{
    if (w == "kv_write")
        return {1'000'000, 0.90, 0.05, 0.0, false, 512,
                {10e3, 20e3, 40e3, 80e3, 320e3}};
    return {10'000, 0.05, 0.0, 0.10, true, 64,
            {50e3, 100e3, 200e3, 400e3, 800e3}};
}

/** Per-connection op stream: keys of this connection's partition. */
class Gen {
 public:
    Gen(const KvSpec& s, uint64_t seed, unsigned conn)
        : s_(s), rng_(streamSeed(seed, conn)), conn_(conn),
          part_(s.keys / kConns)
    {
        if (s.zipf)
            zipf_ = std::make_unique<Zipf>(part_,
                                           streamSeed(seed, 100 + conn));
    }

    std::pair<Op, uint64_t>
    next()
    {
        double u = rng_.real();
        Op op = u < s_.setFrac                ? Op::set
                : u < s_.setFrac + s_.delFrac ? Op::del
                : rng_.real() < s_.getsFrac   ? Op::gets
                                              : Op::get;
        uint64_t idx = zipf_ ? zipf_->next(rng_) : rng_.uniform(part_);
        return {op, idx * kConns + conn_};
    }

 private:
    const KvSpec& s_;
    Rng rng_;
    unsigned conn_;
    uint64_t part_;
    std::unique_ptr<Zipf> zipf_;
};

struct Pending {
    uint64_t id;
    int64_t sched;
    int64_t sent;
    uint64_t key;
    uint32_t ver;  ///< set: new version; get: expected (0 = miss)
    Op op;
    bool hit;      ///< del: key present when sent
};

struct Conn {
    int fd = -1;
    std::string out;
    size_t outOff = 0;
    std::string in;
    size_t inOff = 0;
    std::deque<Pending> pend;
};

/**
 * Where completed requests of the current phase are recorded. Get and
 * set latencies are also kept per sub-window of the phase (by
 * scheduled time), so a rung can report the median of its
 * sub-windows' percentiles: one multi-millisecond host stall then
 * moves one sub-window, not the rung's figure.
 */
struct Sink {
    std::vector<double> all;   ///< latency, µs
    std::vector<double> late;  ///< send − schedule, µs
    std::vector<std::vector<double>> get, set;  ///< per sub-window
    int64_t t0 = 0;            ///< start of the current burst
    int64_t window = 0;        ///< sub-window length, ns (0 → one)
    size_t base = 0;           ///< first sub-window of the burst
    uint64_t acked = 0;
    uint64_t failed = 0;
    uint64_t userBytes = 0;  ///< key + value bytes of acked mutations
    size_t backlogMax = 0;
    size_t backlogEnd = 0;
    bool overloaded = false;  ///< stopped early at kBacklogCap
    bool keepLatency = true;  ///< false: count only (closed loop)
};

/** Outstanding requests at which an open-loop burst is abandoned as
 *  overloaded: its queue is growing, and letting it grow further only
 *  costs memory and drain time. */
constexpr size_t kBacklogCap = 8192;

class Client {
 public:
    Client(const KvSpec& spec, uint64_t seed, uint16_t port,
           std::vector<uint32_t>& model, Report& r, Tracer& tr)
        : model_(model), r_(r), tr_(tr)
    {
        prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
        for (unsigned c = 0; c < kConns; c++) {
            gens_.emplace_back(spec, seed, c);
            arrivals_.emplace_back(streamSeed(seed, 200 + c));
            conns_[c].fd = connectTo(port);
        }
    }

    ~Client()
    {
        for (auto& c : conns_)
            if (c.fd >= 0)
                ::close(c.fd);
    }

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /**
     * Closed loop for `secs`, cut into `slices` equal slices; appends
     * each slice's acked ops per second to `rates` and every window's
     * round trip (µs) to `rtts` (either may be null).
     */
    void
    closedLoop(double secs, int slices, Sink& s,
               std::vector<double>* rates, std::vector<double>* rtts)
    {
        sink_ = &s;
        int64_t t0 = nowNs();
        int64_t tEnd = t0 + static_cast<int64_t>(secs * 1e9);
        int64_t slice = (tEnd - t0) / slices;
        std::vector<double> perSlice(size_t(slices), 0);
        uint64_t seen = s.acked;
        int64_t winStart[kConns];
        bool active[kConns];
        for (unsigned c = 0; c < kConns; c++) {
            winStart[c] = t0;
            active[c] = true;
            for (unsigned i = 0; i < kWindow; i++)
                issue(c, t0, t0);
            flushOut(conns_[c]);
        }
        for (;;) {
            bool any = false;
            for (unsigned c = 0; c < kConns; c++)
                any = any || active[c];
            if (!any)
                break;
            waitIo(nowNs() + 5'000'000);
            int64_t now = nowNs();
            readAll(now);
            if (now < tEnd)
                perSlice[size_t((now - t0) / slice)] +=
                    double(s.acked - seen);
            seen = s.acked;
            for (unsigned c = 0; c < kConns; c++) {
                if (!active[c] || !conns_[c].pend.empty())
                    continue;
                if (rtts != nullptr)
                    rtts->push_back(double(now - winStart[c]) / 1e3);
                if (now >= tEnd) {
                    active[c] = false;
                    continue;
                }
                winStart[c] = now;
                for (unsigned i = 0; i < kWindow; i++)
                    issue(c, now, now);
                flushOut(conns_[c]);
            }
        }
        if (rates != nullptr)
            for (double n : perSlice)
                rates->push_back(n / (double(slice) / 1e9));
    }

    /**
     * Open loop at `rate` ops/s for `secs`, then drain. Successive
     * calls on one Sink append: with s.window set, this burst's
     * latencies go to new sub-windows after the existing ones.
     */
    void
    openRung(double rate, double secs, Sink& s)
    {
        sink_ = &s;
        double gapNs = 1e9 * kConns / rate;  // per-connection mean gap
        int64_t t0 = nowNs();
        int64_t tEnd = t0 + static_cast<int64_t>(secs * 1e9);
        s.t0 = t0;
        s.base = std::max(s.get.size(), s.set.size());
        double next[kConns];
        for (unsigned c = 0; c < kConns; c++)
            next[c] = double(t0) + arrivals_[c].exponential(gapNs);
        for (;;) {
            int64_t now = nowNs();
            bool more = false;
            double due = 1e300;
            for (unsigned c = 0; c < kConns; c++) {
                while (next[c] <= double(now) && next[c] < double(tEnd)) {
                    auto sched = static_cast<int64_t>(next[c]);
                    issue(c, sched, now);
                    s.late.push_back(double(now - sched) / 1e3);
                    next[c] += arrivals_[c].exponential(gapNs);
                }
                if (next[c] < double(tEnd)) {
                    more = true;
                    due = std::min(due, next[c]);
                }
                flushOut(conns_[c]);
            }
            s.backlogMax = std::max(s.backlogMax, outstanding());
            if (outstanding() > kBacklogCap) {
                s.overloaded = true;  // the queue is growing: give up
                break;
            }
            if (!more)
                break;
            waitIo(static_cast<int64_t>(due));
            readAll(nowNs());
        }
        s.backlogEnd = outstanding();
        drain();
    }

    size_t
    outstanding() const
    {
        size_t n = 0;
        for (const auto& c : conns_)
            n += c.pend.size();
        return n;
    }

 private:
    static int
    connectTo(uint16_t port)
    {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::runtime_error("socket() failed");
        sockaddr_in a{};
        a.sin_family = AF_INET;
        a.sin_port = htons(port);
        a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) {
            ::close(fd);
            throw std::runtime_error("connect() failed");
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        int fl = fcntl(fd, F_GETFL);
        fcntl(fd, F_SETFL, fl | O_NONBLOCK);
        return fd;
    }

    void
    issue(unsigned c, int64_t sched, int64_t now)
    {
        auto [op, key] = gens_[c].next();
        Conn& cn = conns_[c];
        std::string k = keyOf(key);
        Pending p{nextId_++, sched, now, key, 0, op, false};
        switch (op) {
          case Op::set: {
            p.ver = ++seq_;
            model_[key] = p.ver;
            cn.out += "set " + k + " 0 0 64\r\n";
            cn.out += valueOf(key, p.ver);
            cn.out += "\r\n";
            break;
          }
          case Op::del:
            p.hit = model_[key] != 0;
            model_[key] = 0;
            cn.out += "delete " + k + "\r\n";
            break;
          case Op::get:
          case Op::gets:
            p.ver = model_[key];
            cn.out += (op == Op::get ? "get " : "gets ") + k + "\r\n";
            break;
        }
        cn.pend.push_back(p);
        r_.attempt();
    }

    void
    flushOut(Conn& c)
    {
        while (c.outOff < c.out.size()) {
            ssize_t n = ::send(c.fd, c.out.data() + c.outOff,
                               c.out.size() - c.outOff,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n > 0) {
                c.outOff += static_cast<size_t>(n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EINTR))
                return;
            throw std::runtime_error("send() failed: connection lost");
        }
        c.out.clear();
        c.outOff = 0;
    }

    void
    waitIo(int64_t untilNs)
    {
        pollfd fds[kConns];
        for (unsigned c = 0; c < kConns; c++) {
            fds[c].fd = conns_[c].fd;
            fds[c].events = POLLIN;
            if (conns_[c].outOff < conns_[c].out.size())
                fds[c].events |= POLLOUT;
            fds[c].revents = 0;
        }
        int64_t d = std::max<int64_t>(0, untilNs - nowNs());
        timespec ts{static_cast<time_t>(d / 1'000'000'000),
                    static_cast<long>(d % 1'000'000'000)};
        ::ppoll(fds, kConns, &ts, nullptr);
        for (unsigned c = 0; c < kConns; c++)
            if (fds[c].revents & POLLOUT)
                flushOut(conns_[c]);
    }

    void
    readAll(int64_t now)
    {
        char buf[65536];
        for (unsigned c = 0; c < kConns; c++) {
            Conn& cn = conns_[c];
            for (;;) {
                ssize_t n = ::recv(cn.fd, buf, sizeof(buf), MSG_DONTWAIT);
                if (n > 0) {
                    cn.in.append(buf, static_cast<size_t>(n));
                    continue;
                }
                if (n < 0 && (errno == EAGAIN || errno == EINTR))
                    break;
                throw std::runtime_error("recv(): connection lost");
            }
            while (!cn.pend.empty() && parseOne(cn, now)) {
            }
            if (cn.inOff == cn.in.size()) {
                cn.in.clear();
                cn.inOff = 0;
            }
        }
    }

    /** Consume the reply of cn.pend.front() if complete. */
    bool
    parseOne(Conn& cn, int64_t now)
    {
        const char* b = cn.in.data() + cn.inOff;
        size_t n = cn.in.size() - cn.inOff;
        const char* eol = static_cast<const char*>(
            memmem(b, n, "\r\n", 2));
        if (eol == nullptr)
            return false;
        std::string_view line(b, static_cast<size_t>(eol - b));
        size_t used = line.size() + 2;
        const Pending& p = cn.pend.front();
        bool ok = false;
        switch (p.op) {
          case Op::set:
            ok = line == "STORED";
            break;
          case Op::del:
            ok = line == (p.hit ? "DELETED" : "NOT_FOUND");
            break;
          case Op::get:
          case Op::gets:
            if (line == "END") {
                ok = p.ver == 0;
            } else if (line.substr(0, 6) == "VALUE ") {
                // VALUE <key> <flags> <bytes>[ <cas>]
                size_t k1 = line.find(' ', 6);
                size_t k2 = line.find(' ', k1 + 1);
                size_t k3 = line.find(' ', k2 + 1);
                if (k1 == line.npos || k2 == line.npos)
                    throw std::runtime_error("malformed VALUE line");
                size_t bytes = std::strtoul(
                    std::string(line.substr(k2 + 1, k3 - k2 - 1)).c_str(),
                    nullptr, 10);
                if (n < used + bytes + 2 + 5)
                    return false;
                std::string_view data(b + used, bytes);
                std::string_view tail(b + used + bytes, 7);
                if (tail != "\r\nEND\r\n")
                    throw std::runtime_error("malformed get reply");
                ok = p.ver != 0 &&
                     line.substr(6, k1 - 6) == keyOf(p.key) &&
                     data == valueOf(p.key, p.ver);
                used += bytes + 7;
            }
            break;
        }
        cn.inOff += used;
        complete(p, ok, line, now);
        cn.pend.pop_front();
        return true;
    }

    void
    complete(const Pending& p, bool ok, std::string_view line,
             int64_t now)
    {
        Sink& s = *sink_;
        tr_.add("server.request", p.id, p.sent, now);
        if (!ok) {
            s.failed++;
            r_.fail("key " + std::to_string(p.key) + ": reply '" +
                    std::string(line.substr(0, 40)) + "'");
            return;
        }
        s.acked++;
        if (p.op != Op::get && p.op != Op::gets)
            s.userBytes += kKeyLen + (p.op == Op::set ? kValLen : 0);
        if (!s.keepLatency)
            return;
        double us = double(now - p.sched) / 1e3;
        s.all.push_back(us);
        size_t w = s.window > 0 ? s.base + size_t(std::max<int64_t>(
                                               0, (p.sched - s.t0) /
                                                      s.window))
                                : 0;
        auto& cls = p.op == Op::get || p.op == Op::gets ? s.get : s.set;
        if (cls.size() <= w)
            cls.resize(w + 1);
        cls[w].push_back(us);
    }

    void
    drain()
    {
        int64_t limit = nowNs() + 10'000'000'000LL;
        while (outstanding() > 0 && nowNs() < limit) {
            for (auto& c : conns_)
                flushOut(c);
            waitIo(nowNs() + 5'000'000);
            readAll(nowNs());
        }
        if (outstanding() > 0)
            throw std::runtime_error("requests timed out in drain");
    }

    std::vector<uint32_t>& model_;
    Report& r_;
    Tracer& tr_;
    std::vector<Gen> gens_;
    std::vector<Rng> arrivals_;
    Conn conns_[kConns];
    Sink* sink_ = nullptr;
    uint64_t nextId_ = 1;
    uint32_t seq_ = 1;  ///< preload wrote version 1
};

/** Service + front-end over one store. */
struct KvStack {
    std::unique_ptr<Store> store;
    std::unique_ptr<server::KvService> svc;
    std::unique_ptr<server::TcpServer> tcp;

    void
    stop(Tracer& tr, uint64_t group)
    {
        SpanScope sp(tr, "server.stop", group);
        if (tcp)
            tcp->stop();
        if (svc)
            svc->stop();
    }
};

std::unique_ptr<KvStack>
setUp(const KvSpec& spec, Tracer& tr, uint64_t group)
{
    auto k = std::make_unique<KvStack>();
    k->store = makeStore(spec.poolMb, tr, group);
    preload(*k->store, 0, spec.keys, 1, tr, group);
    SpanScope sp(tr, "server.start", group);
    server::ServiceConfig sc;
    sc.workers = kWorkers;
    sc.batchMax = kBatch;
    k->svc = std::make_unique<server::KvService>(*k->store->kv, sc);
    k->svc->start();
    k->tcp = std::make_unique<server::TcpServer>(*k->svc, *k->store->kv,
                                                 server::TcpConfig{});
    k->tcp->start();
    return k;
}

/** Median over sub-windows of each sub-window's q-percentile. */
double
windowed(const std::vector<std::vector<double>>& wins, double q)
{
    std::vector<double> per;
    for (auto w : wins)
        if (!w.empty())
            per.push_back(percentile(w, q));
    return median(per);
}

size_t
count(const std::vector<std::vector<double>>& wins)
{
    size_t n = 0;
    for (const auto& w : wins)
        n += w.size();
    return n;
}

std::string
rungJson(double rate, const Sink& s, double p50, double p99, double late,
         bool meets)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"rate\": %.0f, \"ops\": %llu, \"p50_us\": %.3f, "
                  "\"p99_us\": %.3f, \"late_p99_us\": %.3f, "
                  "\"backlog_max\": %zu, \"backlog_end\": %zu, "
                  "\"overloaded\": %s, \"meets\": %s}",
                  rate, static_cast<unsigned long long>(s.acked), p50, p99,
                  late, s.backlogMax, s.backlogEnd,
                  s.overloaded ? "true" : "false", meets ? "true" : "false");
    return buf;
}

}  // namespace

void
runKv(const Options& o, Report& r)
{
    const KvSpec spec = specFor(o.workload);
    recordConfig(o, r, spec.poolMb);
    r.config("workers", kWorkers);
    r.config("connections", kConns);
    r.config("window", kWindow);
    r.config("keys", static_cast<double>(spec.keys));
    r.config("latency_limit_us", kLatencyLimitUs);
    std::string ladder = "[";
    for (size_t i = 0; i < spec.ladder.size(); i++)
        ladder += (i ? ", " : "") + std::to_string(int64_t(spec.ladder[i]));
    r.raw("ladder_ops_per_s", ladder + "]");

    Tracer tr(o.trace);
    uint64_t group = 0;

    // The last set-up serves the run; the others are torn down (their
    // servers stop in ~KvStack).
    auto k = timedSetUps<KvStack>(r, o.trace ? 1 : kSetupReps,
                                  [&](int) { return setUp(spec, tr, ++group); });

    std::vector<uint32_t> model(spec.keys, 1);
    Client cl(spec, o.seed, k->tcp->port(), model, r, tr);
    auto& svc = *k->svc;

    // Warm-up: connections, caches, allocator free lists.
    {
        Sink warm;
        bool on = tr.on();
        tr.setOn(false);
        cl.closedLoop(0.05 * o.seconds, 1, warm, nullptr, nullptr);
        tr.setOn(on);
    }

    auto c0 = stats::aggregate();
    auto sv0 = svc.totalStats();
    std::vector<uint64_t> w0(kWorkers);
    for (unsigned w = 0; w < kWorkers; w++)
        w0[w] = svc.workerStats(w).ops;

    // kRounds interleaved rounds of a closed-loop burst (capacity, in
    // 0.1 s slices) and a burst of the middle rung (latency, two
    // sub-windows each), so a slow stretch of the host lands on a few
    // slices of both instead of all of one. The other rungs follow in
    // ascending order; they only decide kv_max_rate_ops_per_s, and the
    // ones past capacity must not disturb the latency bursts.
    constexpr int kRounds = 5;
    constexpr int kMidWindows = 2;
    const double closedSecs = 0.05 * o.seconds;
    const double midSecs = 0.08 * o.seconds;
    const double sideSecs = 0.08 * o.seconds;
    const int slices = std::max(1, int(closedSecs / 0.1 + 0.5));
    size_t mid = spec.ladder.size() / 2;
    Sink closed;
    closed.keepLatency = false;
    std::vector<double> rtts, rates;
    std::vector<Sink> sinks(spec.ladder.size());
    sinks[mid].window = int64_t(midSecs * 1e9 / kMidWindows);
    // Traced run: each round also repeats its closed-loop burst with
    // tracing off (alternating which goes first); the difference of
    // the two medians is the tracing overhead.
    Sink plain;
    plain.keepLatency = false;
    std::vector<double> plainRates;
    std::vector<double> burstCpu;  // process CPU µs per op, per burst
    for (int round = 0; round < kRounds; round++) {
        if (o.trace && round % 2 == 1) {
            tr.setOn(false);
            cl.closedLoop(closedSecs, slices, plain, &plainRates, nullptr);
            tr.setOn(true);
        }
        double cpu0 = cpuSeconds();
        uint64_t acked0 = closed.acked;
        cl.closedLoop(closedSecs, slices, closed, &rates, &rtts);
        burstCpu.push_back((cpuSeconds() - cpu0) * 1e6 /
                           double(closed.acked - acked0));
        if (o.trace && round % 2 == 0) {
            tr.setOn(false);
            cl.closedLoop(closedSecs, slices, plain, &plainRates, nullptr);
            tr.setOn(true);
        }
        cl.openRung(spec.ladder[mid], midSecs, sinks[mid]);
    }
    for (size_t i = 0; i < spec.ladder.size(); i++)
        if (i != mid)
            cl.openRung(spec.ladder[i], sideSecs, sinks[i]);
    double capacity = median(rates);

    double maxRate = 0;
    std::string rungs = "[";
    for (size_t i = 0; i < spec.ladder.size(); i++) {
        Sink& s = sinks[i];
        double p50 = percentile(s.all, 0.5);
        double p99 = percentile(s.all, 0.99);
        double late = percentile(s.late, 0.99);
        // A failed request misses the limit; a backlog left at the end
        // of the rung larger than one limit's worth of arrivals means
        // the queue was growing.
        bool meets = s.failed == 0 && !s.all.empty() && !s.overloaded &&
                     p99 <= kLatencyLimitUs &&
                     double(s.backlogEnd) <=
                         spec.ladder[i] * kLatencyLimitUs / 1e6 + kConns;
        if (meets)
            maxRate = std::max(maxRate, spec.ladder[i]);
        rungs += (i ? ", " : "") + rungJson(spec.ladder[i], s, p50, p99,
                                            late, meets);
    }
    r.raw("rungs", rungs + "]");

    auto c1 = stats::aggregate();
    noteRss();
    auto sv1 = svc.totalStats();
    double skewMax = 0, skewSum = 0;
    for (unsigned w = 0; w < kWorkers; w++) {
        double ops = double(svc.workerStats(w).ops - w0[w]);
        skewMax = std::max(skewMax, ops);
        skewSum += ops;
    }

    Sink& m = sinks[mid];
    uint64_t acked = closed.acked + plain.acked;
    uint64_t userBytes = closed.userBytes + plain.userBytes;
    for (const auto& s : sinks) {
        acked += s.acked;
        userBytes += s.userBytes;
    }
    auto d = c1 - c0;

    r.set("kv_ops_per_s", capacity);
    r.set("cpu_us_per_op", median(burstCpu));
    r.set("get_p50_us", windowed(m.get, 0.5));
    r.set("get_p99_us", windowed(m.get, 0.99));
    r.set("get_p90_us", windowed(m.get, 0.9));
    r.set("set_p50_us", windowed(m.set, 0.5));
    r.set("set_p99_us", windowed(m.set, 0.99));
    r.set("set_p90_us", windowed(m.set, 0.9));
    r.set("kv_max_rate_ops_per_s", maxRate);
    r.setNull("tx_ops_per_s");
    r.setNull("recovery_p50_ms");
    r.setNull("recovery_p90_ms");
    r.setNull("ttft_lazy_p50_ms");
    r.setNull("ttft_lazy_p90_ms");
    r.set("nvm_bytes_per_user_byte",
          double(d[stats::Counter::nvmWriteBytes]) / double(userBytes));
    std::string wins = "[";
    for (size_t w = 0; w < m.set.size(); w++) {
        auto v = m.set[w];
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s[%.1f, %.1f, %.1f]",
                      w ? ", " : "", percentile(v, 0.5),
                      percentile(v, 0.9), percentile(v, 0.99));
        wins += buf;
    }
    r.raw("mid_rung_set_windows_p50_p90_p99_us", wins + "]");
    r.set("samples.get", double(count(m.get)));
    r.set("samples.set", double(count(m.set)));
    r.set("samples.windows", double(m.set.size()));

    // Per-layer: server counters, client generator, counter deltas.
    uint64_t batches = sv1.batches - sv0.batches;
    uint64_t batched = sv1.batchedOps - sv0.batchedOps;
    uint64_t singles = sv1.singles - sv0.singles;
    r.set("server.avg_batch", batches ? double(batched) / double(batches)
                                      : 1.0);
    r.set("server.single_tx_frac",
          batched + singles ? double(singles) / double(batched + singles)
                            : 0.0);
    r.set("server.overflow_retries", double(sv1.overflows - sv0.overflows));
    r.set("server.worker_skew",
          skewSum > 0 ? skewMax / (skewSum / kWorkers) : 1.0);
    r.set("server.window_rtt_p50_us", percentile(rtts, 0.5));
    r.set("server.window_rtt_p99_us", percentile(rtts, 0.99));
    r.set("gen.late_p99_us", percentile(m.late, 0.99));
    r.set("gen.backlog_max", double(m.backlogMax));
    r.countersPerOp(d, double(acked));

    if (o.trace) {
        double untraced = median(plainRates);
        r.set("trace.overhead_ops_per_s", untraced - capacity);
        r.set("trace.overhead_share", (untraced - capacity) / untraced);
    }

    k->stop(tr, group);

    // Read-back: the store must hold exactly what the model says.
    {
        SpanScope sp(tr, "apps.verify", group);
        apps::KvReadResult rr;
        for (uint64_t key = 0; key < spec.keys; key++) {
            r.attempt();
            bool found = k->store->kv->get(keyOf(key), &rr);
            bool ok = model[key] == 0
                          ? !found
                          : found && rr.str() == valueOf(key, model[key]);
            if (!ok)
                r.fail("read-back mismatch at key " + std::to_string(key));
        }
    }
    r.set("failed_op_frac", double(r.failed()) / double(r.attempted()));
    r.set("peak_rss_mb", peakRssMb());
    if (o.trace)
        tr.summarize(r);
    if (!o.traceOut.empty() && o.trace && !tr.write(o.traceOut))
        r.fail("cannot write " + o.traceOut);
}

}  // namespace pb
