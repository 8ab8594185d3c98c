#include "server/tcp_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <string>

#include "common/error.h"
#include "server/protocol.h"
#include "structures/kv.h"

namespace cnvm::server {

namespace {

bool
sendAll(int fd, const std::string& data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

/** One response slot per parsed command, kept in command order. */
struct Slot {
    bool immediate = false;  ///< text already final (errors, quit)
    std::string text;        ///< immediate payload
    proto::Cmd cmd = proto::Cmd::get;
    bool noreply = false;
    bool statsSnapshot = false;  ///< fill from stats at format time
    size_t first = 0;            ///< index of first request
    size_t count = 0;            ///< requests covered (gets: #keys)
};

}  // namespace

TcpServer::TcpServer(KvService& svc, apps::KvServer& kv,
                     const TcpConfig& cfg)
    : svc_(svc), kv_(kv), cfg_(cfg)
{
}

TcpServer::~TcpServer()
{
    if (running_)
        stop();
}

void
TcpServer::start()
{
    CNVM_CHECK(!running_, "server already started");
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal(strprintf("socket(): %s", std::strerror(errno)));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0)
        fatal(strprintf("bind(port %u): %s", unsigned(cfg_.port),
                       std::strerror(errno)));
    if (::listen(listenFd_, cfg_.backlog) != 0)
        fatal(strprintf("listen(): %s", std::strerror(errno)));

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);

    stopping_.store(false, std::memory_order_relaxed);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    running_ = true;
}

void
TcpServer::stop()
{
    if (!running_)
        return;
    stopping_.store(true, std::memory_order_relaxed);
    // Closing the listener makes accept() fail → accept thread exits.
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    acceptThread_.join();
    listenFd_ = -1;

    {
        std::lock_guard<std::mutex> g(connMu_);
        for (auto& c : conns_) {
            if (!c->closed)
                ::shutdown(c->fd, SHUT_RDWR);
        }
    }
    for (auto& c : conns_)
        c->thread.join();
    conns_.clear();
    running_ = false;
}

void
TcpServer::acceptLoop()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;  // listener closed (stop) or fatal
        }
        if (stopping_.load(std::memory_order_relaxed)) {
            ::close(fd);
            return;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        accepted_.fetch_add(1, std::memory_order_relaxed);

        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        Conn* cp = conn.get();
        {
            std::lock_guard<std::mutex> g(connMu_);
            conns_.push_back(std::move(conn));
        }
        cp->thread = std::thread([this, cp] {
            handleConnection(cp->fd);
            // Close under the lock so stop() never shutdown()s a
            // recycled descriptor.
            std::lock_guard<std::mutex> g(connMu_);
            ::close(cp->fd);
            cp->closed = true;
        });
    }
}

void
TcpServer::handleConnection(int fd)
{
    proto::Parser parser;
    char buf[16384];
    bool open = true;
    std::vector<std::vector<Request*>> byWorker(svc_.workers());

    while (open) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        parser.feed(buf, static_cast<size_t>(n));

        // Turn the burst into a window: parse every complete command,
        // submit the storage ops, then answer in order.
        std::vector<Slot> slots;
        std::deque<Request> reqs;
        std::deque<apps::KvReadResult> reads;
        Completion done;

        proto::Command c;
        std::string err;
        for (;;) {
            auto st = parser.next(&c, &err);
            if (st == proto::Parser::Status::need)
                break;
            Slot slot;
            if (st == proto::Parser::Status::error) {
                slot.immediate = true;
                slot.text = err;
                slots.push_back(std::move(slot));
                continue;
            }
            slot.cmd = c.cmd;
            slot.noreply = c.noreply;
            switch (c.cmd) {
            case proto::Cmd::quit:
                open = false;
                break;
            case proto::Cmd::version:
                slot.immediate = true;
                slot.text = "VERSION cnvm-kv/1.0\r\n";
                break;
            case proto::Cmd::stats:
                slot.statsSnapshot = true;
                break;
            case proto::Cmd::get:
            case proto::Cmd::gets:
                slot.first = reqs.size();
                for (const auto& key : c.keys) {
                    if (key.size() > ds::kMaxKeyLen)
                        continue;  // cannot exist in the store
                    reqs.emplace_back();
                    Request& r = reqs.back();
                    r.op = Request::Op::get;
                    r.key = key;
                    reads.emplace_back();
                    r.read = &reads.back();
                    r.done = &done;
                }
                slot.count = reqs.size() - slot.first;
                break;
            case proto::Cmd::set:
            case proto::Cmd::cas:
            case proto::Cmd::del: {
                if (c.keys[0].size() > ds::kMaxKeyLen) {
                    slot.immediate = true;
                    slot.text =
                        "CLIENT_ERROR key too long for store\r\n";
                    break;
                }
                if (c.cmd != proto::Cmd::del &&
                    c.data.size() > ds::kMaxValLen) {
                    slot.immediate = true;
                    slot.text =
                        "SERVER_ERROR object too large for cache\r\n";
                    break;
                }
                slot.first = reqs.size();
                slot.count = 1;
                reqs.emplace_back();
                Request& r = reqs.back();
                r.op = c.cmd == proto::Cmd::set ? Request::Op::set
                       : c.cmd == proto::Cmd::cas
                           ? Request::Op::cas
                           : Request::Op::del;
                r.key = c.keys[0];
                r.value = std::move(c.data);
                r.flags = c.flags;
                r.casVersion = c.casUnique;
                r.done = &done;
                break;
            }
            }
            slots.push_back(std::move(slot));
            if (!open)
                break;
        }

        if (!reqs.empty()) {
            done.expect(static_cast<unsigned>(reqs.size()));
            // Bucket the window by owning worker: one enqueue (one
            // lock, one wakeup) per worker per window instead of one
            // per request. Bucketing is stable and a key always maps
            // to one worker, so per-key FIFO order is preserved.
            for (auto& b : byWorker)
                b.clear();
            for (auto& r : reqs)
                byWorker[svc_.workerOf(r.key)].push_back(&r);
            for (unsigned w = 0; w < byWorker.size(); w++)
                if (!byWorker[w].empty())
                    svc_.submitMany(w, byWorker[w].data(),
                                    byWorker[w].size());
            done.wait();
        }

        std::string out;
        for (const Slot& slot : slots) {
            if (slot.immediate) {
                if (!slot.noreply)
                    out += slot.text;
                continue;
            }
            switch (slot.cmd) {
            case proto::Cmd::quit:
                break;
            case proto::Cmd::stats: {
                auto kv = kv_.statsTotals();
                auto sv = svc_.totalStats();
                char line[128];
                auto stat = [&](const char* k, uint64_t v) {
                    int m = std::snprintf(
                        line, sizeof(line), "STAT %s %llu\r\n", k,
                        static_cast<unsigned long long>(v));
                    out.append(line, static_cast<size_t>(m));
                };
                stat("cmd_get", kv.gets);
                stat("get_hits", kv.hits);
                stat("get_misses", kv.gets - kv.hits);
                stat("cmd_set", kv.sets + kv.casStores + kv.casMisses);
                stat("cas_hits", kv.casStores);
                stat("cas_badval", kv.casMisses);
                stat("delete_hits", kv.delHits);
                stat("delete_misses", kv.dels - kv.delHits);
                stat("svc_ops", sv.ops);
                stat("svc_batches", sv.batches);
                stat("svc_batched_ops", sv.batchedOps);
                stat("svc_singles", sv.singles);
                stat("svc_overflows", sv.overflows);
                stat("svc_workers", svc_.workers());
                stat("svc_batch_max", svc_.batchMax());
                // Lazy-recovery progress: pending/healed heal work
                // items (slots + the heap pass); all zero after
                // finishRecovery or under full recovery.
                auto& eng = kv_.engine();
                stat("recovery_active", eng.recoveryActive() ? 1 : 0);
                stat("recovery_pending", eng.recoveryPending());
                stat("recovery_healed", eng.recoveryHealed());
                out += "END\r\n";
                break;
            }
            case proto::Cmd::get:
            case proto::Cmd::gets:
                for (size_t i = 0; i < slot.count; i++) {
                    const Request& r = reqs[slot.first + i];
                    if (!r.read->found)
                        continue;
                    proto::appendValue(
                        out, r.key, r.read->flags,
                        {r.read->value, r.read->len},
                        slot.cmd == proto::Cmd::gets,
                        r.read->version);
                }
                proto::appendEnd(out);
                break;
            case proto::Cmd::set:
            case proto::Cmd::cas:
            case proto::Cmd::del: {
                if (slot.noreply)
                    break;
                const Request& r = reqs[slot.first];
                switch (r.result) {
                case apps::MutResult::stored:
                    out += "STORED\r\n";
                    break;
                case apps::MutResult::deleted:
                    out += "DELETED\r\n";
                    break;
                case apps::MutResult::notFound:
                    out += "NOT_FOUND\r\n";
                    break;
                case apps::MutResult::exists:
                    out += "EXISTS\r\n";
                    break;
                case apps::MutResult::error:
                    out += "SERVER_ERROR transaction failed\r\n";
                    break;
                }
                break;
            }
            case proto::Cmd::version:
                break;  // handled as immediate
            }
        }

        if (!out.empty() && !sendAll(fd, out))
            break;
    }
    // The caller closes fd (under the connection lock).
}

}  // namespace cnvm::server
