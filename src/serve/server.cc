#include "serve/server.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "serve/admission.hh"
#include "serve/serve_obs.hh"

namespace mech::serve {

namespace {

/** Set by SIGINT/SIGTERM; polled by the epoll loop between waits. */
volatile std::sig_atomic_t g_terminate = 0;

void
onTerminate(int)
{
    g_terminate = 1;
}

void
installSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onTerminate;
    // No SA_RESTART: a blocked epoll_wait() must return EINTR so the
    // loop can notice the flag and drain.
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    // A client vanishing mid-response must be a write error, not a
    // process kill.
    std::signal(SIGPIPE, SIG_IGN);
}

/** epoll tags below kFirstConnTag are the two listeners (each tag
 *  is also the listener's index) and the wake eventfd; connections
 *  are tagged with their session id. */
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kMetricsListenerTag = 1;
constexpr std::uint64_t kWakeTag = 2;
constexpr std::uint64_t kFirstConnTag = 3;

/** A metrics request longer than this is closed unanswered: no
 *  legitimate scrape is 64 KiB. */
constexpr std::size_t kMaxHttpRequestBytes = std::size_t{1} << 16;

/** How long a listener paused by an accept() failure stays unwatched
 *  when no connection closes to free a descriptor. */
constexpr std::chrono::milliseconds kAcceptRetry{200};

/** Close @p fd if it is open and mark it closed. */
void
closeFd(int &fd)
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

} // namespace

SessionStats
runStdioServer(EvalService &service, std::istream &in,
               std::ostream &out, std::ostream &log,
               const SessionOptions &opts)
{
    IstreamLineSource source(in);
    ServerSession session(service, source, out, opts);
    SessionStats stats = session.run();
    const ServiceStats svc = service.stats();
    log << "mech_serve: session over: " << stats.lines
        << " request line(s), "
        << stats.responses << " response(s), " << stats.errors
        << " error(s); cache " << svc.hits << "/" << svc.requested
        << " hits\n";
    return stats;
}

struct TcpServer::Impl
{
    Impl(EvalService &service_in, TcpServerConfig cfg_in,
         std::ostream &log_in, SessionOptions opts_in)
        : service(service_in), cfg(cfg_in), log(log_in),
          opts(opts_in),
          queue(AdmissionConfig{cfg_in.maxQueue, cfg_in.maxInflight,
                                opts_in.maxBatch})
    {
    }

    /** One accepted connection: an NDJSON session, or with @c http
     *  one HTTP/1.0 request to the metrics endpoint, which never
     *  joins the admission queue nor moves the connection and byte
     *  series.  Input state (raw/line/truncating and the inputDone/
     *  broken flags) and the epoll interest (wantWrite, events)
     *  belong to the I/O thread alone; outbuf, busy and the response
     *  counters are shared with the dispatchers and guarded by
     *  connMtx. */
    struct Conn
    {
        int fd = -1;
        std::uint64_t sid = 0;
        bool http = false;

        std::string raw;  ///< received bytes not yet split on '\n'
        std::string line; ///< the partial line being accumulated
        bool truncating = false;
        /** No more input is used: the peer closed its side, or the
         *  HTTP request was answered. */
        bool inputDone = false;
        bool broken = false;
        bool wantWrite = false;
        std::uint32_t events = EPOLLIN; ///< the armed epoll interest
        std::uint64_t linesRead = 0;

        std::string outbuf;
        std::size_t busy = 0; ///< admitted lines not yet answered
        std::uint64_t responses = 0;
        std::uint64_t errors = 0;
        bool ended = false; ///< answered its own shutdown
    };

    EvalService &service;
    TcpServerConfig cfg;
    std::ostream &log;
    SessionOptions opts;
    AdmissionQueue queue;

    /** A listening socket; paused while an accept() failure that
     *  would recur at once keeps it out of the epoll set. */
    struct Listener
    {
        int fd = -1;
        unsigned short port = 0;
        bool paused = false;
        std::chrono::steady_clock::time_point pausedAt;
    };

    int epfd = -1;
    int wakeFd = -1;
    /** Indexed by epoll tag: kListenerTag, kMetricsListenerTag. */
    Listener listeners[2];

    std::thread io;
    std::vector<std::thread> dispatchers;

    std::atomic<bool> stopRequested{false};
    std::atomic<bool> drainAsked{false};
    std::atomic<bool> shutdownSeen{false};
    bool draining = false; // I/O thread only

    std::mutex connMtx;
    std::map<std::uint64_t, std::unique_ptr<Conn>> conns;
    std::vector<std::uint64_t> writeReady;
    std::uint64_t nextSid = kFirstConnTag;

    bool start(std::string *error);
    void ioLoop();
    void dispatchLoop();
    void processBatch(const AdmissionQueue::Batch &batch);
    void deliver(std::uint64_t sid, std::string bytes,
                 std::size_t consumed, const ResponseWriter &writer,
                 bool ended);
    void wake();

    const char *openListener(Listener &l, unsigned short port, int backlog);
    void closeListeners();
    bool watch(int op, int fd, std::uint64_t tag, std::uint32_t events);
    void acceptClients(std::uint64_t tag);
    void resumeListeners(std::chrono::milliseconds pausedFor);
    std::string metricsHttpResponse(const std::string &request) const;
    void readConn(Conn &conn);
    void readHttpRequest(Conn &conn, const char *bytes, std::size_t size);
    void ingestLine(Conn &conn);
    void shedLine(Conn &conn, QueuedLine line);
    bool flushConn(Conn &conn);
    void setWantWrite(Conn &conn, bool want);
    void endInput(Conn &conn);
    void rearm(Conn &conn);
    void closeConn(std::uint64_t sid);
    void beginDrain();
    void sweepConns();
    void drainWriteReady();
};

const char *
TcpServer::Impl::openListener(Listener &l, unsigned short port, int backlog)
{
    l.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (l.fd < 0)
        return "socket";
    int one = 1;
    ::setsockopt(l.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(l.fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        return "bind";
    }
    if (::listen(l.fd, backlog) < 0)
        return "listen";
    socklen_t len = sizeof(addr);
    if (::getsockname(l.fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) < 0) {
        return "getsockname";
    }
    l.port = ntohs(addr.sin_port);
    return nullptr;
}

void
TcpServer::Impl::closeListeners()
{
    for (Listener &l : listeners)
        closeFd(l.fd);
}

bool
TcpServer::Impl::watch(int op, int fd, std::uint64_t tag, std::uint32_t events)
{
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = events;
    ev.data.u64 = tag;
    return ::epoll_ctl(epfd, op, fd, &ev) == 0;
}

bool
TcpServer::Impl::start(std::string *error)
{
    auto fail = [&](const std::string &what) {
        *error = what + ": " + std::strerror(errno);
        closeListeners();
        closeFd(wakeFd);
        closeFd(epfd);
        return false;
    };

    // Register the front end's instruments up front: a scrape that
    // arrives before any traffic must still see every series.
    ServeObs::get();

    const char *call = openListener(listeners[kListenerTag], cfg.port, 128);
    if (call)
        return fail(std::string(call) + "()");
    if (cfg.metricsPort >= 0) {
        const auto port = static_cast<unsigned short>(cfg.metricsPort);
        call = openListener(listeners[kMetricsListenerTag], port, 16);
        if (call)
            return fail(std::string(call) + "(metrics)");
    }

    wakeFd = ::eventfd(0, EFD_NONBLOCK);
    if (wakeFd < 0)
        return fail("eventfd()");
    epfd = ::epoll_create1(0);
    if (epfd < 0)
        return fail("epoll_create1()");
    if (!watch(EPOLL_CTL_ADD, wakeFd, kWakeTag, EPOLLIN))
        return fail("epoll_ctl(eventfd)");
    for (std::uint64_t tag : {kListenerTag, kMetricsListenerTag}) {
        if (listeners[tag].fd >= 0 &&
            !watch(EPOLL_CTL_ADD, listeners[tag].fd, tag, EPOLLIN))
            return fail("epoll_ctl(listener)");
    }

    if (cfg.dispatchHoldMs > 0)
        queue.holdDispatch(true);

    // Logged before the threads spawn: the I/O thread owns the log
    // stream from here until wait() joins it.
    const unsigned short boundPort = listeners[kListenerTag].port;
    log << "mech_serve: listening on 127.0.0.1:" << boundPort << " ("
        << cfg.dispatchers << " dispatcher(s), queue " << cfg.maxQueue
        << ", per-session " << cfg.maxInflight << ")\n";
    if (cfg.metricsPort >= 0) {
        log << "mech_serve: metrics on http://127.0.0.1:"
            << listeners[kMetricsListenerTag].port << "/metrics\n";
    }

    io = std::thread([this] { ioLoop(); });
    for (unsigned i = 0; i < cfg.dispatchers; ++i)
        dispatchers.emplace_back([this] { dispatchLoop(); });
    return true;
}

void
TcpServer::Impl::wake()
{
    std::uint64_t one = 1;
    ssize_t ignored [[maybe_unused]] =
        ::write(wakeFd, &one, sizeof(one));
}

void
TcpServer::Impl::setWantWrite(Conn &conn, bool want)
{
    conn.wantWrite = want;
    rearm(conn);
}

void
TcpServer::Impl::endInput(Conn &conn)
{
    conn.inputDone = true;
    rearm(conn);
}

void
TcpServer::Impl::rearm(Conn &conn)
{
    // Input is watched until it is done: a peer's EOF stays readable,
    // and level-triggered polling would return to it at once for as
    // long as the connection waits on answers.  Output is watched
    // only while a send would block.
    const std::uint32_t events = (conn.inputDone ? 0u : EPOLLIN) |
                                 (conn.wantWrite ? EPOLLOUT : 0u);
    if (events == conn.events)
        return;
    conn.events = events;
    watch(EPOLL_CTL_MOD, conn.fd, conn.sid, events);
}

bool
TcpServer::Impl::flushConn(Conn &conn)
{
    // Runs on the I/O thread; connMtx held by the caller.
    while (!conn.outbuf.empty()) {
        ssize_t put = ::send(conn.fd, conn.outbuf.data(),
                             conn.outbuf.size(), 0);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                setWantWrite(conn, true);
                return true;
            }
            conn.broken = true;
            return false;
        }
        if (!conn.http)
            ServeObs::get().bytesOut.inc(static_cast<std::uint64_t>(put));
        conn.outbuf.erase(0, static_cast<std::size_t>(put));
    }
    setWantWrite(conn, false);
    return true;
}

void
TcpServer::Impl::acceptClients(std::uint64_t tag)
{
    Listener &l = listeners[tag];
    const bool http = tag == kMetricsListenerTag;
    for (;;) {
        int client = ::accept4(l.fd, nullptr, nullptr, SOCK_NONBLOCK);
        if (client < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return; // accepted everything pending
            ServeObs::get().acceptErrors.inc();
            // Out of descriptors or memory, the pending connection
            // stays queued and the level-triggered listener would
            // fire again at once: stop watching it until a
            // connection closes or kAcceptRetry passes.
            if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                errno == ENOMEM) {
                l.paused = true;
                l.pausedAt = std::chrono::steady_clock::now();
                watch(EPOLL_CTL_MOD, l.fd, tag, 0);
            }
            return;
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = client;
        conn->sid = nextSid++;
        conn->http = http;
        if (!http)
            queue.addSession(conn->sid);
        if (!watch(EPOLL_CTL_ADD, client, conn->sid, conn->events)) {
            queue.removeSession(conn->sid);
            ::close(client);
            continue;
        }
        if (!http)
            ServeObs::get().connections.add(1);
        MECH_LOG(Debug)
            << "mech_serve: client connected (session " << conn->sid
            << ")";
        std::lock_guard<std::mutex> lock(connMtx);
        conns.emplace(conn->sid, std::move(conn));
    }
}

void
TcpServer::Impl::resumeListeners(std::chrono::milliseconds pausedFor)
{
    if (!listeners[kListenerTag].paused &&
        !listeners[kMetricsListenerTag].paused)
        return;
    const auto now = std::chrono::steady_clock::now();
    for (std::uint64_t tag : {kListenerTag, kMetricsListenerTag}) {
        Listener &l = listeners[tag];
        if (l.paused && l.fd >= 0 && now - l.pausedAt >= pausedFor) {
            l.paused = false;
            watch(EPOLL_CTL_MOD, l.fd, tag, EPOLLIN);
        }
    }
}

std::string
TcpServer::Impl::metricsHttpResponse(const std::string &request) const
{
    // A deliberately tiny HTTP/1.0 server: one GET, one response,
    // close.  Anything that is not "GET /metrics" gets a 404.
    const std::size_t eol = request.find_first_of("\r\n");
    const std::string head = request.substr(
        0, eol == std::string::npos ? request.size() : eol);
    std::string path;
    if (head.compare(0, 4, "GET ") == 0) {
        const std::size_t sp = head.find(' ', 4);
        path = head.substr(4, sp == std::string::npos ? std::string::npos
                                                      : sp - 4);
    }

    std::string body;
    const char *status;
    const char *contentType;
    if (path == "/metrics") {
        std::ostringstream os;
        obs::MetricsRegistry::global().renderPrometheus(os);
        body = os.str();
        status = "200 OK";
        contentType = "text/plain; version=0.0.4; charset=utf-8";
    } else {
        body = "not found: only GET /metrics is served\n";
        status = "404 Not Found";
        contentType = "text/plain; charset=utf-8";
    }

    std::ostringstream resp;
    resp << "HTTP/1.0 " << status << "\r\n"
         << "Content-Type: " << contentType << "\r\n"
         << "Content-Length: " << body.size() << "\r\n"
         << "Connection: close\r\n\r\n"
         << body;
    return resp.str();
}

void
TcpServer::Impl::shedLine(Conn &conn, QueuedLine line)
{
    // The queue refused the line (the caller already counted it in
    // conn.busy).  Control requests must still get through (a monitor
    // reading stats from an overloaded server, a shutdown) — parsing
    // only happens on this slow path.
    ParseOutcome outcome = parseRequest(line.line);
    if (outcome.ok() &&
        (outcome.request->type == RequestType::Info ||
         outcome.request->type == RequestType::Stats ||
         outcome.request->type == RequestType::Shutdown) &&
        queue.force(conn.sid, QueuedLine{line})) {
        return; // admitted after all: stays in flight
    }
    const std::string body = codedErrorResponse(
        outcome.idJson, kOverloadedCode,
        "server overloaded: admission queue is full, retry later");
    service.noteShedRequests(1);
    ServeObs &sobs = ServeObs::get();
    sobs.shed.inc();
    sobs.inflight.sub(1);
    {
        MECH_LOG_RATELIMITED(Warn, 1000)
            << "mech_serve: shedding requests: admission queue full "
               "(session "
            << conn.sid << ")";
    }
    std::ostringstream os;
    writeResponseLine(os, body, opts.latencyFields,
                      microsSince(line.received));
    std::lock_guard<std::mutex> lock(connMtx);
    --conn.busy;
    conn.outbuf += os.str();
    ++conn.responses;
    ++conn.errors;
    flushConn(conn);
}

void
TcpServer::Impl::ingestLine(Conn &conn)
{
    std::string line = std::move(conn.line);
    conn.line.clear();
    const bool truncated = conn.truncating;
    conn.truncating = false;
    if (!truncated && isBlankLine(line))
        return;
    ++conn.linesRead;
    QueuedLine queued{std::move(line),
                      std::chrono::steady_clock::now()};
    // Count the line as in flight BEFORE the queue can hand it to a
    // dispatcher: deliver() may decrement conn.busy the instant
    // offer() succeeds, and an increment racing in afterwards would
    // strand the connection at busy > 0 — unreapable, wedging the
    // drain.  A refused line stays counted until shedLine() settles
    // whether it was force-admitted or answered with an error.
    {
        std::lock_guard<std::mutex> lock(connMtx);
        ++conn.busy;
    }
    ServeObs::get().inflight.add(1);
    if (queue.offer(conn.sid, queued))
        return;
    shedLine(conn, std::move(queued));
}

void
TcpServer::Impl::readHttpRequest(Conn &conn, const char *bytes,
                                 std::size_t size)
{
    // A deliberately tiny HTTP/1.0 server: one request, one response,
    // close.  The request is complete at its blank line or at end of
    // input (@p size 0).
    conn.raw.append(bytes, size);
    if (conn.raw.size() > kMaxHttpRequestBytes) {
        conn.broken = true; // closed unanswered
        return;
    }
    if (size > 0 && conn.raw.find("\r\n\r\n") == std::string::npos &&
        conn.raw.find("\n\n") == std::string::npos) {
        return;
    }
    endInput(conn);
    std::lock_guard<std::mutex> lock(connMtx);
    conn.outbuf = metricsHttpResponse(conn.raw);
    flushConn(conn);
}

void
TcpServer::Impl::readConn(Conn &conn)
{
    char chunk[1 << 16];
    for (;;) {
        ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                conn.broken = true;
            return;
        }
        if (draining || conn.inputDone) {
            // During drain the server answers what it admitted and
            // nothing more, and drops later bytes so level-triggered
            // polling does not spin on them.  An answered HTTP
            // request ends its input: the rest of this read is
            // dropped, and input is no longer watched.
            if (got == 0) {
                endInput(conn);
                return;
            }
            continue;
        }
        if (conn.http) {
            readHttpRequest(conn, chunk, static_cast<std::size_t>(got));
            if (got == 0 || conn.broken)
                return;
            continue;
        }
        if (got == 0) {
            endInput(conn);
            // A final unterminated line still counts (mirroring the
            // blocking reader's EOF behaviour).
            if (!conn.raw.empty() || !conn.line.empty()) {
                if (!conn.truncating)
                    conn.line += conn.raw;
                conn.raw.clear();
                ingestLine(conn);
            }
            return;
        }
        ServeObs::get().bytesIn.inc(static_cast<std::uint64_t>(got));
        conn.raw.append(chunk, static_cast<std::size_t>(got));
        for (;;) {
            const std::size_t nl = conn.raw.find('\n');
            if (nl == std::string::npos) {
                if (!conn.truncating) {
                    conn.line += conn.raw;
                    if (conn.line.size() > kMaxRequestBytes + 1) {
                        // Keep the cap plus a sentinel byte so the
                        // dispatcher reports the overflow; discard
                        // the rest of the physical line.
                        conn.line.resize(kMaxRequestBytes + 1);
                        conn.truncating = true;
                    }
                }
                conn.raw.clear();
                break;
            }
            if (!conn.truncating)
                conn.line.append(conn.raw, 0, nl);
            conn.raw.erase(0, nl + 1);
            ingestLine(conn);
        }
    }
}

void
TcpServer::Impl::closeConn(std::uint64_t sid)
{
    std::unique_ptr<Conn> conn;
    {
        std::lock_guard<std::mutex> lock(connMtx);
        auto it = conns.find(sid);
        if (it == conns.end())
            return;
        conn = std::move(it->second);
        conns.erase(it);
    }
    queue.removeSession(sid);
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::shutdown(conn->fd, SHUT_RDWR);
    ::close(conn->fd);
    resumeListeners(std::chrono::milliseconds(0)); // a descriptor freed
    ServeObs &sobs = ServeObs::get();
    if (!conn->http)
        sobs.connections.sub(1);
    // Lines the session still had in flight will never be answered:
    // settle the gauge so a mid-batch disconnect cannot leak it.
    if (conn->busy > 0)
        sobs.inflight.sub(static_cast<std::int64_t>(conn->busy));
    MECH_LOG(Debug)
        << "mech_serve: client disconnected (session " << sid << ", "
        << conn->responses << " response(s))";
}

void
TcpServer::Impl::beginDrain()
{
    if (draining)
        return;
    draining = true;
    closeListeners();
    queue.stop();
}

void
TcpServer::Impl::sweepConns()
{
    // Close connections with nothing left to do: the peer is done
    // (or the server is draining), every admitted line has been
    // answered, and the answers have left the write buffer.
    std::vector<std::uint64_t> done;
    {
        std::lock_guard<std::mutex> lock(connMtx);
        for (auto &[sid, conn] : conns) {
            if (conn->broken ||
                ((conn->inputDone || draining) && conn->busy == 0 &&
                 conn->outbuf.empty())) {
                done.push_back(sid);
            }
        }
    }
    for (std::uint64_t sid : done)
        closeConn(sid);
}

void
TcpServer::Impl::drainWriteReady()
{
    std::lock_guard<std::mutex> lock(connMtx);
    std::vector<std::uint64_t> ready;
    ready.swap(writeReady);
    for (std::uint64_t sid : ready) {
        auto it = conns.find(sid);
        if (it != conns.end())
            flushConn(*it->second);
    }
}

void
TcpServer::Impl::ioLoop()
{
    using clock = std::chrono::steady_clock;
    bool holdActive = cfg.dispatchHoldMs > 0;
    bool holdStarted = false;
    clock::time_point holdStart;

    epoll_event events[64];
    for (;;) {
        int timeoutMs = 200;
        if (holdActive && holdStarted) {
            const auto left =
                std::chrono::milliseconds(cfg.dispatchHoldMs) -
                (clock::now() - holdStart);
            const int leftMs = static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    left)
                    .count());
            timeoutMs = std::max(0, std::min(timeoutMs, leftMs));
        }
        const int n = ::epoll_wait(epfd, events, 64, timeoutMs);
        if (n < 0 && errno != EINTR)
            break;

        if (!draining &&
            (g_terminate || stopRequested.load() ||
             drainAsked.load())) {
            beginDrain();
        }
        if (holdActive && holdStarted &&
            clock::now() - holdStart >=
                std::chrono::milliseconds(cfg.dispatchHoldMs)) {
            holdActive = false;
            queue.holdDispatch(false);
        }

        for (int i = 0; i < std::max(n, 0); ++i) {
            const std::uint64_t tag = events[i].data.u64;
            if (tag == kWakeTag) {
                std::uint64_t count;
                while (::read(wakeFd, &count, sizeof(count)) > 0) {
                }
                continue;
            }
            if (tag < kFirstConnTag) {
                if (!draining)
                    acceptClients(tag);
                if (tag == kListenerTag && holdActive && !holdStarted) {
                    holdStarted = true;
                    holdStart = clock::now();
                }
                continue;
            }
            Conn *conn = nullptr;
            {
                std::lock_guard<std::mutex> lock(connMtx);
                auto it = conns.find(tag);
                if (it != conns.end())
                    conn = it->second.get();
            }
            if (!conn)
                continue;
            // The I/O thread is the only closer, so the pointer stays
            // valid past the lock; input state is thread-private and
            // flushConn retakes the lock for the shared half.
            if (events[i].events & (EPOLLERR | EPOLLHUP))
                conn->broken = true;
            if (!conn->broken && (events[i].events & EPOLLIN))
                readConn(*conn);
            if (!conn->broken && (events[i].events & EPOLLOUT)) {
                std::lock_guard<std::mutex> lock(connMtx);
                flushConn(*conn);
            }
        }

        drainWriteReady();
        sweepConns();
        resumeListeners(kAcceptRetry);

        if (draining) {
            std::lock_guard<std::mutex> lock(connMtx);
            if (conns.empty() && queue.pending() == 0)
                break;
        }
    }
}

void
TcpServer::Impl::deliver(std::uint64_t sid, std::string bytes,
                         std::size_t consumed,
                         const ResponseWriter &writer, bool ended)
{
    obs::TraceSpan span("request.flush", "serve");
    std::size_t settled = 0;
    {
        std::lock_guard<std::mutex> lock(connMtx);
        auto it = conns.find(sid);
        if (it == conns.end())
            return; // session disconnected mid-batch
        Conn &conn = *it->second;
        conn.outbuf += bytes;
        settled = std::min(conn.busy, consumed);
        conn.busy -= settled;
        conn.responses += writer.written();
        conn.errors += writer.errorsWritten();
        if (ended)
            conn.ended = true;
        writeReady.push_back(sid);
    }
    if (settled > 0)
        ServeObs::get().inflight.sub(
            static_cast<std::int64_t>(settled));
    wake();
}

void
TcpServer::Impl::processBatch(const AdmissionQueue::Batch &batch)
{
    if (obs::TraceRecorder *rec = obs::TraceRecorder::current();
        rec && !batch.lines.empty()) {
        // Retrospective span: the time this batch's oldest line spent
        // queued before a dispatcher picked it up.
        const auto received = batch.lines.front().received;
        const double waited =
            std::max(0.0, microsSince(received));
        rec->complete("request.admit", "serve", rec->tsOf(received),
                      static_cast<std::uint64_t>(waited));
    }
    obs::TraceSpan dispatchSpan("request.dispatch", "serve");

    // A session says nothing after its own shutdown: lines it queued
    // behind it are dropped here, and deliver() still settles them.
    // At most one batch per session is in flight, so the previous
    // batch's deliver() has already recorded the shutdown.
    bool ended;
    {
        std::lock_guard<std::mutex> lock(connMtx);
        auto it = conns.find(batch.sid);
        ended = it != conns.end() && it->second->ended;
    }
    std::ostringstream out;
    ResponseWriter writer(out, opts.latencyFields);
    const bool shutdown =
        !ended && answerLines(service, batch.lines, writer);

    deliver(batch.sid, out.str(), batch.lines.size(), writer,
            shutdown);
    if (shutdown) {
        shutdownSeen.store(true);
        drainAsked.store(true);
        wake();
    }
}

void
TcpServer::Impl::dispatchLoop()
{
    AdmissionQueue::Batch batch;
    while (queue.nextBatch(&batch)) {
        processBatch(batch);
        queue.completed(batch.sid);
    }
}

TcpServer::TcpServer(EvalService &service, TcpServerConfig cfg,
                     std::ostream &log, SessionOptions opts)
    : impl(std::make_unique<Impl>(service, cfg, log, opts))
{
}

TcpServer::~TcpServer()
{
    if (impl->io.joinable()) {
        requestStop();
        wait();
    }
}

bool
TcpServer::start(std::string *error)
{
    return impl->start(error);
}

unsigned short
TcpServer::port() const
{
    return impl->listeners[kListenerTag].port;
}

unsigned short
TcpServer::metricsPort() const
{
    return impl->listeners[kMetricsListenerTag].port;
}

void
TcpServer::requestStop()
{
    impl->stopRequested.store(true);
    if (impl->wakeFd >= 0)
        impl->wake();
}

void
TcpServer::wait()
{
    if (impl->io.joinable())
        impl->io.join();
    // The I/O loop has fully drained: stop the queue (idempotent) and
    // collect the dispatchers.
    impl->queue.stop();
    for (std::thread &t : impl->dispatchers) {
        if (t.joinable())
            t.join();
    }
    closeFd(impl->epfd);
    closeFd(impl->wakeFd);
    impl->closeListeners();
}

bool
TcpServer::drainedByShutdown() const
{
    return impl->shutdownSeen.load();
}

int
runTcpServer(EvalService &service, const TcpServerConfig &cfg,
             std::ostream &log, const SessionOptions &opts)
{
    installSignalHandlers();

    TcpServer server(service, cfg, log, opts);
    std::string error;
    if (!server.start(&error)) {
        log << "mech_serve: " << error << "\n";
        return 1;
    }
    server.wait();

    const ServiceStats svc = service.stats();
    log << "mech_serve: "
        << (server.drainedByShutdown() ? "drained" : "terminated")
        << "; cache " << svc.hits << "/" << svc.requested
        << " hits across " << svc.groups << " group(s)\n";
    return 0;
}

} // namespace mech::serve
