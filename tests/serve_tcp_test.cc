/**
 * @file
 * Tests for the concurrent serve front end: AdmissionQueue bounds and
 * fairness, the in-process epoll TcpServer (pipelining, dispatcher
 * byte-identity, concurrent sessions and dispatchers, overload
 * shedding, graceful drain), byte-identity with the stdio session,
 * the warm-cache restart path, and frontierResponse equivalence
 * between the in-process batch path and a mech_shard-style
 * scatter-gather.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/json.hh"
#include "eval/registry.hh"
#include "obs/registry.hh"
#include "search/space_spec.hh"
#include "serve/admission.hh"
#include "serve/protocol.hh"
#include "serve/serve_obs.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/shard.hh"
#include "test_util.hh"

namespace mech::serve {
namespace {

constexpr InstCount kTraceLen = 10000;

ServeConfig
testConfig(unsigned threads = 1)
{
    ServeConfig cfg;
    cfg.traceLen = kTraceLen;
    cfg.threads = threads;
    cfg.defaultBench = {"jpeg_c"};
    return cfg;
}

QueuedLine
line(const std::string &text)
{
    return QueuedLine{text, std::chrono::steady_clock::now()};
}

std::string
evalLine(int id, const DesignPoint &point)
{
    return "{\"id\": " + std::to_string(id) +
           ", \"type\": \"eval\", \"point\": \"" + point.toKey() +
           "\"}";
}

// ---------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------

TEST(Admission, GlobalQueueBoundSheds)
{
    AdmissionConfig cfg;
    cfg.maxQueue = 3;
    cfg.maxInflight = 100;
    AdmissionQueue q(cfg);
    q.addSession(1);
    EXPECT_TRUE(q.offer(1, line("a")));
    EXPECT_TRUE(q.offer(1, line("b")));
    EXPECT_TRUE(q.offer(1, line("c")));
    EXPECT_FALSE(q.offer(1, line("d"))) << "queue bound ignored";
    EXPECT_EQ(q.pending(), 3u);
}

TEST(Admission, PerSessionBoundLeavesRoomForOthers)
{
    AdmissionConfig cfg;
    cfg.maxQueue = 100;
    cfg.maxInflight = 2;
    AdmissionQueue q(cfg);
    q.addSession(1);
    q.addSession(2);
    EXPECT_TRUE(q.offer(1, line("a")));
    EXPECT_TRUE(q.offer(1, line("b")));
    EXPECT_FALSE(q.offer(1, line("c"))) << "session bound ignored";
    EXPECT_TRUE(q.offer(2, line("x")))
        << "one greedy session starved another";
}

TEST(Admission, ForceBypassesBoundsButNotStop)
{
    AdmissionConfig cfg;
    cfg.maxQueue = 1;
    AdmissionQueue q(cfg);
    q.addSession(1);
    EXPECT_TRUE(q.offer(1, line("a")));
    EXPECT_FALSE(q.offer(1, line("b")));
    EXPECT_TRUE(q.force(1, line("stats"))) << "control line shed";
    q.stop();
    EXPECT_FALSE(q.force(1, line("late")))
        << "force admitted after stop";
    EXPECT_FALSE(q.offer(1, line("late")));
}

TEST(Admission, RoundRobinAcrossSessions)
{
    AdmissionConfig cfg;
    cfg.maxBatch = 1;
    AdmissionQueue q(cfg);
    q.addSession(1);
    q.addSession(2);
    ASSERT_TRUE(q.offer(1, line("a1")));
    ASSERT_TRUE(q.offer(1, line("a2")));
    ASSERT_TRUE(q.offer(2, line("b1")));
    ASSERT_TRUE(q.offer(2, line("b2")));

    // Session 1 armed first, but after its batch completes session 2
    // goes next — a deep session cannot monopolize the dispatchers.
    std::vector<std::uint64_t> order;
    AdmissionQueue::Batch batch;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.nextBatch(&batch));
        order.push_back(batch.sid);
        ASSERT_EQ(batch.lines.size(), 1u);
        q.completed(batch.sid);
    }
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 1, 2}));
    EXPECT_EQ(q.pending(), 0u);
}

TEST(Admission, OneBatchInFlightPerSession)
{
    AdmissionConfig cfg;
    cfg.maxBatch = 2;
    AdmissionQueue q(cfg);
    q.addSession(1);
    for (int i = 0; i < 5; ++i) {
        std::string text = "l";
        text += std::to_string(i);
        ASSERT_TRUE(q.offer(1, line(text)));
    }

    AdmissionQueue::Batch batch;
    ASSERT_TRUE(q.nextBatch(&batch));
    EXPECT_EQ(batch.lines.size(), 2u);

    // With the session's only batch in flight nothing is dispatchable:
    // a second nextBatch() must block until completed() re-arms it.
    std::atomic<bool> got{false};
    std::thread waiter([&] {
        AdmissionQueue::Batch next;
        if (q.nextBatch(&next))
            got.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(got.load())
        << "two batches of one session in flight at once";
    q.completed(1);
    waiter.join();
    EXPECT_TRUE(got.load());
}

TEST(Admission, StopDrainsAdmittedLinesThenReleases)
{
    AdmissionConfig cfg;
    cfg.maxBatch = 64;
    AdmissionQueue q(cfg);
    q.addSession(1);
    ASSERT_TRUE(q.offer(1, line("a")));
    ASSERT_TRUE(q.offer(1, line("b")));
    q.stop();

    AdmissionQueue::Batch batch;
    ASSERT_TRUE(q.nextBatch(&batch)) << "admitted lines dropped";
    EXPECT_EQ(batch.lines.size(), 2u);
    q.completed(1);
    EXPECT_FALSE(q.nextBatch(&batch)) << "drained queue still blocks";
}

TEST(Admission, HoldFreezesDispatchUntilReleased)
{
    AdmissionQueue q({});
    q.addSession(1);
    q.holdDispatch(true);
    ASSERT_TRUE(q.offer(1, line("a")));

    std::atomic<bool> got{false};
    std::thread waiter([&] {
        AdmissionQueue::Batch batch;
        if (q.nextBatch(&batch))
            got.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(got.load()) << "hold did not freeze dispatch";
    q.holdDispatch(false);
    waiter.join();
    EXPECT_TRUE(got.load());
}

// ---------------------------------------------------------------------
// TcpServer (in-process, ephemeral port)
// ---------------------------------------------------------------------

/** Connect the blocking socket @p fd to 127.0.0.1:@p port. */
bool
connectTo(int fd, unsigned short port)
{
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    const auto *sa = reinterpret_cast<const sockaddr *>(&addr);
    return ::connect(fd, sa, sizeof(addr)) == 0;
}

/** A blocking client socket connected to 127.0.0.1:@p port, or -1. */
int
connectLoopback(unsigned short port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0 && !connectTo(fd, port)) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Write all of @p bytes to @p fd; false once the peer is gone. */
bool
sendAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t put =
            ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(put);
    }
    return true;
}

/** One line from @p fd, without its newline; empty once the peer
 *  is gone.  Reads a byte at a time, so nothing past the line is
 *  consumed. */
std::string
readLine(int fd)
{
    std::string text;
    char c;
    for (;;) {
        const ssize_t got = ::recv(fd, &c, 1, 0);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0 || c == '\n')
            return text;
        text += c;
    }
}

/** A started server + the service behind it, torn down in order. */
struct ServerFixture
{
    explicit ServerFixture(TcpServerConfig tcp = {},
                           ServeConfig cfg = testConfig())
        : service(cfg), server(service, tcp, log, sessionOpts())
    {
        std::string error;
        if (!server.start(&error))
            ADD_FAILURE() << "server start failed: " << error;
    }

    static SessionOptions
    sessionOpts()
    {
        SessionOptions opts;
        opts.latencyFields = false;
        return opts;
    }

    ~ServerFixture()
    {
        server.requestStop();
        server.wait();
    }

    std::ostringstream log;
    EvalService service;
    TcpServer server;
};

std::vector<std::string>
runClient(unsigned short port, const std::vector<std::string> &lines,
          std::size_t window = 64)
{
    LoopbackClient client;
    std::vector<std::string> responses;
    std::string error;
    EXPECT_TRUE(client.connect(port, &error)) << error;
    EXPECT_TRUE(client.run(lines, &responses, &error, window))
        << error;
    return responses;
}

TEST(ServeTcp, PipelinedSessionAnswersInOrder)
{
    ServerFixture fx;
    SpaceSpec spec = SpaceSpec::table2();
    std::vector<std::string> lines;
    for (int i = 0; i < 40; ++i)
        lines.push_back(evalLine(i, spec.at(i % spec.size())));

    const auto responses = runClient(fx.server.port(), lines, 8);
    ASSERT_EQ(responses.size(), lines.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
        std::string error;
        auto v = json::parse(responses[i], &error);
        ASSERT_TRUE(v) << error;
        EXPECT_EQ(v->get("id")->asU64(), i);
        EXPECT_EQ(v->get("type")->string, "result");
    }
}

TEST(ServeTcp, ResponsesByteIdenticalAcrossDispatcherCounts)
{
    SpaceSpec spec = SpaceSpec::table2();
    std::vector<std::string> lines;
    for (int i = 0; i < 32; ++i)
        lines.push_back(evalLine(i, spec.at(i % spec.size())));

    std::vector<std::vector<std::string>> runs;
    for (unsigned dispatchers : {1u, 4u}) {
        TcpServerConfig tcp;
        tcp.dispatchers = dispatchers;
        ServerFixture fx(tcp, testConfig(2));
        runs.push_back(runClient(fx.server.port(), lines));
    }
    EXPECT_EQ(runs[0], runs[1]);
}

TEST(ServeTcp, ConcurrentSessionsAllComplete)
{
    TcpServerConfig tcp;
    tcp.dispatchers = 4;
    ServerFixture fx(tcp, testConfig(2));
    SpaceSpec spec = SpaceSpec::table2();

    constexpr int kClients = 8;
    constexpr int kPerClient = 16;
    std::vector<std::thread> clients;
    std::atomic<int> bad{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::vector<std::string> lines;
            for (int i = 0; i < kPerClient; ++i) {
                lines.push_back(evalLine(
                    c * kPerClient + i,
                    spec.at((c * kPerClient + i) % spec.size())));
            }
            LoopbackClient client;
            std::vector<std::string> responses;
            std::string error;
            if (!client.connect(fx.server.port(), &error) ||
                !client.run(lines, &responses, &error) ||
                responses.size() != lines.size()) {
                bad.fetch_add(1);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(bad.load(), 0);

    // 256 sessions open at once: one thread opens every connection
    // before sending anything, then sends one eval on each, and every
    // connection must be answered.  A receive timeout turns a session
    // left unanswered into a failure instead of a hang.
    constexpr int kSessions = 256;
    const timeval patience{30, 0};
    std::vector<int> fds;
    for (int c = 0; c < kSessions; ++c) {
        const int fd = connectLoopback(fx.server.port());
        if (fd < 0) {
            ADD_FAILURE() << "connection " << c << " failed";
            break;
        }
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &patience,
                     sizeof(patience));
        fds.push_back(fd);
    }
    for (std::size_t c = 0; c < fds.size(); ++c) {
        const int id = 1000 + static_cast<int>(c);
        EXPECT_TRUE(sendAll(fds[c], evalLine(id, spec.at(c % spec.size())) +
                                        "\n"));
    }
    for (std::size_t c = 0; c < fds.size(); ++c) {
        const std::string reply = readLine(fds[c]);
        ::close(fds[c]);
        const std::string id = std::to_string(1000 + c);
        EXPECT_NE(reply.find("\"id\": " + id + ","), std::string::npos)
            << "session " << c << " answered: " << reply;
        EXPECT_NE(reply.find("\"type\": \"result\""), std::string::npos)
            << "session " << c << " answered: " << reply;
    }
}

TEST(ServeTcp, DispatchersEvaluateSessionsConcurrently)
{
    // Four dispatchers must evaluate four sessions at once.  Inline
    // evaluation (threads = 1) runs each batch on its dispatcher
    // thread, and every point sits at the profiled L2 geometry, so
    // prepare() takes no exclusive study lock.  The rendezvous
    // backend holds each evaluation until all four are in flight; a
    // front end that serializes sessions reaches 1 and fails after
    // the bound.
    BackendRegistry &reg = BackendRegistry::global();
    if (!reg.find("rendezvous")) {
        reg.registerBackend(
            std::make_unique<test::RendezvousBackend>("rendezvous", 4));
    }
    const auto &rendezvous =
        dynamic_cast<const test::RendezvousBackend &>(reg.at("rendezvous"));

    TcpServerConfig tcp;
    tcp.dispatchers = 4;
    ServerFixture fx(tcp, testConfig(1));
    std::vector<std::thread> sessions;
    std::vector<std::vector<std::string>> answers(4);
    for (unsigned s = 0; s < 4; ++s) {
        sessions.emplace_back([&, s] {
            DesignPoint point = defaultDesignPoint();
            point.width = s + 1;
            std::string line = evalLine(static_cast<int>(s), point);
            line.insert(line.size() - 1, ", \"backends\": [\"rendezvous\"]");
            answers[s] = runClient(fx.server.port(), {line});
        });
    }
    for (auto &t : sessions)
        t.join();
    for (const auto &answer : answers) {
        ASSERT_EQ(answer.size(), 1u);
        EXPECT_NE(answer[0].find("\"type\": \"result\""), std::string::npos)
            << answer[0];
    }
    EXPECT_GE(rendezvous.peak(), 4u)
        << "the dispatchers never had 4 evaluations in flight";
}

TEST(ServeTcp, OverloadShedsStructuredErrorsOnly)
{
    TcpServerConfig tcp;
    tcp.maxQueue = 4;
    tcp.maxInflight = 4;
    tcp.dispatchHoldMs = 400;
    ServerFixture fx(tcp);
    SpaceSpec spec = SpaceSpec::table2();

    std::vector<std::string> lines;
    for (int i = 0; i < 12; ++i)
        lines.push_back(evalLine(i, spec.at(i % spec.size())));

    LoopbackClient client;
    std::vector<std::string> responses;
    std::string error;
    ASSERT_TRUE(client.connect(fx.server.port(), &error)) << error;
    ASSERT_TRUE(client.flood(lines, &responses, &error)) << error;

    // Every request line got exactly one well-formed response: the
    // four admitted before the held queue filled evaluate, the rest
    // come back as structured overloaded errors — nothing dropped,
    // nothing corrupted.
    ASSERT_EQ(responses.size(), lines.size());
    int results = 0, overloaded = 0;
    for (const std::string &r : responses) {
        auto v = json::parse(r, &error);
        ASSERT_TRUE(v) << error << ": " << r;
        const std::string type = v->get("type")->string;
        if (type == "result") {
            ++results;
        } else {
            ASSERT_EQ(type, "error");
            ASSERT_NE(v->get("code"), nullptr);
            EXPECT_EQ(v->get("code")->string, kOverloadedCode);
            ++overloaded;
        }
    }
    EXPECT_EQ(results, 4);
    EXPECT_EQ(overloaded, 8);
}

TEST(ServeTcp, ShutdownRequestDrainsGracefully)
{
    SpaceSpec spec = SpaceSpec::table2();
    std::ostringstream log;
    EvalService service(testConfig());
    TcpServer server(service, {}, log, ServerFixture::sessionOpts());
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    std::vector<std::string> lines = {
        evalLine(1, spec.at(0)),
        evalLine(2, spec.at(1)),
        "{\"id\": 3, \"type\": \"shutdown\"}",
    };
    const auto responses = runClient(server.port(), lines);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_NE(responses[2].find("\"type\": \"bye\""),
              std::string::npos);

    server.wait(); // the shutdown request alone must end the server
    EXPECT_TRUE(server.drainedByShutdown());
}

TEST(ServeTcp, LinesAfterShutdownAreNeverAnswered)
{
    // One client write: shutdown, then four evals behind it.  Whatever
    // admission batch the shutdown lands in, only the bye is answered.
    SpaceSpec spec = SpaceSpec::table2();
    std::vector<std::string> lines = {"{\"id\": 0, \"type\": \"shutdown\"}"};
    for (int i = 1; i <= 4; ++i)
        lines.push_back(evalLine(i, spec.at(i)));

    for (std::size_t max_batch : {std::size_t{1}, std::size_t{64}}) {
        const std::int64_t inflight0 = ServeObs::get().inflight.value();
        std::ostringstream log;
        EvalService service(testConfig());
        SessionOptions opts = ServerFixture::sessionOpts();
        opts.maxBatch = max_batch;
        TcpServer server(service, {}, log, opts);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        LoopbackClient client;
        std::vector<std::string> responses;
        ASSERT_TRUE(client.connect(server.port(), &error)) << error;
        ASSERT_TRUE(client.flood(lines, &responses, &error)) << error;
        // The drain only completes once every admitted line, answered
        // or dropped, has been settled.
        server.wait();

        ASSERT_EQ(responses.size(), 1u) << "max_batch " << max_batch;
        EXPECT_NE(responses[0].find("\"type\": \"bye\""),
                  std::string::npos);
        EXPECT_EQ(service.stats().requested, 0u)
            << "a line after the shutdown was evaluated";
        EXPECT_EQ(ServeObs::get().inflight.value(), inflight0);
    }
}

// ---------------------------------------------------------------------
// Stdio / TCP parity
// ---------------------------------------------------------------------

/** A mixed session: data, garbage, blanks, control, final shutdown. */
std::vector<std::string>
mixedSession()
{
    SpaceSpec spec = SpaceSpec::table2();
    std::vector<std::string> lines;
    for (int i = 0; i < 6; ++i)
        lines.push_back(evalLine(i, spec.at((i * 7) % spec.size())));
    lines.push_back("{\"id\": 100, \"type\": \"batch\", "
                    "\"space\": \"l2kb=128,256;width=1,4\"}");
    lines.push_back("{\"id\": 101, \"type\": \"eval\", \"point\": ");
    lines.push_back("");
    lines.push_back("  \t");
    std::string huge = "{\"id\": 102, \"pad\": \"";
    huge.append(kMaxRequestBytes + 16, 'x');
    huge += "\"}";
    lines.push_back(huge);
    lines.push_back("{\"id\": 103, \"type\": \"info\"}");
    for (int i = 6; i < 12; ++i)
        lines.push_back(evalLine(i, spec.at((i * 7) % spec.size())));
    lines.push_back("{\"id\": 104, \"type\": \"stats\"}");
    lines.push_back(evalLine(12, spec.at(0))); // a repeat: cached
    lines.push_back("not json at all");
    lines.push_back("{\"id\": 105, \"type\": \"batch\", "
                    "\"space\": \"width=2,3\"}");
    lines.push_back("");
    lines.push_back("{\"id\": 106, \"type\": \"shutdown\"}");
    return lines;
}

TEST(ServeParity, StdioAndTcpAnswerOneStreamByteIdentically)
{
    const std::vector<std::string> lines = mixedSession();
    std::string text;
    for (const std::string &l : lines)
        text += l + "\n";

    for (std::size_t max_batch : {std::size_t{1}, std::size_t{64}}) {
        SessionOptions opts = ServerFixture::sessionOpts();
        opts.maxBatch = max_batch;

        EvalService stdio_service(testConfig());
        std::istringstream in(text);
        std::ostringstream out;
        IstreamLineSource source(in);
        ServerSession(stdio_service, source, out, opts).run();
        std::vector<std::string> stdio;
        std::istringstream split(out.str());
        for (std::string l; std::getline(split, l);)
            stdio.push_back(l);
        ASSERT_EQ(stdio.size(), 21u) << "max_batch " << max_batch;

        for (unsigned dispatchers : {1u, 4u}) {
            std::ostringstream log;
            EvalService service(testConfig());
            TcpServerConfig tcp;
            tcp.dispatchers = dispatchers;
            TcpServer server(service, tcp, log, opts);
            std::string error;
            ASSERT_TRUE(server.start(&error)) << error;
            LoopbackClient client;
            std::vector<std::string> tcp_lines;
            ASSERT_TRUE(client.connect(server.port(), &error)) << error;
            ASSERT_TRUE(client.flood(lines, &tcp_lines, &error)) << error;
            server.wait();
            EXPECT_EQ(tcp_lines, stdio)
                << "max_batch " << max_batch << ", " << dispatchers
                << " dispatcher(s)";
        }
    }
}

// ---------------------------------------------------------------------
// Warm cache across a service restart
// ---------------------------------------------------------------------

TEST(ServeTcp, WarmCacheRestartServesFromSpill)
{
    const std::string dir = ::testing::TempDir() + "serve_warm_cache";
    SpaceSpec spec = SpaceSpec::table2();
    std::vector<std::string> lines;
    for (int i = 0; i < 12; ++i)
        lines.push_back(evalLine(i, spec.at(i)));

    std::vector<std::string> cold, warm;
    {
        ServeConfig cfg = testConfig();
        cfg.cacheDir = dir;
        ServerFixture fx({}, cfg);
        cold = runClient(fx.server.port(), lines);
        EXPECT_EQ(fx.service.persistCaches(nullptr), 1u);
    }
    {
        ServeConfig cfg = testConfig();
        cfg.cacheDir = dir;
        ServerFixture fx({}, cfg);
        warm = runClient(fx.server.port(), lines);

        const ServiceStats stats = fx.service.stats();
        EXPECT_EQ(stats.restored, 12u);
        EXPECT_EQ(stats.hits, 12u) << "restart did not hit the spill";
        EXPECT_EQ(stats.misses, 0u);
    }

    // Responses differ only in the cached flag — the values and
    // formatting must be byte-identical to the cold run.
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        std::string c = cold[i], w = warm[i];
        const auto strip = [](std::string &s) {
            const std::size_t at = s.find("\"cached\": ");
            if (at != std::string::npos)
                s.erase(at, s.find(',', at) + 2 - at);
        };
        strip(c);
        strip(w);
        EXPECT_EQ(c, w);
    }
}

// ---------------------------------------------------------------------
// Metrics endpoint (HTTP/1.0 Prometheus exposition)
// ---------------------------------------------------------------------

/** Everything @p fd receives until the peer closes; closes @p fd. */
std::string
readUntilClose(int fd)
{
    std::string response;
    for (;;) {
        char chunk[1 << 14];
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            break;
        response.append(chunk, static_cast<std::size_t>(got));
    }
    ::close(fd);
    return response;
}

/** One blocking HTTP/1.0 GET against 127.0.0.1:@p port. */
std::string
httpGet(unsigned short port, const std::string &path)
{
    const int fd = connectLoopback(port);
    if (fd < 0)
        return "";
    const std::string request =
        "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    if (!sendAll(fd, request)) {
        ::close(fd);
        return "";
    }
    return readUntilClose(fd);
}

/** Occurrences of @p needle in @p hay. */
std::size_t
countOf(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    std::size_t at = hay.find(needle);
    while (at != std::string::npos) {
        ++n;
        at = hay.find(needle, at + needle.size());
    }
    return n;
}

/** The value of the unlabelled sample @p series in an exposition, or
 *  -1 when the series is missing. */
long long
sampleValue(const std::string &exposition, const std::string &series)
{
    const std::string head = "\n" + series + " ";
    const std::size_t at = exposition.find(head);
    if (at == std::string::npos)
        return -1;
    return std::stoll(exposition.substr(at + head.size()));
}

TEST(ServeTcp, MetricsEndpointServesValidExposition)
{
    TcpServerConfig tcp;
    tcp.metricsPort = 0; // ephemeral
    ServerFixture fx(tcp);
    ASSERT_GT(fx.server.metricsPort(), 0);

    // A scrape works before any traffic has arrived...
    const std::string cold =
        httpGet(static_cast<unsigned short>(fx.server.metricsPort()),
                "/metrics");
    EXPECT_NE(cold.find("HTTP/1.0 200 OK"), std::string::npos);

    // ...and after traffic the serve series carry samples.
    SpaceSpec spec = SpaceSpec::table2();
    std::vector<std::string> lines;
    for (int i = 0; i < 8; ++i)
        lines.push_back(evalLine(i, spec.at(i % spec.size())));
    runClient(fx.server.port(), lines);

    const std::string response =
        httpGet(static_cast<unsigned short>(fx.server.metricsPort()),
                "/metrics");
    ASSERT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(response.find("Content-Type: text/plain"),
              std::string::npos);
    const std::size_t split = response.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    const std::string body = response.substr(split + 4);

    std::string error;
    EXPECT_TRUE(obs::validateExposition(body, &error)) << error;
    for (const char *series :
         {"mech_serve_latency_result_bucket", "mech_serve_connections",
          "mech_serve_bytes_in", "mech_serve_shed",
          "mech_admission_queue_depth", "mech_admission_admitted",
          "mech_evalcache_hits", "mech_evalcache_misses"}) {
        EXPECT_NE(body.find(series), std::string::npos)
            << "missing series " << series;
    }
}

TEST(ServeTcp, MetricsEndpointRejectsUnknownPath)
{
    TcpServerConfig tcp;
    tcp.metricsPort = 0;
    ServerFixture fx(tcp);
    ASSERT_GT(fx.server.metricsPort(), 0);

    const std::string response =
        httpGet(static_cast<unsigned short>(fx.server.metricsPort()),
                "/nope");
    EXPECT_NE(response.find("HTTP/1.0 404 Not Found"),
              std::string::npos);

    // NDJSON sessions are unaffected by metrics traffic.
    SpaceSpec spec = SpaceSpec::table2();
    const auto responses =
        runClient(fx.server.port(), {evalLine(1, spec.at(0))});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_NE(responses[0].find("\"type\": \"result\""),
              std::string::npos);
}

TEST(ServeTcp, MetricsRequestSplitAcrossSendsIsAnsweredOnce)
{
    TcpServerConfig tcp;
    tcp.metricsPort = 0;
    ServerFixture fx(tcp);
    const int fd = connectLoopback(fx.server.metricsPort());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, "GET /metrics HTTP/1.0\r\n"));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(sendAll(fd, "Host: localhost\r\n\r\n"));
    const std::string response = readUntilClose(fd);
    EXPECT_EQ(countOf(response, "HTTP/1.0 "), 1u) << response;
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
}

TEST(ServeTcp, MetricsRequestEndedByHalfCloseIsAnswered)
{
    TcpServerConfig tcp;
    tcp.metricsPort = 0;
    ServerFixture fx(tcp);
    const int fd = connectLoopback(fx.server.metricsPort());
    ASSERT_GE(fd, 0);
    // No blank line: end of input completes the request.
    ASSERT_TRUE(sendAll(fd, "GET /metrics HTTP/1.0\r\n"));
    ::shutdown(fd, SHUT_WR);
    const std::string response = readUntilClose(fd);
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
}

TEST(ServeTcp, MetricsRequestOverCapIsClosedUnanswered)
{
    TcpServerConfig tcp;
    tcp.metricsPort = 0;
    ServerFixture fx(tcp);
    const int fd = connectLoopback(fx.server.metricsPort());
    ASSERT_GE(fd, 0);
    // 70 KiB with no terminator: the server may close mid-send, so the
    // send result is not checked.
    sendAll(fd, std::string(70 * 1024, 'a'));
    EXPECT_EQ(readUntilClose(fd), "");

    // The endpoint still serves the next scrape.
    const std::string next = httpGet(fx.server.metricsPort(), "/metrics");
    EXPECT_EQ(next.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
}

TEST(ServeTcp, MetricsScrapesMoveNoConnectionOrByteSeries)
{
    // ctest runs each case in a fresh process, where these read 0.
    const ServeObs &sobs = ServeObs::get();
    const long long connections = sobs.connections.value();
    const auto bytesIn = static_cast<long long>(sobs.bytesIn.value());
    const auto bytesOut = static_cast<long long>(sobs.bytesOut.value());

    TcpServerConfig tcp;
    tcp.metricsPort = 0;
    ServerFixture fx(tcp);
    for (int scrape = 0; scrape < 2; ++scrape) {
        const std::string m = httpGet(fx.server.metricsPort(), "/metrics");
        ASSERT_EQ(m.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
        EXPECT_EQ(sampleValue(m, "mech_serve_connections"), connections);
        EXPECT_EQ(sampleValue(m, "mech_serve_bytes_in"), bytesIn);
        EXPECT_EQ(sampleValue(m, "mech_serve_bytes_out"), bytesOut);
    }
}

TEST(ServeTcp, HalfSentScrapeDoesNotHoldUpDrain)
{
    TcpServerConfig tcp;
    tcp.metricsPort = 0;
    ServerFixture fx(tcp);
    const int fd = connectLoopback(fx.server.metricsPort());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, "GET /metr"));

    const std::string shutdownLine = "{\"id\": 1, \"type\": \"shutdown\"}";
    const auto responses = runClient(fx.server.port(), {shutdownLine});
    ASSERT_EQ(responses.size(), 1u);

    std::atomic<bool> returned{false};
    std::thread waiter([&] {
        fx.server.wait();
        returned.store(true);
    });
    for (int i = 0; i < 100 && !returned.load(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(returned.load())
        << "wait() still blocked 5 s after the shutdown";
    // Releases a server stuck on the half-sent scrape, so a failure
    // ends the test instead of hanging it.
    ::close(fd);
    waiter.join();
    EXPECT_TRUE(fx.server.drainedByShutdown());
}

/** CPU time this process has used, user and system, in seconds. */
double
processCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

TEST(ServeTcp, HalfClosedSessionDoesNotSpinWhileAnswerPending)
{
    // The held dispatcher keeps the answer pending while the peer has
    // already half-closed: a level-triggered EOF left armed would keep
    // the I/O thread returning from epoll_wait to a recv() of 0.
    TcpServerConfig tcp;
    tcp.dispatchHoldMs = 1500;
    ServerFixture fx(tcp);
    const int fd = connectLoopback(fx.server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, evalLine(3, defaultDesignPoint()) + "\n"));
    ::shutdown(fd, SHUT_WR);

    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto wall0 = std::chrono::steady_clock::now();
    const double cpu0 = processCpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    const double cpu = processCpuSeconds() - cpu0;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
    EXPECT_LT(cpu, 0.25 * wall)
        << cpu << " s of CPU over " << wall << " s of held dispatch";

    const std::string response = readUntilClose(fd);
    EXPECT_NE(response.find("\"id\": 3"), std::string::npos) << response;
    EXPECT_NE(response.find("\"type\": \"result\""), std::string::npos)
        << response;
}

/** Lowers the soft descriptor limit and restores it on every exit. */
struct FdLimitGuard
{
    rlimit saved{};
    bool ok = ::getrlimit(RLIMIT_NOFILE, &saved) == 0;

    ~FdLimitGuard() { restore(); }

    bool
    lower(rlim_t soft)
    {
        rlimit lowered = saved;
        lowered.rlim_cur = soft;
        return ok && ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
    }

    void
    restore()
    {
        if (ok)
            ::setrlimit(RLIMIT_NOFILE, &saved);
    }
};

/** Poll @p done every 10 ms for up to 5 s. */
template <typename Pred>
bool
eventually(Pred done)
{
    for (int i = 0; i < 500; ++i) {
        if (done())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return done();
}

TEST(ServeTcp, AcceptOutOfDescriptorsPausesListenerInsteadOfSpinning)
{
    TcpServerConfig tcp;
    tcp.metricsPort = 0;
    ServerFixture fx(tcp);
    const ServeObs &sobs = ServeObs::get();

    // One accepted session, closed later to free a descriptor.
    const std::int64_t connections0 = sobs.connections.value();
    const int held = connectLoopback(fx.server.port());
    ASSERT_GE(held, 0);
    const auto accepted = [&] {
        return sobs.connections.value() == connections0 + 1;
    };
    ASSERT_TRUE(eventually(accepted));

    // The waiting client's socket exists before the limit drops to the
    // lowest free descriptor, so connect() still works but the
    // server's accept4() gets EMFILE.
    const int waiting = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(waiting, 0);
    const int lowestFree = ::dup(waiting);
    ASSERT_GE(lowestFree, 0);
    ::close(lowestFree);
    FdLimitGuard limit;
    const std::uint64_t errors0 = sobs.acceptErrors.value();
    ASSERT_TRUE(limit.lower(static_cast<rlim_t>(lowestFree)));
    ASSERT_TRUE(connectTo(waiting, fx.server.port()));
    const auto failed = [&] { return sobs.acceptErrors.value() > errors0; };
    ASSERT_TRUE(eventually(failed)) << "the server's accept4() never failed";

    // A level-triggered listener retrying at once fails thousands of
    // times here; a paused one retries only on its tick.
    const std::uint64_t errors1 = sobs.acceptErrors.value();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    EXPECT_LE(sobs.acceptErrors.value() - errors1, 10u);

    // A closed session frees a descriptor: the waiting one is served.
    ASSERT_TRUE(sendAll(waiting, "{\"id\": 7, \"type\": \"info\"}\n"));
    ::close(held);
    limit.restore();
    timeval timeout{10, 0};
    ::setsockopt(waiting, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::string response;
    char c = 0;
    while (response.find('\n') == std::string::npos &&
           ::recv(waiting, &c, 1, 0) == 1)
        response += c;
    ::close(waiting);
    EXPECT_NE(response.find("\"id\": 7"), std::string::npos) << response;

    const std::string scrape = httpGet(fx.server.metricsPort(), "/metrics");
    const auto minErrors = static_cast<long long>(errors1);
    EXPECT_GE(sampleValue(scrape, "mech_serve_accept_errors"), minErrors);
}

// ---------------------------------------------------------------------
// Scatter-gather equivalence
// ---------------------------------------------------------------------

TEST(ServeShard, ShardOfPartitionsStably)
{
    SpaceSpec spec = SpaceSpec::table2();
    std::set<std::size_t> used;
    for (std::uint64_t i = 0; i < spec.size(); ++i) {
        const std::size_t shard = shardOf(spec.at(i), 3);
        EXPECT_LT(shard, 3u);
        EXPECT_EQ(shard, shardOf(spec.at(i), 3)) << "unstable hash";
        used.insert(shard);
    }
    EXPECT_EQ(used.size(), 3u)
        << "192 points land on fewer than 3 of 3 shards";
    EXPECT_EQ(shardOf(spec.at(0), 1), 0u);
}

TEST(ServeShard, GatheredFrontierMatchesBatchBytes)
{
    // The single-server reference: one batch request over the space.
    const std::string space = "l2kb=128,256;width=1:4";
    EvalService single(testConfig());
    std::vector<std::string> batchBodies = single.handleFlush(
        [&] {
            ParseOutcome outcome = parseRequest(
                "{\"type\": \"batch\", \"space\": \"" + space +
                "\", \"objectives\": \"energy,delay\"}");
            EXPECT_TRUE(outcome.ok()) << outcome.error;
            return std::vector<ServeRequest>{*outcome.request};
        }());
    ASSERT_EQ(batchBodies.size(), 1u);
    const std::string reference = batchBodies[0];

    // The sharded path: every point evaluated as a single request
    // against one of two independent servers, gathered by hash.
    TcpServerConfig tcp;
    ServeConfig cfg = testConfig();
    ServerFixture shard0(tcp, cfg);
    ServerFixture shard1(tcp, cfg);
    const unsigned short ports[2] = {shard0.server.port(),
                                     shard1.server.port()};

    auto spec = SpaceSpec::tryParse(space, nullptr);
    ASSERT_TRUE(spec);
    const std::vector<Objective> objectives =
        parseObjectives("energy,delay");

    std::vector<FrontierEntry> entries(spec->size());
    GatherCounts counts;
    counts.requested = spec->size();
    std::vector<std::vector<std::string>> perShard(2);
    std::vector<std::vector<std::uint64_t>> perShardIdx(2);
    for (std::uint64_t i = 0; i < spec->size(); ++i) {
        const DesignPoint point = spec->at(i);
        const std::size_t s = shardOf(point, 2);
        perShard[s].push_back(
            "{\"id\": " + std::to_string(i) +
            ", \"type\": \"eval\", \"point\": \"" + point.toKey() +
            "\", \"objectives\": \"energy,delay\"}");
        perShardIdx[s].push_back(i);
    }
    for (std::size_t s = 0; s < 2; ++s) {
        ASSERT_FALSE(perShard[s].empty())
            << "shard " << s << " owns no points";
        const auto responses = runClient(ports[s], perShard[s]);
        ASSERT_EQ(responses.size(), perShard[s].size());
        for (std::size_t r = 0; r < responses.size(); ++r) {
            std::string error;
            auto v = json::parse(responses[r], &error);
            ASSERT_TRUE(v) << error;
            ASSERT_EQ(v->get("type")->string, "result");
            const std::uint64_t idx = *v->get("id")->asU64();
            const DesignPoint point = spec->at(idx);
            FrontierEntry &entry = entries[idx];
            entry.pointKey = point.toKey();
            entry.label = point.label();
            const json::Value *objs =
                v->get("results")->get("model")->get("objectives");
            for (const Objective &obj : objectives)
                entry.objectives.push_back(
                    objs->get(obj.name)->number);
            if (v->get("cached")->boolean)
                ++counts.hits;
            else
                ++counts.misses;
        }
    }

    const std::string gathered = frontierResponse(
        "", spec->describe(), spec->size(), "model", objectives,
        {"jpeg_c"}, entries, counts);
    EXPECT_EQ(gathered, reference)
        << "scatter-gather drifted from the single-server batch";
}

} // namespace
} // namespace mech::serve
