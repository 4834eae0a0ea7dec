/**
 * @file
 * mech_serve front ends: the stdio reader and a concurrent epoll TCP
 * server (no event-loop library, no new dependencies).  Both are
 * readers in front of one request pipeline, answerLines()
 * (session.hh): only where the lines come from differs.
 *
 * Stdio mode serves one session over stdin/stdout — the mode CI
 * smokes and scripts pipe request files through.
 *
 * TCP mode is a production-shaped front end for hundreds of
 * concurrent sessions: one epoll I/O thread owns the listener and
 * every connection (nonblocking reads into per-connection line
 * buffers, buffered writes with EPOLLOUT backpressure), and a small
 * dispatcher pool pulls admitted line batches from an AdmissionQueue
 * and answers each through answerLines().  At most one batch
 * per session is in flight at a time, so each session's responses
 * stay in its own request order and the per-session byte-identity
 * contract holds at any thread or dispatcher count.  Requests beyond
 * the admission bounds are shed with structured
 * `{"type": "error", "code": "overloaded"}` responses; control
 * requests (info/stats/shutdown) are never shed.  Shed answers are
 * out of band: the I/O thread writes one at ingest, ahead of the
 * answers to that session's earlier admitted lines, and a data line
 * shed behind the session's own shutdown is still answered.  Only
 * admitted lines keep request order.
 *
 * The optional metrics endpoint (TcpServerConfig::metricsPort) shares
 * that one connection path: the same accept loop, read loop, write
 * buffer and close.  A metrics connection is flagged HTTP, answers one
 * HTTP/1.0 request and closes; it never joins the admission queue.
 * An accept() that fails for lack of descriptors or memory takes its
 * listener out of the epoll set until a connection closes or 200 ms
 * pass, instead of spinning; every failure counts in
 * serve.accept_errors.
 *
 * Graceful drain: a client "shutdown" request answers its final "bye"
 * accounting line, then the server stops accepting, the dispatchers
 * finish every admitted request, write buffers flush, and the process
 * exits.  As on stdio, the admitted lines a session sent after its
 * own shutdown are never answered.  SIGINT/SIGTERM take the same
 * path, so an operator's Ctrl-C never kills a request
 * mid-evaluation.
 */

#ifndef MECH_SERVE_SERVER_HH
#define MECH_SERVE_SERVER_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "serve/session.hh"

namespace mech::serve {

/** TCP front-end knobs (see mech_serve --help for the flags). */
struct TcpServerConfig
{
    /** Port to bind on 127.0.0.1; 0 picks an ephemeral port. */
    unsigned short port = 0;

    /** Dispatcher threads pulling batches off the admission queue. */
    unsigned dispatchers = 1;

    /** Global bound on queued request lines (admission control). */
    std::size_t maxQueue = 1024;

    /** Per-session bound on queued request lines. */
    std::size_t maxInflight = 256;

    /**
     * Testing knob: freeze dispatch for this many milliseconds after
     * the first connection, so overload goldens shed against a frozen
     * queue deterministically.  0 disables.
     */
    unsigned dispatchHoldMs = 0;

    /**
     * Port for the plaintext HTTP/1.0 metrics endpoint (GET /metrics
     * answers Prometheus text exposition), served by the same epoll
     * loop on 127.0.0.1.  -1 disables; 0 picks an ephemeral port
     * (see TcpServer::metricsPort()).
     */
    int metricsPort = -1;
};

/**
 * The epoll front end as an embeddable object: benchmarks and tests
 * run it in-process against an ephemeral port; runTcpServer() wraps
 * it for the tool.  start() binds and spawns the threads, wait()
 * blocks until a drain (shutdown request, requestStop(), or a
 * termination signal) completes.
 */
class TcpServer
{
  public:
    TcpServer(EvalService &service, TcpServerConfig cfg,
              std::ostream &log, SessionOptions opts);
    ~TcpServer();

    TcpServer(const TcpServer &) = delete;
    TcpServer &operator=(const TcpServer &) = delete;

    /** Bind, listen and spawn the threads; false + error on failure. */
    bool start(std::string *error);

    /** The bound port (useful after binding port 0). */
    unsigned short port() const;

    /** The bound metrics port (0 when the endpoint is disabled). */
    unsigned short metricsPort() const;

    /** Ask for a graceful drain (the in-process Ctrl-C). */
    void requestStop();

    /** Block until the drain completes and every thread has joined. */
    void wait();

    /** True when the drain was initiated by a shutdown request. */
    bool drainedByShutdown() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * Serve one stdio session: requests from @p in, responses to @p out,
 * diagnostics to @p log (never to @p out — that is the protocol
 * channel).  Returns the session's stats.
 */
SessionStats runStdioServer(EvalService &service, std::istream &in,
                            std::ostream &out, std::ostream &log,
                            const SessionOptions &opts);

/**
 * Bind 127.0.0.1 per @p cfg and serve TCP clients until a shutdown
 * request or a termination signal, then drain.  Returns 0 on a clean
 * drain, nonzero when the listener could not be set up.
 */
int runTcpServer(EvalService &service, const TcpServerConfig &cfg,
                 std::ostream &log, const SessionOptions &opts);

} // namespace mech::serve

#endif // MECH_SERVE_SERVER_HH
