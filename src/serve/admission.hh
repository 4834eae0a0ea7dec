/**
 * @file
 * Admission control for the concurrent serve front end: a bounded,
 * session-fair queue between the epoll I/O thread (producer) and the
 * dispatcher pool (consumers).
 *
 * Two bounds protect the service.  A global bound (maxQueue) caps the
 * total lines queued across every session, so a flood cannot grow
 * server memory without limit; a per-session bound (maxInflight) caps
 * one session's share of it, so a single aggressive client cannot
 * starve the rest.  offer() returning false means the line was *shed*:
 * the caller answers it immediately with a structured
 * `{"type": "error", "code": "overloaded"}` response and the request
 * never reaches the EvalService.  Shed answers are out of band: one
 * refused at ingest is written ahead of the answers to the session's
 * earlier admitted lines, and a data line shed behind the session's
 * own shutdown is still answered (clients match them by "id").  Control requests (info, stats,
 * shutdown) are never shed — callers force() them past the bounds, so
 * a monitoring client can always read stats from an overloaded server
 * and a shutdown can always get through.
 *
 * Fairness and ordering: sessions with queued work wait in a
 * round-robin ring; nextBatch() pops the head session's oldest lines
 * (up to maxBatch) and marks the session in-flight until the
 * dispatcher calls completed().  At most one batch per session is ever
 * in flight, which is what keeps every session's admitted responses in
 * its own request order no matter how many dispatchers run — the
 * per-session byte-identity contract of the protocol depends on it.
 *
 * holdDispatch() is a testing knob (mech_serve --dispatch-hold-ms):
 * while held, nextBatch() blocks, so a replayed flood sheds against a
 * frozen queue and the overload golden is deterministic regardless of
 * how the kernel chunked the client's writes.
 */

#ifndef MECH_SERVE_ADMISSION_HH
#define MECH_SERVE_ADMISSION_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "serve/session.hh"

namespace mech::serve {

/** Bounds of the admission queue. */
struct AdmissionConfig
{
    /** Total queued lines across all sessions. */
    std::size_t maxQueue = 1024;

    /** Queued lines any one session may hold. */
    std::size_t maxInflight = 256;

    /** Most lines handed to a dispatcher per batch. */
    std::size_t maxBatch = 64;
};

/** The bounded, session-fair line queue (see file comment). */
class AdmissionQueue
{
  public:
    /** Up to maxBatch consecutive lines of one session. */
    struct Batch
    {
        std::uint64_t sid = 0;
        std::vector<QueuedLine> lines;
    };

    explicit AdmissionQueue(AdmissionConfig cfg);

    AdmissionQueue(const AdmissionQueue &) = delete;
    AdmissionQueue &operator=(const AdmissionQueue &) = delete;

    /** Register a session id (fresh connection). */
    void addSession(std::uint64_t sid);

    /**
     * Drop a session and any lines it still has queued (disconnect).
     * Safe while a batch of it is in flight; the dispatcher's
     * completed() call then finds nothing to re-arm.
     */
    void removeSession(std::uint64_t sid);

    /**
     * Queue one data line for @p sid.  Returns false — without
     * queuing — when either bound is full: the caller must shed the
     * request.  Unknown session ids are also refused.
     */
    bool offer(std::uint64_t sid, QueuedLine line);

    /**
     * Queue a line past both bounds (control requests, which must
     * never be shed).  Returns false — the caller must still shed —
     * for unknown session ids or once stop() has begun the drain.
     */
    bool force(std::uint64_t sid, QueuedLine line);

    /** Freeze (true) or release (false) dispatch; see file comment. */
    void holdDispatch(bool held);

    /**
     * Block until a batch is available and pop it, round-robin over
     * ready sessions.  Returns false only after stop() once every
     * queued line has been drained — dispatchers use it as their
     * loop condition.
     */
    bool nextBatch(Batch *out);

    /**
     * A dispatcher finished @p sid's in-flight batch; the session
     * rejoins the ring if more of its lines are queued.
     */
    void completed(std::uint64_t sid);

    /**
     * Begin drain: nextBatch() hands out the remaining queued lines
     * (a standing hold is released), then returns false forever.
     * offer()/force() become no-ops.
     */
    void stop();

    /** Lines currently queued across all sessions. */
    std::size_t pending() const;

    const AdmissionConfig &config() const { return cfg; }

  private:
    struct Session
    {
        std::deque<QueuedLine> lines;
        bool inFlight = false;
        bool inRing = false;
    };

    /** Put @p sid in the ring when it is ready to dispatch (locked). */
    void armLocked(std::uint64_t sid, Session &session);

    AdmissionConfig cfg;

    mutable std::mutex mtx;
    std::condition_variable cv;
    std::map<std::uint64_t, Session> sessions;
    std::deque<std::uint64_t> ring;
    std::size_t totalQueued = 0;
    bool held = false;
    bool stopped = false;
};

} // namespace mech::serve

#endif // MECH_SERVE_ADMISSION_HH
