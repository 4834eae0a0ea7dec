/**
 * @file
 * One client's conversation with the service: the request pipeline
 * both front ends run, and the stdio reader.
 *
 * answerLines() is the pipeline.  It takes a session's request lines
 * in arrival order and writes one response line per request line
 * through a ResponseWriter: parse, coalesce the data requests into
 * one EvalService flush, answer control requests on drained state,
 * keep a bad line's error in its own slot, and stop at shutdown.
 * There are two readers.  ServerSession reads stdio (or any
 * LineSource) as one session; the TCP server's dispatchers feed it
 * the batches its admission queue hands out, one session at a time.
 *
 * Coalescing policy (stdio): keep reading while more input is
 * immediately available and the batch cap is not reached, then
 * answer what was read.  An interactive client gets its answer right
 * away; a piped file coalesces.  Because the service's accounting is
 * flush-boundary independent, this is purely a throughput knob — the
 * response stream is byte-identical however the input was paced or
 * chunked, and whichever front end read it.
 */

#ifndef MECH_SERVE_SESSION_HH
#define MECH_SERVE_SESSION_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/service.hh"

namespace mech::serve {

/** One request line with its arrival time (for latency_us). */
struct QueuedLine
{
    std::string line;
    std::chrono::steady_clock::time_point received;
};

/** True for a line of only spaces, tabs and CRs (never answered). */
bool isBlankLine(const std::string &line);

/** Microseconds from @p start to now. */
double microsSince(std::chrono::steady_clock::time_point start);

/** A source of request lines (stdin, a socket, a test string). */
class LineSource
{
  public:
    virtual ~LineSource() = default;

    /**
     * Read the next line (without its newline) into @p line.
     * Returns false at end of stream.  Oversized lines (beyond
     * kMaxRequestBytes) are truncated to the cap, with the rest of
     * the physical line consumed and discarded — the session turns
     * the truncation into an error response.
     */
    virtual bool nextLine(std::string &line) = 0;

    /** True when another line can be read without blocking. */
    virtual bool moreBuffered() = 0;
};

/** LineSource over a std::istream (stdin, test stringstreams). */
class IstreamLineSource : public LineSource
{
  public:
    explicit IstreamLineSource(std::istream &is) : is(is) {}

    bool nextLine(std::string &line) override;
    bool moreBuffered() override;

  private:
    std::istream &is;
};

/** Per-session knobs (the server's --max-batch / --deterministic). */
struct SessionOptions
{
    /** Most requests coalesced into one service flush. */
    std::size_t maxBatch = 64;

    /** Append "latency_us" to responses (off => fully reproducible). */
    bool latencyFields = true;
};

/** One session's traffic counters. */
struct SessionStats
{
    std::uint64_t lines = 0;     ///< non-blank lines read
    std::uint64_t responses = 0; ///< response lines written
    std::uint64_t errors = 0;    ///< of which error responses
    bool shutdownRequested = false;
};

/**
 * Response serializer: one JSON line per response, with optional
 * latency annotation.
 *
 * Latency is measured from line arrival to response write — it
 * includes the coalescing wait, which is the number a client
 * experiences.  The field is appended by this writer (bodies arrive
 * latency-free from the service), so switching it off yields the
 * deterministic stream CI diffs against a golden file.
 */
class ResponseWriter
{
  public:
    ResponseWriter(std::ostream &os, bool latency_fields)
        : os(os), latencyFields(latency_fields)
    {
    }

    /** Write one response body, annotating @p latency_us if enabled. */
    void write(const std::string &body, double latency_us);

    /** Flush the underlying stream (once per batch). */
    void flush();

    /** True when responses carry latency_us (timing mode). */
    bool timing() const { return latencyFields; }

    std::uint64_t written() const { return count; }
    std::uint64_t errorsWritten() const { return errorCount; }

  private:
    std::ostream &os;
    bool latencyFields;
    std::uint64_t count = 0;
    std::uint64_t errorCount = 0;
};

/**
 * Format one response line for @p body onto @p os: the body, with
 * `"latency_us"` appended when @p latency_fields is set, then '\n'.
 * ResponseWriter::write() and the TCP server's shed path share it.
 */
void writeResponseLine(std::ostream &os, const std::string &body,
                       bool latency_fields, double latency_us);

/**
 * Answer one session's @p lines, in order, through @p writer: one
 * response line per request line (see file comment).  Returns true
 * when it answered a shutdown; the lines after it are not answered.
 */
bool answerLines(EvalService &service,
                 const std::vector<QueuedLine> &lines,
                 ResponseWriter &writer);

/** The stdio reader: one client's lines, answered by answerLines(). */
class ServerSession
{
  public:
    ServerSession(EvalService &service, LineSource &source,
                  std::ostream &out, SessionOptions opts);

    /**
     * Serve until end of stream or a shutdown request (which drains
     * pending requests and answers with a final "bye" line).
     */
    SessionStats run();

  private:
    EvalService &service;
    LineSource &source;
    ResponseWriter writer;
    SessionOptions opts;
    SessionStats stats;
};

} // namespace mech::serve

#endif // MECH_SERVE_SESSION_HH
