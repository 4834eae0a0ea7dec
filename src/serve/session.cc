#include "serve/session.hh"

#include <istream>
#include <ostream>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "serve/serve_obs.hh"

namespace mech::serve {

bool
IstreamLineSource::nextLine(std::string &line)
{
    if (!std::getline(is, line))
        return false;
    if (line.size() > kMaxRequestBytes) {
        // Keep the cap's worth so the session can report the
        // overflow; the getline above already consumed the rest.
        line.resize(kMaxRequestBytes + 1);
    }
    return true;
}

bool
IstreamLineSource::moreBuffered()
{
    // in_avail() counts the bytes already in the stream buffer and,
    // once that is empty, whatever the buffer's showmanyc() reports.
    // For std::cin that is only useful when it is not synced with C
    // stdio (mech_serve turns the sync off): libstdc++'s filebuf then
    // asks the descriptor (FIONREAD), so lines a pipe or file already
    // holds coalesce into one flush, while an interactive client has
    // nothing queued behind its line and is answered at once.  A
    // stdio-synced std::cin always reports 0, so every line flushes
    // alone; istringstreams report their unread remainder.
    return is.good() && is.rdbuf()->in_avail() > 0;
}

void
ResponseWriter::write(const std::string &body, double latency_us)
{
    MECH_ASSERT(!body.empty() && body.back() == '}',
                "response body must be a JSON object");
    ++count;
    recordResponseLatency(body, latency_us);
    // A cheap, structural check: every error body starts with the
    // same head the protocol serializer produced.
    if (body.find("\"type\": \"error\"") != std::string::npos &&
        body.find("\"error\": ") != std::string::npos) {
        ++errorCount;
    }
    if (!latencyFields) {
        os << body << '\n';
        return;
    }
    os.write(body.data(),
             static_cast<std::streamsize>(body.size() - 1));
    os << ", \"latency_us\": ";
    json::writeNumber(os, latency_us);
    os << "}\n";
}

void
ResponseWriter::flush()
{
    os.flush();
}

ServerSession::ServerSession(EvalService &service, LineSource &source,
                             std::ostream &out, SessionOptions opts)
    : service(service), source(source),
      writer(out, opts.latencyFields), queue(opts.maxBatch), opts(opts)
{
}

namespace {

double
microsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool
isBlank(const std::string &line)
{
    for (char c : line) {
        if (c != ' ' && c != '\t' && c != '\r')
            return false;
    }
    return true;
}

} // namespace

void
ServerSession::flushQueue()
{
    if (queue.empty())
        return;
    obs::TraceSpan span("session.flush", "serve");
    std::vector<PendingLine> lines = queue.take();

    // The service answers the well-formed requests as one coalesced
    // batch; garbage lines keep their slot so response N always
    // answers line N.
    std::vector<ServeRequest> requests;
    requests.reserve(lines.size());
    for (const PendingLine &line : lines) {
        if (line.ok())
            requests.push_back(line.request);
    }
    std::vector<std::string> bodies = service.handleFlush(requests);

    std::size_t next = 0;
    for (const PendingLine &line : lines) {
        const std::string body =
            line.ok() ? bodies[next++]
                      : errorResponse(line.idJson, line.error);
        writer.write(body, microsSince(line.received));
    }
    writer.flush();
}

SessionStats
ServerSession::run()
{
    std::string line;
    while (source.nextLine(line)) {
        if (isBlank(line))
            continue;
        ++stats.lines;

        PendingLine pending;
        pending.received = std::chrono::steady_clock::now();
        if (line.size() > kMaxRequestBytes) {
            pending.error =
                "request line exceeds " +
                std::to_string(kMaxRequestBytes) + " bytes";
        } else {
            ParseOutcome outcome = parseRequest(line);
            pending.idJson = outcome.idJson;
            if (!outcome.ok()) {
                pending.error = outcome.error;
            } else if (outcome.request->type == RequestType::Info ||
                       outcome.request->type == RequestType::Stats ||
                       outcome.request->type ==
                           RequestType::Shutdown) {
                // Control requests act on drained state: answer
                // everything already queued first.
                flushQueue();
                const ServeRequest &req = *outcome.request;
                std::string body =
                    req.type == RequestType::Info
                        ? service.infoResponse(req.idJson)
                        : service.statsResponse(req.idJson, req.type,
                                                opts.latencyFields);
                writer.write(body, microsSince(pending.received));
                writer.flush();
                if (req.type == RequestType::Shutdown) {
                    stats.shutdownRequested = true;
                    break;
                }
                continue;
            } else {
                pending.request = *outcome.request;
            }
        }
        queue.push(pending);
        if (queue.full() || !source.moreBuffered())
            flushQueue();
    }
    flushQueue();
    stats.responses = writer.written();
    stats.errors = writer.errorsWritten();
    return stats;
}

} // namespace mech::serve
