#include "serve/session.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

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

bool
isBlankLine(const std::string &line)
{
    for (char c : line) {
        if (c != ' ' && c != '\t' && c != '\r')
            return false;
    }
    return true;
}

double
microsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
writeResponseLine(std::ostream &os, const std::string &body,
                  bool latency_fields, double latency_us)
{
    if (!latency_fields) {
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
    writeResponseLine(os, body, latencyFields, latency_us);
}

void
ResponseWriter::flush()
{
    os.flush();
}

bool
answerLines(EvalService &service, const std::vector<QueuedLine> &lines,
            ResponseWriter &writer)
{
    // The data lines since the last control request, each with its
    // parse outcome.  The service answers the parsed ones as one
    // coalesced flush; a bad line keeps its slot for its error, so
    // response N always answers line N.
    std::vector<std::pair<const QueuedLine *, ParseOutcome>> pending;
    auto flushPending = [&] {
        if (pending.empty())
            return;
        obs::TraceSpan span("session.flush", "serve");
        std::vector<ServeRequest> requests;
        requests.reserve(pending.size());
        for (auto &[line, outcome] : pending) {
            // Moving the request out leaves the optional engaged, so
            // ok() still tells the two kinds of slot apart below.
            if (outcome.ok())
                requests.push_back(std::move(*outcome.request));
        }
        const std::vector<std::string> bodies =
            service.handleFlush(requests);
        obs::TraceSpan serializeSpan("request.serialize", "serve");
        std::size_t next = 0;
        for (const auto &[line, outcome] : pending) {
            writer.write(outcome.ok()
                             ? bodies[next++]
                             : errorResponse(outcome.idJson,
                                             outcome.error),
                         microsSince(line->received));
        }
        pending.clear();
    };

    for (const QueuedLine &line : lines) {
        ParseOutcome outcome;
        if (line.line.size() > kMaxRequestBytes) {
            outcome.error = "request line exceeds " +
                            std::to_string(kMaxRequestBytes) + " bytes";
        } else {
            obs::TraceSpan parseSpan("request.parse", "serve");
            outcome = parseRequest(line.line);
        }
        const std::optional<ServeRequest> &req = outcome.request;
        if (!req || req->type == RequestType::Eval ||
            req->type == RequestType::Batch) {
            pending.emplace_back(&line, std::move(outcome));
            continue;
        }
        // Control requests act on drained state: answer everything
        // before them first.
        flushPending();
        writer.write(req->type == RequestType::Info
                         ? service.infoResponse(req->idJson)
                         : service.statsResponse(req->idJson, req->type,
                                                 writer.timing()),
                     microsSince(line.received));
        if (req->type == RequestType::Shutdown)
            return true;
    }
    flushPending();
    return false;
}

ServerSession::ServerSession(EvalService &service, LineSource &source,
                             std::ostream &out, SessionOptions opts)
    : service(service), source(source),
      writer(out, opts.latencyFields), opts(opts)
{
}

SessionStats
ServerSession::run()
{
    const std::size_t cap = std::max<std::size_t>(opts.maxBatch, 1);
    std::vector<QueuedLine> batch;
    auto answer = [&] {
        stats.shutdownRequested = answerLines(service, batch, writer);
        writer.flush();
        batch.clear();
    };
    std::string line;
    while (!stats.shutdownRequested && source.nextLine(line)) {
        if (isBlankLine(line))
            continue;
        ++stats.lines;
        batch.push_back(
            {std::move(line), std::chrono::steady_clock::now()});
        if (batch.size() >= cap || !source.moreBuffered())
            answer();
    }
    if (!batch.empty())
        answer();
    stats.responses = writer.written();
    stats.errors = writer.errorsWritten();
    return stats;
}

} // namespace mech::serve
