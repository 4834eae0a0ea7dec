/**
 * @file
 * The serve front end's observability instruments, shared by the
 * session loop (stdio), the epoll TCP server and the EvalService's
 * extended stats response.
 *
 * Everything here is strictly on the observability channel: response
 * *bodies* never contain these values unless a stats request asks
 * for them in timing mode, so deterministic-mode output stays
 * byte-identical whether or not the instruments are read.
 */

#ifndef MECH_SERVE_SERVE_OBS_HH
#define MECH_SERVE_SERVE_OBS_HH

#include <cstdint>
#include <string>

#include "obs/registry.hh"

namespace mech::serve {

/** Front-end instruments (process-wide, registered on first use). */
struct ServeObs
{
    /** Arrival-to-write latency by response type, microseconds. */
    obs::LatencyHistogram &latencyResult;
    obs::LatencyHistogram &latencyFrontier;
    obs::LatencyHistogram &latencyControl;
    obs::LatencyHistogram &latencyError;

    /** Admitted request lines not yet answered. */
    obs::Gauge &inflight;

    /** Open client connections (TCP front end). */
    obs::Gauge &connections;

    /** Payload bytes received from / sent to clients. */
    obs::Counter &bytesIn;
    obs::Counter &bytesOut;

    /** Requests answered with an "overloaded" shed error. */
    obs::Counter &shed;

    /** accept() failures on a listener (out of descriptors or memory
     *  pauses the listener; see docs/serving.md). */
    obs::Counter &acceptErrors;

    static ServeObs &
    get()
    {
        static ServeObs o{
            obs::MetricsRegistry::global().histogram(
                "serve.latency.result",
                "Eval request latency (arrival to response write), "
                "microseconds"),
            obs::MetricsRegistry::global().histogram(
                "serve.latency.frontier",
                "Batch request latency (arrival to response write), "
                "microseconds"),
            obs::MetricsRegistry::global().histogram(
                "serve.latency.control",
                "Control request (info/stats/shutdown) latency, "
                "microseconds"),
            obs::MetricsRegistry::global().histogram(
                "serve.latency.error",
                "Error response latency, microseconds"),
            obs::MetricsRegistry::global().gauge(
                "serve.inflight",
                "Admitted request lines not yet answered"),
            obs::MetricsRegistry::global().gauge(
                "serve.connections", "Open client connections"),
            obs::MetricsRegistry::global().counter(
                "serve.bytes_in", "Bytes received from clients"),
            obs::MetricsRegistry::global().counter(
                "serve.bytes_out", "Bytes sent to clients"),
            obs::MetricsRegistry::global().counter(
                "serve.shed",
                "Requests shed with an overloaded error"),
            obs::MetricsRegistry::global().counter(
                "serve.accept_errors",
                "Failed accept() calls on a listener"),
        };
        return o;
    }
};

/**
 * Record @p latency_us into the per-response-type histogram, sniffing
 * the type from the body's protocol head (the same cheap structural
 * check ResponseWriter uses for error accounting).
 */
inline void
recordResponseLatency(const std::string &body, double latency_us)
{
    const std::uint64_t us =
        latency_us <= 0.0 ? 0
                          : static_cast<std::uint64_t>(latency_us);
    ServeObs &o = ServeObs::get();
    static const char kTypeKey[] = "\"type\": \"";
    const std::size_t pos = body.find(kTypeKey);
    if (pos == std::string::npos) {
        o.latencyError.record(us);
        return;
    }
    const std::size_t start = pos + sizeof(kTypeKey) - 1;
    const std::size_t end = body.find('"', start);
    const std::string type = body.substr(start, end - start);
    if (type == "result")
        o.latencyResult.record(us);
    else if (type == "frontier")
        o.latencyFrontier.record(us);
    else if (type == "error")
        o.latencyError.record(us);
    else
        o.latencyControl.record(us);
}

} // namespace mech::serve

#endif // MECH_SERVE_SERVE_OBS_HH
