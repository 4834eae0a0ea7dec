/**
 * @file
 * Process-wide metrics registry with hierarchical dotted names.
 *
 * Instrumented code asks the registry for a named instrument once
 * (typically through a function-local static) and keeps the returned
 * reference: registration takes a mutex, but every subsequent update
 * is just the instrument's own relaxed atomic.  Instruments live in
 * deques, so references stay valid for the registry's lifetime.
 *
 * Names are dotted hierarchies ("serve.latency.result",
 * "eval.backend.sim.evals"); the Prometheus renderer maps them to the
 * exposition grammar ("mech_serve_latency_result_us_bucket{...}").
 * A registry is an ordinary object — tests build private ones — and
 * global() is the process-wide instance every subsystem shares.
 */

#ifndef MECH_OBS_REGISTRY_HH
#define MECH_OBS_REGISTRY_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace mech::obs {

/** What a registry entry is (fixed at first registration). */
enum class MetricKind
{
    CounterKind,
    GaugeKind,
    HistogramKind,
};

/** The shared, name-indexed home of every metrics instrument. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry. */
    static MetricsRegistry &global();

    /**
     * The counter registered under @p name, creating it on first
     * use.  Panics if @p name is already registered as another kind
     * — a naming bug worth failing loudly on.
     */
    Counter &counter(const std::string &name,
                     const std::string &help = "");

    /** The gauge registered under @p name (see counter()). */
    Gauge &gauge(const std::string &name,
                 const std::string &help = "");

    /** The latency histogram registered under @p name. */
    LatencyHistogram &histogram(const std::string &name,
                                const std::string &help = "");

    /** One registered instrument, as reported to consumers. */
    struct Sample
    {
        std::string name;
        std::string help;
        MetricKind kind = MetricKind::CounterKind;

        /** Counter/gauge value (unused for histograms). */
        std::int64_t value = 0;

        /** Histogram snapshot (unused for counters/gauges). */
        HistogramSnapshot hist;
    };

    /** Snapshot every instrument, in registration order. */
    std::vector<Sample> collect() const;

    /**
     * Render every instrument in Prometheus text exposition format
     * (version 0.0.4): `# HELP` / `# TYPE` comments, `mech_`-prefixed
     * underscore names, cumulative `_bucket{le="..."}` series plus
     * `_sum` / `_count` for histograms.
     */
    void renderPrometheus(std::ostream &os) const;

    /** Number of registered instruments. */
    std::size_t size() const;

  private:
    struct Entry
    {
        std::string name;
        std::string help;
        MetricKind kind;
        Counter *counter = nullptr;
        Gauge *gauge = nullptr;
        LatencyHistogram *hist = nullptr;
    };

    Entry &entryFor(const std::string &name, const std::string &help,
                    MetricKind kind);

    mutable std::mutex mtx;
    std::deque<Counter> counters;
    std::deque<Gauge> gauges;
    std::deque<LatencyHistogram> hists;
    std::vector<Entry> entries;
    std::map<std::string, std::size_t> index;
};

/** A dotted metric name as a Prometheus metric name (mech_ prefix,
 *  dots to underscores, other invalid characters to underscores). */
std::string prometheusName(const std::string &dotted);

/**
 * Validate @p text against the Prometheus text exposition grammar:
 * well-formed comment and sample lines, known TYPE keywords, numeric
 * sample values, and — for histograms — cumulative bucket counts
 * ending in `+Inf` that agree with `_count`.  Returns true when the
 * whole payload parses; otherwise false with a line-numbered
 * diagnostic in @p error.
 */
bool validateExposition(const std::string &text, std::string *error);

} // namespace mech::obs

#endif // MECH_OBS_REGISTRY_HH
