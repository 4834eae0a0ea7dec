/**
 * @file
 * Benchmark harness: named results, schema-versioned JSON artifacts,
 * and baseline comparison.
 *
 * The timing core lives in src/common/bench.hh; this layer gives the
 * numbers a durable shape.  Every benchmark run produces BenchRecords
 * (suite, benchmark, metric, value, unit) collected into a
 * BenchReport that carries build provenance (git SHA, compiler,
 * build type) and serializes to a versioned JSON artifact.  The same
 * schema is read back for CI perf gating: compareToBaseline() matches
 * records between a fresh run and a checked-in baseline and flags
 * slowdowns beyond a caller-chosen ratio.
 *
 * Schema (version 1):
 *
 *   {
 *     "schema_version": 1,
 *     "generator": "mech_bench",
 *     "git_sha": "2b1218c",
 *     "compiler": "gcc 12.2.0",
 *     "build_type": "Release",
 *     "results": [
 *       { "suite": "mech_bench", "benchmark": "sweep_l2",
 *         "metric": "throughput", "value": 5.0e4,
 *         "unit": "geometries/s" }
 *     ]
 *   }
 *
 * Units ending in "/s" are throughputs and "speedup" is a ratio, both
 * higher-is-better; any other unit is a cost (lower is better).  The
 * comparison direction follows from the unit alone so baselines stay
 * self-describing.
 */

#ifndef MECH_BENCH_HARNESS_HH
#define MECH_BENCH_HARNESS_HH

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace mech::bench {

/** Error raised for malformed or unreadable benchmark artifacts. */
class BenchIoError : public std::runtime_error
{
  public:
    explicit BenchIoError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Current benchmark-artifact schema version. */
inline constexpr int kBenchSchemaVersion = 1;

/** One measured quantity. */
struct BenchRecord
{
    /** Grouping, usually the emitting program ("mech_bench", "fig5"). */
    std::string suite;

    /** Benchmark name within the suite ("sweep_l2"). */
    std::string benchmark;

    /** Measured quantity ("throughput", "error_avg"). */
    std::string metric;

    /** The value. */
    double value = 0.0;

    /**
     * Unit; "<item>/s" and "speedup" mark higher-is-better
     * quantities, anything else is a cost (lower is better).
     */
    std::string unit;

    /** Identity key used for baseline matching. */
    std::string
    key() const
    {
        return suite + "/" + benchmark + "/" + metric;
    }

    /** True when a higher value is better (unit ends in "/s"). */
    bool higherIsBetter() const;
};

/** A run's worth of records plus build provenance. */
struct BenchReport
{
    /** Program that produced the report. */
    std::string generator;

    /** Git SHA the binary was built from ("unknown" if unavailable). */
    std::string gitSha;

    /** Compiler id, e.g. "gcc 12.2.0". */
    std::string compiler;

    /** CMake build type baked into the binary. */
    std::string buildType;

    /** Schema version read from a loaded artifact. */
    int schemaVersion = kBenchSchemaVersion;

    /** The measurements. */
    std::vector<BenchRecord> results;

    /** Append one record. */
    void
    add(std::string suite, std::string benchmark, std::string metric,
        double value, std::string unit)
    {
        results.push_back({std::move(suite), std::move(benchmark),
                           std::move(metric), value, std::move(unit)});
    }

    /** Record with @p key, or null. */
    const BenchRecord *find(const std::string &key) const;
};

/**
 * A report pre-filled with this build's provenance: git SHA (the
 * MECH_GIT_SHA environment variable, else the SHA baked in at
 * configure time), compiler and build type.
 */
BenchReport makeReport(std::string generator);

/** Serialize @p report as schema-versioned JSON. */
void writeReportJson(const BenchReport &report, std::ostream &os);

/** Write @p report to @p path.  Throws BenchIoError on I/O failure. */
void saveReport(const BenchReport &report, const std::string &path);

/**
 * Parse a report from JSON.
 *
 * Throws BenchIoError on malformed JSON, a missing or non-integer
 * schema_version, or a schema version newer than this reader.
 */
BenchReport parseReportJson(std::istream &is);

/** Load a report from @p path.  Throws BenchIoError. */
BenchReport loadReport(const std::string &path);

/** Outcome of comparing a run against a baseline. */
struct BaselineComparison
{
    /** One record pair that exists in both reports. */
    struct Entry
    {
        BenchRecord current;
        BenchRecord baseline;

        /**
         * Slowdown ratio >= 0: 1.0 = unchanged, 2.0 = twice as slow,
         * 0.5 = twice as fast, direction resolved from the unit.
         */
        double slowdown = 1.0;

        /** True when slowdown exceeded the configured threshold. */
        bool regressed = false;
    };

    std::vector<Entry> compared;

    /** Current records with no baseline counterpart (informational). */
    std::vector<BenchRecord> missingInBaseline;

    /** Baseline records the current run did not produce. */
    std::vector<BenchRecord> missingInCurrent;

    /** True when any compared pair regressed. */
    bool
    anyRegression() const
    {
        for (const auto &e : compared) {
            if (e.regressed)
                return true;
        }
        return false;
    }
};

/**
 * Compare @p current against @p baseline.
 *
 * Records are matched by (suite, benchmark, metric); a pair whose
 * units disagree is treated as a regression (the baseline is stale).
 * A pair regresses when its slowdown ratio exceeds @p max_slowdown —
 * CI uses a deliberately generous 2.0 so shared-runner noise cannot
 * fail the gate, only real cliffs can.
 */
BaselineComparison compareToBaseline(const BenchReport &current,
                                     const BenchReport &baseline,
                                     double max_slowdown);

/** Human-readable comparison summary (one line per pair). */
void printComparison(const BaselineComparison &cmp, double max_slowdown,
                     std::ostream &os);

} // namespace mech::bench

#endif // MECH_BENCH_HARNESS_HH
