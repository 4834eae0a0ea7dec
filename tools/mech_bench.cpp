/**
 * @file
 * mech_bench: the repo's named micro/macro benchmarks behind the CI
 * perf gate.
 *
 * Covers every throughput the paper's speedup story rests on:
 *
 *   profiler           profiling pass throughput        insns/s
 *   inorder_sim        detailed in-order simulation     cycles/s
 *   oosim_cycles       out-of-order simulation          cycles/s
 *   characterize_infer full machine characterizations   inferences/s
 *   model_eval         analytical model evaluations     evals/s
 *   profile_roundtrip  .mprof save + load round trip    roundtrips/s
 *   json_number        json::writeNumber, CPI-like      values/s
 *   sweep_l2           cold wide DseStudy::prepare      geometries/s
 *   search_pareto      genetic Pareto search + cache    evals/s
 *
 * Each record times one path the tools really run.  It is measured
 * with warmup + adaptive iteration count + N repetitions
 * (src/common/bench.hh) and reports its best repetition as
 * "throughput" (the gated metric), plus "throughput_median" and
 * "throughput_min", in a schema-versioned JSON artifact (--json).
 * With --baseline the run is compared against a checked-in artifact
 * and the process exits nonzero on any slowdown beyond --max-slowdown
 * — the CI perf gate.  Whether work runs concurrently is a property,
 * not a rate: tests prove it (docs/benchmarking.md).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/bench.hh"
#include "harness.hh"
#include "mech/mech.hh"

namespace {

using namespace mech;

constexpr const char *kSuite = "mech_bench";
constexpr const char *kBenchName = "jpeg_c";

struct Options
{
    InstCount instructions = 60000;
    unsigned repetitions = 5;
    double minTimeMs = 50.0;
    double maxSlowdown = 2.0;
    unsigned threads = 0;
    std::string jsonPath;
    std::string baselinePath;
    std::string filter;
    std::string traceOut;
    bool list = false;
};

/**
 * Process-level accounting records: peak resident set and CPU
 * utilization (process CPU seconds over wall seconds — above 1.0
 * means the multi-threaded benchmarks actually ran in parallel).
 * Informational rather than gated: they have no counterpart in older
 * baselines, and compareToBaseline treats unmatched records as such.
 */
void
addProcessRecords(bench::BenchReport &report, double wall_seconds)
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return;
    // ru_maxrss is kilobytes on Linux.
    report.add(kSuite, "process", "max_rss",
               static_cast<double>(ru.ru_maxrss) * 1024.0, "bytes");
    const double cpu =
        static_cast<double>(ru.ru_utime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec) / 1e6 +
        static_cast<double>(ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    report.add(kSuite, "process", "cpu_utilization",
               wall_seconds > 0.0 ? cpu / wall_seconds : 0.0, "ratio");
}

/**
 * Shared lazily-built inputs so benchmarks reuse one trace/study.
 * Everything derives deterministically from (benchmark, length).
 */
class Fixture
{
  public:
    Fixture(InstCount n, unsigned threads) : n_(n), threads_(threads) {}

    InstCount instructions() const { return n_; }

    /** Resolved worker count for the multi-threaded benchmarks. */
    unsigned threads() const { return threads_; }

    const Trace &
    trace()
    {
        if (trace_.empty())
            trace_ = generateTrace(profileByName(kBenchName), n_);
        return trace_;
    }

    DseStudy &
    study()
    {
        if (!study_) {
            study_ = std::make_unique<DseStudy>(
                profileByName(kBenchName), n_);
            study_->prepare({defaultDesignPoint()});
        }
        return *study_;
    }

  private:
    InstCount n_;
    unsigned threads_;
    Trace trace_;
    std::unique_ptr<DseStudy> study_;
};

using RunFn = std::function<void(Fixture &, const bench::MeasureOptions &,
                                 bench::BenchReport &)>;

struct NamedBenchmark
{
    std::string name;
    std::string description;
    RunFn run;
};

/**
 * Record @p name's best repetition as "throughput" (the gated metric),
 * plus the median and the slowest, from the seconds per iteration of
 * each repetition and @p items per iteration.  Every record goes
 * through here.
 */
void
addThroughputSpread(bench::BenchReport &report, const char *name,
                    std::vector<double> reps, double items,
                    const char *unit)
{
    std::sort(reps.begin(), reps.end());
    report.add(kSuite, name, "throughput", items / reps.front(), unit);
    report.add(kSuite, name, "throughput_median",
               items / reps[reps.size() / 2], unit);
    report.add(kSuite, name, "throughput_min", items / reps.back(), unit);
}

void
runProfiler(Fixture &fx, const bench::MeasureOptions &opts,
            bench::BenchReport &report)
{
    const Trace &tr = fx.trace();
    ProfilerConfig cfg;
    cfg.hierarchy = hierarchyFor(defaultDesignPoint());
    cfg.captureL2Stream = true;
    auto m = bench::measure(
        [&] {
            WorkloadProfile p = profileTrace(tr, cfg);
            bench::doNotOptimize(p.program.n);
        },
        opts);
    addThroughputSpread(report, "profiler", m.repSecondsPerIter,
                        static_cast<double>(tr.size()), "insns/s");
}

void
runInorderSim(Fixture &fx, const bench::MeasureOptions &opts,
              bench::BenchReport &report)
{
    const Trace &tr = fx.trace();
    SimConfig cfg = simConfigFor(defaultDesignPoint());
    SimResult once = simulateInOrder(tr, cfg);
    auto m = bench::measure(
        [&] {
            SimResult res = simulateInOrder(tr, cfg);
            bench::doNotOptimize(res.cycles);
        },
        opts);
    addThroughputSpread(report, "inorder_sim", m.repSecondsPerIter,
                        static_cast<double>(once.cycles), "cycles/s");
}

void
runOoOSim(Fixture &fx, const bench::MeasureOptions &opts,
          bench::BenchReport &report)
{
    const Trace &tr = fx.trace();
    OoOSimConfig cfg = oooSimConfigFor(defaultDesignPoint());
    OoOSimResult once = simulateOutOfOrder(tr, cfg);
    auto m = bench::measure(
        [&] {
            OoOSimResult res = simulateOutOfOrder(tr, cfg);
            bench::doNotOptimize(res.cycles);
        },
        opts);
    addThroughputSpread(report, "oosim_cycles", m.repSecondsPerIter,
                        static_cast<double>(once.cycles), "cycles/s");
}

void
runCharacterizeInfer(Fixture &fx, const bench::MeasureOptions &opts,
                     bench::BenchReport &report)
{
    // A full characterization — the 51-kernel battery through the
    // in-order simulator plus the inference pass — per iteration.
    // The short supported lengths keep one inference comparable to
    // the other entries; rates scale linearly with kernel length.
    CharacterizeConfig cfg;
    cfg.lenA = 2048;
    cfg.lenB = 4096;
    ThreadPool pool(fx.threads());
    auto m = bench::measure(
        [&] {
            CharacterizeResult res = characterize(cfg, pool);
            bench::doNotOptimize(res.description.machine.width);
        },
        opts);
    addThroughputSpread(report, "characterize_infer", m.repSecondsPerIter,
                        1.0, "inferences/s");
}

void
runModelEval(Fixture &fx, const bench::MeasureOptions &opts,
             bench::BenchReport &report)
{
    const DseStudy &study = fx.study();
    const DesignPoint point = defaultDesignPoint();
    auto m = bench::measure(
        [&] {
            PointEvaluation ev = study.evaluate(point);
            bench::doNotOptimize(ev.model().cycles);
        },
        opts);
    addThroughputSpread(report, "model_eval", m.repSecondsPerIter, 1.0,
                        "evals/s");
}

void
runProfileRoundtrip(Fixture &fx, const bench::MeasureOptions &opts,
                    bench::BenchReport &report)
{
    ProfileArtifact artifact = fx.study().artifact(true);
    auto m = bench::measure(
        [&] {
            ProfileArtifact loaded =
                decodeProfileArtifact(encodeProfileArtifact(artifact));
            bench::doNotOptimize(loaded.profile.program.n);
        },
        opts);
    addThroughputSpread(report, "profile_roundtrip", m.repSecondsPerIter,
                        1.0, "roundtrips/s");
}

/**
 * Serialization layer: shortest round-trip doubles through
 * json::writeNumber, the formatter behind every response, report and
 * key.
 */
void
runJsonNumber(Fixture &, const bench::MeasureOptions &opts,
              bench::BenchReport &report)
{
    // CPI stacks, energies and latencies: 1e-3 .. 1e3, full precision.
    constexpr std::size_t kValues = 4096;
    std::vector<double> values(kValues);
    Rng rng(0x6a736f6eull);
    for (double &v : values)
        v = std::pow(10.0, -3.0 + 6.0 * rng.uniform());
    std::ostringstream os;
    auto m = bench::measure(
        [&] {
            os.str("");
            for (double v : values) {
                json::writeNumber(os, v);
                os.put(',');
            }
            bench::doNotOptimize(os.tellp());
        },
        opts);
    addThroughputSpread(report, "json_number", m.repSecondsPerIter,
                        static_cast<double>(kValues), "values/s");
}

/**
 * L2-prepare layer: one study's DseStudy::prepare over every `wide`
 * L2 geometry, from a cold memo.  A prepared memo turns the next call
 * into a no-op, so every timed prepare() runs on a study rebuilt,
 * untimed, from the profile.  Repetitions follow bench::measure():
 * one warm-up, then prepares until a repetition reaches the time
 * floor.
 */
void
runSweepL2(Fixture &fx, const bench::MeasureOptions &opts,
           bench::BenchReport &report)
{
    const ProfileArtifact artifact = fx.study().artifact(false);
    const std::vector<DesignPoint> points = SpaceSpec::wide().l2Geometries();
    // The profiled default geometry is never swept.
    const DesignPoint def = defaultDesignPoint();
    const double n = static_cast<double>(std::count_if(
        points.begin(), points.end(), [&](const DesignPoint &p) {
            return p.l2KB != def.l2KB || p.l2Assoc != def.l2Assoc;
        }));
    auto timedPrepare = [&] {
        DseStudy study(artifact);
        const double t0 = bench::monotonicSeconds();
        study.prepare(points);
        return bench::monotonicSeconds() - t0;
    };
    for (unsigned i = 0; i < opts.warmupIters; ++i)
        timedPrepare();
    std::vector<double> reps;
    for (unsigned r = 0; r < opts.repetitions; ++r) {
        double timed = 0.0;
        std::uint64_t iters = 0;
        while (iters < opts.minIters || timed < opts.minSeconds) {
            timed += timedPrepare();
            ++iters;
        }
        reps.push_back(timed / static_cast<double>(iters));
    }
    addThroughputSpread(report, "sweep_l2", std::move(reps), n,
                        "geometries/s");
}

void
runSearchPareto(Fixture &fx, const bench::MeasureOptions &opts,
                bench::BenchReport &report)
{
    // The evaluator (profiling pass + L2-geometry memo) is shared
    // setup; every timed iteration runs one full genetic search with
    // a fresh cache, so the measurement covers strategy, memoized
    // cache and frontier machinery rather than profiling.
    SearchEvaluator evaluator({profileByName(kBenchName)},
                              fx.instructions(),
                              parseObjectives("energy,delay"));
    SpaceSpec space = SpaceSpec::wide();
    SearchOptions sopts;
    sopts.seed = 7;
    sopts.budget = 512;
    sopts.population = 16;
    sopts.threads = fx.threads();
    SearchResult warm = runSearch(space, "genetic", evaluator, sopts);
    // Same seed, same budget: every iteration performs exactly this
    // many fresh evaluations.
    const double evals_per_run =
        static_cast<double>(warm.stats.misses);
    auto m = bench::measure(
        [&] {
            SearchResult res =
                runSearch(space, "genetic", evaluator, sopts);
            bench::doNotOptimize(res.stats.misses);
        },
        opts);
    addThroughputSpread(report, "search_pareto", m.repSecondsPerIter,
                        evals_per_run, "evals/s");
}

std::vector<NamedBenchmark>
allBenchmarks()
{
    return {
        {"profiler", "profiling-pass throughput (insns/s)",
         runProfiler},
        {"inorder_sim",
         "detailed in-order simulation throughput (cycles/s)",
         runInorderSim},
        {"oosim_cycles",
         "cycle-accurate out-of-order simulation throughput (cycles/s)",
         runOoOSim},
        {"characterize_infer",
         "full machine characterizations per second (sim backend)",
         runCharacterizeInfer},
        {"model_eval", "analytical-model evaluations per second",
         runModelEval},
        {"profile_roundtrip",
         ".mprof artifact save+load round trips per second",
         runProfileRoundtrip},
        {"json_number",
         "shortest round-trip doubles through json::writeNumber",
         runJsonNumber},
        {"sweep_l2",
         "cold DseStudy::prepare over every wide L2 geometry (geometries/s)",
         runSweepL2},
        {"search_pareto",
         "genetic Pareto search through the memoized eval cache",
         runSearchPareto},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mech;

    Options opt;
    cli::ArgParser parser(
        "mech_bench",
        "named throughput benchmarks with JSON artifacts and "
        "baseline gating");
    parser.add("instructions", "N",
               "dynamic instructions for the benchmark trace",
               &opt.instructions);
    parser.add("repetitions", "N",
               "timed repetitions per benchmark (min-of-N)",
               &opt.repetitions);
    parser.add("min-time-ms", "ms",
               "minimum duration of one repetition", &opt.minTimeMs);
    parser.add("json", "path", "write the JSON artifact here",
               &opt.jsonPath);
    parser.add("baseline", "path",
               "compare against this baseline artifact and exit "
               "nonzero on regression",
               &opt.baselinePath);
    parser.add("max-slowdown", "ratio",
               "slowdown ratio that fails the baseline gate",
               &opt.maxSlowdown);
    parser.add("threads", "N",
               "worker count for characterize_infer and search_pareto "
               "(0 = all hardware threads)",
               &opt.threads);
    parser.add("filter", "substr",
               "only run benchmarks whose name contains this",
               &opt.filter);
    parser.add("trace-out", "file",
               "write a Chrome Trace Event Format JSON of evaluation "
               "spans on exit (chrome://tracing)",
               &opt.traceOut);
    parser.addFlag("list", "list benchmark names and exit", &opt.list);
    parser.parse(argc, argv);

    if (opt.repetitions < 1)
        fatal("--repetitions must be at least 1");
    if (opt.maxSlowdown <= 0.0)
        fatal("--max-slowdown must be positive");
    if (opt.instructions < 1000)
        fatal("--instructions too small for meaningful measurement");

    auto benchmarks = allBenchmarks();
    if (opt.list) {
        for (const auto &b : benchmarks)
            std::cout << b.name << "  " << b.description << "\n";
        return 0;
    }

    bench::MeasureOptions mopts;
    mopts.repetitions = opt.repetitions;
    mopts.minSeconds = opt.minTimeMs / 1e3;

    Fixture fx(opt.instructions,
               ThreadPool::sanitizeWorkerCount(
                   static_cast<long long>(opt.threads)));
    bench::BenchReport report = bench::makeReport("mech_bench");

    std::cout << "mech_bench: " << opt.instructions
              << " instructions, min-of-" << opt.repetitions
              << " repetitions, >=" << opt.minTimeMs
              << " ms per repetition\n"
              << "build: " << report.compiler << ", "
              << report.buildType << ", git " << report.gitSha
              << "\n\n";

    std::unique_ptr<obs::TraceRecorder> recorder;
    if (!opt.traceOut.empty()) {
        recorder = std::make_unique<obs::TraceRecorder>();
        obs::TraceRecorder::install(recorder.get());
    }

    const auto wallStart = std::chrono::steady_clock::now();
    bool ran_any = false;
    for (const auto &b : benchmarks) {
        if (!opt.filter.empty() &&
            b.name.find(opt.filter) == std::string::npos) {
            continue;
        }
        ran_any = true;
        std::size_t before = report.results.size();
        b.run(fx, mopts, report);
        for (std::size_t i = before; i < report.results.size(); ++i) {
            const bench::BenchRecord &r = report.results[i];
            std::cout << "  " << r.benchmark << "/" << r.metric << ": "
                      << r.value << " " << r.unit << "\n";
        }
    }
    if (!ran_any)
        fatal("--filter '", opt.filter, "' matched no benchmarks");

    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();
    {
        const std::size_t before = report.results.size();
        addProcessRecords(report, wallSeconds);
        for (std::size_t i = before; i < report.results.size(); ++i) {
            const bench::BenchRecord &r = report.results[i];
            std::cout << "  " << r.benchmark << "/" << r.metric << ": "
                      << r.value << " " << r.unit << "\n";
        }
    }

    if (recorder) {
        obs::TraceRecorder::install(nullptr);
        std::string traceError;
        if (!recorder->writeJsonFile(opt.traceOut, &traceError))
            warn("mech_bench: --trace-out: ", traceError);
        else
            std::cout << "wrote " << recorder->eventCount()
                      << " trace event(s) to " << opt.traceOut << "\n";
    }

    if (!opt.jsonPath.empty()) {
        try {
            bench::saveReport(report, opt.jsonPath);
            std::cout << "\nwrote " << opt.jsonPath << "\n";
        } catch (const bench::BenchIoError &e) {
            fatal(e.what());
        }
    }

    if (!opt.baselinePath.empty()) {
        bench::BenchReport baseline;
        try {
            baseline = bench::loadReport(opt.baselinePath);
        } catch (const bench::BenchIoError &e) {
            fatal(e.what());
        }
        auto cmp =
            bench::compareToBaseline(report, baseline, opt.maxSlowdown);
        std::cout << "\n";
        bench::printComparison(cmp, opt.maxSlowdown, std::cout);
        if (cmp.anyRegression()) {
            std::cerr << "mech_bench: performance regression vs "
                      << opt.baselinePath << "\n";
            return 1;
        }
        std::cout << "baseline gate passed\n";
    }

    return 0;
}
