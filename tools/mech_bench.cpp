/**
 * @file
 * mech_bench: the repo's named micro/macro benchmarks behind the CI
 * perf gate.
 *
 * Covers every throughput the paper's speedup story rests on:
 *
 *   profiler           profiling pass throughput        insns/s
 *   stack_distance     StackDistanceSimulator::access   accesses/s
 *   inorder_sim        detailed in-order simulation     cycles/s
 *   oosim_cycles       out-of-order simulation          cycles/s
 *   characterize_infer full machine characterizations   inferences/s
 *   model_eval         analytical model evaluations     evals/s
 *   profile_roundtrip  .mprof save + load round trip    roundtrips/s
 *   json_number        json::writeNumber, CPI-like      values/s
 *   sweep_l2           cold wide DseStudy::prepare      geometries/s
 *   dse_scaling        parallel DSE sweep, 1..N thr     evals/s
 *   search_pareto      genetic Pareto search + cache    evals/s
 *   serve_throughput   warm mech_serve session          requests/s
 *
 * Each benchmark is measured with warmup + adaptive iteration count +
 * min-of-N repetitions (src/common/bench.hh) and lands in a
 * schema-versioned JSON artifact (--json).  With --baseline the run
 * is compared against a checked-in artifact and the process exits
 * nonzero on any slowdown beyond --max-slowdown — the CI perf gate.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
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
    double minScaling = 0.0;
    double minSaturation = 0.0;
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

    /**
     * Address stream for the stack-distance benchmark: the data
     * addresses the profiled trace actually touches, so hit depths
     * follow real workload locality rather than a synthetic pattern.
     */
    const std::vector<Addr> &
    addressStream()
    {
        if (addrs_.empty()) {
            for (const DynInstr &di : trace()) {
                if (isMem(di.op))
                    addrs_.push_back(di.effAddr);
            }
        }
        return addrs_;
    }

  private:
    InstCount n_;
    unsigned threads_;
    Trace trace_;
    std::unique_ptr<DseStudy> study_;
    std::vector<Addr> addrs_;
};

using RunFn = std::function<void(Fixture &, const bench::MeasureOptions &,
                                 bench::BenchReport &)>;

struct NamedBenchmark
{
    std::string name;
    std::string description;
    RunFn run;
};

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
    report.add(kSuite, "profiler", "throughput",
               m.rate(static_cast<double>(tr.size())), "insns/s");
}

void
runStackDistance(Fixture &fx, const bench::MeasureOptions &opts,
                 bench::BenchReport &report)
{
    const std::vector<Addr> &addrs = fx.addressStream();
    // L2-flavoured geometry: few sets keep the per-set stacks deep,
    // which is exactly where the recency-scan cost lives.
    StackDistanceSimulator sim(64, 64, 64);
    auto m = bench::measure(
        [&] {
            for (Addr a : addrs)
                sim.access(a);
            bench::doNotOptimize(sim.accesses());
        },
        opts);
    report.add(kSuite, "stack_distance", "throughput",
               m.rate(static_cast<double>(addrs.size())), "accesses/s");
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
    report.add(kSuite, "inorder_sim", "throughput",
               m.rate(static_cast<double>(once.cycles)), "cycles/s");
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
    report.add(kSuite, "oosim_cycles", "throughput",
               m.rate(static_cast<double>(once.cycles)), "cycles/s");
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
    report.add(kSuite, "characterize_infer", "throughput", m.rate(1.0),
               "inferences/s");
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
    report.add(kSuite, "model_eval", "throughput", m.rate(1.0),
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
    report.add(kSuite, "profile_roundtrip", "throughput", m.rate(1.0),
               "roundtrips/s");
}

/**
 * Record @p name's best repetition as "throughput" (the gated metric,
 * like every record) plus the median and the slowest, from the
 * seconds per iteration of each repetition and @p items per
 * iteration.
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

/**
 * Serialization layer: shortest round-trip doubles through
 * json::writeNumber, the formatter behind every response, report and
 * key.  Records the spread of repetitions (addThroughputSpread).
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
 * floor.  Records the spread of repetitions (addThroughputSpread).
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
runDseScaling(Fixture &fx, const bench::MeasureOptions &opts,
              bench::BenchReport &report)
{
    const std::vector<BenchmarkProfile> benches = {
        profileByName(kBenchName), profileByName("sha")};
    BatchEngine engine(fx.instructions());
    // Replicate the 192-point space so one sweep carries several
    // milliseconds of evaluation work: with the bare space a sweep
    // is ~100 us of microsecond-scale model evals and the timing
    // would mostly measure pool startup, not the sharded evaluation
    // phase this benchmark is about.
    auto base_space = table2Space();
    std::vector<DesignPoint> space;
    space.reserve(base_space.size() * 16);
    for (int rep = 0; rep < 16; ++rep)
        space.insert(space.end(), base_space.begin(), base_space.end());
    // Build the studies outside the timed region so every thread
    // count measures only the sharded evaluation phase.
    ThreadPool serial(0);
    bench::doNotOptimize(engine.evaluateMatrix(benches, space, serial).size());
    const double evals_per_run =
        static_cast<double>(benches.size() * space.size());

    // Power-of-two ladder up to the resolved --threads (default: the
    // hardware).  CI pins --threads 8 so the ladder matches the
    // checked-in baseline's threads_1/2/4/8 entries on any runner.
    std::vector<unsigned> ladder;
    for (unsigned t = 1; t < fx.threads(); t *= 2)
        ladder.push_back(t);
    ladder.push_back(fx.threads());

    double rate_one = 0.0;
    double rate_max = 0.0;
    for (unsigned threads : ladder) {
        ThreadPool pool(threads <= 1 ? 0 : threads);
        auto m = bench::measure(
            [&] {
                auto results = engine.evaluateMatrix(benches, space, pool);
                bench::doNotOptimize(
                    results[0].evals[0].model().cycles);
            },
            opts);
        const double rate = m.rate(evals_per_run);
        if (threads == 1)
            rate_one = rate;
        rate_max = rate; // the ladder ends at --threads
        report.add(kSuite, "dse_scaling",
                   "threads_" + std::to_string(threads), rate,
                   "evals/s");
    }

    // Derived scaling efficiency: throughput at the top of the ladder
    // over the single-threaded throughput.  This is the number the CI
    // gate (--min-scaling) protects — a serialized eval pipeline
    // reports ~1x (or below) here no matter how fast each individual
    // eval is, which is exactly the regression absolute throughput
    // gates kept missing.
    report.add(kSuite, "dse_scaling", "scaling_efficiency",
               rate_one > 0.0 ? rate_max / rate_one : 0.0, "speedup");
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
    report.add(kSuite, "search_pareto", "throughput",
               m.rate(evals_per_run), "evals/s");
}

void
runServeThroughput(Fixture &fx, const bench::MeasureOptions &opts,
                   bench::BenchReport &report)
{
    // The serve hot path at steady state: parse a pipelined request
    // line, hit the memoized cache, serialize the response.  One
    // warm service handles every timed iteration, so after the first
    // sweep the stream is pure cache hits — the regime a long-running
    // replay converges to.  Latency fields stay off: the measurement
    // is the deterministic protocol path.
    serve::ServeConfig cfg;
    cfg.traceLen = fx.instructions();
    cfg.threads = fx.threads();
    cfg.defaultBench = {kBenchName};
    serve::EvalService service(cfg);

    std::string requests;
    const auto space = table2Space();
    const std::size_t n_requests = 1024;
    for (std::size_t i = 0; i < n_requests; ++i) {
        requests += "{\"id\": " + std::to_string(i) +
                    ", \"type\": \"eval\", \"point\": \"" +
                    space[i % space.size()].toKey() + "\"}\n";
    }
    serve::SessionOptions sopts;
    sopts.latencyFields = false;

    auto serveOnce = [&] {
        std::istringstream in(requests);
        std::ostringstream out;
        serve::IstreamLineSource source(in);
        serve::ServerSession session(service, source, out, sopts);
        serve::SessionStats stats = session.run();
        bench::doNotOptimize(stats.responses);
    };
    serveOnce(); // warm: profiles the study, fills the cache

    auto m = bench::measure([&] { serveOnce(); }, opts);
    report.add(kSuite, "serve_throughput", "throughput",
               m.rate(static_cast<double>(n_requests)), "requests/s");
}

void
runServeSaturation(Fixture &fx, const bench::MeasureOptions &opts,
                   bench::BenchReport &report)
{
    // The TCP front end under concurrent load: an in-process epoll
    // server on an ephemeral port, then a ladder of 1/8/64/256
    // loopback clients splitting the same warm request set.  The
    // derived saturation_efficiency (throughput at 64 clients over
    // one client) is what the --min-saturation CI gate protects: an
    // accept loop or dispatcher that serializes sessions collapses
    // under concurrency even when the single-client number looks
    // healthy.
    serve::ServeConfig cfg;
    cfg.traceLen = fx.instructions();
    cfg.threads = fx.threads();
    cfg.defaultBench = {kBenchName};
    serve::EvalService service(cfg);

    serve::SessionOptions sopts;
    sopts.latencyFields = false;

    // Per-connection chatter would swamp the report output.
    std::ostream null_log(nullptr);
    serve::TcpServerConfig tcp; // port 0: ephemeral
    tcp.dispatchers = std::min(4u, std::max(1u, fx.threads()));
    serve::TcpServer server(service, tcp, null_log, sopts);
    std::string error;
    if (!server.start(&error))
        fatal("serve_saturation: ", error);
    const unsigned short port = server.port();

    const auto space = table2Space();
    const std::size_t n_requests = 1024;
    std::vector<std::string> requests;
    requests.reserve(n_requests);
    for (std::size_t i = 0; i < n_requests; ++i) {
        requests.push_back("{\"id\": " + std::to_string(i) +
                           ", \"type\": \"eval\", \"point\": \"" +
                           space[i % space.size()].toKey() + "\"}");
    }

    // One timed unit: `clients` connections, each pipelining its
    // slice of the request set, all joined.  Connection setup is part
    // of the measurement — the accept path is half the point.
    auto slam = [&](std::size_t clients) {
        std::vector<std::thread> workers;
        workers.reserve(clients);
        std::atomic<std::size_t> failures{0};
        for (std::size_t c = 0; c < clients; ++c) {
            const std::size_t lo = c * n_requests / clients;
            const std::size_t hi = (c + 1) * n_requests / clients;
            workers.emplace_back([&, lo, hi] {
                std::vector<std::string> slice(
                    requests.begin() +
                        static_cast<std::ptrdiff_t>(lo),
                    requests.begin() +
                        static_cast<std::ptrdiff_t>(hi));
                serve::LoopbackClient client;
                std::vector<std::string> responses;
                std::string err;
                if (!client.connect(port, &err) ||
                    !client.run(slice, &responses, &err)) {
                    failures.fetch_add(1);
                }
            });
        }
        for (std::thread &t : workers)
            t.join();
        if (failures.load() != 0)
            fatal("serve_saturation: ", failures.load(),
                  " client(s) failed");
    };
    slam(1); // warm: profiles the study, fills the cache

    double rate_one = 0.0;
    double rate_64 = 0.0;
    for (std::size_t clients : {1u, 8u, 64u, 256u}) {
        auto m = bench::measure([&] { slam(clients); }, opts);
        const double rate =
            m.rate(static_cast<double>(n_requests));
        report.add(kSuite, "serve_saturation",
                   "clients_" + std::to_string(clients), rate,
                   "requests/s");
        if (clients == 1)
            rate_one = rate;
        if (clients == 64)
            rate_64 = rate;
    }
    report.add(kSuite, "serve_saturation", "saturation_efficiency",
               rate_one > 0.0 ? rate_64 / rate_one : 0.0, "speedup");

    server.requestStop();
    server.wait();
}

std::vector<NamedBenchmark>
allBenchmarks()
{
    return {
        {"profiler", "profiling-pass throughput (insns/s)",
         runProfiler},
        {"stack_distance",
         "StackDistanceSimulator::access throughput (accesses/s)",
         runStackDistance},
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
        {"dse_scaling",
         "parallel DSE sweep throughput at 1..--threads workers",
         runDseScaling},
        {"search_pareto",
         "genetic Pareto search through the memoized eval cache",
         runSearchPareto},
        {"serve_throughput",
         "warm mech_serve session throughput (requests/s)",
         runServeThroughput},
        {"serve_saturation",
         "TCP front end under 1..256 concurrent loopback clients",
         runServeSaturation},
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
    parser.add("min-scaling", "ratio",
               "fail unless dse_scaling/scaling_efficiency of THIS "
               "run reaches the ratio (0 = no gate)",
               &opt.minScaling);
    parser.add("min-saturation", "ratio",
               "fail unless serve_saturation/saturation_efficiency "
               "of THIS run reaches the ratio (0 = no gate)",
               &opt.minSaturation);
    parser.add("threads", "N",
               "top worker count for the multi-threaded benchmarks "
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

    // The scaling gate is absolute, not baseline-relative: a baseline
    // recorded on a small or noisy machine must never lower the bar,
    // and an efficiency regression is a bug at any throughput.
    if (opt.minScaling > 0.0) {
        const bench::BenchRecord *eff = nullptr;
        for (const bench::BenchRecord &r : report.results) {
            if (r.benchmark == "dse_scaling" &&
                r.metric == "scaling_efficiency") {
                eff = &r;
            }
        }
        if (!eff) {
            fatal("--min-scaling needs the dse_scaling benchmark "
                  "(is it excluded by --filter?)");
        }
        std::cout << "\nscaling gate: " << eff->value
                  << "x at --threads " << fx.threads() << " (floor "
                  << opt.minScaling << "x)\n";
        if (eff->value < opt.minScaling) {
            std::cerr << "mech_bench: scaling efficiency "
                      << eff->value << "x is below the --min-scaling "
                      << opt.minScaling << "x floor\n";
            return 1;
        }
        std::cout << "scaling gate passed\n";
    }

    // Same shape as the scaling gate: an absolute floor on how the
    // TCP front end holds up under concurrency, independent of the
    // baseline machine's raw throughput.
    if (opt.minSaturation > 0.0) {
        const bench::BenchRecord *eff = nullptr;
        for (const bench::BenchRecord &r : report.results) {
            if (r.benchmark == "serve_saturation" &&
                r.metric == "saturation_efficiency") {
                eff = &r;
            }
        }
        if (!eff) {
            fatal("--min-saturation needs the serve_saturation "
                  "benchmark (is it excluded by --filter?)");
        }
        std::cout << "\nsaturation gate: " << eff->value
                  << "x at 64 clients (floor " << opt.minSaturation
                  << "x)\n";
        if (eff->value < opt.minSaturation) {
            std::cerr << "mech_bench: saturation efficiency "
                      << eff->value
                      << "x is below the --min-saturation "
                      << opt.minSaturation << "x floor\n";
            return 1;
        }
        std::cout << "saturation gate passed\n";
    }
    return 0;
}
