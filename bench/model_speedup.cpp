/**
 * @file
 * Section 5 speedup claim, measured with the in-repo harness:
 * evaluating the analytical model for a design point vs detailed
 * simulation of the same point, plus the one-off trace-generation and
 * profiling costs, each with warmup + min-of-N repetition selection
 * (src/common/bench.hh).
 *
 * Paper: simulating the 192-point space takes 290 days; the model
 * takes 4.5 hours, dominated by profiling — model evaluation itself
 * is "a few seconds" for the whole space.
 *
 * Like every driver, --json emits the measurements in the shared
 * schema-versioned artifact format (docs/benchmarking.md).
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace {

using namespace mech;

constexpr const char *kSuite = "model_speedup";

/** One throughput row: measure, print, record. */
template <typename F>
double
timed(const char *name, F &&body, double items, const char *unit,
      const bench::MeasureOptions &opts, bench::BenchReport &report)
{
    bench::Measurement m = bench::measure(std::forward<F>(body), opts);
    double rate = m.rate(items);
    std::cout << "  " << name << ": "
              << TextTable::num(m.secondsPerIter * 1e3, 3)
              << " ms/iter  (" << TextTable::num(rate, 0) << " " << unit
              << ", min of " << m.repSecondsPerIter.size() << " x "
              << m.itersPerRep << " iters)\n";
    report.add(kSuite, name, "throughput", rate, unit);
    return m.secondsPerIter;
}

/**
 * Serial-vs-parallel wall-clock comparison of the complete
 * profile-once / predict-everywhere workflow (trace generation +
 * profiling + 192-point model sweep for 8 benchmarks).
 */
void
reportBatchSpeedup(InstCount len, unsigned nthreads,
                   bench::BenchReport &report)
{
    using clock = std::chrono::steady_clock;

    const std::vector<BenchmarkProfile> benches = {
        profileByName("tiffdither"), profileByName("sha"),
        profileByName("patricia"),   profileByName("jpeg_c"),
        profileByName("adpcm_d"),    profileByName("gsm_c"),
        profileByName("lame"),       profileByName("dijkstra")};
    const auto space = table2Space();

    auto timeRun = [&](unsigned threads) {
        ThreadPool pool(threads <= 1 ? 0 : threads);
        BatchEngine engine(len); // fresh: includes profiling
        auto t0 = clock::now();
        auto results = engine.evaluateMatrix(benches, space, pool);
        auto t1 = clock::now();
        bench::doNotOptimize(results.back().evals.back().model().cycles);
        return std::chrono::duration<double>(t1 - t0).count();
    };

    double serial_s = timeRun(1);
    double parallel_s = timeRun(nthreads);
    double speedup = serial_s / parallel_s;

    std::cout << "\n--- batched design-space sweep, " << benches.size()
              << " benchmarks x " << space.size() << " points (" << len
              << " instructions each) ---\n"
              << "serial   (1 thread):   " << serial_s * 1e3 << " ms\n"
              << "parallel (" << nthreads
              << " threads):  " << parallel_s * 1e3 << " ms\n"
              << "parallel speedup: " << speedup
              << "x (hardware threads: " << nthreads << ")\n";
    report.add(kSuite, "batch_sweep", "serial_seconds", serial_s, "s");
    report.add(kSuite, "batch_sweep", "parallel_seconds", parallel_s,
               "s");
    report.add(kSuite, "batch_sweep", "parallel_speedup", speedup,
               "speedup");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mech;

    unsigned repetitions = 5;
    double min_time_ms = 50.0;
    // This bench times fresh profiling runs per measurement, so
    // saved artifacts cannot apply (hence no --profile-dir).
    bench::Args args = bench::parseArgs(
        argc, argv, "model_speedup",
        "model-vs-simulation speedup measurement (paper section 5)",
        50000, /*with_threads=*/true, /*with_profile_dir=*/false,
        [&](cli::ArgParser &parser) {
            parser.add("repetitions", "N",
                       "timed repetitions per measurement (min-of-N)",
                       &repetitions);
            parser.add("min-time-ms", "ms",
                       "minimum duration of one repetition",
                       &min_time_ms);
        });
    if (repetitions < 1)
        fatal("--repetitions must be at least 1");

    const InstCount len = args.instructions;
    bench::MeasureOptions opts;
    opts.repetitions = repetitions;
    opts.minSeconds = min_time_ms / 1e3;

    bench::BenchReport report = bench::makeReport("model_speedup");
    std::cout << "=== model vs simulation speedup (" << len
              << " instructions, min-of-" << repetitions << ") ===\n\n";

    const BenchmarkProfile &bench_profile = profileByName("tiffdither");

    timed("trace_gen",
          [&] {
              Trace tr = generateTrace(bench_profile, len);
              bench::doNotOptimize(tr.size());
          },
          static_cast<double>(len), "insns/s", opts, report);

    Trace tr = generateTrace(bench_profile, len);
    ProfilerConfig pcfg;
    pcfg.hierarchy = hierarchyFor(defaultDesignPoint());
    pcfg.captureL2Stream = true;
    timed("profiling",
          [&] {
              WorkloadProfile p = profileTrace(tr, pcfg);
              bench::doNotOptimize(p.program.n);
          },
          static_cast<double>(len), "insns/s", opts, report);

    DseStudy study(bench_profile, len);
    DesignPoint off_default = defaultDesignPoint();
    off_default.l2KB = 256; // off-default so the L2 resweep shows once
    study.prepare({off_default});
    double model_spi =
        timed("model_eval",
              [&] {
                  PointEvaluation ev = study.evaluate(off_default);
                  bench::doNotOptimize(ev.model().cycles);
              },
              1.0, "evals/s", opts, report);

    SimConfig scfg = simConfigFor(defaultDesignPoint());
    double sim_spi = timed("detailed_sim",
                           [&] {
                               SimResult res =
                                   simulateInOrder(study.trace(), scfg);
                               bench::doNotOptimize(res.cycles);
                           },
                           static_cast<double>(len), "insns/s", opts,
                           report);

    double point_speedup = sim_spi / model_spi;
    std::cout << "  one-point speedup (detailed sim / model eval): "
              << TextTable::num(point_speedup, 0) << "x\n";
    report.add(kSuite, "one_point", "sim_over_model", point_speedup,
               "speedup");

    reportBatchSpeedup(len, args.threads, report);

    bench::maybeWriteReport(args, report);
    return 0;
}
