/**
 * @file
 * Figure 5: cumulative distribution of the model's CPI prediction
 * error across the full Table 2 design space (192 points x the
 * MiBench-like suite), plus the exploration-speedup measurement that
 * motivates the paper (detailed simulation of the space: 290 days;
 * the model: hours, dominated by profiling).
 *
 * Paper result: average error 2.5%, 90% of points below 6%, max 9.6%.
 */

#include <chrono>
#include <iostream>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace mech;
    using clock = std::chrono::steady_clock;
    bench::Args args = bench::parseArgs(
        argc, argv, "fig5_error_cdf",
        "model error CDF across the full Table 2 design space", 50000,
        /*with_threads=*/false);

    auto space = table2Space();
    const auto &suite = mibenchSuite();
    const BackendSet model_only = backendSet("model");
    const BackendSet with_sim = backendSet("model,sim");

    std::cout << "=== Figure 5: error CDF across the design space ===\n"
              << space.size() << " design points x " << suite.size()
              << " benchmarks, " << args.instructions
              << " instructions each\n\n";

    bench::BenchReport report = bench::makeReport("fig5_error_cdf");
    std::vector<double> errors;
    double sim_seconds = 0.0, model_seconds = 0.0, profile_seconds = 0.0;

    for (const auto &bench : suite) {
        auto t0 = clock::now();
        DseStudy study = bench::makeStudy(bench, args);
        study.prepare(space);
        profile_seconds +=
            std::chrono::duration<double>(clock::now() - t0).count();
        for (const auto &point : space) {
            auto t1 = clock::now();
            PointEvaluation cheap = study.evaluate(point, model_only);
            auto t2 = clock::now();
            PointEvaluation validated = study.evaluate(point, with_sim);
            auto t3 = clock::now();
            model_seconds +=
                std::chrono::duration<double>(t2 - t1).count();
            sim_seconds +=
                std::chrono::duration<double>(t3 - t2).count();
            (void)cheap;
            errors.push_back(validated.cpiError().value() * 100.0);
        }
    }

    SummaryStats stats;
    for (double e : errors)
        stats.add(e);

    std::vector<double> thresholds;
    for (int t = 0; t <= 12; ++t)
        thresholds.push_back(static_cast<double>(t));
    auto cdf = empiricalCdf(errors, thresholds);

    TextTable table({"error <=", "fraction of design points"});
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
        table.addRow({TextTable::num(thresholds[i], 0) + "%",
                      TextTable::num(cdf[i], 3)});
    }
    table.print(std::cout);

    std::cout << "\naverage error: " << TextTable::num(stats.mean(), 2)
              << "%   p90: "
              << TextTable::num(percentile(errors, 90.0), 2)
              << "%   max: " << TextTable::num(stats.max(), 2)
              << "%   (paper: avg 2.5%, 90% < 6%, max 9.6%)\n";

    std::cout << "\nexploration cost over this space ("
              << errors.size() << " evaluations):\n"
              << "  detailed simulation: "
              << TextTable::num(sim_seconds, 2) << " s\n"
              << "  profiling (once per benchmark): "
              << TextTable::num(profile_seconds, 2) << " s\n"
              << "  model evaluation: "
              << TextTable::num(model_seconds, 3) << " s\n"
              << "  speedup (sim / model eval): "
              << TextTable::num(sim_seconds / std::max(1e-9,
                                                       model_seconds),
                                0)
              << "x   (paper: ~3 orders of magnitude; profiling "
                 "dominates the model-side cost)\n";

    report.add("fig5", "space", "error_avg", stats.mean(), "%");
    report.add("fig5", "space", "error_p90",
               percentile(errors, 90.0), "%");
    report.add("fig5", "space", "error_max", stats.max(), "%");
    report.add("fig5", "space", "sim_seconds", sim_seconds, "s");
    report.add("fig5", "space", "profile_seconds", profile_seconds,
               "s");
    report.add("fig5", "space", "model_seconds", model_seconds, "s");
    report.add("fig5", "space", "sim_over_model",
               sim_seconds / std::max(1e-9, model_seconds), "speedup");
    bench::maybeWriteReport(args, report);
    return 0;
}
