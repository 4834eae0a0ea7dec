/**
 * @file
 * Table 2: the architecture design space and default configuration,
 * with per-parameter one-at-a-time model sensitivity around the
 * default (an ablation the analytical model makes instantaneous).
 */

#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace mech;
    bench::Args args = bench::parseArgs(
        argc, argv, "table2_design_space",
        "the Table 2 design space and model sensitivity", 250000);
    DesignPoint def = defaultDesignPoint();

    std::cout << "=== Table 2: design space ===\n\n";
    TextTable params({"parameter", "default", "range"});
    params.addRow({"I-cache", "32KB 4-way 64B", "fixed"});
    params.addRow({"D-cache", "32KB 4-way 64B", "fixed"});
    params.addRow({"L2 cache", "512KB 8-way 10ns",
                   "128KB-1MB, 8 vs 16-way"});
    params.addRow({"pipeline depth", "9 stages @1GHz",
                   "5@600MHz - 7@800MHz - 9@1GHz"});
    params.addRow({"width", "4", "1-4"});
    params.addRow({"branch predictor", "1KB gshare",
                   "1KB gshare vs 3.5KB hybrid"});
    params.print(std::cout);

    auto space = table2Space();
    std::cout << "\ntotal design points: " << space.size() << "\n\n";

    // One-at-a-time sensitivity for one middle-of-the-road benchmark:
    // batch every probe (default first) through the parallel engine.
    const char *bench = "jpeg_c";
    std::vector<std::string> labels;
    std::vector<DesignPoint> probes;
    auto probe = [&](const std::string &label, const DesignPoint &p) {
        labels.push_back(label);
        probes.push_back(p);
    };
    probe("default", def);
    DesignPoint p = def;
    p.width = 1;
    probe("width 1", p);
    p = def;
    p.width = 2;
    probe("width 2", p);
    p = def;
    p.depth = 5;
    p.freqGHz = 0.6;
    probe("5-stage @600MHz", p);
    p = def;
    p.depth = 7;
    p.freqGHz = 0.8;
    probe("7-stage @800MHz", p);
    p = def;
    p.l2KB = 128;
    probe("L2 128KB", p);
    p = def;
    p.l2KB = 1024;
    probe("L2 1MB", p);
    p = def;
    p.l2Assoc = 16;
    probe("L2 16-way", p);
    p = def;
    p.predictor = PredictorKind::Hybrid3K5;
    probe("hybrid 3.5KB predictor", p);

    bench::BenchReport report = bench::makeReport("table2_design_space");
    const double t0 = bench::monotonicSeconds();

    ThreadPool pool(args.threads <= 1 ? 0 : args.threads);
    BatchEngine engine(args.instructions, args.profileDir);
    auto evals = engine.evaluateMatrix({profileByName(bench)}, probes, pool);
    const std::vector<PointEvaluation> &points = evals.at(0).evals;
    double base_cpi = points.at(0).model().cpi();
    report.add("table2", "default", "model_cpi", base_cpi, "CPI");

    std::cout << "model sensitivity around the default (" << bench
              << ", CPI " << TextTable::num(base_cpi, 3) << "):\n\n";
    TextTable sens({"variation", "model CPI", "vs default"});
    for (std::size_t i = 1; i < points.size(); ++i) {
        double cpi = points[i].model().cpi();
        double delta = (cpi / base_cpi - 1.0) * 100.0;
        sens.addRow({labels[i], TextTable::num(cpi, 3),
                     TextTable::num(delta, 1) + "%"});
        report.add("table2", labels[i], "model_cpi", cpi, "CPI");
        report.add("table2", labels[i], "delta_vs_default", delta,
                   "%");
    }
    sens.print(std::cout);

    std::cout << "\n(CPI comparisons only; the depth/frequency rows "
                 "trade cycles for clock period, which the EDP study "
                 "in fig9_edp_dse weighs properly.)\n";

    report.add("table2", "suite", "wall_seconds",
               bench::monotonicSeconds() - t0, "s");
    bench::maybeWriteReport(args, report);
    return 0;
}
