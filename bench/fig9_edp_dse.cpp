/**
 * @file
 * Figure 9: energy-delay-product design-space exploration for
 * adpcm_d, gsm_c, lame and patricia: model-estimated EDP vs
 * detailed-simulation EDP across the Table 2 space, configurations
 * ordered from high to low (detailed) EDP.
 *
 * Paper result: the model finds the same EDP-optimal configuration
 * for 12/19 benchmarks, within 0.5% of optimal for 6 more, within 5%
 * for the last (adpcm_d, where it picks width 2 instead of 3).
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace mech;
    bench::Args args = bench::parseArgs(
        argc, argv, "fig9_edp_dse",
        "EDP design-space exploration, model vs detailed simulation",
        50000);
    auto space = table2Space();

    std::cout << "=== Figure 9: EDP design-space exploration ===\n"
              << space.size() << " design points, " << args.instructions
              << " instructions per benchmark, " << args.threads
              << " worker thread(s)\n\n";

    // One batched run: 4 benchmarks x 192 points x (model + detailed
    // sim), sharded across the pool.
    bench::BenchReport report = bench::makeReport("fig9_edp_dse");
    const double t0 = bench::monotonicSeconds();

    ThreadPool pool(args.threads <= 1 ? 0 : args.threads);
    BatchEngine engine(args.instructions, args.profileDir);
    auto results = engine.evaluateMatrix(
        {profileByName("adpcm_d"), profileByName("gsm_c"),
         profileByName("lame"), profileByName("patricia")},
        space, pool, backendSet("model,sim"));
    report.add("fig9", "sweep", "wall_seconds",
               bench::monotonicSeconds() - t0, "s");

    for (auto &result : results) {
        const std::string &name = result.benchmark;
        std::vector<PointEvaluation> &evals = result.evals;

        auto sim_edp = [](const PointEvaluation &ev) {
            return ev.of(kSimBackend).edp;
        };
        auto model_edp = [](const PointEvaluation &ev) {
            return ev.model().edp;
        };

        std::sort(evals.begin(), evals.end(),
                  [&](const auto &a, const auto &b) {
                      return sim_edp(a) > sim_edp(b);
                  });

        auto model_best = std::min_element(
            evals.begin(), evals.end(),
            [&](const auto &a, const auto &b) {
                return model_edp(a) < model_edp(b);
            });
        auto sim_best = std::min_element(
            evals.begin(), evals.end(),
            [&](const auto &a, const auto &b) {
                return sim_edp(a) < sim_edp(b);
            });

        std::cout << "--- " << name
                  << " (EDP in J*s, ordered high->low detailed EDP; "
                     "every 16th point shown) ---\n";
        TextTable table({"configuration", "estimated EDP",
                         "detailed EDP"});
        for (std::size_t i = 0; i < evals.size(); i += 16) {
            table.addRow({evals[i].point.label(),
                          TextTable::num(model_edp(evals[i]) * 1e6, 4),
                          TextTable::num(sim_edp(evals[i]) * 1e6, 4)});
        }
        table.addRow({evals.back().point.label(),
                      TextTable::num(model_edp(evals.back()) * 1e6, 4),
                      TextTable::num(sim_edp(evals.back()) * 1e6, 4)});
        table.print(std::cout);
        std::cout << "  (EDP shown in uJ*s)\n";

        double edp_gap = (sim_edp(*model_best) - sim_edp(*sim_best)) /
                         sim_edp(*sim_best);
        std::cout << "  detailed optimum: " << sim_best->point.label()
                  << "\n  model picks:      "
                  << model_best->point.label()
                  << "\n  EDP excess of the model's pick: "
                  << TextTable::num(edp_gap * 100.0, 2)
                  << "%  (paper tolerance: < 5%)\n\n";
        report.add("fig9", name, "edp_gap", edp_gap * 100.0, "%");
        report.add("fig9", name, "sim_best_edp",
                   sim_edp(*sim_best) * 1e6, "uJ*s");
        report.add("fig9", name, "model_pick_edp",
                   sim_edp(*model_best) * 1e6, "uJ*s");
    }

    bench::maybeWriteReport(args, report);
    return 0;
}
