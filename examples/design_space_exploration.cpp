/**
 * @file
 * Example: power/performance design-space exploration (paper §6.3).
 *
 * Profiles one benchmark once, then ranks the full Table 2 space by
 * model-estimated energy-delay product in well under a second —
 * the workflow that takes months with detailed simulation.  The
 * sweep runs through the batched engine, sharded across every
 * hardware thread.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "mech/mech.hh"

int
main(int argc, char **argv)
{
    using namespace mech;

    std::string bench_name = "gsm_c";
    InstCount n = 150000;
    unsigned nthreads = 0;
    cli::ArgParser parser("design_space_exploration",
                          "rank the Table 2 space by model-estimated "
                          "EDP for one benchmark");
    parser.addPositional("benchmark", "profile name", &bench_name);
    parser.addPositional("instructions", "trace length", &n);
    parser.addPositional("threads",
                         "worker threads (0 = all hardware threads)",
                         &nthreads);
    parser.parse(argc, argv);
    nthreads = ThreadPool::sanitizeWorkerCount(
        static_cast<long long>(nthreads));

    auto space = table2Space();

    ThreadPool pool(nthreads <= 1 ? 0 : nthreads);
    BatchEngine engine(n);
    std::vector<PointEvaluation> evals = std::move(
        engine.evaluateMatrix({profileByName(bench_name)}, space, pool)
            .at(0)
            .evals);

    std::sort(evals.begin(), evals.end(),
              [](const auto &a, const auto &b) {
                  return a.model().edp < b.model().edp;
              });

    std::cout << "benchmark: " << bench_name << "  (" << space.size()
              << " design points, model-only exploration)\n\n"
              << "ten best configurations by estimated EDP:\n";
    TextTable table({"rank", "configuration", "CPI", "EDP (uJ*s)"});
    for (std::size_t i = 0; i < 10 && i < evals.size(); ++i) {
        table.addRow({std::to_string(i + 1), evals[i].point.label(),
                      TextTable::num(evals[i].model().cpi(), 3),
                      TextTable::num(evals[i].model().edp * 1e6, 4)});
    }
    table.print(std::cout);

    std::cout << "\nworst configuration: " << evals.back().point.label()
              << " at "
              << TextTable::num(evals.back().model().edp * 1e6, 4)
              << " uJ*s\n";
    return 0;
}
