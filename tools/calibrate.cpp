/**
 * @file
 * Calibration diagnostic: per-benchmark model-vs-simulator breakdown.
 *
 * Prints each model penalty component next to the simulator's stall
 * diagnostics so systematic modeling bias can be localized.  Not part
 * of the library API; a developer tool.
 *
 * With --profile-dir, benchmarks whose `.mprof` artifacts exist there
 * (written by mech_profile) are loaded instead of re-profiled.
 */

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "mech/mech.hh"

int
main(int argc, char **argv)
{
    using namespace mech;

    InstCount n = 200000;
    unsigned width = 0;
    unsigned nthreads = 0;
    std::string profile_dir;
    std::string mdesc_path;

    cli::ArgParser parser(
        "calibrate",
        "per-benchmark model-vs-simulator penalty breakdown");
    parser.add("instructions", "N", "dynamic instructions per trace",
               &n);
    parser.add("width", "W", "override the superscalar width",
               &width);
    parser.add("threads", "N",
               "worker threads (0 = all hardware threads)", &nthreads);
    parser.add("profile-dir", "dir",
               "load .mprof artifacts from this directory instead of "
               "re-profiling",
               &profile_dir);
    parser.add("mdesc", "file",
               "calibrate a characterized .mdesc machine description "
               "instead of the built-in Table 1 parameters",
               &mdesc_path);
    parser.parse(argc, argv);
    nthreads = ThreadPool::sanitizeWorkerCount(
        static_cast<long long>(nthreads));

    DesignPoint point = defaultDesignPoint();
    if (!mdesc_path.empty())
        point = designPointFor(applyMachineDescription(mdesc_path));
    if (width)
        point.width = width;

    TextTable table({"bench", "mCPI", "sCPI", "err%", "m.deps", "s.deps",
                     "m.taken", "s.taken", "m.miss", "s.fetchmiss",
                     "m.bpred", "s.bpredstall", "m.LL+l2"});

    // Batch: every benchmark profiled (or loaded) and evaluated by
    // the model and detailed-simulation backends at the chosen point,
    // sharded across the pool.  Groups of nthreads benchmarks bound
    // peak memory: each study pins its full trace (and captured L2
    // stream), and one point per benchmark gains nothing from keeping
    // profiles cached beyond its group, so each group gets a fresh
    // engine.
    const auto &suite = mibenchSuite();
    const BackendSet backends = backendSet("model,sim");
    const std::size_t group_size = std::max(1u, nthreads);
    ThreadPool pool(nthreads <= 1 ? 0 : nthreads);
    std::vector<StudyResult> results;
    for (std::size_t at = 0; at < suite.size(); at += group_size) {
        auto last =
            suite.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(suite.size(), at + group_size));
        BatchEngine engine(n, profile_dir);
        auto group = engine.evaluateMatrix(
            {suite.begin() + static_cast<std::ptrdiff_t>(at), last},
            {point}, pool, backends);
        results.insert(results.end(),
                       std::make_move_iterator(group.begin()),
                       std::make_move_iterator(group.end()));
    }

    for (const auto &result : results) {
        const PointEvaluation &ev = result.evals.at(0);
        const EvalResult &model = ev.model();
        const auto &st = model.stack;
        const SimResult &sim = *ev.sim()->detail;
        double N = static_cast<double>(model.instructions);

        auto cpi = [N](double cycles) { return cycles / N; };

        table.addRow({
            result.benchmark,
            TextTable::num(model.cpi(), 3),
            TextTable::num(ev.sim()->cpi(), 3),
            // Both backends ran, so the error is always present;
            // value() keeps "no sim" loudly distinct from 0% error.
            TextTable::num(ev.cpiError().value() * 100.0, 1),
            TextTable::num(cpi(st.dependencies()), 3),
            TextTable::num(cpi(static_cast<double>(
                sim.dependencyStallCycles)), 3),
            TextTable::num(cpi(st[CpiComponent::BpredTakenHit]), 3),
            TextTable::num(cpi(static_cast<double>(
                sim.takenBubbleCycles)), 3),
            TextTable::num(cpi(st.ifetch() + st.tlb()), 3),
            TextTable::num(cpi(static_cast<double>(
                sim.fetchMissStallCycles)), 3),
            TextTable::num(cpi(st[CpiComponent::BpredMiss]), 3),
            TextTable::num(cpi(static_cast<double>(
                sim.mispredictStallCycles)), 3),
            TextTable::num(cpi(st[CpiComponent::LongLat] +
                               st[CpiComponent::L2Access] +
                               st[CpiComponent::L2Miss]), 3),
        });
    }
    table.print(std::cout);
    return 0;
}
