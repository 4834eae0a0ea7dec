/**
 * @file
 * End-to-end guarantees of the search engine:
 *
 *  - golden equivalence: exhaustive search over the Table 2 spec
 *    (the engine's cached path) reproduces its matrix path exactly
 *    (bitwise CPI and EDP per point) and lands on the same
 *    model-side EDP-optimal configuration Fig. 9's workflow picks;
 *  - determinism: the same seed and budget produce bit-identical
 *    search JSON at 1, 2 and 8 worker threads, for every strategy;
 *  - cache semantics: revisits are hits, fresh evaluations respect
 *    the budget, and every strategy reports its traffic.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dse/design_space.hh"
#include "search/batch_engine.hh"
#include "search/report.hh"
#include "search/strategy.hh"
#include "workload/suites.hh"

namespace mech {
namespace {

constexpr InstCount kLen = 20000;

/** The matrix path's evaluations of @p bench over @p points. */
std::vector<PointEvaluation>
matrixSweep(const std::string &bench,
            const std::vector<DesignPoint> &points)
{
    ThreadPool pool(0);
    BatchEngine engine(kLen);
    return std::move(
        engine.evaluateMatrix({profileByName(bench)}, points, pool)
            .at(0)
            .evals);
}

/** A fresh evaluator over @p benches with @p objective_csv. */
SearchEvaluator
makeEvaluator(const std::vector<std::string> &benches,
              const std::string &objective_csv)
{
    std::vector<BenchmarkProfile> profiles;
    for (const std::string &name : benches)
        profiles.push_back(profileByName(name));
    return SearchEvaluator(std::move(profiles), kLen,
                           parseObjectives(objective_csv));
}

TEST(SearchGolden, ExhaustiveTable2MatchesStudyRunnerExactly)
{
    const std::string bench = "gsm_c";

    // The matrix path over the eager 192-point list.
    auto space = table2Space();
    const std::vector<PointEvaluation> matrix = matrixSweep(bench, space);
    ASSERT_EQ(matrix.size(), space.size());

    // The cached path: exhaustive search over the table2 spec with
    // cpi + edp objectives.
    SearchEvaluator evaluator = makeEvaluator({bench}, "cpi,edp");
    SearchOptions opts;
    opts.budget = 0; // unlimited: the whole space
    opts.threads = 2;
    SearchResult result =
        runSearch(SpaceSpec::table2(), "exhaustive", evaluator, opts);

    ASSERT_EQ(result.evaluated.size(), space.size());
    EXPECT_EQ(result.stats.misses, space.size());
    EXPECT_EQ(result.stats.hits, 0u);
    for (std::size_t i = 0; i < space.size(); ++i) {
        const SearchEval &eval = *result.evaluated[i];
        const EvalResult &model = matrix[i].model();
        // Same enumeration order, bitwise-equal model numbers.
        EXPECT_TRUE(eval.point == space[i]) << "index " << i;
        EXPECT_EQ(eval.aggregate[0], model.cpi()) << "index " << i;
        EXPECT_EQ(eval.aggregate[1], model.edp) << "index " << i;
    }
}

TEST(SearchGolden, ExhaustiveFindsTheFig9EdpOptimalPoint)
{
    // Fig. 9's workflow: the model ranks the Table 2 space by EDP
    // and picks the optimum.  The search engine must land on the
    // same configuration the direct argmin over the matrix path's
    // results produces.
    for (const std::string bench : {"adpcm_d", "gsm_c"}) {
        auto evals = matrixSweep(bench, table2Space());
        std::size_t argmin = 0;
        for (std::size_t i = 1; i < evals.size(); ++i) {
            if (evals[i].model().edp < evals[argmin].model().edp)
                argmin = i;
        }

        SearchEvaluator evaluator = makeEvaluator({bench}, "edp");
        SearchOptions opts;
        opts.budget = 0;
        SearchResult result = runSearch(SpaceSpec::table2(),
                                        "exhaustive", evaluator, opts);
        EXPECT_TRUE(result.best().point == evals[argmin].point)
            << bench << ": search picked "
            << result.best().point.label() << ", argmin is "
            << evals[argmin].point.label();
        // With a single scalar objective the frontier is exactly the
        // set of optimal points.
        for (std::size_t idx : result.frontier) {
            EXPECT_EQ(result.evaluated[idx]->aggregate[0],
                      evals[argmin].model().edp);
        }
    }
}

TEST(SearchGolden, EveryStrategyIsBitIdenticalAcrossThreadCounts)
{
    // ~640-point space, multi-objective, two benchmarks — big enough
    // that batches actually shard, small enough to stay fast.
    SpaceSpec spec = SpaceSpec::parse(
        "l2kb=128,256,512,1024;assoc=8,16;depth=5@0.6,7@0.8,9@1.0;"
        "width=1:4;pred=gshare1k,hybrid3k5");
    SearchEvaluator evaluator =
        makeEvaluator({"sha", "dijkstra"}, "edp,cpi");

    for (const std::string strategy :
         {"exhaustive", "random", "hillclimb", "genetic"}) {
        SearchOptions opts;
        opts.seed = 7;
        opts.budget = 150;
        opts.population = 12;

        std::string first_json;
        for (unsigned threads : {1u, 2u, 8u}) {
            opts.threads = threads;
            SearchResult result =
                runSearch(spec, strategy, evaluator, opts);
            std::ostringstream json;
            writeSearchResultJson(result, json);
            if (threads == 1u) {
                first_json = json.str();
                EXPECT_FALSE(result.frontier.empty()) << strategy;
            } else {
                EXPECT_EQ(json.str(), first_json)
                    << strategy << " diverged at " << threads
                    << " threads";
            }
        }
    }
}

TEST(SearchGolden, IterativeStrategiesHitTheMemoizedCache)
{
    SpaceSpec spec = SpaceSpec::parse(
        "l2kb=128,256;assoc=8;depth=5@0.6,9@1.0;width=1:4;"
        "pred=gshare1k,hybrid3k5");
    SearchEvaluator evaluator = makeEvaluator({"sha"}, "edp");

    for (const std::string strategy :
         {"random", "hillclimb", "genetic"}) {
        SearchOptions opts;
        opts.seed = 3;
        opts.budget = 40;
        opts.population = 8;
        opts.threads = 1;
        SearchResult result =
            runSearch(spec, strategy, evaluator, opts);
        // Revisits cost zero fresh evaluations and are reported.
        EXPECT_GT(result.stats.hits, 0u) << strategy;
        EXPECT_EQ(result.stats.requested,
                  result.stats.hits + result.stats.misses)
            << strategy;
        EXPECT_EQ(result.evaluated.size(), result.stats.misses)
            << strategy;
        // The budget bounds fresh evaluations (the space has only 32
        // points, so it binds before the budget here).
        EXPECT_LE(result.stats.misses, 40u) << strategy;
        EXPECT_FALSE(result.frontier.empty()) << strategy;
    }
}

TEST(SearchGolden, BudgetBoundsFreshEvaluations)
{
    SearchEvaluator evaluator = makeEvaluator({"sha"}, "edp");
    SearchOptions opts;
    opts.seed = 11;
    opts.budget = 100;
    opts.threads = 2;
    opts.population = 16;
    for (const std::string strategy : {"random", "genetic"}) {
        SearchResult result = runSearch(SpaceSpec::wide(), strategy,
                                        evaluator, opts);
        // One batch of overshoot at most (genetic evaluates whole
        // populations; random caps batches at the remaining budget).
        EXPECT_GE(result.stats.misses, 90u) << strategy;
        EXPECT_LE(result.stats.misses, 100u + opts.population)
            << strategy;
    }
}

TEST(SearchGolden, HillclimbImprovesOnItsStartingPoints)
{
    // Not a statistical claim — just that the best found is at least
    // as good as every evaluated point (internal consistency) and
    // the scalar best agrees with a linear scan.
    SearchEvaluator evaluator = makeEvaluator({"qsort"}, "edp");
    SearchOptions opts;
    opts.seed = 5;
    opts.budget = 120;
    opts.threads = 1;
    SearchResult result = runSearch(SpaceSpec::wide(), "hillclimb",
                                    evaluator, opts);
    const double best = result.best().aggregate[0];
    for (const SearchEval *eval : result.evaluated)
        EXPECT_GE(eval->aggregate[0], best);
}

} // namespace
} // namespace mech
