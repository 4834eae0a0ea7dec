/**
 * @file
 * Tests for the batch-evaluation engine.  The BatchEngineMatrix suite pins
 * the matrix path (BatchEngine::evaluateMatrix, which runs the
 * studies): determinism across worker counts over the full 192-point
 * Table 2 space, agreement with the plain serial DseStudy loop,
 * ordering, profile reuse across calls, and registry-selected backend
 * sets.  The BatchEngine suite pins the cached path against the
 * matrix path, the shared admission rules, when a study holds its
 * trace, that the fan-out runs cells concurrently, and that the
 * evalcache.* counters match the batch stats.
 */

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <future>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include <gtest/gtest.h>

#include "dse/design_space.hh"
#include "dse/study.hh"
#include "eval/registry.hh"
#include "search/batch_engine.hh"
#include "search/objective.hh"
#include "search/space_spec.hh"
#include "model/cpi_stack.hh"
#include "obs/registry.hh"
#include "test_util.hh"
#include "workload/executor.hh"
#include "workload/suites.hh"

namespace {

using namespace mech;

constexpr InstCount kLen = 20000;

/** One matrix sweep on a fresh engine with @p threads workers. */
std::vector<StudyResult>
sweep(const std::vector<BenchmarkProfile> &benches,
      const std::vector<DesignPoint> &points, unsigned threads,
      const BackendSet &backends = defaultBackends())
{
    ThreadPool pool(threads <= 1 ? 0 : threads);
    BatchEngine engine(kLen);
    return engine.evaluateMatrix(benches, points, pool, backends);
}

/** Exact (bitwise) equality of two backend results. */
void
expectSameResult(const EvalResult &a, const EvalResult &b,
                 const std::string &where)
{
    EXPECT_EQ(a.backend, b.backend) << where;
    EXPECT_EQ(a.cycles, b.cycles) << where;
    EXPECT_EQ(a.instructions, b.instructions) << where;
    EXPECT_EQ(a.edp, b.edp) << where;
    EXPECT_EQ(a.hasStack, b.hasStack) << where;
    for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
        auto comp = static_cast<CpiComponent>(c);
        EXPECT_EQ(a.stack[comp], b.stack[comp])
            << where << " component " << cpiComponentName(comp);
    }
    EXPECT_EQ(a.detail.has_value(), b.detail.has_value()) << where;
    if (a.detail && b.detail) {
        EXPECT_EQ(a.detail->cycles, b.detail->cycles) << where;
        EXPECT_EQ(a.detail->mispredicts, b.detail->mispredicts)
            << where;
    }
}

void
expectSameEvaluations(const std::vector<StudyResult> &a,
                      const std::vector<StudyResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
        EXPECT_EQ(a[r].benchmark, b[r].benchmark);
        ASSERT_EQ(a[r].evals.size(), b[r].evals.size());
        for (std::size_t i = 0; i < a[r].evals.size(); ++i) {
            const PointEvaluation &ea = a[r].evals[i];
            const PointEvaluation &eb = b[r].evals[i];
            std::string where = a[r].benchmark + " point " +
                                std::to_string(i) + " (" +
                                ea.point.label() + ")";
            // Ordering: both sides must hold the same design point in
            // the same slot.
            EXPECT_EQ(ea.point.label(), eb.point.label()) << where;
            ASSERT_EQ(ea.results.size(), eb.results.size()) << where;
            for (std::size_t k = 0; k < ea.results.size(); ++k)
                expectSameResult(ea.results[k], eb.results[k], where);
        }
    }
}

TEST(BatchEngineMatrix, ParallelMatchesSerialOverFullTable2Space)
{
    auto space = table2Space();
    ASSERT_EQ(space.size(), 192u);

    auto one = sweep({profileByName("sha")}, space, 1);
    auto many = sweep({profileByName("sha")}, space, 4);

    expectSameEvaluations(one, many);
}

TEST(BatchEngineMatrix, MatchesThePlainSerialStudyLoop)
{
    auto space = table2Space();
    const BenchmarkProfile &bench = profileByName("dijkstra");

    // The pre-existing serial path: one study, one explicit loop.
    DseStudy study(bench, kLen);
    std::vector<PointEvaluation> loop;
    loop.reserve(space.size());
    for (const auto &point : space)
        loop.push_back(study.evaluate(point));

    auto batched = sweep({bench}, space, 4);

    ASSERT_EQ(batched.size(), 1u);
    ASSERT_EQ(batched[0].evals.size(), loop.size());
    for (std::size_t i = 0; i < loop.size(); ++i) {
        expectSameResult(loop[i].model(), batched[0].evals[i].model(),
                         "point " + std::to_string(i));
    }
}

TEST(BatchEngineMatrix, ShardsMultipleBenchmarksDeterministically)
{
    // A small point list exercises the multi-benchmark sharding
    // without paying for the full space three times.
    auto space = table2Space();
    std::vector<DesignPoint> points(space.begin(), space.begin() + 24);

    std::vector<BenchmarkProfile> benches = {
        profileByName("sha"), profileByName("adpcm_d"),
        profileByName("patricia")};

    auto one = sweep(benches, points, 1);
    auto many = sweep(benches, points, 8);

    ASSERT_EQ(one.size(), benches.size());
    for (std::size_t b = 0; b < benches.size(); ++b)
        EXPECT_EQ(one[b].benchmark, benches[b].name);
    expectSameEvaluations(one, many);
}

TEST(BatchEngineMatrix, BitIdenticalAcrossTheThreadLadderOnOneRunner)
{
    // ONE engine swept repeatedly through pools of 1, 2 and 8
    // workers, so every ladder step reuses the same warmed studies.
    // Every step must be bit-identical to the serial sweep.
    auto space = table2Space();
    std::vector<DesignPoint> points(space.begin(), space.begin() + 48);
    const std::vector<BenchmarkProfile> benches = {profileByName("sha"),
                                                   profileByName("gsm_c")};

    BatchEngine engine(kLen);
    ThreadPool serial(0);
    auto one = engine.evaluateMatrix(benches, points, serial);
    for (unsigned threads : {2u, 8u, 1u}) {
        ThreadPool pool(threads <= 1 ? 0 : threads);
        auto step = engine.evaluateMatrix(benches, points, pool);
        expectSameEvaluations(one, step);
    }
}

TEST(BatchEngine, FanOutRunsCellsConcurrently)
{
    // A detailed backend shards one cell per chunk, so 2 benchmarks x
    // 8 points on 4 workers must put 4 evaluations in flight at once.
    // A serialized fan-out reaches 1 and fails after the bound.
    test::RendezvousBackend rendezvous("rendezvous", 4);
    const BackendSet backends = {&rendezvous};
    auto space = table2Space();
    std::vector<DesignPoint> points(space.begin(), space.begin() + 8);
    const std::vector<BenchmarkProfile> benches = {profileByName("sha"),
                                                   profileByName("gsm_c")};

    ThreadPool pool(4);
    BatchEngine engine(kLen);
    auto results = engine.evaluateMatrix(benches, points, pool, backends);
    ASSERT_EQ(results.size(), benches.size());
    EXPECT_GE(rendezvous.peak(), 4u)
        << "the fan-out never had 4 evaluations in flight";
}

TEST(BatchEngineMatrix, ReusesProfilesAcrossCalls)
{
    auto space = table2Space();
    std::vector<DesignPoint> points(space.begin(), space.begin() + 8);
    const std::vector<BenchmarkProfile> benches = {
        profileByName("stringsearch")};

    BatchEngine engine(kLen);
    ThreadPool two(2);
    ThreadPool serial(0);
    auto first = engine.evaluateMatrix(benches, points, two);
    const std::vector<BatchEngine::Study *> built =
        engine.studies(benches, defaultBackends(), serial);
    auto second = engine.evaluateMatrix(benches, points, serial);
    expectSameEvaluations(first, second);
    // The second sweep ran on the very study the first one built.
    EXPECT_EQ(engine.studies(benches, defaultBackends(), serial), built);
}

TEST(BatchEngineMatrix, SimulationResultsAreDeterministicToo)
{
    // Detailed simulation replays the shared trace; a handful of
    // points keeps runtime modest while covering the sim path.
    auto space = table2Space();
    std::vector<DesignPoint> points = {space.front(), space[95],
                                       space.back()};

    auto one =
        sweep({profileByName("qsort")}, points, 1, backendSet("model,sim"));
    auto many =
        sweep({profileByName("qsort")}, points, 4, backendSet("model,sim"));

    ASSERT_EQ(many[0].evals.size(), 3u);
    for (const auto &ev : many[0].evals) {
        EXPECT_TRUE(ev.has(kSimBackend));
        EXPECT_TRUE(ev.sim()->detail.has_value());
        EXPECT_TRUE(ev.cpiError().has_value());
    }
    expectSameEvaluations(one, many);
}

TEST(BatchEngineMatrix, RegistrySelectedBackendSetIsDeterministic)
{
    // Any registry-selected combination must shard deterministically:
    // here both mechanistic models ("model,ooo") over a slice of the
    // space, 1 vs N threads.
    auto space = table2Space();
    std::vector<DesignPoint> points(space.begin(), space.begin() + 16);

    auto one = sweep({profileByName("tiffdither")}, points, 1,
                     backendSet("model,ooo"));
    auto many = sweep({profileByName("tiffdither")}, points, 8,
                      backendSet("model,ooo"));

    // Result order mirrors backend-set order.
    ASSERT_EQ(one[0].evals[0].results.size(), 2u);
    EXPECT_EQ(one[0].evals[0].results[0].backend, kModelBackend);
    EXPECT_EQ(one[0].evals[0].results[1].backend, kOooBackend);
    EXPECT_TRUE(one[0].evals[0].results[1].hasStack);
    // No sim ran, so the model/sim error must be absent, not 0.
    EXPECT_FALSE(one[0].evals[0].cpiError().has_value());
    expectSameEvaluations(one, many);
}

TEST(BatchEngine, CachedPathMatchesTheMatrixPath)
{
    // The two entry points over the one fan-out: every cached value
    // must be Objective::value of the matrix path's evaluation, laid
    // out at perBench[(b * NBE + be) * K + k], and every aggregate the
    // benchmark-order mean — bit for bit, at any pool size.
    auto space = table2Space();
    std::vector<DesignPoint> points = {space[3], space[40], space[3],
                                       space[191]};
    const std::vector<BenchmarkProfile> benches = {
        profileByName("sha"), profileByName("gsm_c")};
    const BackendSet backends = backendSet("model,sim");
    const std::vector<Objective> objs = parseObjectives("cpi,edp");
    const std::size_t n_be = backends.size();
    const std::size_t k_objs = objs.size();

    auto matrix = sweep(benches, points, 1, backends);
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads <= 1 ? 0 : threads);
        BatchEngine engine(kLen);
        EvalCache cache;
        SearchStats stats;
        std::vector<bool> was_hit;
        const auto set = engine.studies(benches, backends, pool);
        auto evals = engine.evaluateCached(set, backends, objs, points,
                                           cache, pool, stats, &was_hit);
        ASSERT_EQ(evals.size(), points.size());
        EXPECT_EQ(stats.requested, 4u);
        EXPECT_EQ(stats.hits, 1u); // the in-batch duplicate
        EXPECT_EQ(stats.misses, 3u);
        EXPECT_EQ(stats.batches, 1u);
        EXPECT_EQ(was_hit, (std::vector<bool>{false, false, true, false}));
        EXPECT_EQ(evals[0], evals[2]);
        EXPECT_EQ(cache.size(), 3u);

        for (std::size_t i = 0; i < points.size(); ++i) {
            const SearchEval &eval = *evals[i];
            ASSERT_TRUE(eval.point == points[i]);
            ASSERT_EQ(eval.perBench.size(), benches.size() * n_be * k_objs);
            ASSERT_EQ(eval.aggregate.size(), n_be * k_objs);
            for (std::size_t be = 0; be < n_be; ++be) {
                for (std::size_t k = 0; k < k_objs; ++k) {
                    double sum = 0.0;
                    for (std::size_t b = 0; b < benches.size(); ++b) {
                        const double want = objs[k].value(
                            matrix[b].evals[i].results[be], points[i]);
                        EXPECT_EQ(eval.perBench[(b * n_be + be) * k_objs + k],
                                  want);
                        sum += want;
                    }
                    EXPECT_EQ(eval.aggregate[be * k_objs + k],
                              sum / static_cast<double>(benches.size()));
                }
            }
        }

        // A second batch is all hits and evaluates nothing.
        auto again = engine.evaluateCached(set, backends, objs, points,
                                           cache, pool, stats, &was_hit);
        EXPECT_EQ(again, evals);
        EXPECT_EQ(stats.hits, 5u);
        EXPECT_EQ(stats.misses, 3u);
        EXPECT_EQ(was_hit, std::vector<bool>(points.size(), true));
    }
}

TEST(BatchEngine, CacheCountersMatchBatchStats)
{
    // The evalcache.* series count each batch once: their deltas equal
    // the batch's SearchStats, over a fresh batch with an in-batch
    // duplicate and over a repeat batch answered from the memo.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    const obs::Counter &hits = reg.counter("evalcache.hits");
    const obs::Counter &misses = reg.counter("evalcache.misses");
    const obs::Counter &inserts = reg.counter("evalcache.inserts");

    auto space = table2Space();
    const std::vector<DesignPoint> points = {space[3], space[40], space[3],
                                             space[191]};
    const std::vector<Objective> objs = parseObjectives("cpi");
    ThreadPool pool(2);
    BatchEngine engine(kLen);
    const auto set =
        engine.studies({profileByName("sha")}, defaultBackends(), pool);
    EvalCache cache;
    SearchStats stats;
    for (const char *batch : {"fresh", "repeat"}) {
        const SearchStats before = stats;
        const std::uint64_t h0 = hits.value();
        const std::uint64_t m0 = misses.value();
        const std::uint64_t i0 = inserts.value();
        engine.evaluateCached(set, defaultBackends(), objs, points, cache,
                              pool, stats);
        EXPECT_EQ(hits.value() - h0, stats.hits - before.hits) << batch;
        EXPECT_EQ(misses.value() - m0, stats.misses - before.misses)
            << batch;
        EXPECT_EQ(inserts.value() - i0, stats.misses - before.misses)
            << batch;
    }
    EXPECT_EQ(stats.hits, 5u);
    EXPECT_EQ(stats.misses, 3u);
}

TEST(BatchEngine, BackendEvalCountersCountEveryCell)
{
    // The fan-out counts model-speed backends once per chunk: the
    // eval.backend.{model,ooo}.evals deltas equal the (point,
    // benchmark) cells evaluated, on the matrix path and on the cached
    // path's misses, whatever the pool size.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    const obs::Counter &model = reg.counter("eval.backend.model.evals");
    const obs::Counter &ooo = reg.counter("eval.backend.ooo.evals");
    const BackendSet backends = backendSet("model,ooo");
    const std::vector<BenchmarkProfile> benches = {
        profileByName("sha"), profileByName("jpeg_c"),
        profileByName("gsm_c")};
    const auto space = table2Space();
    const std::vector<DesignPoint> points(space.begin(), space.begin() + 37);
    const std::vector<DesignPoint> batch = {space[50], space[60], space[50],
                                            space[191], space[60]};
    const std::vector<Objective> objs = parseObjectives("cpi,edp");

    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        BatchEngine engine(kLen);
        std::uint64_t m0 = model.value();
        std::uint64_t o0 = ooo.value();
        engine.evaluateMatrix(benches, points, pool, backends);
        EXPECT_EQ(model.value() - m0, points.size() * benches.size())
            << threads;
        EXPECT_EQ(ooo.value() - o0, points.size() * benches.size())
            << threads;

        const auto set = engine.studies(benches, backends, pool);
        EvalCache cache;
        SearchStats stats;
        for (const char *round : {"fresh", "repeat"}) {
            const std::uint64_t misses0 = stats.misses;
            m0 = model.value();
            o0 = ooo.value();
            engine.evaluateCached(set, backends, objs, batch, cache, pool,
                                  stats);
            const std::uint64_t cells =
                (stats.misses - misses0) * benches.size();
            EXPECT_EQ(model.value() - m0, cells) << threads << round;
            EXPECT_EQ(ooo.value() - o0, cells) << threads << round;
        }
        EXPECT_EQ(stats.misses, 3u) << threads;
        EXPECT_EQ(stats.hits, 7u) << threads;
    }
}

TEST(BatchEngine, MatrixPathAcceptsARepeatedBenchmark)
{
    // A benchmark named twice shares one study, whose lock the fan-out
    // must take only once.
    auto space = table2Space();
    std::vector<DesignPoint> points(space.begin(), space.begin() + 4);
    auto twice =
        sweep({profileByName("sha"), profileByName("sha")}, points, 4);
    auto once = sweep({profileByName("sha")}, points, 1);
    ASSERT_EQ(twice.size(), 2u);
    expectSameEvaluations(once, {twice[0]});
    expectSameEvaluations(once, {twice[1]});
}

TEST(BatchEngine, AllHitBatchTakesNoStudyLock)
{
    // The serve hot path: a batch answered entirely from the memo must
    // never touch a study lock, so it cannot wait behind a writer.
    const std::vector<BenchmarkProfile> benches = {profileByName("sha")};
    const std::vector<DesignPoint> points = {defaultDesignPoint()};
    const std::vector<Objective> objs = parseObjectives("cpi");
    ThreadPool pool(2);
    BatchEngine engine(kLen);
    const std::vector<BatchEngine::Study *> set =
        engine.studies(benches, defaultBackends(), pool);
    EvalCache cache;
    SearchStats stats;
    engine.evaluateCached(set, defaultBackends(), objs, points, cache,
                          pool, stats);

    std::unique_lock<std::shared_mutex> writer(set[0]->rw);
    auto hits = std::async(std::launch::async, [&] {
        SearchStats more;
        return engine.evaluateCached(set, defaultBackends(), objs, points,
                                     cache, pool, more);
    });
    const bool finished = hits.wait_for(std::chrono::seconds(30)) ==
                          std::future_status::ready;
    writer.unlock();
    EXPECT_TRUE(finished) << "an all-hit batch waited on a study lock";
    EXPECT_EQ(hits.get().at(0), cache.find(points[0]));
}

/** Field-by-field equality of two traces. */
void
expectSameTrace(const Trace &a, const Trace &b, const std::string &where)
{
    ASSERT_EQ(a.size(), b.size()) << where;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const DynInstr &x = a[i];
        const DynInstr &y = b[i];
        if (x.pc != y.pc || x.effAddr != y.effAddr ||
            x.targetPc != y.targetPc || x.dst != y.dst ||
            x.src1 != y.src1 || x.src2 != y.src2 || x.op != y.op ||
            x.taken != y.taken) {
            FAIL() << where << ": instruction " << i << " differs";
        }
    }
}

TEST(BatchEngine, ModelOnlyStudiesHoldNoTrace)
{
    // Only trace-replaying backends read a trace after profiling, so
    // a study built for model-speed callers drops it; the first
    // detailed caller gets it back, and later callers keep it.
    const std::vector<BenchmarkProfile> benches = {profileByName("sha"),
                                                   profileByName("qsort")};
    ThreadPool pool(2);
    BatchEngine engine(kLen);
    for (const BatchEngine::Study *s :
         engine.studies(benches, backendSet("model,ooo"), pool)) {
        EXPECT_FALSE(s->study->hasTrace()) << s->study->name();
        EXPECT_TRUE(s->traceDropped);
    }
    for (const BatchEngine::Study *s :
         engine.studies(benches, backendSet("model,sim"), pool)) {
        EXPECT_TRUE(s->study->hasTrace()) << s->study->name();
        EXPECT_FALSE(s->traceDropped);
    }
    for (const BatchEngine::Study *s :
         engine.studies(benches, defaultBackends(), pool))
        EXPECT_TRUE(s->study->hasTrace()) << s->study->name();

    // A study first built for a detailed caller keeps its trace.
    BatchEngine detailed(kLen);
    for (const BatchEngine::Study *s :
         detailed.studies(benches, backendSet("oosim"), pool))
        EXPECT_TRUE(s->study->hasTrace()) << s->study->name();
}

TEST(BatchEngine, ProfileDirStudiesKeepWhatTheyLoaded)
{
    // A loaded artifact is the profile: the engine neither drops the
    // trace it carries nor regenerates the one it lacks.
    const std::string dir = ::testing::TempDir() + "batch_engine_mprof";
    std::filesystem::create_directories(dir);
    DseStudy(profileByName("sha"), kLen)
        .save(profileArtifactPath(dir, "sha"), true);
    DseStudy(profileByName("dijkstra"), kLen)
        .save(profileArtifactPath(dir, "dijkstra"), false);
    const std::vector<BenchmarkProfile> benches = {profileByName("sha"),
                                                   profileByName("dijkstra")};
    ThreadPool pool(2);
    BatchEngine engine(kLen, dir);
    for (const BackendSet &backends : {defaultBackends(), backendSet("sim")}) {
        const auto set = engine.studies(benches, backends, pool);
        EXPECT_TRUE(set[0]->study->hasTrace());
        EXPECT_FALSE(set[1]->study->hasTrace());
        EXPECT_FALSE(set[0]->traceDropped);
        EXPECT_FALSE(set[1]->traceDropped);
    }
    std::filesystem::remove_all(dir);
}

TEST(BatchEngine, RegeneratedTraceMatchesTheOriginal)
{
    // Every MiBench study is built model-only (trace dropped), then
    // asked for by a detailed caller (trace regenerated).  The trace
    // must equal a fresh generateTrace instruction for instruction,
    // and both simulators must answer bit for bit what they answer on
    // studies that never dropped theirs.
    const std::vector<BenchmarkProfile> benches = mibenchSuite();
    const auto space = table2Space();
    const std::vector<DesignPoint> points = {space.front(), space.back()};
    const BackendSet detailed = backendSet("sim,oosim");
    ThreadPool pool(4);

    BatchEngine engine(kLen);
    engine.studies(benches, defaultBackends(), pool);
    const auto set = engine.studies(benches, detailed, pool);
    for (std::size_t b = 0; b < benches.size(); ++b) {
        expectSameTrace(set[b]->study->trace(),
                        generateTrace(benches[b], kLen), benches[b].name);
    }
    BatchEngine kept(kLen);
    expectSameEvaluations(kept.evaluateMatrix(benches, points, pool, detailed),
                          engine.evaluateMatrix(benches, points, pool,
                                                detailed));
}

TEST(BatchEngine, AdmissionRulesShareOneWording)
{
    DseStudy study(profileByName("sha"), kLen);
    const WorkloadProfile *profiled = &study.profile();
    const SpaceSpec rob = SpaceSpec::parse("rob=64,128");

    // Out-of-order axes need a backend that reads them.
    EXPECT_EQ(admissionError(rob, "rob=64,128", backendSet("model"),
                             profiled),
              "space 'rob=64,128' sweeps out-of-order axes "
              "(rob/iq/fu*/buses) but backend 'model' ignores them; use "
              "an out-of-order backend (ooo, oosim)");
    EXPECT_EQ(admissionError(rob, "rob=64,128", backendSet("ooo"),
                             profiled),
              "");
    EXPECT_EQ(admissionError(rob, "rob=64,128", backendSet("model,ooo"),
                             nullptr),
              "");
    // A single point is not a sweep.
    DesignPoint point = defaultDesignPoint();
    point.ooo.robSize = 64;
    EXPECT_EQ(admissionError(SpaceSpec::single(point), "",
                             backendSet("model"), profiled, false),
              "");

    // Predictors must be profiled; without a profile the rule is
    // skipped.
    const SpaceSpec local = SpaceSpec::parse("pred=local");
    EXPECT_EQ(admissionError(local, "pred=local", backendSet("model"),
                             profiled),
              "predictor 'local' is outside the profiled design space "
              "(profiled: gshare1k, hybrid3k5)");
    EXPECT_EQ(admissionError(local, "pred=local", backendSet("model"),
                             nullptr),
              "");
    EXPECT_EQ(admissionError(SpaceSpec::table2(), "table2",
                             backendSet("model"), profiled),
              "");
}

} // namespace
