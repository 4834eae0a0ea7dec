/**
 * @file
 * Tests for the cycle-accurate out-of-order pipeline (src/oosim/):
 * micro-trace tests that isolate one mechanism at a time (dynamic
 * scheduling, FU-port and result-bus contention, ROB/issue-queue
 * limits, branch handling, memory-level parallelism) against exact
 * hand-derived cycle counts, determinism and full-workload checks
 * against the in-order reference, and the golden validation of the
 * out-of-order interval model against this simulator over a seeded
 * design-space sample.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "test_util.hh"

namespace mech {
namespace {

using test::TraceBuilder;
using test::idealCycles;
using test::idealSim;

/**
 * Idealized out-of-order configuration: perfect memory, no predictor
 * noise, and enough ALU issue ports and result buses to sustain the
 * requested width (the OooParams defaults are a balanced 4-wide
 * machine but only carry three simple ALUs).
 */
OoOSimConfig
idealOoO(std::uint32_t width = 4, std::uint32_t frontend_depth = 2)
{
    OoOSimConfig cfg;
    cfg.core = idealSim(width, frontend_depth);
    cfg.ooo.fuAlu = std::max(cfg.ooo.fuAlu, width);
    cfg.ooo.resultBuses = std::max(cfg.ooo.resultBuses, width);
    return cfg;
}

// ---- ideal streaming -------------------------------------------------------

class OoOIdealStreaming
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>>
{
};

TEST_P(OoOIdealStreaming, HazardFreeTraceRunsAtFullWidth)
{
    auto [w, n] = GetParam();
    Trace tr = TraceBuilder().filler(n).build();
    OoOSimResult res = simulateOutOfOrder(tr, idealOoO(w, 2));
    // Fetch, dispatch, schedule, execute and retire all sustain W per
    // cycle, so the out-of-order pipeline matches the in-order ideal:
    // ceil(N/W) issue groups plus the same fill.
    EXPECT_EQ(res.cycles, idealCycles(n, w, 2));
    EXPECT_EQ(res.retired, static_cast<InstCount>(n));
    EXPECT_EQ(res.robStallCycles, 0u);
    EXPECT_EQ(res.iqStallCycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndLengths, OoOIdealStreaming,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1, 4, 7, 64, 400)));

TEST(OoOSim, DeeperFrontEndOnlyAddsFill)
{
    Trace tr = TraceBuilder().filler(100).build();
    Cycles d2 = simulateOutOfOrder(tr, idealOoO(4, 2)).cycles;
    Cycles d6 = simulateOutOfOrder(tr, idealOoO(4, 6)).cycles;
    EXPECT_EQ(d6, d2 + 4);
}

TEST(OoOSim, EmptyTraceIsZeroCycles)
{
    Trace tr;
    OoOSimResult res = simulateOutOfOrder(tr, idealOoO());
    EXPECT_EQ(res.cycles, 0u);
    EXPECT_EQ(res.retired, 0u);
}

// ---- dynamic scheduling ----------------------------------------------------

TEST(OoOSim, SerialChainIssuesBackToBack)
{
    // Every instruction consumes the previous one: issue is bound to
    // one per cycle, but the writeback-before-select half-cycle rule
    // means a unit-latency producer feeds its consumer in the very
    // next cycle — the chain costs N cycles plus fill, the same as an
    // independent stream at W=1.
    TraceBuilder b;
    b.alu(8);
    for (int i = 1; i < 100; ++i)
        b.alu(static_cast<RegIndex>(8 + i % 20),
              static_cast<RegIndex>(8 + (i - 1) % 20));
    Trace tr = b.build();
    OoOSimResult res = simulateOutOfOrder(tr, idealOoO(4, 2));
    EXPECT_EQ(res.cycles, 100u + 4u);
}

TEST(OoOSim, IndependentLongLatencyOpsOverlap)
{
    // Four independent long multiplies issue together (four
    // multiplier ports) and overlap completely: the group costs one
    // latency at the in-order retire point, not four.  The in-order
    // pipeline serializes them in the execute stage — the defining
    // contrast with dynamic scheduling.
    OoOSimConfig cfg = idealOoO(4, 2);
    cfg.core.machine.latIntMult = 16;
    cfg.ooo.fuMul = 4;
    TraceBuilder b;
    for (int i = 0; i < 4; ++i)
        b.op(OpClass::IntMult, static_cast<RegIndex>(24 + i));
    Trace tr = b.filler(77).build();
    Trace plain = TraceBuilder().filler(81).build();
    Cycles with_mul = simulateOutOfOrder(tr, cfg).cycles;
    Cycles without = simulateOutOfOrder(plain, cfg).cycles;
    // The overlapped group exposes at most one latency end to end.
    EXPECT_LE(with_mul, without + 16 + 2);

    SimConfig in_order = idealSim(4, 2);
    in_order.machine.latIntMult = 16;
    // In order, the three serialized extra latencies are all exposed.
    EXPECT_GE(simulateInOrder(tr, in_order).cycles, with_mul + 2 * 16);
}

// ---- functional-unit ports -------------------------------------------------

TEST(OoOSim, MultipliesPipelineThroughOneUnit)
{
    // Fully pipelined issue ports: one multiplier accepts one new
    // multiply per cycle, so N independent multiplies of latency L
    // finish in N + L + fill cycles, not N*L.
    OoOSimConfig cfg = idealOoO(4, 2);
    cfg.core.machine.latIntMult = 4;
    cfg.ooo.fuMul = 1;
    TraceBuilder b;
    for (int i = 0; i < 10; ++i)
        b.op(OpClass::IntMult, static_cast<RegIndex>(8 + i));
    Trace tr = b.build();
    OoOSimResult res = simulateOutOfOrder(tr, cfg);
    EXPECT_EQ(res.cycles, 10u + 4u + 3u);
    EXPECT_GT(res.fuStallEvents, 0u);
}

TEST(OoOSim, SecondMultiplierDoublesIssueBandwidth)
{
    OoOSimConfig one = idealOoO(4, 2);
    one.core.machine.latIntMult = 4;
    one.ooo.fuMul = 1;
    OoOSimConfig two = one;
    two.ooo.fuMul = 2;
    TraceBuilder b;
    for (int i = 0; i < 10; ++i)
        b.op(OpClass::IntMult, static_cast<RegIndex>(8 + i));
    Trace tr = b.build();
    // Two units issue two per cycle: ceil(N/2) + L + fill.
    EXPECT_EQ(simulateOutOfOrder(tr, two).cycles, 5u + 4u + 3u);
    EXPECT_LT(simulateOutOfOrder(tr, two).cycles,
              simulateOutOfOrder(tr, one).cycles);
}

// ---- result buses ----------------------------------------------------------

TEST(OoOSim, ResultBusContentionBoundsCompletion)
{
    // Four ALUs complete per cycle but a single result bus grants one
    // writeback per cycle (oldest first): throughput collapses to one
    // retirement per cycle.
    OoOSimConfig cfg = idealOoO(4, 2);
    cfg.ooo.resultBuses = 1;
    Trace tr = TraceBuilder().filler(40).build();
    OoOSimResult res = simulateOutOfOrder(tr, cfg);
    EXPECT_EQ(res.cycles, 40u + 4u);
    EXPECT_GT(res.busStallEvents, 0u);
}

// ---- ROB / issue-queue limits ----------------------------------------------

TEST(OoOSim, SingleEntryIssueQueueSerializesDispatch)
{
    OoOSimConfig cfg = idealOoO(4, 2);
    cfg.ooo.iqSize = 1;
    Trace tr = TraceBuilder().filler(50).build();
    OoOSimResult res = simulateOutOfOrder(tr, cfg);
    // One reservation-station slot admits one instruction per cycle.
    EXPECT_EQ(res.cycles, 50u + 4u);
    EXPECT_GT(res.iqStallCycles, 0u);
    EXPECT_EQ(res.maxIqOccupancy, 1u);
}

TEST(OoOSim, TinyRobThrottlesThroughput)
{
    OoOSimConfig cfg = idealOoO(4, 2);
    cfg.ooo.robSize = 4;
    Trace tr = TraceBuilder().filler(64).build();
    OoOSimResult res = simulateOutOfOrder(tr, cfg);
    EXPECT_GT(res.cycles, idealCycles(64, 4, 2));
    EXPECT_GT(res.robStallCycles, 0u);
    EXPECT_EQ(res.maxRobOccupancy, 4u);
    EXPECT_EQ(res.retired, 64u);
}

// ---- memory-level parallelism ----------------------------------------------

TEST(OoOSim, IndependentMissesOverlapInTheWindow)
{
    // Two independent cold misses to different lines issue together
    // (two memory ports) and overlap almost completely — MLP emerges
    // from the window, with no MLP constant anywhere.
    SimConfig core;
    core.machine = idealSim(4, 2).machine;
    core.perfectICache = true;
    core.perfectTlbs = true;
    OoOSimConfig cfg;
    cfg.core = core;

    Trace two = TraceBuilder()
                    .load(8, 0x10000000)
                    .load(9, 0x20000000)
                    .filler(8)
                    .build();
    Trace one = TraceBuilder()
                    .load(8, 0x10000000)
                    .alu(9)
                    .filler(8)
                    .build();
    Cycles c_two = simulateOutOfOrder(two, cfg).cycles;
    Cycles c_one = simulateOutOfOrder(one, cfg).cycles;
    EXPECT_LE(c_two, c_one + 2);
}

TEST(OoOSim, DependentMissesSerialize)
{
    // A pointer-chase pair (the second load's address register is the
    // first load's result) pays both latencies end to end.
    SimConfig core;
    core.machine = idealSim(4, 2).machine;
    core.perfectICache = true;
    core.perfectTlbs = true;
    OoOSimConfig cfg;
    cfg.core = core;

    Trace chased = TraceBuilder()
                       .load(8, 0x10000000)
                       .load(9, 0x20000000, 8)
                       .filler(8)
                       .build();
    Trace indep = TraceBuilder()
                      .load(8, 0x10000000)
                      .load(9, 0x20000000)
                      .filler(8)
                      .build();
    Cycles miss = core.machine.l2HitCycles + core.machine.memCycles;
    EXPECT_GE(simulateOutOfOrder(chased, cfg).cycles,
              simulateOutOfOrder(indep, cfg).cycles + miss - 2);
}

TEST(OoOSim, StoresNeverBlockRetirement)
{
    SimConfig core;
    core.machine = idealSim(4, 2).machine;
    core.perfectICache = true;
    core.perfectTlbs = true;
    OoOSimConfig cfg;
    cfg.core = core;
    Trace with_store =
        TraceBuilder().filler(10).store(0x10000000).filler(10).build();
    Trace with_alu = TraceBuilder().filler(10).alu(8).filler(10).build();
    EXPECT_EQ(simulateOutOfOrder(with_store, cfg).cycles,
              simulateOutOfOrder(with_alu, cfg).cycles);
}

// ---- branches --------------------------------------------------------------

TEST(OoOSim, CorrectTakenBranchCostsOneBubble)
{
    OoOSimConfig cfg = idealOoO(1, 2);
    cfg.core.predictor = PredictorKind::Taken;
    Trace with_branch =
        TraceBuilder().filler(20).branch(true).filler(20).build();
    Trace plain = TraceBuilder().filler(20).alu(8).filler(20).build();
    OoOSimResult res = simulateOutOfOrder(with_branch, cfg);
    EXPECT_EQ(res.cycles,
              simulateOutOfOrder(plain, cfg).cycles + 1);
    EXPECT_EQ(res.predictedTakenCorrect, 1u);
    EXPECT_EQ(res.mispredicts, 0u);
    EXPECT_GT(res.takenBubbleCycles, 0u);
}

TEST(OoOSim, MispredictStallsFetchUntilWriteback)
{
    // A ready mispredicted branch traverses dispatch (D-1 cycles
    // behind fetch), one schedule cycle and one execute cycle before
    // its writeback restarts the front end: D+1 lost fetch cycles.
    for (std::uint32_t d : {2u, 4u, 6u}) {
        OoOSimConfig cfg = idealOoO(1, d);
        cfg.core.predictor = PredictorKind::NotTaken;
        Trace with_miss =
            TraceBuilder().filler(20).branch(true).filler(20).build();
        Trace plain =
            TraceBuilder().filler(20).alu(8).filler(20).build();
        OoOSimResult res = simulateOutOfOrder(with_miss, cfg);
        EXPECT_EQ(res.mispredicts, 1u);
        EXPECT_EQ(res.cycles,
                  simulateOutOfOrder(plain, cfg).cycles + d + 1)
            << "at front-end depth " << d;
        EXPECT_GT(res.mispredictStallCycles, 0u);
    }
}

// ---- determinism and full workloads ----------------------------------------

TEST(OoOSim, BitIdenticalAcrossRuns)
{
    Trace tr = generateTrace(profileByName("sha"), 10000);
    OoOSimConfig cfg = oooSimConfigFor(defaultDesignPoint());
    OoOSimResult a = simulateOutOfOrder(tr, cfg);
    OoOSimResult b = simulateOutOfOrder(tr, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.robStallCycles, b.robStallCycles);
    EXPECT_EQ(a.iqStallCycles, b.iqStallCycles);
    EXPECT_EQ(a.fuStallEvents, b.fuStallEvents);
    EXPECT_EQ(a.busStallEvents, b.busStallEvents);
    EXPECT_EQ(a.maxRobOccupancy, b.maxRobOccupancy);
    EXPECT_EQ(a.maxIqOccupancy, b.maxIqOccupancy);
}

TEST(OoOSim, OutOfOrderNeverSlowerThanInOrder)
{
    // Same trace, same core parameters: the window can only hide
    // latency the in-order pipeline exposes.
    for (const char *bench : {"sha", "tiffdither", "adpcm_d"}) {
        Trace tr = generateTrace(profileByName(bench), 15000);
        DesignPoint point = defaultDesignPoint();
        OoOSimResult ooo = simulateOutOfOrder(tr, oooSimConfigFor(point));
        SimResult in_order = simulateInOrder(tr, simConfigFor(point));
        EXPECT_EQ(ooo.retired, tr.size()) << bench;
        EXPECT_LE(ooo.cycles, in_order.cycles) << bench;
    }
}

TEST(OoOSimDeathTest, StructurallyInvalidConfigIsAFatalUserError)
{
    Trace tr = TraceBuilder().filler(4).build();
    OoOSimConfig no_rob = idealOoO();
    no_rob.ooo.robSize = 0;
    EXPECT_EXIT(simulateOutOfOrder(tr, no_rob),
                ::testing::ExitedWithCode(1), "issue queue");
    OoOSimConfig no_fu = idealOoO();
    no_fu.ooo.fuMem = 0;
    EXPECT_EXIT(simulateOutOfOrder(tr, no_fu),
                ::testing::ExitedWithCode(1), "functional-unit");
    OoOSimConfig no_bus = idealOoO();
    no_bus.ooo.resultBuses = 0;
    EXPECT_EXIT(simulateOutOfOrder(tr, no_bus),
                ::testing::ExitedWithCode(1), "result bus");
}

// ---- backend integration ----------------------------------------------------

TEST(OoOSimBackend, RegisteredAndMatchesSimulateOutOfOrder)
{
    BackendRegistry &reg = BackendRegistry::global();
    ASSERT_NE(reg.find(kOoOSimBackend), nullptr);
    EXPECT_TRUE(reg.find("oosim")->isDetailed());
    EXPECT_TRUE(reg.find("oosim")->needsTrace());
    EXPECT_TRUE(reg.find("oosim")->usesOoo());
    EXPECT_TRUE(reg.find("ooo")->usesOoo());
    EXPECT_FALSE(reg.find("model")->usesOoo());
    EXPECT_FALSE(reg.find("sim")->usesOoo());

    DseStudy study(profileByName("sha"), 10000);
    DesignPoint point = defaultDesignPoint();
    point.ooo.robSize = 64;
    PointEvaluation ev =
        study.evaluate(point, backendSet("oosim"));
    OoOSimResult direct =
        simulateOutOfOrder(study.trace(), oooSimConfigFor(point));
    ASSERT_EQ(ev.results.size(), 1u);
    const EvalResult &res = ev.results[0];
    EXPECT_EQ(res.backend, kOoOSimBackend);
    EXPECT_EQ(res.cycles, static_cast<double>(direct.cycles));
    EXPECT_EQ(res.instructions, direct.retired);
    ASSERT_TRUE(res.oooDetail.has_value());
    EXPECT_EQ(res.oooDetail->cycles, direct.cycles);
    EXPECT_EQ(res.oooDetail->mispredicts, direct.mispredicts);
    EXPECT_EQ(res.oooDetail->maxRobOccupancy, direct.maxRobOccupancy);
    EXPECT_FALSE(res.hasStack);
}

TEST(OoOSimBackend, OooCpiErrorComparesModelAgainstSimulator)
{
    DseStudy study(profileByName("sha"), 10000);
    PointEvaluation ev =
        study.evaluate(defaultDesignPoint(), backendSet("ooo,oosim"));
    ASSERT_TRUE(ev.has(kOooBackend));
    ASSERT_TRUE(ev.has(kOoOSimBackend));
    auto err = ev.oooCpiError();
    ASSERT_TRUE(err.has_value());
    EXPECT_GE(*err, 0.0);
    // The in-order pair is absent, so the in-order error is too.
    EXPECT_FALSE(ev.cpiError().has_value());
}

TEST(SearchDeathTest, OooAxesWithoutOooBackendAreRejected)
{
    ThreadPool pool(0);
    SpaceSpec spec = SpaceSpec::parse("rob=64,128");
    SearchEvaluator model_only({profileByName("sha")}, 5000,
                               parseObjectives("delay"),
                               backendSet("model"));
    EXPECT_EXIT(model_only.prepare(spec, pool),
                ::testing::ExitedWithCode(1), "out-of-order");
}

TEST(Search, OooBackendAcceptsOooAxes)
{
    ThreadPool pool(0);
    SpaceSpec spec = SpaceSpec::parse("rob=64,128");
    SearchEvaluator ooo({profileByName("sha")}, 5000,
                        parseObjectives("delay"), backendSet("ooo"));
    ooo.prepare(spec, pool);
    EvalCache cache;
    SearchStats stats;
    std::vector<DesignPoint> points = {spec.at(0), spec.at(1)};
    auto evals = ooo.evaluateBatch(points, cache, pool, stats);
    ASSERT_EQ(evals.size(), 2u);
    // Different ROB sizes must reach the backend: the two points may
    // not collapse to one cached evaluation.
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_NE(evals[0], evals[1]);
}

// ---- golden validation ------------------------------------------------------

TEST(OoOGolden, IntervalModelTracksCycleAccurateSimulator)
{
    // The PR-3 case study in reverse: the out-of-order interval model
    // is validated against the cycle-accurate out-of-order pipeline
    // over a seeded sample of the out-of-order design space.  The
    // sampled axes keep the machine balanced (issue queue, buses and
    // FU mix sized for the width), which is the regime the interval
    // model assumes; docs/oosim.md documents the thresholds and the
    // calibration behind them.
    SpaceSpec spec = SpaceSpec::parse(
        "width=1,2,4; rob=64,128,256; iq=32,64; buses=4,8");
    std::mt19937_64 rng(20120401); // ISPASS'12, seeded once
    std::set<std::uint64_t> picked;
    while (picked.size() < 8)
        picked.insert(rng() % spec.size());

    double total_err = 0.0;
    double max_err = 0.0;
    std::size_t samples = 0;
    for (const char *bench : {"sha", "tiffdither"}) {
        DseStudy study(profileByName(bench), 20000);
        for (std::uint64_t index : picked) {
            PointEvaluation ev = study.evaluate(
                spec.at(index), backendSet("ooo,oosim"));
            auto err = ev.oooCpiError();
            ASSERT_TRUE(err.has_value()) << bench << " #" << index;
            total_err += *err;
            max_err = std::max(max_err, *err);
            ++samples;
        }
    }
    const double mean_err = total_err / static_cast<double>(samples);
    // Thresholds from the calibration sweep in docs/oosim.md (MiBench
    // x widths {1,2,4}: mean 10.5%, max 35.2%), with headroom so the
    // gate flags modeling regressions rather than sampling noise.
    EXPECT_LT(mean_err, 0.15) << "mean CPI error over " << samples
                              << " samples";
    EXPECT_LT(max_err, 0.40);
}

// ---- golden OoOSimResult snapshot ------------------------------------------
//
// Every OoOSimResult field over a seeded sweep: each MiBench profile,
// plus the memory-bound mcf and bzip2 from the SPEC-like suite, at
// three Table 2 points drawn from a fixed-seed Rng, each with seeded
// out-of-order structures inside the space bounds; the third run of
// every benchmark turns on one idealization knob (rotating per
// benchmark).  Any change to how the pipeline advances time, fetches
// or prices a memory access must leave this table untouched.
//
// Regenerating after an *intentional* simulator change:
//
//     MECH_GOLDEN_REGEN=1 ./oosim_test --gtest_filter='OoOSimGolden.*'

constexpr InstCount kOoOGoldenLen = 20000;
constexpr int kOoOGoldenPointsPerBench = 3;

/** Every OoOSimResult field, in the golden table's column order. */
constexpr const char *kOoOGoldenNames[] = {
    "cycles",
    "retired",
    "fetchMissStallCycles",
    "takenBubbleCycles",
    "mispredictStallCycles",
    "robStallCycles",
    "iqStallCycles",
    "fuStallEvents",
    "busStallEvents",
    "mispredicts",
    "predictedTakenCorrect",
    "maxRobOccupancy",
    "maxIqOccupancy",
};
constexpr std::size_t kNumOoOGoldenFields = std::size(kOoOGoldenNames);

std::array<std::uint64_t, kNumOoOGoldenFields>
oooGoldenFields(const OoOSimResult &r)
{
    return {r.cycles,
            r.retired,
            r.fetchMissStallCycles,
            r.takenBubbleCycles,
            r.mispredictStallCycles,
            r.robStallCycles,
            r.iqStallCycles,
            r.fuStallEvents,
            r.busStallEvents,
            r.mispredicts,
            r.predictedTakenCorrect,
            r.maxRobOccupancy,
            r.maxIqOccupancy};
}

/** Seeded out-of-order structures, every axis inside SpaceSpec's bounds. */
OooParams
seededOooParams(Rng &rng)
{
    OooParams p;
    p.robSize = 4u << rng.below(9);  // 4 .. 1024
    p.iqSize = 2u << rng.below(8);   // 2 .. 256
    p.fuAlu = 1 + static_cast<std::uint32_t>(rng.below(4));
    p.fuMul = 1 + static_cast<std::uint32_t>(rng.below(2));
    p.fuMem = 1 + static_cast<std::uint32_t>(rng.below(3));
    p.fuBr = 1 + static_cast<std::uint32_t>(rng.below(2));
    p.resultBuses = 1 + static_cast<std::uint32_t>(rng.below(8));
    return p;
}

/** One run of the sweep; rows follow the sweep's benchmark order. */
struct OoOGoldenRow
{
    std::uint32_t point; ///< table2Space() index
    std::uint32_t knob;  ///< 0 none, 1 icache, 2 dcache, 3 tlbs perfect
    OooParams ooo;
    std::uint64_t fields[kNumOoOGoldenFields];
};

struct OoOGoldenRun
{
    std::string bench;
    std::uint32_t point = 0;
    std::uint32_t knob = 0;
    OooParams ooo;
    OoOSimResult res;
};

std::vector<OoOGoldenRun>
runOoOGoldenSweep()
{
    std::vector<BenchmarkProfile> benches = mibenchSuite();
    for (const BenchmarkProfile &profile : specLikeSuite()) {
        if (profile.name == "mcf" || profile.name == "bzip2")
            benches.push_back(profile);
    }
    const std::vector<DesignPoint> space = table2Space();
    Rng rng(0x00051a7e5eedull);
    std::vector<OoOGoldenRun> runs;
    std::uint32_t b = 0;
    for (const BenchmarkProfile &profile : benches) {
        const Trace tr = generateTrace(profile, kOoOGoldenLen);
        for (int i = 0; i < kOoOGoldenPointsPerBench; ++i) {
            OoOGoldenRun run;
            run.bench = profile.name;
            run.point = static_cast<std::uint32_t>(rng.below(space.size()));
            run.knob = i + 1 == kOoOGoldenPointsPerBench ? 1 + b % 3 : 0;
            run.ooo = seededOooParams(rng);
            DesignPoint point = space[run.point];
            point.ooo = run.ooo;
            OoOSimConfig cfg = oooSimConfigFor(point);
            cfg.core.perfectICache = run.knob == 1;
            cfg.core.perfectDCache = run.knob == 2;
            cfg.core.perfectTlbs = run.knob == 3;
            run.res = simulateOutOfOrder(tr, cfg);
            runs.push_back(std::move(run));
        }
        ++b;
    }
    return runs;
}

// Snapshot generated with MECH_GOLDEN_REGEN=1 (see above).
const OoOGoldenRow kOoOGolden[] = {
    // adpcm_c
    {37, 0, {128, 2, 4, 2, 3, 2, 2}, {13842, 20029, 354, 840, 1616, 0, 11890, 0, 0, 242, 841, 6, 2}},
    {191, 0, {1024, 256, 3, 2, 3, 1, 7}, {8411, 20029, 444, 840, 1616, 0, 0, 2627, 0, 242, 841, 50, 24}},
    {55, 1, {4, 64, 4, 1, 3, 1, 1}, {20784, 20029, 0, 840, 2223, 19268, 0, 169, 10709, 242, 841, 4, 4}},
    // adpcm_d
    {4, 0, {512, 8, 1, 2, 1, 1, 6}, {18992, 20006, 223, 1349, 6866, 0, 6209, 16671, 0, 1100, 1349, 54, 8}},
    {56, 0, {64, 128, 3, 1, 1, 1, 6}, {29122, 20006, 299, 1349, 6358, 0, 0, 1, 0, 1100, 1349, 53, 8}},
    {176, 2, {256, 128, 2, 1, 2, 1, 3}, {27160, 20006, 299, 1349, 4396, 0, 0, 0, 0, 1100, 1349, 3, 1}},
    // dijkstra
    {106, 0, {32, 32, 2, 1, 2, 2, 1}, {24721, 20009, 409, 915, 3259, 14439, 0, 463, 117993, 166, 916, 32, 26}},
    {72, 0, {4, 16, 2, 2, 3, 1, 2}, {35479, 20009, 305, 915, 334, 13976, 0, 0, 0, 166, 916, 4, 3}},
    {98, 3, {256, 64, 3, 1, 1, 2, 2}, {12236, 20009, 287, 915, 486, 0, 0, 762, 8056, 166, 916, 88, 30}},
    // gsm_c
    {189, 0, {32, 16, 3, 2, 3, 1, 2}, {18299, 20028, 2652, 406, 3660, 5560, 1494, 146, 39563, 223, 407, 32, 16}},
    {94, 0, {32, 4, 3, 1, 1, 1, 3}, {20427, 20028, 2652, 403, 5728, 2396, 13010, 2275, 487, 225, 404, 32, 4}},
    {153, 1, {128, 128, 4, 2, 3, 1, 5}, {21660, 20028, 0, 406, 994, 0, 0, 1, 0, 223, 407, 81, 24}},
    // jpeg_c
    {91, 0, {64, 4, 1, 2, 1, 2, 2}, {30861, 20027, 10164, 104, 1594, 1127, 12524, 13378, 345, 130, 105, 64, 4}},
    {16, 0, {512, 8, 4, 2, 1, 1, 6}, {33665, 20027, 10164, 106, 856, 0, 2272, 38, 0, 132, 107, 102, 8}},
    {85, 2, {256, 16, 3, 2, 3, 1, 7}, {15947, 20027, 8102, 104, 679, 0, 102, 800, 0, 130, 105, 43, 16}},
    // jpeg_d
    {71, 0, {4, 8, 1, 1, 1, 1, 5}, {30379, 20000, 10578, 138, 3014, 19333, 0, 4379, 0, 129, 139, 4, 4}},
    {62, 0, {16, 256, 3, 2, 3, 1, 7}, {17600, 20000, 8432, 139, 1024, 4366, 0, 629, 0, 128, 140, 16, 13}},
    {100, 3, {16, 32, 3, 2, 2, 2, 4}, {15061, 20000, 6232, 139, 425, 1890, 0, 454, 180, 128, 140, 16, 13}},
    // lame
    {104, 0, {1024, 128, 4, 2, 2, 1, 7}, {27548, 20052, 6483, 109, 564, 0, 0, 0, 0, 135, 110, 85, 18}},
    {82, 0, {256, 128, 4, 1, 3, 2, 3}, {17689, 20052, 6483, 109, 659, 0, 0, 937, 1198, 135, 110, 182, 31}},
    {86, 1, {1024, 128, 4, 2, 3, 1, 7}, {6156, 20052, 0, 109, 695, 0, 0, 1003, 23, 135, 110, 364, 46}},
    // patricia
    {172, 0, {16, 128, 3, 2, 1, 2, 8}, {29678, 20021, 510, 2077, 10525, 12255, 0, 980, 0, 1351, 2078, 16, 12}},
    {118, 0, {32, 256, 1, 1, 1, 2, 4}, {36885, 20021, 858, 2077, 22425, 12298, 0, 23848, 0, 1351, 2078, 32, 25}},
    {155, 2, {32, 64, 3, 2, 1, 2, 3}, {20547, 20021, 684, 2095, 5362, 0, 0, 437, 7, 1283, 2096, 9, 4}},
    // qsort
    {76, 0, {32, 64, 1, 2, 1, 1, 2}, {23891, 20026, 469, 1594, 8311, 7159, 0, 21584, 1197, 917, 1595, 32, 25}},
    {33, 0, {4, 16, 4, 2, 2, 2, 5}, {57710, 20026, 629, 1605, 15060, 28842, 0, 0, 0, 898, 1606, 4, 3}},
    {95, 3, {256, 8, 1, 2, 2, 1, 7}, {24629, 20026, 759, 1605, 13998, 0, 7188, 14900, 0, 898, 1606, 123, 8}},
    // rsynth
    {70, 0, {64, 2, 2, 2, 1, 1, 1}, {30311, 20120, 3963, 157, 2808, 0, 26221, 197, 11946, 84, 157, 14, 2}},
    {109, 0, {16, 64, 1, 1, 2, 2, 2}, {19655, 20120, 3159, 157, 974, 11263, 0, 8148, 1460, 86, 157, 16, 15}},
    {77, 1, {512, 4, 1, 1, 2, 2, 5}, {16332, 20120, 0, 157, 532, 0, 14913, 5968, 0, 86, 157, 34, 4}},
    // sha
    {57, 0, {4, 32, 3, 2, 3, 1, 6}, {22695, 20039, 629, 266, 64, 1696, 0, 0, 0, 16, 267, 4, 1}},
    {5, 0, {512, 2, 3, 1, 3, 1, 2}, {11963, 20039, 469, 266, 67, 0, 11418, 7, 0, 16, 267, 23, 2}},
    {93, 2, {1024, 4, 4, 1, 1, 2, 2}, {11052, 20039, 789, 266, 165, 0, 6572, 1047, 15798, 16, 267, 15, 4}},
    // stringsearch
    {82, 0, {4, 2, 3, 2, 3, 1, 3}, {34206, 20014, 464, 1998, 9820, 19506, 519, 382, 0, 1142, 1999, 4, 2}},
    {134, 0, {128, 8, 4, 2, 1, 2, 3}, {16538, 20014, 464, 1998, 6123, 45, 1274, 4410, 2583, 1142, 1999, 128, 8}},
    {35, 3, {512, 64, 1, 2, 3, 1, 2}, {19320, 20014, 440, 2050, 4847, 0, 0, 6241, 2634, 1016, 2051, 100, 16}},
    // susan_c
    {152, 0, {128, 64, 3, 2, 2, 2, 6}, {23145, 20082, 1509, 453, 896, 0, 0, 0, 0, 163, 454, 81, 9}},
    {141, 0, {512, 256, 3, 1, 2, 2, 4}, {10924, 20082, 1893, 454, 1466, 0, 0, 899, 800, 163, 455, 230, 25}},
    {35, 1, {1024, 8, 4, 1, 2, 2, 2}, {12487, 20082, 0, 454, 1137, 0, 1104, 75, 12081, 163, 455, 131, 8}},
    // susan_e
    {187, 0, {256, 16, 4, 1, 3, 2, 1}, {23237, 20026, 1893, 499, 6470, 0, 6878, 0, 136799, 230, 500, 113, 16}},
    {181, 0, {128, 64, 1, 2, 1, 2, 5}, {15298, 20026, 1509, 499, 4189, 153, 4438, 156436, 0, 230, 500, 128, 64}},
    {111, 2, {64, 4, 1, 2, 3, 1, 1}, {22945, 20026, 1509, 499, 4916, 0, 18646, 6168, 46831, 230, 500, 15, 4}},
    // susan_s
    {16, 0, {64, 64, 1, 2, 2, 2, 4}, {23281, 20050, 1272, 265, 87, 1653, 0, 6003, 0, 14, 266, 64, 29}},
    {61, 0, {512, 8, 2, 2, 2, 2, 4}, {21098, 20050, 1014, 265, 123, 0, 15690, 6269, 206, 14, 266, 54, 8}},
    {191, 3, {512, 2, 2, 2, 1, 1, 2}, {30036, 20050, 1242, 265, 304, 0, 28767, 479, 610, 14, 266, 47, 2}},
    // tiff2bw
    {78, 0, {1024, 256, 1, 2, 2, 2, 5}, {13048, 20006, 264, 523, 223, 0, 11742, 590934, 0, 13, 524, 330, 256}},
    {92, 0, {256, 256, 2, 1, 1, 1, 8}, {7800, 20006, 444, 523, 81, 0, 0, 7470, 0, 13, 524, 211, 27}},
    {39, 1, {32, 8, 1, 2, 3, 2, 2}, {15809, 20006, 0, 523, 174, 1300, 14301, 13651, 1784, 13, 524, 32, 8}},
    // tiff2rgba
    {60, 0, {256, 64, 3, 2, 3, 1, 5}, {7992, 20031, 464, 546, 9, 0, 0, 0, 0, 2, 547, 153, 6}},
    {96, 0, {256, 4, 3, 1, 2, 2, 4}, {20941, 20031, 346, 546, 4, 0, 0, 0, 0, 2, 547, 43, 2}},
    {27, 2, {8, 8, 2, 2, 2, 1, 8}, {11201, 20031, 346, 546, 5, 37, 0, 510, 0, 2, 547, 8, 4}},
    // tiffdither
    {72, 0, {16, 128, 1, 1, 2, 1, 6}, {28073, 20053, 469, 824, 1009, 5470, 0, 655, 0, 446, 825, 16, 4}},
    {24, 0, {1024, 16, 3, 2, 2, 2, 5}, {22699, 20053, 469, 824, 892, 0, 0, 3, 0, 446, 825, 60, 6}},
    {52, 3, {1024, 128, 1, 2, 1, 2, 3}, {12827, 20053, 451, 824, 2812, 0, 3058, 181735, 247, 446, 825, 186, 128}},
    // tiffmedian
    {7, 0, {16, 2, 1, 1, 1, 1, 5}, {34371, 20033, 551, 927, 6778, 13287, 18502, 5082, 0, 454, 928, 16, 2}},
    {37, 0, {8, 16, 1, 1, 2, 2, 7}, {45274, 20033, 739, 927, 10441, 38623, 0, 10580, 0, 454, 928, 8, 6}},
    {34, 1, {256, 4, 3, 2, 2, 2, 3}, {17456, 20033, 0, 913, 3592, 0, 4763, 138, 86, 482, 914, 126, 4}},
    // mcf
    {118, 0, {64, 8, 3, 2, 1, 2, 4}, {42672, 20006, 651, 1469, 22480, 16245, 15036, 597, 48, 792, 1470, 64, 8}},
    {14, 0, {256, 32, 4, 2, 1, 2, 7}, {14517, 20006, 519, 1469, 4893, 87, 1448, 1184, 0, 792, 1470, 256, 32}},
    {55, 2, {32, 16, 4, 1, 2, 1, 7}, {10978, 20006, 387, 1472, 2215, 40, 0, 497, 0, 793, 1473, 32, 14}},
    // bzip2
    {115, 0, {8, 256, 4, 1, 1, 1, 2}, {131831, 20002, 1065, 819, 35328, 115910, 0, 1295, 977, 356, 820, 8, 6}},
    {120, 0, {128, 64, 1, 1, 2, 2, 4}, {24888, 20002, 633, 817, 3003, 0, 0, 4211, 0, 358, 818, 62, 21}},
    {169, 3, {16, 8, 2, 2, 1, 2, 1}, {45412, 20002, 615, 819, 2910, 21364, 7, 51, 8848, 356, 820, 16, 8}},
};

TEST(OoOSimGolden, EveryFieldMatchesSnapshotOverSeededSweep)
{
    const std::vector<OoOGoldenRun> runs = runOoOGoldenSweep();

    if (std::getenv("MECH_GOLDEN_REGEN")) {
        std::printf("const OoOGoldenRow kOoOGolden[] = {\n");
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const OoOGoldenRun &r = runs[i];
            if (i % kOoOGoldenPointsPerBench == 0)
                std::printf("    // %s\n", r.bench.c_str());
            std::printf("    {%u, %u, {%u, %u, %u, %u, %u, %u, %u}, {",
                        r.point, r.knob, r.ooo.robSize, r.ooo.iqSize,
                        r.ooo.fuAlu, r.ooo.fuMul, r.ooo.fuMem, r.ooo.fuBr,
                        r.ooo.resultBuses);
            const auto fields = oooGoldenFields(r.res);
            for (std::size_t f = 0; f < kNumOoOGoldenFields; ++f) {
                std::printf("%s%llu", f ? ", " : "",
                            static_cast<unsigned long long>(fields[f]));
            }
            std::printf("}},\n");
        }
        std::printf("};\n");
        GTEST_SKIP() << "regeneration mode: table printed, not checked";
    }

    ASSERT_EQ(runs.size(), std::size(kOoOGolden))
        << "golden table out of date; regenerate with MECH_GOLDEN_REGEN=1";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const OoOGoldenRun &got = runs[i];
        const OoOGoldenRow &want = kOoOGolden[i];
        const std::string where = got.bench + " point " +
                                  std::to_string(got.point) + " knob " +
                                  std::to_string(got.knob);
        ASSERT_EQ(got.point, want.point) << where;
        ASSERT_EQ(got.knob, want.knob) << where;
        ASSERT_EQ(got.ooo, want.ooo) << where;
        const auto fields = oooGoldenFields(got.res);
        for (std::size_t f = 0; f < kNumOoOGoldenFields; ++f) {
            EXPECT_EQ(fields[f], want.fields[f])
                << where << ": " << kOoOGoldenNames[f];
        }
    }
}

} // namespace
} // namespace mech
