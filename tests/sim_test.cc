/**
 * @file
 * Micro-trace tests for the cycle-accurate in-order pipeline: each
 * test isolates one mechanism (ideal streaming, stall-on-use,
 * long-latency blocking, memory-stage blocking, branch penalties) and
 * checks exact cycle counts against hand-derived expectations.
 */

#include <cstdio>
#include <cstdlib>
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

// ---- ideal streaming ---------------------------------------------------------

class IdealStreaming
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>>
{
};

TEST_P(IdealStreaming, HazardFreeTraceRunsAtFullWidth)
{
    auto [w, n] = GetParam();
    Trace tr = TraceBuilder().filler(n).build();
    SimResult res = simulateInOrder(tr, idealSim(w, 2));
    EXPECT_EQ(res.cycles, idealCycles(n, w, 2));
    EXPECT_EQ(res.retired, static_cast<InstCount>(n));
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndLengths, IdealStreaming,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(1, 4, 7, 64, 400)));

TEST(Sim, DeeperFrontEndOnlyAddsFill)
{
    Trace tr = TraceBuilder().filler(100).build();
    Cycles d2 = simulateInOrder(tr, idealSim(4, 2)).cycles;
    Cycles d6 = simulateInOrder(tr, idealSim(4, 6)).cycles;
    EXPECT_EQ(d6, d2 + 4);
}

TEST(Sim, EmptyTraceIsZeroCycles)
{
    Trace tr;
    SimResult res = simulateInOrder(tr, idealSim());
    EXPECT_EQ(res.cycles, 0u);
    EXPECT_EQ(res.retired, 0u);
}

// ---- stall-on-use on unit producers -------------------------------------------

TEST(Sim, SerialChainRunsAtOneIpc)
{
    // Every instruction consumes the previous one: W cannot help.
    TraceBuilder b;
    b.alu(8);
    for (int i = 1; i < 100; ++i)
        b.alu(static_cast<RegIndex>(8 + i % 20),
              static_cast<RegIndex>(8 + (i - 1) % 20));
    Trace tr = b.build();
    SimResult res = simulateInOrder(tr, idealSim(4, 2));
    // One instruction per cycle + pipeline fill.
    EXPECT_EQ(res.cycles, 100u + 2u + 2u);
}

TEST(Sim, ForwardingAllowsBackToBackAcrossCycles)
{
    // Dependent pairs in *different* issue groups do not stall: at
    // W=1 a serial chain is indistinguishable from independent work.
    TraceBuilder b;
    b.alu(8);
    for (int i = 1; i < 50; ++i)
        b.alu(static_cast<RegIndex>(8 + i % 20),
              static_cast<RegIndex>(8 + (i - 1) % 20));
    Trace tr = b.build();
    Trace indep = TraceBuilder().filler(50).build();
    EXPECT_EQ(simulateInOrder(tr, idealSim(1, 2)).cycles,
              simulateInOrder(indep, idealSim(1, 2)).cycles);
}

TEST(Sim, IndependentPairsIssueTogether)
{
    // Pairs of independent instructions at W=2: full throughput.
    TraceBuilder b;
    for (int i = 0; i < 50; ++i) {
        b.alu(static_cast<RegIndex>(8 + (2 * i) % 20));
        b.alu(static_cast<RegIndex>(8 + (2 * i + 1) % 20));
    }
    Trace tr = b.build();
    SimResult res = simulateInOrder(tr, idealSim(2, 2));
    EXPECT_EQ(res.cycles, idealCycles(100, 2, 2));
}

// ---- long-latency blocking -------------------------------------------------------

TEST(Sim, MultiplyBlocksThePipeline)
{
    // N independent multiplies, latency L: the execute stage admits
    // one at a time and each holds it L cycles.
    SimConfig cfg = idealSim(4, 2);
    cfg.machine.latIntMult = 4;
    TraceBuilder b;
    for (int i = 0; i < 10; ++i)
        b.op(OpClass::IntMult, static_cast<RegIndex>(8 + i));
    Trace tr = b.build();
    SimResult res = simulateInOrder(tr, cfg);
    // Each multiply occupies execute for 4 cycles, serialized: the
    // k-th issues 4 cycles after the (k-1)-th, plus pipeline fill.
    EXPECT_EQ(res.cycles, 10u * 4u + 4u);
}

TEST(Sim, MultiplyLatencyScalesCost)
{
    SimConfig fast = idealSim(4, 2);
    fast.machine.latIntMult = 2;
    SimConfig slow = idealSim(4, 2);
    slow.machine.latIntMult = 8;
    TraceBuilder b;
    for (int i = 0; i < 20; ++i) {
        b.op(OpClass::IntMult, static_cast<RegIndex>(8 + i % 20));
        b.filler(3);
    }
    Trace tr = b.build();
    Cycles cf = simulateInOrder(tr, fast).cycles;
    Cycles cs = simulateInOrder(tr, slow).cycles;
    // Six extra cycles per multiply, fully exposed in-order.
    EXPECT_EQ(cs - cf, 20u * 6u);
}

TEST(Sim, DivideCostsMoreThanMultiply)
{
    SimConfig cfg = idealSim(4, 2);
    cfg.machine.latIntMult = 4;
    cfg.machine.latIntDiv = 20;
    TraceBuilder bm, bd;
    for (int i = 0; i < 10; ++i) {
        bm.op(OpClass::IntMult, static_cast<RegIndex>(8 + i)).filler(4);
        bd.op(OpClass::IntDiv, static_cast<RegIndex>(8 + i)).filler(4);
    }
    Trace tm = bm.build(), td = bd.build();
    EXPECT_GT(simulateInOrder(td, cfg).cycles,
              simulateInOrder(tm, cfg).cycles + 100);
}

// ---- load-use behaviour -------------------------------------------------------------

TEST(Sim, LoadUseBubbleIsOneCycle)
{
    // W=1: load -> dependent consumer costs exactly one extra cycle
    // versus load -> independent instruction.
    Trace dep = TraceBuilder()
                    .load(8, 0x10000000)
                    .alu(9, 8)
                    .filler(20)
                    .build();
    Trace indep = TraceBuilder()
                      .load(8, 0x10000000)
                      .alu(9)
                      .filler(20)
                      .build();
    SimConfig cfg = idealSim(1, 2);
    EXPECT_EQ(simulateInOrder(dep, cfg).cycles,
              simulateInOrder(indep, cfg).cycles + 1);
}

TEST(Sim, LoadUseGapHidesBubble)
{
    // An independent instruction between load and use hides the
    // bubble completely at W=1.
    Trace spaced = TraceBuilder()
                       .load(8, 0x10000000)
                       .alu(10)
                       .alu(9, 8)
                       .filler(20)
                       .build();
    Trace indep = TraceBuilder()
                      .load(8, 0x10000000)
                      .alu(10)
                      .alu(9)
                      .filler(20)
                      .build();
    SimConfig cfg = idealSim(1, 2);
    EXPECT_EQ(simulateInOrder(spaced, cfg).cycles,
              simulateInOrder(indep, cfg).cycles);
}

TEST(Sim, DCacheMissBlocksMemoryStage)
{
    // One load with a cold D-cache (real cache, perfect I-side):
    // the L2+memory latency appears in the total.
    SimConfig cfg;
    cfg.machine = idealSim(4, 2).machine;
    cfg.perfectICache = true;
    cfg.perfectTlbs = true;
    cfg.perfectDCache = false;
    Trace tr = TraceBuilder()
                   .filler(8)
                   .load(8, 0x10000000)
                   .filler(8)
                   .build();
    Trace nold = TraceBuilder().filler(8).alu(8).filler(8).build();
    Cycles with_miss = simulateInOrder(tr, cfg).cycles;
    Cycles without = simulateInOrder(nold, cfg).cycles;
    Cycles expected_extra =
        cfg.machine.l2HitCycles + cfg.machine.memCycles - 1;
    EXPECT_GE(with_miss, without + expected_extra - 2);
    EXPECT_LE(with_miss, without + expected_extra + 2);
}

TEST(Sim, SecondLoadToSameLineHits)
{
    SimConfig cfg;
    cfg.machine = idealSim(4, 2).machine;
    cfg.perfectICache = true;
    cfg.perfectTlbs = true;
    Trace two_same = TraceBuilder()
                         .load(8, 0x10000000)
                         .filler(4)
                         .load(9, 0x10000008)
                         .filler(4)
                         .build();
    Trace two_diff = TraceBuilder()
                         .load(8, 0x10000000)
                         .filler(4)
                         .load(9, 0x10010000)
                         .filler(4)
                         .build();
    EXPECT_LT(simulateInOrder(two_same, cfg).cycles,
              simulateInOrder(two_diff, cfg).cycles);
}

TEST(Sim, StoresNeverBlock)
{
    // A cold-missing store costs nothing beyond its slot.
    SimConfig cfg;
    cfg.machine = idealSim(4, 2).machine;
    cfg.perfectICache = true;
    cfg.perfectTlbs = true;
    Trace with_store =
        TraceBuilder().filler(10).store(0x10000000).filler(10).build();
    Trace with_alu = TraceBuilder().filler(10).alu(8).filler(10).build();
    EXPECT_EQ(simulateInOrder(with_store, cfg).cycles,
              simulateInOrder(with_alu, cfg).cycles);
}

// ---- branch penalties ------------------------------------------------------------------

TEST(Sim, CorrectNotTakenBranchIsFree)
{
    SimConfig cfg = idealSim(4, 2);
    cfg.predictor = PredictorKind::NotTaken;
    Trace with_branch =
        TraceBuilder().filler(20).branch(false).filler(20).build();
    Trace plain = TraceBuilder().filler(20).alu(8).filler(20).build();
    EXPECT_EQ(simulateInOrder(with_branch, cfg).cycles,
              simulateInOrder(plain, cfg).cycles);
}

TEST(Sim, CorrectTakenBranchCostsOneBubble)
{
    SimConfig cfg = idealSim(1, 2);
    cfg.predictor = PredictorKind::Taken;
    Trace with_branch =
        TraceBuilder().filler(20).branch(true).filler(20).build();
    Trace plain = TraceBuilder().filler(20).alu(8).filler(20).build();
    SimResult res = simulateInOrder(with_branch, cfg);
    EXPECT_EQ(res.cycles, simulateInOrder(plain, cfg).cycles + 1);
    EXPECT_EQ(res.predictedTakenCorrect, 1u);
    EXPECT_EQ(res.mispredicts, 0u);
}

TEST(Sim, MispredictCostsFrontEndDepth)
{
    // Not-taken predictor on a taken branch: flush penalty ~= D.
    for (std::uint32_t d : {2u, 4u, 6u}) {
        SimConfig cfg = idealSim(1, d);
        cfg.predictor = PredictorKind::NotTaken;
        Trace with_miss =
            TraceBuilder().filler(20).branch(true).filler(20).build();
        Trace plain =
            TraceBuilder().filler(20).alu(8).filler(20).build();
        SimResult res = simulateInOrder(with_miss, cfg);
        EXPECT_EQ(res.mispredicts, 1u);
        EXPECT_EQ(res.cycles,
                  simulateInOrder(plain, cfg).cycles + d)
            << "at front-end depth " << d;
    }
}

TEST(Sim, MispredictedNotTakenAlsoFlushes)
{
    // Taken predictor on a not-taken branch.
    SimConfig cfg = idealSim(1, 4);
    cfg.predictor = PredictorKind::Taken;
    Trace with_miss =
        TraceBuilder().filler(20).branch(false).filler(20).build();
    Trace plain = TraceBuilder().filler(20).alu(8).filler(20).build();
    SimResult res = simulateInOrder(with_miss, cfg);
    EXPECT_EQ(res.mispredicts, 1u);
    EXPECT_EQ(res.cycles, simulateInOrder(plain, cfg).cycles + 4);
}

TEST(Sim, MispredictCounterMatchesPredictorBehaviour)
{
    // A loop-shaped alternating branch (one static PC) under gshare:
    // after warmup, few mispredicts.
    SimConfig cfg = idealSim(4, 2);
    cfg.predictor = PredictorKind::Gshare1K;
    Trace tr;
    for (int i = 0; i < 200; ++i) {
        for (int k = 0; k < 3; ++k) {
            DynInstr di;
            di.pc = 0x1000 + 4 * static_cast<Addr>(k);
            di.op = OpClass::IntAlu;
            di.dst = static_cast<RegIndex>(8 + k);
            tr.push(di);
        }
        DynInstr br;
        br.pc = 0x100c;
        br.op = OpClass::Branch;
        br.taken = i % 2 == 0;
        br.targetPc = br.taken ? 0x1000 : 0;
        tr.push(br);
    }
    SimResult res = simulateInOrder(tr, cfg);
    EXPECT_LT(res.mispredicts, 20u);
}

// ---- I-cache behaviour ---------------------------------------------------------------------

TEST(Sim, ICacheMissStallsFetch)
{
    SimConfig cfg;
    cfg.machine = idealSim(4, 2).machine;
    cfg.perfectDCache = true;
    cfg.perfectTlbs = true;
    Trace tr = TraceBuilder().filler(64).build();
    SimResult res = simulateInOrder(tr, cfg);
    // 64 instructions x 4B = 4 lines -> 4 cold misses to memory.
    Cycles per_miss = cfg.machine.l2HitCycles + cfg.machine.memCycles;
    Cycles ideal = idealCycles(64, 4, 2);
    EXPECT_GE(res.cycles, ideal + 4 * per_miss - 4);
    EXPECT_LE(res.cycles, ideal + 4 * per_miss + 4);
    EXPECT_GT(res.fetchMissStallCycles, 0u);
}

TEST(Sim, WarmICacheRunsIdeally)
{
    // Loop-shaped PCs: after one pass the lines are resident; a
    // second identical pass adds no fetch stalls.
    SimConfig cfg;
    cfg.machine = idealSim(4, 2).machine;
    cfg.perfectDCache = true;
    cfg.perfectTlbs = true;

    auto one_pass = [] {
        TraceBuilder b;
        return b.filler(64).build();
    };
    Trace once = one_pass();
    // Two passes over the same 4 lines.
    Trace twice;
    for (int r = 0; r < 2; ++r) {
        for (const auto &di : once)
            twice.push(di);
    }
    Cycles c1 = simulateInOrder(once, cfg).cycles;
    Cycles c2 = simulateInOrder(twice, cfg).cycles;
    EXPECT_EQ(c2 - c1, 64u / 4u); // second pass: pure issue cycles
}

// ---- diagnostics -----------------------------------------------------------------------------

TEST(Sim, CpiAndSecondsHelpers)
{
    SimResult r;
    r.cycles = 500;
    r.retired = 250;
    EXPECT_DOUBLE_EQ(r.cpi(), 2.0);
    EXPECT_DOUBLE_EQ(r.seconds(1.0), 500e-9);
}

TEST(Sim, GuardPanicsOnImpossibleTraceAreAbsent)
{
    // A full workload trace must always terminate.
    Trace tr = generateTrace(profileByName("sha"), 5000);
    SimConfig cfg = idealSim(4, 6);
    SimResult res = simulateInOrder(tr, cfg);
    EXPECT_EQ(res.retired, tr.size());
}

// ---- golden SimResult snapshot ---------------------------------------------
//
// Every SimResult field over a seeded sweep: each MiBench profile at
// three Table 2 points drawn from a fixed-seed Rng, the third run
// under one idealization knob (rotating per benchmark).  The stall
// counters are pinned here and nowhere else, so any change to how
// the pipeline advances time — stepping, skipping, stage storage —
// must leave this table untouched.
//
// Regenerating after an *intentional* simulator change:
//
//     MECH_GOLDEN_REGEN=1 ./sim_test --gtest_filter='SimGolden.*'

constexpr InstCount kGoldenLen = 20000;
constexpr int kGoldenPointsPerBench = 3;

/** Every SimResult field, in the golden table's column order. */
struct GoldenField
{
    const char *name;
    std::uint64_t SimResult::*member;
};

const GoldenField kGoldenFields[] = {
    {"cycles", &SimResult::cycles},
    {"retired", &SimResult::retired},
    {"fetchMissStallCycles", &SimResult::fetchMissStallCycles},
    {"takenBubbleCycles", &SimResult::takenBubbleCycles},
    {"mispredictStallCycles", &SimResult::mispredictStallCycles},
    {"dependencyStallCycles", &SimResult::dependencyStallCycles},
    {"backPressureStallCycles", &SimResult::backPressureStallCycles},
    {"mispredicts", &SimResult::mispredicts},
    {"predictedTakenCorrect", &SimResult::predictedTakenCorrect},
};
constexpr std::size_t kNumGoldenFields = std::size(kGoldenFields);

/** One run of the sweep; rows follow mibenchSuite() order. */
struct SimGoldenRow
{
    std::uint32_t point; ///< table2Space() index
    std::uint32_t knob;  ///< 0 none, 1 icache, 2 dcache, 3 tlbs perfect
    std::uint64_t fields[kNumGoldenFields];
};

struct SimGoldenRun
{
    std::string bench;
    std::uint32_t point = 0;
    std::uint32_t knob = 0;
    SimResult res;
};

std::vector<SimGoldenRun>
runGoldenSweep()
{
    const std::vector<DesignPoint> space = table2Space();
    Rng rng(0x51a7e5eedull);
    std::vector<SimGoldenRun> runs;
    std::uint32_t b = 0;
    for (const BenchmarkProfile &profile : mibenchSuite()) {
        const Trace tr = generateTrace(profile, kGoldenLen);
        for (int i = 0; i < kGoldenPointsPerBench; ++i) {
            SimGoldenRun run;
            run.bench = profile.name;
            run.point = static_cast<std::uint32_t>(rng.below(space.size()));
            run.knob = i + 1 == kGoldenPointsPerBench ? b % 4 : 0;
            SimConfig cfg = simConfigFor(space[run.point]);
            cfg.perfectICache = run.knob == 1;
            cfg.perfectDCache = run.knob == 2;
            cfg.perfectTlbs = run.knob == 3;
            run.res = simulateInOrder(tr, cfg);
            runs.push_back(std::move(run));
        }
        ++b;
    }
    return runs;
}

// Snapshot generated with MECH_GOLDEN_REGEN=1 (see above).
const SimGoldenRow kSimGolden[] = {
    // adpcm_c
    {37, 0, {11878, 20029, 354, 840, 981, 0, 0, 242, 841}},
    {65, 0, {22779, 20029, 444, 840, 1210, 0, 0, 242, 841}},
    {128, 0, {22174, 20029, 354, 835, 708, 0, 0, 236, 836}},
    // adpcm_d
    {35, 0, {22195, 20006, 299, 1421, 6310, 3644, 79, 1001, 1421}},
    {23, 0, {23207, 20006, 375, 1421, 12758, 5120, 99, 1001, 1421}},
    {140, 1, {24254, 20006, 0, 1349, 12434, 5062, 99, 1100, 1349}},
    // dijkstra
    {5, 0, {29514, 20009, 305, 918, 559, 12955, 3796, 168, 919}},
    {81, 0, {43669, 20009, 409, 918, 598, 14510, 7363, 168, 919}},
    {191, 2, {14749, 20009, 513, 918, 2347, 2149, 0, 168, 919}},
    // gsm_c
    {89, 0, {37868, 20028, 2652, 406, 1719, 1495, 12327, 223, 407}},
    {135, 0, {26325, 20028, 2114, 406, 3101, 6556, 6178, 223, 407}},
    {6, 3, {22097, 20028, 1558, 403, 1205, 5104, 4127, 225, 404}},
    // jpeg_c
    {89, 0, {45183, 20027, 10164, 104, 738, 2684, 11762, 130, 105}},
    {155, 0, {32876, 20027, 8102, 104, 579, 4364, 8147, 130, 105}},
    {84, 0, {30491, 20027, 8102, 106, 1163, 5088, 7318, 132, 107}},
    // jpeg_d
    {158, 0, {22326, 20000, 8432, 139, 1164, 1496, 3387, 128, 140}},
    {55, 0, {19119, 20000, 6286, 138, 547, 1322, 2298, 129, 139}},
    {105, 1, {25267, 20000, 0, 138, 449, 561, 4078, 129, 139}},
    // lame
    {5, 0, {39751, 20052, 4833, 107, 730, 10153, 12754, 136, 108}},
    {119, 0, {55803, 20052, 8133, 107, 6520, 18600, 19298, 136, 108}},
    {134, 2, {32431, 20052, 6483, 109, 2706, 1415, 13641, 135, 110}},
    // patricia
    {185, 0, {83650, 20021, 858, 2095, 26915, 12585, 41419, 1283, 2096}},
    {26, 0, {49810, 20021, 510, 2077, 11321, 14131, 18283, 1351, 2078}},
    {80, 3, {70283, 20021, 660, 2077, 16663, 10181, 32793, 1351, 2078}},
    // qsort
    {4, 0, {39785, 20026, 469, 1594, 10038, 22005, 4771, 917, 1595}},
    {94, 0, {59479, 20026, 789, 1594, 37644, 36300, 7877, 917, 1595}},
    {58, 0, {52485, 20026, 629, 1594, 17126, 22813, 12578, 917, 1595}},
    // rsynth
    {136, 0, {44385, 20120, 3963, 157, 908, 802, 19305, 84, 157}},
    {3, 0, {28792, 20120, 2355, 157, 278, 817, 11756, 86, 157}},
    {102, 1, {25136, 20120, 0, 157, 725, 1278, 11463, 84, 157}},
    // sha
    {176, 0, {22743, 20039, 629, 266, 48, 0, 1728, 16, 267}},
    {53, 0, {10845, 20039, 469, 266, 17, 272, 1256, 16, 267}},
    {56, 2, {21015, 20039, 629, 266, 48, 0, 0, 16, 267}},
    // stringsearch
    {190, 0, {33805, 20014, 582, 1998, 17361, 9864, 6634, 1142, 1999}},
    {38, 0, {28514, 20014, 464, 1998, 11155, 8050, 5310, 1142, 1999}},
    {98, 3, {26492, 20014, 328, 1998, 2009, 3620, 6171, 1142, 1999}},
    // susan_c
    {122, 0, {26420, 20082, 1125, 453, 719, 1578, 10626, 163, 454}},
    {3, 0, {26421, 20082, 1125, 454, 714, 1578, 10626, 163, 455}},
    {170, 0, {26420, 20082, 1125, 453, 719, 1578, 10626, 163, 454}},
    // susan_e
    {101, 0, {22057, 20026, 1125, 499, 591, 4376, 5777, 230, 500}},
    {176, 0, {36192, 20026, 1509, 494, 2673, 834, 12594, 234, 495}},
    {96, 1, {30758, 20026, 0, 494, 1617, 743, 9074, 234, 495}},
    // susan_s
    {134, 0, {31304, 20050, 1014, 265, 190, 6742, 12739, 14, 266}},
    {121, 0, {35311, 20050, 756, 265, 16, 4595, 9693, 14, 266}},
    {6, 2, {16625, 20050, 756, 265, 52, 739, 4200, 14, 266}},
    // tiff2bw
    {85, 0, {29199, 20006, 354, 523, 97, 2049, 15122, 13, 524}},
    {184, 0, {40247, 20006, 444, 523, 65, 233, 19255, 13, 524}},
    {10, 3, {31142, 20006, 330, 523, 40, 489, 16921, 13, 524}},
    // tiff2rgba
    {106, 0, {15597, 20031, 464, 546, 8, 111, 3568, 2, 547}},
    {153, 0, {24613, 20031, 464, 546, 6, 74, 3512, 2, 547}},
    {44, 0, {13982, 20031, 582, 546, 16, 2641, 2238, 2, 547}},
    // tiffdither
    {37, 0, {31394, 20053, 629, 824, 11157, 2667, 15677, 459, 825}},
    {146, 0, {28565, 20053, 469, 824, 876, 2303, 11298, 446, 825}},
    {91, 1, {37664, 20053, 0, 824, 6107, 2839, 18855, 459, 825}},
    // tiffmedian
    {73, 0, {57325, 20033, 551, 927, 905, 5196, 29740, 454, 928}},
    {0, 0, {57367, 20033, 551, 913, 933, 5196, 29740, 482, 914}},
    {72, 2, {23944, 20033, 551, 913, 482, 350, 1118, 482, 914}},
};

TEST(SimGolden, EveryFieldMatchesSnapshotOverSeededSweep)
{
    const std::vector<SimGoldenRun> runs = runGoldenSweep();

    if (std::getenv("MECH_GOLDEN_REGEN")) {
        std::printf("const SimGoldenRow kSimGolden[] = {\n");
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const SimGoldenRun &r = runs[i];
            if (i % kGoldenPointsPerBench == 0)
                std::printf("    // %s\n", r.bench.c_str());
            std::printf("    {%u, %u, {", r.point, r.knob);
            for (std::size_t f = 0; f < kNumGoldenFields; ++f) {
                const std::uint64_t v = r.res.*kGoldenFields[f].member;
                std::printf("%s%llu", f ? ", " : "",
                            static_cast<unsigned long long>(v));
            }
            std::printf("}},\n");
        }
        std::printf("};\n");
        GTEST_SKIP() << "regeneration mode: table printed, not checked";
    }

    ASSERT_EQ(runs.size(), std::size(kSimGolden))
        << "golden table out of date; regenerate with MECH_GOLDEN_REGEN=1";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SimGoldenRun &got = runs[i];
        const SimGoldenRow &want = kSimGolden[i];
        const std::string where = got.bench + " point " +
                                  std::to_string(got.point) + " knob " +
                                  std::to_string(got.knob);
        ASSERT_EQ(got.point, want.point) << where;
        ASSERT_EQ(got.knob, want.knob) << where;
        for (std::size_t f = 0; f < kNumGoldenFields; ++f) {
            EXPECT_EQ(got.res.*kGoldenFields[f].member, want.fields[f])
                << where << ": " << kGoldenFields[f].name;
        }
    }
}

} // namespace
} // namespace mech
