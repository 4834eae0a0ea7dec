/**
 * @file
 * Unit tests for the profiling pass: dependency-distance measurement
 * (shortest-distance rule, producer classification), miss counting
 * against the cache hierarchy, branch statistics, and the captured-L2
 * sweep: every geometry sweepL2 derives equals a cache replay.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "cache/cache.hh"
#include "dse/study.hh"
#include "profiler/profiler.hh"
#include "search/space_spec.hh"
#include "test_util.hh"
#include "workload/executor.hh"
#include "workload/suites.hh"

namespace mech {
namespace {

using test::TraceBuilder;

ProfilerConfig
tinyConfig()
{
    ProfilerConfig cfg;
    cfg.predictors = {PredictorKind::NotTaken};
    return cfg;
}

// ---- dependency measurement ----------------------------------------------------

TEST(ProfilerDeps, DistanceCountsDynamicInstructions)
{
    // producer r8; two fillers; consumer of r8 -> distance 3.
    Trace tr = TraceBuilder()
                   .alu(8)
                   .alu(9)
                   .alu(10)
                   .alu(11, 8)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).at(3), 1u);
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).total(), 1u);
}

TEST(ProfilerDeps, ShortestDistanceWins)
{
    // consumer reads r8 (distance 3) and r9 (distance 1): count one
    // entry at distance 1.
    Trace tr = TraceBuilder()
                   .alu(8)
                   .alu(10)
                   .alu(9)
                   .alu(11, 8, 9)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).at(1), 1u);
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).at(3), 0u);
}

TEST(ProfilerDeps, TieBreakPrefersLoad)
{
    // Load writes r8 and ALU writes r9 at the same distance: the
    // consumer entry lands in the load histogram.
    Trace tr = TraceBuilder()
                   .load(8, 0x10000000)
                   .alu(9)
                   .alu(11, 8, 9) // both at distance 2 and 1...
                   .build();
    // Rebuild precisely: load at distance 2, alu at distance 1 ->
    // shortest is the alu.  For the tie we need equal distances via
    // two sources written at the same position - impossible; instead
    // check: load at d=1, alu at d=1 cannot happen, so test priority
    // with distances equal by using a single dual-source consumer
    // whose producers sit at the same instruction? Registers are
    // written by distinct instructions, so a *true* tie cannot occur;
    // the rule only matters for equal distances measured from
    // different sources.  Verify the load classification itself:
    Trace tr2 = TraceBuilder()
                    .load(8, 0x10000000)
                    .alu(9, 8)
                    .build();
    WorkloadProfile p2 = profileTrace(tr2, tinyConfig());
    EXPECT_EQ(p2.program.deps.of(OpClass::Load).at(1), 1u);
    (void)tr;
}

TEST(ProfilerDeps, ProducerClassDecidesHistogram)
{
    Trace tr = TraceBuilder()
                   .op(OpClass::IntMult, 8)
                   .alu(9, 8)
                   .op(OpClass::FpDiv, 10)
                   .alu(11, 10)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.deps.of(OpClass::IntMult).at(1), 1u);
    EXPECT_EQ(p.program.deps.of(OpClass::FpDiv).at(1), 1u);
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).total(), 0u);
}

TEST(ProfilerDeps, OverwrittenProducerUsesLatestWriter)
{
    // r8 written twice; consumer distance measured to the second.
    Trace tr = TraceBuilder()
                   .alu(8)
                   .op(OpClass::IntMult, 8)
                   .alu(9, 8)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.deps.of(OpClass::IntMult).at(1), 1u);
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).total(), 0u);
}

TEST(ProfilerDeps, UnwrittenSourcesDontCount)
{
    Trace tr = TraceBuilder().alu(8, 0).alu(9, 1).build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    for (OpClass oc : kAllOpClasses)
        EXPECT_EQ(p.program.deps.of(oc).total(), 0u);
}

TEST(ProfilerDeps, BranchesAndStoresAreConsumers)
{
    Trace tr = TraceBuilder()
                   .alu(8)
                   .branch(false, 0, 8)
                   .alu(9)
                   .store(0x10000000, 9)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).at(1), 2u);
}

TEST(ProfilerDeps, MaxDistanceCapRespected)
{
    ProfilerConfig cfg = tinyConfig();
    cfg.maxDepDistance = 2;
    Trace tr = TraceBuilder()
                   .alu(8)
                   .alu(9)
                   .alu(10)
                   .alu(11, 8) // distance 3 > cap
                   .build();
    WorkloadProfile p = profileTrace(tr, cfg);
    EXPECT_EQ(p.program.deps.of(OpClass::IntAlu).total(), 0u);
}

// ---- mix and branch statistics ----------------------------------------------------

TEST(Profiler, MixCountsClasses)
{
    Trace tr = TraceBuilder()
                   .alu(8)
                   .op(OpClass::IntMult, 9)
                   .load(10, 0x10000000)
                   .store(0x10000040)
                   .branch(true)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.n, 5u);
    EXPECT_EQ(p.program.mix.of(OpClass::IntAlu), 1u);
    EXPECT_EQ(p.program.mix.of(OpClass::IntMult), 1u);
    EXPECT_EQ(p.program.mix.of(OpClass::Load), 1u);
    EXPECT_EQ(p.program.mix.of(OpClass::Store), 1u);
    EXPECT_EQ(p.program.mix.of(OpClass::Branch), 1u);
}

TEST(Profiler, BranchCounts)
{
    Trace tr = TraceBuilder()
                   .branch(true)
                   .branch(false)
                   .branch(true)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.program.branches, 3u);
    EXPECT_EQ(p.program.takenBranches, 2u);
    EXPECT_EQ(p.branchProfiles.size(), 1u);
    EXPECT_EQ(p.branchProfileFor(PredictorKind::NotTaken).mispredicts,
              2u);
}

// ---- memory statistics ----------------------------------------------------------------

TEST(ProfilerMemory, LoadClassification)
{
    // Two loads to the same line: first goes to memory, second hits
    // L1.  A load to a far line misses again.
    Trace tr = TraceBuilder()
                   .load(8, 0x10000000)
                   .load(9, 0x10000008)
                   .load(10, 0x10200000)
                   .build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.memory.loadMemory, 2u);
    EXPECT_EQ(p.memory.loadL2Hits, 0u);
    EXPECT_EQ(p.memory.loadMemoryIdx.size(), 2u);
    EXPECT_EQ(p.memory.loadMemoryIdx[0], 0u);
    EXPECT_EQ(p.memory.loadMemoryIdx[1], 2u);
}

TEST(ProfilerMemory, StoreMissesAreInformationalOnly)
{
    Trace tr = TraceBuilder().store(0x10000000).build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.memory.storeL1Misses, 1u);
    EXPECT_EQ(p.memory.loadMemory, 0u);
}

TEST(ProfilerMemory, TlbMissesCounted)
{
    TraceBuilder b;
    // 40 loads, each on its own page: thrashes the 32-entry D-TLB.
    for (int i = 0; i < 40; ++i)
        b.load(static_cast<RegIndex>(8 + i % 20),
               0x10000000 + static_cast<Addr>(i) * 4096);
    Trace tr = b.build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.memory.dtlbMisses, 40u);
    EXPECT_GE(p.memory.itlbMisses, 1u);
}

TEST(ProfilerMemory, IFetchMissesPerLine)
{
    // 32 sequential instructions = two 64B lines, cold.
    Trace tr = TraceBuilder().filler(32).build();
    WorkloadProfile p = profileTrace(tr, tinyConfig());
    EXPECT_EQ(p.memory.iFetchMemory, 2u);
    EXPECT_EQ(p.memory.iFetchL2Hits, 0u);
}

// ---- L2 stream capture and resweep ------------------------------------------------------

TEST(ProfilerResweep, SameGeometryReproducesCounts)
{
    Trace tr = generateTrace(profileByName("tiffmedian"), 30000);
    ProfilerConfig cfg;
    cfg.predictors = {PredictorKind::Gshare1K};
    cfg.captureL2Stream = true;
    WorkloadProfile p = profileTrace(tr, cfg);

    const CacheConfig &l2 = cfg.hierarchy.l2;
    MemoryStats redo = sweepL2(p, l2.numSets(), {l2.assoc}).front();
    EXPECT_EQ(redo.loadL2Hits, p.memory.loadL2Hits);
    EXPECT_EQ(redo.loadMemory, p.memory.loadMemory);
    EXPECT_EQ(redo.iFetchL2Hits, p.memory.iFetchL2Hits);
    EXPECT_EQ(redo.iFetchMemory, p.memory.iFetchMemory);
    EXPECT_EQ(redo.loadMemoryIdx, p.memory.loadMemoryIdx);
}

TEST(ProfilerResweep, MatchesDirectProfilingAtOtherGeometry)
{
    // Replaying the captured stream into a different L2 must equal a
    // from-scratch profile with that L2 (the L2 input stream depends
    // only on the fixed L1s).
    Trace tr = generateTrace(profileByName("bzip2"), 30000);
    ProfilerConfig base;
    base.predictors = {PredictorKind::Gshare1K};
    base.captureL2Stream = true;
    WorkloadProfile captured = profileTrace(tr, base);

    CacheConfig small_l2{128 * 1024, 16, 64};
    MemoryStats swept =
        sweepL2(captured, small_l2.numSets(), {small_l2.assoc}).front();

    ProfilerConfig direct = base;
    direct.hierarchy.l2 = small_l2;
    WorkloadProfile reference = profileTrace(tr, direct);

    EXPECT_EQ(swept.loadL2Hits, reference.memory.loadL2Hits);
    EXPECT_EQ(swept.loadMemory, reference.memory.loadMemory);
    EXPECT_EQ(swept.iFetchL2Hits, reference.memory.iFetchL2Hits);
    EXPECT_EQ(swept.iFetchMemory, reference.memory.iFetchMemory);
}

TEST(ProfilerResweep, SmallerL2MissesMore)
{
    Trace tr = generateTrace(profileByName("gcc"), 40000);
    ProfilerConfig cfg;
    cfg.predictors = {PredictorKind::Gshare1K};
    cfg.captureL2Stream = true;
    WorkloadProfile p = profileTrace(tr, cfg);

    MemoryStats big = sweepL2(p, 2048, {8}).front();
    MemoryStats small = sweepL2(p, 256, {8}).front();
    EXPECT_GE(small.loadMemory, big.loadMemory);
}

// ---- L2 sweep against a per-geometry cache replay -------------------------------------------

/**
 * Reference: replay the captured L2 stream of @p profile into a fresh
 * LRU SetAssocCache of the given geometry, one reference at a time.
 */
MemoryStats
replayL2(const WorkloadProfile &profile, const CacheConfig &l2_config)
{
    MemoryStats out;
    out.itlbMisses = profile.memory.itlbMisses;
    out.dtlbMisses = profile.memory.dtlbMisses;
    out.storeL1Misses = profile.memory.storeL1Misses;

    SetAssocCache l2(l2_config);
    for (const auto &ref : profile.l2Stream) {
        bool hit = l2.access(ref.addr, ref.kind == L2RefKind::Store);
        switch (ref.kind) {
          case L2RefKind::Ifetch:
            hit ? ++out.iFetchL2Hits : ++out.iFetchMemory;
            break;
          case L2RefKind::Load:
            if (hit) {
                ++out.loadL2Hits;
                out.loadL2HitIdx.push_back(ref.instrIdx);
            } else {
                ++out.loadMemory;
                out.loadMemoryIdx.push_back(ref.instrIdx);
            }
            break;
          case L2RefKind::Store:
            break;
        }
    }
    return out;
}

/** Every MemoryStats field, index vectors included, must match. */
void
expectSameMemory(const MemoryStats &got, const MemoryStats &want)
{
    EXPECT_EQ(got.iFetchL2Hits, want.iFetchL2Hits);
    EXPECT_EQ(got.iFetchMemory, want.iFetchMemory);
    EXPECT_EQ(got.loadL2Hits, want.loadL2Hits);
    EXPECT_EQ(got.loadMemory, want.loadMemory);
    EXPECT_EQ(got.storeL1Misses, want.storeL1Misses);
    EXPECT_EQ(got.itlbMisses, want.itlbMisses);
    EXPECT_EQ(got.dtlbMisses, want.dtlbMisses);
    EXPECT_EQ(got.loadMemoryIdx, want.loadMemoryIdx);
    EXPECT_EQ(got.loadL2HitIdx, want.loadL2HitIdx);
}

TEST(L2Sweep, EveryWideGeometryMatchesACacheReplay)
{
    // The 56 `wide` geometries, plus one with more ways than the
    // stack simulator tracks by default (one set of 1024 ways) and
    // the widest 8 MiB one (1024 sets of 128 ways).
    std::vector<std::pair<std::uint64_t, std::uint32_t>> geoms;
    for (const DesignPoint &p : SpaceSpec::wide().l2Geometries())
        geoms.emplace_back(p.l2KB, p.l2Assoc);
    geoms.emplace_back(64, 1024);
    geoms.emplace_back(8192, 128);

    // Grouped by set count, the way DseStudy::prepare groups them.
    std::map<std::uint64_t, std::vector<std::uint32_t>> by_sets;
    for (const auto &[kb, assoc] : geoms)
        by_sets[kb * 1024 / (assoc * 64ull)].push_back(assoc);

    for (const BenchmarkProfile &bench : mibenchSuite()) {
        DseStudy study(bench, 20000);
        const WorkloadProfile &prof = study.profile();
        ASSERT_FALSE(prof.l2Stream.empty()) << bench.name;
        for (const auto &[sets, assocs] : by_sets) {
            std::vector<MemoryStats> swept = sweepL2(prof, sets, assocs);
            ASSERT_EQ(swept.size(), assocs.size());
            for (std::size_t i = 0; i < assocs.size(); ++i) {
                SCOPED_TRACE(bench.name + " sets=" + std::to_string(sets) +
                             " assoc=" + std::to_string(assocs[i]));
                const CacheConfig cfg{sets * assocs[i] * 64, assocs[i], 64};
                expectSameMemory(swept[i], replayL2(prof, cfg));
            }
        }
    }
}

TEST(L2Sweep, FullyAssociativeMissesOnlyOnFirstTouch)
{
    // One set of 2^20 ways holds every block a short trace touches,
    // so an ifetch or load misses exactly when no earlier L2
    // reference (stores included) touched its 64 B block.
    DseStudy study(profileByName("gcc"), 5000);
    const WorkloadProfile &prof = study.profile();
    std::uint64_t first_touches = 0;
    std::set<Addr> seen;
    for (const L2Ref &ref : prof.l2Stream) {
        const bool first = seen.insert(ref.addr / 64).second;
        if (first && ref.kind != L2RefKind::Store)
            ++first_touches;
    }
    ASSERT_LT(seen.size(), std::size_t{1} << 20);
    ASSERT_GT(first_touches, 0u);

    MemoryStats mem = sweepL2(prof, 1, {1u << 20}).front();
    EXPECT_EQ(mem.iFetchMemory + mem.loadMemory, first_touches);
    EXPECT_EQ(mem.iFetchL2Hits + mem.iFetchMemory + mem.loadL2Hits +
                  mem.loadMemory + mem.storeL1Misses,
              prof.l2Stream.size());
}

TEST(L2Sweep, PreparedStudyMatchesUnpreparedAtEveryWideGeometry)
{
    // prepare() derives all geometries of a set count in one pass; an
    // unprepared study derives each point's geometry alone.  Both
    // must give the same model and ooo results.
    const BackendSet backends = backendSet("model,ooo");
    const std::vector<DesignPoint> geoms =
        SpaceSpec::wide().l2Geometries();
    for (const char *name : {"gcc", "qsort"}) {
        DseStudy prepared(profileByName(name), 20000);
        prepared.prepare(geoms);
        const DseStudy fresh(profileByName(name), 20000);
        for (const DesignPoint &p : geoms) {
            const PointEvaluation a = prepared.evaluate(p, backends);
            const PointEvaluation b = fresh.evaluate(p, backends);
            ASSERT_EQ(a.results.size(), b.results.size());
            for (std::size_t i = 0; i < a.results.size(); ++i) {
                const EvalResult &ra = a.results[i];
                const EvalResult &rb = b.results[i];
                const std::string where =
                    std::string(name) + " " + p.toKey() + " " + ra.backend;
                EXPECT_EQ(ra.backend, rb.backend) << where;
                EXPECT_EQ(ra.cycles, rb.cycles) << where;
                EXPECT_EQ(ra.edp, rb.edp) << where;
                for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
                    const auto comp = static_cast<CpiComponent>(c);
                    EXPECT_EQ(ra.stack[comp], rb.stack[comp])
                        << where << " " << cpiComponentName(comp);
                }
            }
        }
    }
}

// ---- whole-suite sanity -------------------------------------------------------------------

TEST(Profiler, DeterministicAcrossRuns)
{
    Trace tr = generateTrace(profileByName("sha"), 20000);
    WorkloadProfile a = profileTrace(tr, tinyConfig());
    WorkloadProfile b = profileTrace(tr, tinyConfig());
    EXPECT_EQ(a.program.n, b.program.n);
    EXPECT_EQ(a.memory.loadL2Hits, b.memory.loadL2Hits);
    EXPECT_EQ(a.program.deps.of(OpClass::IntAlu).total(),
              b.program.deps.of(OpClass::IntAlu).total());
}

} // namespace
} // namespace mech
