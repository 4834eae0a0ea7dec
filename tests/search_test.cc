/**
 * @file
 * Unit tests for the search subsystem's building blocks: DesignPoint
 * identity (hash/key round trips, collision-freedom over the Table 2
 * grid), the SpaceSpec grammar and enumeration order, objectives,
 * Pareto machinery and the memoized evaluation cache.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dse/design_space.hh"
#include "search/eval_cache.hh"
#include "search/objective.hh"
#include "search/pareto.hh"
#include "search/space_spec.hh"

namespace mech {
namespace {

// ---- DesignPoint identity -------------------------------------------------

TEST(DesignPointIdentity, EqualityIsFieldWise)
{
    DesignPoint a = defaultDesignPoint();
    DesignPoint b = a;
    EXPECT_TRUE(a == b);
    b.width = 2;
    EXPECT_FALSE(a == b);
    b = a;
    b.predictor = PredictorKind::Hybrid3K5;
    EXPECT_FALSE(a == b);
    b = a;
    b.freqGHz = 0.8;
    EXPECT_FALSE(a == b);
}

TEST(DesignPointIdentity, HashIsStableAcrossRuns)
{
    // Pinned value: the FNV-1a encoding is part of the identity
    // contract (cache keys, future persistent artifacts).  If this
    // changes, the hash function changed — bump deliberately.
    // Bumped when the out-of-order structures (OooParams) joined the
    // point identity.
    EXPECT_EQ(defaultDesignPoint().hash(), 0xa03eddb554f747adull);
    EXPECT_EQ(defaultDesignPoint().hash(), defaultDesignPoint().hash());
}

TEST(DesignPointIdentity, HashCollisionFreeOverTable2Grid)
{
    std::set<std::uint64_t> hashes;
    for (const DesignPoint &p : table2Space())
        hashes.insert(p.hash());
    EXPECT_EQ(hashes.size(), 192u);
}

TEST(DesignPointIdentity, EqualPointsHashEqual)
{
    for (const DesignPoint &p : table2Space()) {
        DesignPoint copy = p;
        EXPECT_EQ(copy.hash(), p.hash());
    }
}

TEST(DesignPointIdentity, KeyRoundTripsOverTable2Grid)
{
    std::set<std::string> keys;
    for (const DesignPoint &p : table2Space()) {
        std::string key = p.toKey();
        keys.insert(key);
        auto back = DesignPoint::fromKey(key);
        ASSERT_TRUE(back.has_value()) << key;
        EXPECT_TRUE(*back == p) << key;
    }
    EXPECT_EQ(keys.size(), 192u);
}

TEST(DesignPointIdentity, KeyRoundTripsAwkwardFrequencies)
{
    DesignPoint p = defaultDesignPoint();
    for (double freq : {0.6, 0.8, 1.0, 1.2, 1.7999999999999998,
                        0.3333333333333333}) {
        p.freqGHz = freq;
        auto back = DesignPoint::fromKey(p.toKey());
        ASSERT_TRUE(back.has_value()) << p.toKey();
        EXPECT_EQ(back->freqGHz, freq) << p.toKey();
    }
}

constexpr PredictorKind kPredictors[] = {
    PredictorKind::NotTaken, PredictorKind::Taken,
    PredictorKind::Bimodal,  PredictorKind::Gshare1K,
    PredictorKind::Local,    PredictorKind::Hybrid3K5};

/** A finite positive double: any bit pattern, a subnormal, a
 *  clock-like value, or a magnitude anywhere from 1e-12 to 1e3. */
double
anyPositiveFreq(Rng &rng)
{
    double v = 0.0;
    switch (rng.below(4)) {
      case 0:
        do {
            const std::uint64_t bits = rng.next() >> 1; // sign bit clear
            std::memcpy(&v, &bits, sizeof(v));
        } while (!std::isfinite(v) || v == 0.0);
        return v;
      case 1: {
        const std::uint64_t bits = 1 + rng.below((1ull << 52) - 1);
        std::memcpy(&v, &bits, sizeof(v));
        return v;
      }
      case 2:
        return 0.05 + 5.0 * rng.uniform();
      default:
        return std::pow(10.0, -12.0 + 15.0 * rng.uniform());
    }
}

/** An admitted frequency: any bit pattern between the bounds, a
 *  bound or its inner neighbour, a clock-like value, or a magnitude
 *  anywhere in range. */
double
anyAdmittedFreq(Rng &rng)
{
    constexpr double lo = SpaceSpec::kMinFreqGHz;
    constexpr double hi = SpaceSpec::kMaxFreqGHz;
    switch (rng.below(4)) {
      case 0: {
        // Positive doubles order like their bit patterns.
        std::uint64_t lo_bits = 0;
        std::uint64_t hi_bits = 0;
        std::memcpy(&lo_bits, &lo, sizeof(lo));
        std::memcpy(&hi_bits, &hi, sizeof(hi));
        const std::uint64_t bits = lo_bits + rng.below(hi_bits - lo_bits + 1);
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
      }
      case 1: {
        const double edges[] = {lo, std::nextafter(lo, hi), hi,
                                std::nextafter(hi, lo)};
        return edges[rng.below(4)];
      }
      case 2:
        return 0.05 + 5.0 * rng.uniform();
      default:
        return std::clamp(lo * std::pow(hi / lo, rng.uniform()), lo, hi);
    }
}

/** A count in [1, @p max]: half the time a power of two, else uniform. */
std::uint32_t
boundedCount(Rng &rng, std::uint32_t max)
{
    if (rng.chance(0.5))
        return std::uint32_t(1) << rng.below(std::bit_width(max));
    return static_cast<std::uint32_t>(rng.range(1, max));
}

/** A seeded point with out-of-order fields inside the space bounds. */
DesignPoint
seededPoint(Rng &rng)
{
    DesignPoint p;
    p.l2KB = std::uint64_t(1) << rng.below(17);
    p.l2Assoc = std::uint32_t(1) << rng.below(21);
    p.depth = static_cast<std::uint32_t>(rng.range(5, 40));
    p.freqGHz = anyPositiveFreq(rng);
    p.width = static_cast<std::uint32_t>(rng.range(1, 16));
    p.predictor = kPredictors[rng.below(std::size(kPredictors))];
    if (rng.chance(0.75)) {
        // Each field independently, so keys carry any subset of the
        // optional out-of-order fields.
        auto maybe = [&rng](std::uint32_t *field, std::uint32_t max) {
            if (rng.chance(0.6))
                *field = boundedCount(rng, max);
        };
        maybe(&p.ooo.robSize, SpaceSpec::kMaxRobSize);
        maybe(&p.ooo.iqSize, SpaceSpec::kMaxIqSize);
        maybe(&p.ooo.fuAlu, SpaceSpec::kMaxFuCount);
        maybe(&p.ooo.fuMul, SpaceSpec::kMaxFuCount);
        maybe(&p.ooo.fuMem, SpaceSpec::kMaxFuCount);
        maybe(&p.ooo.fuBr, SpaceSpec::kMaxFuCount);
        maybe(&p.ooo.resultBuses, SpaceSpec::kMaxResultBuses);
    }
    return p;
}

TEST(DesignPointIdentity, KeyRoundTripsSeededPoints)
{
    Rng rng(0x6b657973ull);
    for (int i = 0; i < 20000; ++i) {
        const DesignPoint p = seededPoint(rng);
        const std::string key = p.toKey();
        const auto back = DesignPoint::fromKey(key);
        ASSERT_TRUE(back.has_value()) << key;
        ASSERT_TRUE(*back == p) << key << " came back as " << back->toKey();
    }
}

TEST(DesignPointIdentity, FromKeyRejectsMalformedInput)
{
    EXPECT_FALSE(DesignPoint::fromKey("").has_value());
    EXPECT_FALSE(DesignPoint::fromKey("l2kb=512").has_value());
    EXPECT_FALSE(DesignPoint::fromKey("nonsense").has_value());
    EXPECT_FALSE(
        DesignPoint::fromKey(
            "l2kb=512,assoc=8,depth=9,freq=1,width=4,pred=bogus")
            .has_value());
    EXPECT_FALSE(
        DesignPoint::fromKey(
            "l2kb=512,assoc=8,depth=9,freq=-1,width=4,pred=gshare1k")
            .has_value());
    EXPECT_FALSE(
        DesignPoint::fromKey(
            "l2kb=512,assoc=8,depth=9,freq=inf,width=4,pred=gshare1k")
            .has_value());
    EXPECT_FALSE(
        DesignPoint::fromKey("l2kb=512,assoc=8,depth=9,freq=1,"
                             "width=4,pred=gshare1k,bogus=1")
            .has_value());
    // A repeated field is malformed, not a last-one-wins update.
    EXPECT_FALSE(
        DesignPoint::fromKey("l2kb=128,l2kb=256,assoc=8,depth=9,"
                             "freq=1,width=4,pred=gshare1k")
            .has_value());
    // 2^32+8 must be rejected, not silently truncated to 8.
    EXPECT_FALSE(
        DesignPoint::fromKey("l2kb=512,assoc=4294967304,depth=9,"
                             "freq=1,width=4,pred=gshare1k")
            .has_value());
}

TEST(DesignPointIdentity, PredictorKeysRoundTrip)
{
    for (PredictorKind kind :
         {PredictorKind::NotTaken, PredictorKind::Taken,
          PredictorKind::Bimodal, PredictorKind::Gshare1K,
          PredictorKind::Local, PredictorKind::Hybrid3K5}) {
        auto back = predictorFromKey(predictorKey(kind));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, kind);
        // Display names resolve too.
        EXPECT_EQ(predictorFromKey(predictorName(kind)), kind);
    }
    EXPECT_FALSE(predictorFromKey("perceptron").has_value());
}

TEST(DesignPointIdentity, OooFieldsJoinEqualityKeyAndHash)
{
    DesignPoint a = defaultDesignPoint();
    DesignPoint b = a;
    b.ooo.robSize = 64;
    EXPECT_FALSE(a == b);
    EXPECT_NE(a.hash(), b.hash());

    // A default point serializes without out-of-order fields, so keys
    // minted before OooParams joined the identity still round trip.
    EXPECT_EQ(a.toKey().find("rob="), std::string::npos);
    auto back = DesignPoint::fromKey(a.toKey());
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == a);

    // Non-default fields serialize and round trip exactly.
    b.ooo.iqSize = 16;
    b.ooo.fuMul = 2;
    b.ooo.resultBuses = 8;
    std::string key = b.toKey();
    EXPECT_NE(key.find("rob=64"), std::string::npos);
    back = DesignPoint::fromKey(key);
    ASSERT_TRUE(back.has_value()) << key;
    EXPECT_TRUE(*back == b) << key;
    EXPECT_FALSE(DesignPoint::fromKey(key + ",rob=64").has_value());
}

// ---- SpaceSpec ------------------------------------------------------------

TEST(SpaceSpec, Table2PresetMatchesTable2SpaceExactly)
{
    SpaceSpec spec = SpaceSpec::table2();
    auto grid = table2Space();
    ASSERT_EQ(spec.size(), grid.size());
    for (std::uint64_t i = 0; i < spec.size(); ++i)
        EXPECT_TRUE(spec.at(i) == grid[i]) << "index " << i;
}

TEST(SpaceSpec, WidePresetIsLargeAndValid)
{
    SpaceSpec spec = SpaceSpec::wide();
    EXPECT_GE(spec.size(), 10000u);
    // Spot-check the extremes enumerate into valid machine configs.
    machineFor(spec.at(0));
    machineFor(spec.at(spec.size() - 1));
}

TEST(SpaceSpec, DigitsRoundTrip)
{
    SpaceSpec spec = SpaceSpec::wide();
    for (std::uint64_t i : {std::uint64_t(0), std::uint64_t(1),
                            spec.size() / 2, spec.size() - 1}) {
        auto digits = spec.digitsOf(i);
        EXPECT_TRUE(spec.fromDigits(digits) == spec.at(i));
    }
}

TEST(SpaceSpec, GrammarListsRangesAndSteps)
{
    SpaceSpec spec = SpaceSpec::parse(
        "l2kb=128:1024:*2; assoc=8,16; depth=5@0.6,9@1.0; "
        "width=1:4; pred=gshare1k");
    EXPECT_EQ(spec.l2KB, (std::vector<std::uint64_t>{128, 256, 512,
                                                     1024}));
    EXPECT_EQ(spec.l2Assoc, (std::vector<std::uint32_t>{8, 16}));
    ASSERT_EQ(spec.depthFreq.size(), 2u);
    EXPECT_EQ(spec.depthFreq[0].depth, 5u);
    EXPECT_EQ(spec.depthFreq[0].freqGHz, 0.6);
    EXPECT_EQ(spec.width, (std::vector<std::uint32_t>{1, 2, 3, 4}));
    EXPECT_EQ(spec.predictor,
              (std::vector<PredictorKind>{PredictorKind::Gshare1K}));
    EXPECT_EQ(spec.size(), 4u * 2 * 2 * 4 * 1);
}

TEST(SpaceSpec, GrammarAdditiveStepAndDefaults)
{
    // Only the width axis given: everything else defaults to the
    // Table 2 default point.
    SpaceSpec spec = SpaceSpec::parse("width=2:6:+2");
    EXPECT_EQ(spec.width, (std::vector<std::uint32_t>{2, 4, 6}));
    EXPECT_EQ(spec.size(), 3u);
    DesignPoint def = defaultDesignPoint();
    EXPECT_EQ(spec.at(0).l2KB, def.l2KB);
    EXPECT_EQ(spec.at(0).predictor, def.predictor);
}

TEST(SpaceSpec, TryParseRejectsBadInput)
{
    std::string error;
    EXPECT_FALSE(SpaceSpec::tryParse("bogus_axis=1", &error));
    EXPECT_NE(error.find("unknown axis"), std::string::npos);
    EXPECT_FALSE(SpaceSpec::tryParse("width=4:1", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("width=1:4:*1", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("depth=9", &error));
    EXPECT_NE(error.find("frequency"), std::string::npos);
    // 2^32+5 must be rejected, not silently truncated to depth 5.
    EXPECT_FALSE(SpaceSpec::tryParse("depth=4294967301@1.0", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("pred=alpha21264", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("width=0", &error));
    // Non-finite frequencies would make delay 0 and dominate every
    // real point.
    EXPECT_FALSE(SpaceSpec::tryParse("depth=9@inf", &error));
    EXPECT_NE(error.find("finite"), std::string::npos);
    EXPECT_FALSE(SpaceSpec::tryParse("depth=9@nan", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("l2kb=100", &error));
    EXPECT_NE(error.find("power of two"), std::string::npos);
    EXPECT_FALSE(SpaceSpec::tryParse("width=2,2", &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
    // 1 KiB cannot hold even one 64-way set of 64 B lines.
    EXPECT_FALSE(SpaceSpec::tryParse("l2kb=1;assoc=64", &error));
}

TEST(SpaceSpec, DescribeReparsesToSameSpace)
{
    for (const SpaceSpec &spec :
         {SpaceSpec::table2(), SpaceSpec::wide()}) {
        SpaceSpec again = SpaceSpec::parse(spec.describe());
        ASSERT_EQ(again.size(), spec.size());
        for (std::uint64_t i : {std::uint64_t(0), spec.size() - 1})
            EXPECT_TRUE(again.at(i) == spec.at(i));
        EXPECT_EQ(again.describe(), spec.describe());
    }
}

TEST(SpaceSpec, FrequencyBoundsAdmitTheirEndpointsOnly)
{
    constexpr double lo = SpaceSpec::kMinFreqGHz;
    constexpr double hi = SpaceSpec::kMaxFreqGHz;
    auto spec = [](double freq) {
        SpaceSpec s = SpaceSpec::single(defaultDesignPoint());
        s.depthFreq = {{9, freq}};
        return s;
    };
    for (double ok : {lo, std::nextafter(lo, hi), hi, std::nextafter(hi, lo)})
        EXPECT_EQ(spec(ok).check(), "") << ok;
    for (double bad : {std::nextafter(lo, 0.0), std::nextafter(hi, 1e300),
                       1e-300, 1e300}) {
        EXPECT_NE(spec(bad).check().find("outside supported [0.01,100]"),
                  std::string::npos)
            << bad;
    }
    std::string error;
    EXPECT_FALSE(SpaceSpec::tryParse("depth=9@0.001", &error));
    EXPECT_EQ(error, "frequency 0.001 GHz outside supported [0.01,100]");
}

/** @p n distinct values drawn by @p draw, in drawn order. */
template <typename T, typename Draw>
std::vector<T>
distinct(std::size_t n, Draw draw)
{
    std::vector<T> values;
    while (values.size() < n) {
        T v = draw();
        if (std::find(values.begin(), values.end(), v) == values.end())
            values.push_back(v);
    }
    return values;
}

/** A seeded spec that passes check(): one or two values per axis,
 *  and out-of-order axes on half of them. */
SpaceSpec
seededSpec(Rng &rng)
{
    auto count = [&rng] { return 1 + static_cast<std::size_t>(rng.below(2)); };
    SpaceSpec spec = SpaceSpec::single(defaultDesignPoint());
    spec.l2KB = distinct<std::uint64_t>(count(), [&rng] {
        return std::uint64_t(64) << rng.below(11);
    });
    spec.l2Assoc = distinct<std::uint32_t>(count(), [&rng] {
        return std::uint32_t(1) << rng.below(11); // 64 KiB holds 1024 ways
    });
    spec.depthFreq = distinct<DepthFreq>(count(), [&rng] {
        return DepthFreq{static_cast<std::uint32_t>(rng.range(5, 40)),
                         anyAdmittedFreq(rng)};
    });
    spec.width = distinct<std::uint32_t>(count(), [&rng] {
        return static_cast<std::uint32_t>(rng.range(1, 16));
    });
    spec.predictor = distinct<PredictorKind>(count(), [&rng] {
        return kPredictors[rng.below(std::size(kPredictors))];
    });
    if (rng.chance(0.5)) {
        auto axis = [&](std::uint32_t lo, std::uint32_t max) {
            return distinct<std::uint32_t>(count(), [&] {
                return std::max(lo, boundedCount(rng, max));
            });
        };
        spec.robSize = axis(16, SpaceSpec::kMaxRobSize); // >= every width
        spec.iqSize = axis(1, SpaceSpec::kMaxIqSize);
        spec.fuAlu = axis(1, SpaceSpec::kMaxFuCount);
        spec.fuMul = axis(1, SpaceSpec::kMaxFuCount);
        spec.fuMem = axis(1, SpaceSpec::kMaxFuCount);
        spec.fuBr = axis(1, SpaceSpec::kMaxFuCount);
        spec.resultBuses = axis(1, SpaceSpec::kMaxResultBuses);
    }
    return spec;
}

TEST(SpaceSpec, DescribeRoundTripsSeededSpecs)
{
    Rng rng(0x73706563ull);
    for (int i = 0; i < 300; ++i) {
        const SpaceSpec spec = seededSpec(rng);
        ASSERT_EQ(spec.check(), "");
        const std::string text = spec.describe();
        std::string error;
        const auto again = SpaceSpec::tryParse(text, &error);
        ASSERT_TRUE(again.has_value()) << text << ": " << error;
        ASSERT_EQ(again->size(), spec.size()) << text;
        for (std::uint64_t p = 0; p < spec.size(); ++p)
            ASSERT_TRUE(again->at(p) == spec.at(p)) << text << " at " << p;
    }
}

TEST(SpaceSpec, GrammarOooAxes)
{
    SpaceSpec spec =
        SpaceSpec::parse("width=1,2; rob=32,64; buses=2");
    EXPECT_EQ(spec.robSize, (std::vector<std::uint32_t>{32, 64}));
    EXPECT_EQ(spec.resultBuses, (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(spec.size(), 4u);
    // The out-of-order axes are least significant: rob varies faster
    // than width.
    EXPECT_EQ(spec.at(0).width, 1u);
    EXPECT_EQ(spec.at(0).ooo.robSize, 32u);
    EXPECT_EQ(spec.at(1).width, 1u);
    EXPECT_EQ(spec.at(1).ooo.robSize, 64u);
    EXPECT_EQ(spec.at(2).width, 2u);
    EXPECT_EQ(spec.at(2).ooo.robSize, 32u);
    // Unmentioned out-of-order axes carry the defaults.
    OooParams def;
    EXPECT_EQ(spec.at(0).ooo.iqSize, def.iqSize);
    EXPECT_EQ(spec.at(0).ooo.fuAlu, def.fuAlu);
    EXPECT_TRUE(spec.hasOooAxes());
}

TEST(SpaceSpec, OooAxesDefaultSilently)
{
    // Presets and specs that never mention an out-of-order axis keep
    // their pre-OoO size, enumeration order and description.
    OooParams def;
    for (const SpaceSpec &spec :
         {SpaceSpec::table2(), SpaceSpec::parse("width=1:4")}) {
        EXPECT_FALSE(spec.hasOooAxes());
        EXPECT_EQ(spec.describe().find("rob="), std::string::npos);
        EXPECT_EQ(spec.at(0).ooo.robSize, def.robSize);
        EXPECT_EQ(spec.at(0).ooo.resultBuses, def.resultBuses);
    }
    // Pinning an axis to its default value still counts as sweeping
    // it: the caller asked for the axis, so backend checks apply.
    EXPECT_TRUE(SpaceSpec::parse("rob=64").hasOooAxes());
    EXPECT_FALSE(SpaceSpec::parse("rob=128").hasOooAxes());
}

TEST(SpaceSpec, TryParseRejectsBadOooInput)
{
    std::string error;
    EXPECT_FALSE(SpaceSpec::tryParse("rob=0", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("rob=8192", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("iq=0", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("iq=8192", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("fualu=0", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("fualu=100", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("fumem=0", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("buses=0", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("buses=100", &error));
    EXPECT_FALSE(SpaceSpec::tryParse("rob=64,64", &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
    // A ROB narrower than the widest machine cannot sustain dispatch.
    EXPECT_FALSE(SpaceSpec::tryParse("width=4; rob=2", &error));
    EXPECT_NE(error.find("width"), std::string::npos);
}

TEST(SpaceSpec, DescribeReparsesOooAxes)
{
    SpaceSpec spec = SpaceSpec::parse(
        "width=1,2; rob=64:256:*2; iq=16,32; buses=2,8");
    SpaceSpec again = SpaceSpec::parse(spec.describe());
    ASSERT_EQ(again.size(), spec.size());
    for (std::uint64_t i : {std::uint64_t(0), spec.size() - 1})
        EXPECT_TRUE(again.at(i) == spec.at(i));
    EXPECT_EQ(again.describe(), spec.describe());
}

// ---- Objectives -----------------------------------------------------------

TEST(Objectives, CatalogueAndLookup)
{
    EXPECT_GE(allObjectives().size(), 6u);
    auto edp = objectiveByName("edp");
    ASSERT_TRUE(edp.has_value());
    EXPECT_FALSE(edp->maximize);
    auto bips = objectiveByName("bips");
    ASSERT_TRUE(bips.has_value());
    EXPECT_TRUE(bips->maximize);
    EXPECT_FALSE(objectiveByName("mips").has_value());
}

TEST(Objectives, NormalizedFoldsDirection)
{
    auto edp = *objectiveByName("edp");
    auto bips = *objectiveByName("bips");
    // Minimize: unchanged.  Maximize: negated, so lower is better.
    EXPECT_EQ(edp.normalized(2.0), 2.0);
    EXPECT_EQ(bips.normalized(2.0), -2.0);
}

TEST(Objectives, ValuesAreConsistentWithEvalResult)
{
    EvalResult res;
    res.cycles = 2e6;
    res.instructions = 1e6;
    res.energy.coreDynamicJ = 3e-3;
    res.edp = 42.0;
    DesignPoint point = defaultDesignPoint(); // 1 GHz
    EXPECT_DOUBLE_EQ(objectiveByName("cpi")->value(res, point), 2.0);
    EXPECT_DOUBLE_EQ(objectiveByName("cycles")->value(res, point),
                     2e6);
    EXPECT_DOUBLE_EQ(objectiveByName("delay")->value(res, point),
                     2e-3);
    EXPECT_DOUBLE_EQ(objectiveByName("bips")->value(res, point), 0.5);
    EXPECT_DOUBLE_EQ(objectiveByName("energy")->value(res, point),
                     3e-3);
    EXPECT_DOUBLE_EQ(objectiveByName("edp")->value(res, point), 42.0);
    EXPECT_DOUBLE_EQ(objectiveByName("ed2p")->value(res, point),
                     3e-3 * 2e-3 * 2e-3);
}

// ---- Pareto ---------------------------------------------------------------

TEST(Pareto, DominanceBasics)
{
    EXPECT_TRUE(dominates({1, 1}, {2, 2}));
    EXPECT_TRUE(dominates({1, 2}, {2, 2}));
    EXPECT_FALSE(dominates({1, 3}, {2, 2}));
    EXPECT_FALSE(dominates({2, 2}, {2, 2})); // equal: no domination
}

TEST(Pareto, FrontierOfClassicStaircase)
{
    // Rows 0, 2, 4 form the frontier; 1 and 3 are dominated.
    std::vector<std::vector<double>> costs = {
        {1, 5}, {2, 6}, {2, 3}, {4, 4}, {5, 1},
    };
    EXPECT_EQ(paretoFrontier(costs),
              (std::vector<std::size_t>{0, 2, 4}));
}

TEST(Pareto, SingleObjectiveFrontierIsTheMinimum)
{
    std::vector<std::vector<double>> costs = {{3}, {1}, {2}, {1}};
    // Both copies of the minimum survive (neither dominates the
    // other).
    EXPECT_EQ(paretoFrontier(costs),
              (std::vector<std::size_t>{1, 3}));
}

TEST(Pareto, NonDominatedSortLayers)
{
    std::vector<std::vector<double>> costs = {
        {1, 5}, {5, 1}, {2, 6}, {6, 2}, {3, 7},
    };
    auto fronts = nonDominatedSort(costs);
    ASSERT_EQ(fronts.size(), 3u);
    EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(fronts[1], (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(fronts[2], (std::vector<std::size_t>{4}));
    // Every index appears exactly once.
    std::size_t total = 0;
    for (const auto &front : fronts)
        total += front.size();
    EXPECT_EQ(total, costs.size());
}

TEST(Pareto, CrowdingBoundariesAreInfinite)
{
    std::vector<std::vector<double>> costs = {
        {1, 5}, {2, 3}, {3, 2}, {5, 1},
    };
    std::vector<std::size_t> front = {0, 1, 2, 3};
    auto crowd = crowdingDistances(costs, front);
    EXPECT_TRUE(std::isinf(crowd[0]));
    EXPECT_TRUE(std::isinf(crowd[3]));
    EXPECT_GT(crowd[1], 0.0);
    EXPECT_FALSE(std::isinf(crowd[1]));
    EXPECT_GT(crowd[2], 0.0);
}

// ---- EvalCache ------------------------------------------------------------

TEST(EvalCache, InsertFindAndEntryOrder)
{
    EvalCache cache;
    auto grid = table2Space();
    EXPECT_EQ(cache.find(grid[0]), nullptr);

    for (int i = 0; i < 3; ++i) {
        SearchEval eval;
        eval.point = grid[static_cast<std::size_t>(i)];
        eval.aggregate = {static_cast<double>(i)};
        const SearchEval &stored = cache.insert(std::move(eval));
        EXPECT_EQ(stored.firstIndex, static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(cache.size(), 3u);

    const SearchEval *hit = cache.find(grid[1]);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->aggregate[0], 1.0);
    EXPECT_TRUE(hit->point == grid[1]);

    auto entries = cache.entries();
    ASSERT_EQ(entries.size(), 3u);
    for (std::size_t i = 0; i < entries.size(); ++i)
        EXPECT_EQ(entries[i]->firstIndex, i);
}

TEST(EvalCache, DuplicateInsertReturnsTheExistingEntry)
{
    // A point re-discovered concurrently (two serve sessions, or a
    // strategy racing itself across flushes) is benign: the second
    // insert must hand back the first entry, not assert or shadow it.
    EvalCache cache;
    auto grid = table2Space();

    SearchEval first;
    first.point = grid[0];
    first.aggregate = {1.0};
    const SearchEval &stored = cache.insert(std::move(first));
    EXPECT_EQ(stored.firstIndex, 0u);

    SearchEval dup;
    dup.point = grid[0];
    dup.aggregate = {2.0};
    const SearchEval &again = cache.insert(std::move(dup));

    EXPECT_EQ(&again, &stored);
    EXPECT_EQ(again.aggregate[0], 1.0);
    EXPECT_EQ(cache.size(), 1u);
    ASSERT_EQ(cache.entries().size(), 1u);
    EXPECT_EQ(cache.entries()[0], &stored);

    // A different point still gets the next firstIndex.
    SearchEval other;
    other.point = grid[1];
    other.aggregate = {3.0};
    EXPECT_EQ(cache.insert(std::move(other)).firstIndex, 1u);
    EXPECT_EQ(cache.size(), 2u);
}

} // namespace
} // namespace mech
