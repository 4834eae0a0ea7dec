/**
 * @file
 * Unit and property tests for the cache substrate: set-associative
 * LRU cache, TLB, two-level hierarchy, and the single-pass
 * stack-distance simulator (whose counts must equal per-configuration
 * simulation exactly — the key Mattson inclusion property).
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/stack_sim.hh"
#include "cache/tlb.hh"
#include "common/rng.hh"

namespace mech {
namespace {

// ---- SetAssocCache ----------------------------------------------------------

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache c({1024, 2, 64});
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x13f)); // same 64B block
    EXPECT_EQ(c.stats().misses, 1u);
    EXPECT_EQ(c.stats().hits, 2u);
}

TEST(Cache, DifferentBlocksMissSeparately)
{
    SetAssocCache c({1024, 2, 64});
    EXPECT_FALSE(c.access(0x000));
    EXPECT_FALSE(c.access(0x040));
    EXPECT_TRUE(c.access(0x000));
    EXPECT_TRUE(c.access(0x040));
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way, 1 set: 128B total with 64B blocks.
    SetAssocCache c({128, 2, 64});
    c.access(0x0000); // A
    c.access(0x1000); // B
    c.access(0x0000); // touch A: B is now LRU
    c.access(0x2000); // C evicts B
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_TRUE(c.contains(0x2000));
}

TEST(Cache, AssociativityConfinesConflicts)
{
    // Direct-mapped: two blocks mapping to the same set thrash.
    SetAssocCache dm({1024, 1, 64});
    std::uint64_t sets = dm.config().numSets();
    Addr a = 0, b = sets * 64; // same set index
    dm.access(a);
    dm.access(b);
    EXPECT_FALSE(dm.contains(a));

    // 2-way holds both.
    SetAssocCache c2({2048, 2, 64});
    std::uint64_t sets2 = c2.config().numSets();
    Addr a2 = 0, b2 = sets2 * 64;
    c2.access(a2);
    c2.access(b2);
    EXPECT_TRUE(c2.contains(a2));
    EXPECT_TRUE(c2.contains(b2));
}

TEST(Cache, FlushInvalidatesContents)
{
    SetAssocCache c({1024, 4, 64});
    c.access(0x40);
    c.flush();
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_EQ(c.stats().misses, 1u); // stats preserved
}

TEST(Cache, GeometryAccessors)
{
    CacheConfig cfg{32 * 1024, 4, 64};
    EXPECT_EQ(cfg.numSets(), 128u);
    SetAssocCache c(cfg);
    EXPECT_EQ(c.config().sizeBytes, 32u * 1024u);
}

TEST(CacheStats, MissRatio)
{
    CacheStats s;
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.0);
    s.hits = 3;
    s.misses = 1;
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.25);
}

// ---- Tlb ----------------------------------------------------------------------

TEST(Tlb, HitsWithinPage)
{
    Tlb t({4, 4096});
    EXPECT_FALSE(t.access(0x1000));
    EXPECT_TRUE(t.access(0x1fff));
    EXPECT_FALSE(t.access(0x2000)); // next page
    EXPECT_EQ(t.missCount(), 2u);
    EXPECT_EQ(t.hitCount(), 1u);
}

TEST(Tlb, LruReplacement)
{
    Tlb t({2, 4096});
    t.access(0x0000);  // page 0
    t.access(0x1000);  // page 1
    t.access(0x0000);  // touch page 0
    t.access(0x2000);  // page 2 evicts page 1
    EXPECT_TRUE(t.access(0x0000));
    EXPECT_FALSE(t.access(0x1000));
}

// ---- CacheHierarchy -------------------------------------------------------------

TEST(Hierarchy, FetchClassifiesLevels)
{
    HierarchyConfig cfg;
    CacheHierarchy h(cfg);
    HierAccess first = h.fetch(0x1000);
    EXPECT_EQ(first.level, MemLevel::Memory); // cold: misses both
    HierAccess second = h.fetch(0x1000);
    EXPECT_EQ(second.level, MemLevel::L1);
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    HierarchyConfig cfg;
    cfg.l1i = {128, 1, 64};      // tiny direct-mapped L1I
    cfg.l2 = {64 * 1024, 8, 64}; // roomy L2
    CacheHierarchy h(cfg);
    Addr a = 0x0000, conflict = 0x0080; // same L1 set (2 sets of 64B)
    h.fetch(a);
    h.fetch(conflict); // evicts a from L1I, both in L2
    HierAccess res = h.fetch(a);
    EXPECT_EQ(res.level, MemLevel::L2);
}

TEST(Hierarchy, DataAndInstrSidesAreSplit)
{
    HierarchyConfig cfg;
    CacheHierarchy h(cfg);
    h.fetch(0x1000);
    // Same address on the data side still misses L1D (split caches)
    // but hits the unified L2.
    HierAccess res = h.data(0x1000, false);
    EXPECT_EQ(res.level, MemLevel::L2);
}

TEST(Hierarchy, TlbMissFlagIndependentOfCache)
{
    HierarchyConfig cfg;
    CacheHierarchy h(cfg);
    HierAccess first = h.data(0x5000, false);
    EXPECT_TRUE(first.tlbMiss);
    HierAccess second = h.data(0x5008, false);
    EXPECT_FALSE(second.tlbMiss);
}

// ---- StackDistanceSimulator: unit behaviour ---------------------------------------

TEST(StackSim, ColdAccessesAreDeepMisses)
{
    StackDistanceSimulator s(1, 64, 8);
    s.access(0x000);
    s.access(0x040);
    EXPECT_EQ(s.hitsForAssoc(8), 0u);
    EXPECT_EQ(s.missesForAssoc(1), 2u);
}

TEST(StackSim, DistanceOneIsMruHit)
{
    StackDistanceSimulator s(1, 64, 8);
    s.access(0x000);
    s.access(0x000);
    EXPECT_EQ(s.hitsForAssoc(1), 1u);
}

TEST(StackSim, InclusionAcrossAssociativities)
{
    StackDistanceSimulator s(2, 64, 16);
    Rng rng(5);
    for (int i = 0; i < 4000; ++i)
        s.access(rng.below(64) * 64);
    for (std::uint32_t a = 2; a <= 16; ++a)
        EXPECT_GE(s.hitsForAssoc(a), s.hitsForAssoc(a - 1));
}

// ---- StackDistanceSimulator == SetAssocCache (Mattson property) --------------------

struct StackEquivParam
{
    std::uint64_t numSets;
    std::uint32_t assoc;
    std::uint64_t addrSpaceBlocks;
    std::uint64_t seed;
};

/** Names each instance by its fields (gtest would otherwise print the
 *  struct's raw bytes, padding included). */
void
PrintTo(const StackEquivParam &p, std::ostream *os)
{
    *os << "sets" << p.numSets << "_assoc" << p.assoc;
    *os << "_blocks" << p.addrSpaceBlocks << "_seed" << p.seed;
}

class StackEquivalence : public ::testing::TestWithParam<StackEquivParam>
{
};

TEST_P(StackEquivalence, SinglePassMatchesPerConfigSimulation)
{
    const auto &p = GetParam();
    StackDistanceSimulator stack(p.numSets, 64, p.assoc);
    SetAssocCache cache(
        {p.numSets * p.assoc * 64, p.assoc, 64});

    Rng rng(p.seed);
    std::uint64_t cache_misses = 0;
    for (int i = 0; i < 20000; ++i) {
        // Mix of streaming and random references.
        Addr addr = rng.chance(0.5)
                        ? static_cast<Addr>(i % p.addrSpaceBlocks) * 64
                        : rng.below(p.addrSpaceBlocks) * 64;
        stack.access(addr);
        if (!cache.access(addr))
            ++cache_misses;
    }
    EXPECT_EQ(stack.missesForAssoc(p.assoc), cache_misses);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, StackEquivalence,
    ::testing::Values(StackEquivParam{1, 1, 16, 3},
                      StackEquivParam{1, 4, 64, 5},
                      StackEquivParam{4, 2, 128, 7},
                      StackEquivParam{16, 8, 1024, 11},
                      StackEquivParam{64, 4, 4096, 13},
                      StackEquivParam{8, 16, 512, 17},
                      StackEquivParam{256, 8, 16384, 19},
                      // One set that never fills, and one that
                      // overflows (the early-stopping set scan).
                      StackEquivParam{1, 4096, 1024, 23},
                      StackEquivParam{1, 512, 2048, 29}));

TEST(StackSim, SparseSetsMatchPerConfigCaches)
{
    // An L2-sized set count where most sets stay empty: 512 sets
    // spread over 2^17 see deep reuse, the rest are never touched.
    // Every slab grows from empty through its moves, and the single
    // pass must still agree with a replay at each associativity.
    constexpr std::uint64_t kSets = std::uint64_t{1} << 17;
    constexpr std::uint32_t kMaxAssoc = 8;
    StackDistanceSimulator stack(kSets, 64, kMaxAssoc);
    std::vector<SetAssocCache> caches;
    for (std::uint32_t a = 1; a <= kMaxAssoc; a *= 2)
        caches.emplace_back(CacheConfig{kSets * a * 64, a, 64});
    std::vector<std::uint64_t> misses(caches.size(), 0);

    Rng rng(37);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t set = rng.below(512) * (kSets / 512);
        const std::uint64_t tag = rng.chance(0.7) ? rng.below(6)
                                                  : rng.below(40);
        const Addr addr = (tag * kSets + set) * 64;
        stack.access(addr);
        for (std::size_t c = 0; c < caches.size(); ++c)
            misses[c] += caches[c].access(addr) ? 0 : 1;
    }
    for (std::size_t c = 0; c < caches.size(); ++c) {
        const std::uint32_t assoc = 1u << c;
        EXPECT_EQ(stack.missesForAssoc(assoc), misses[c]) << assoc << "-way";
    }
    EXPECT_GT(stack.hitsForAssoc(1), 0u);
    EXPECT_LT(stack.hitsForAssoc(kMaxAssoc), stack.accesses());
}

// ---- Golden: optimized simulator == seed algorithm --------------------------------
//
// The hash-map + intrusive-list StackDistanceSimulator must be
// bit-identical to the original vector-of-tags formulation it
// replaced.  ReferenceStackSim below IS that seed implementation,
// kept verbatim as the oracle; the golden test streams randomized
// address mixes through both and compares hit counts for every
// associativity 1..64 plus the full distance histogram.

/** The seed linear-scan stack-distance algorithm (the oracle). */
class ReferenceStackSim
{
  public:
    ReferenceStackSim(std::uint64_t num_sets, std::uint32_t block_bytes,
                      std::uint32_t max_tracked_assoc)
        : numSets(num_sets), blockBytes(block_bytes),
          maxAssoc(max_tracked_assoc)
    {
        stacks.resize(numSets);
    }

    void
    access(Addr addr)
    {
        std::uint64_t block = addr / blockBytes;
        std::uint64_t set = block & (numSets - 1);
        Addr tag = block / numSets;
        auto &stack = stacks[set];

        ++total;

        auto it = std::find(stack.begin(), stack.end(), tag);
        if (it == stack.end()) {
            distances.add(0);
        } else {
            auto depth =
                static_cast<std::uint64_t>(it - stack.begin()) + 1;
            distances.add(depth);
            stack.erase(it);
        }

        stack.insert(stack.begin(), tag);
        if (stack.size() > maxAssoc)
            stack.pop_back();
    }

    std::uint64_t
    hitsForAssoc(std::uint32_t assoc) const
    {
        return distances.sumRange(1, assoc);
    }

    const Histogram &distanceHistogram() const { return distances; }

  private:
    std::uint64_t numSets;
    std::uint32_t blockBytes;
    std::uint32_t maxAssoc;
    std::vector<std::vector<Addr>> stacks;
    Histogram distances;
    std::uint64_t total = 0;
};

struct StackGoldenParam
{
    std::uint64_t numSets;
    std::uint64_t addrSpaceBlocks;
    std::uint64_t seed;
};

void
PrintTo(const StackGoldenParam &p, std::ostream *os)
{
    *os << "sets" << p.numSets << "_blocks" << p.addrSpaceBlocks;
    *os << "_seed" << p.seed;
}

class StackGolden : public ::testing::TestWithParam<StackGoldenParam>
{
};

TEST_P(StackGolden, BitIdenticalToSeedAcrossAssoc1To64)
{
    const auto &p = GetParam();
    constexpr std::uint32_t kMaxAssoc = 64;
    StackDistanceSimulator opt(p.numSets, 64, kMaxAssoc);
    ReferenceStackSim ref(p.numSets, 64, kMaxAssoc);

    Rng rng(p.seed);
    for (int i = 0; i < 50000; ++i) {
        // Mix of streaming, strided, and random references so hits
        // land at every depth, including past the tracked cap.
        Addr addr;
        if (rng.chance(0.4))
            addr = static_cast<Addr>(i % p.addrSpaceBlocks) * 64;
        else if (rng.chance(0.5))
            addr = static_cast<Addr>((i * 17) % p.addrSpaceBlocks) * 64;
        else
            addr = rng.below(p.addrSpaceBlocks) * 64;
        opt.access(addr);
        ref.access(addr);
    }

    for (std::uint32_t a = 1; a <= kMaxAssoc; ++a)
        ASSERT_EQ(opt.hitsForAssoc(a), ref.hitsForAssoc(a))
            << "hit counts diverge at associativity " << a;

    const Histogram &oh = opt.distanceHistogram();
    const Histogram &rh = ref.distanceHistogram();
    EXPECT_EQ(oh.total(), rh.total());
    for (std::uint64_t d = 0; d <= kMaxAssoc; ++d)
        ASSERT_EQ(oh.at(d), rh.at(d))
            << "distance histogram diverges at depth " << d;
}

INSTANTIATE_TEST_SUITE_P(
    Streams, StackGolden,
    ::testing::Values(
        // Footprint below capacity (no evictions) ...
        StackGoldenParam{64, 1024, 23},
        // ... around capacity (heavy eviction/tombstone churn) ...
        StackGoldenParam{16, 1024, 29},
        StackGoldenParam{4, 256, 31},
        // ... and far beyond capacity with one deep set.
        StackGoldenParam{1, 512, 37},
        StackGoldenParam{128, 65536, 41}));

} // namespace
} // namespace mech
