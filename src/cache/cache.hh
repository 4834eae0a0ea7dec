/**
 * @file
 * Set-associative cache with true-LRU replacement.
 *
 * This is the building block of the two-level hierarchy the paper's
 * default configuration uses (private 32 KiB L1s + unified L2,
 * Table 2).  Timing lives in the pipeline simulator and the model;
 * the cache itself only tracks contents and hit/miss outcomes.
 */

#ifndef MECH_CACHE_CACHE_HH
#define MECH_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mech {

/** Geometry of one cache. */
struct CacheConfig
{
    /** Total capacity in bytes (power of two). */
    std::uint64_t sizeBytes = 32 * 1024;

    /** Associativity (ways per set). */
    std::uint32_t assoc = 4;

    /** Block (line) size in bytes (power of two). */
    std::uint32_t blockBytes = 64;

    /** Number of sets implied by the geometry. */
    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(assoc) * blockBytes);
    }
};

/** Hit/miss counters for one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    /** Total accesses. */
    std::uint64_t accesses() const { return hits + misses; }

    /** Miss ratio (0 when never accessed). */
    double
    missRatio() const
    {
        return accesses()
                   ? static_cast<double>(misses) /
                         static_cast<double>(accesses())
                   : 0.0;
    }
};

/**
 * Set-associative cache with true-LRU replacement and write-allocate.
 *
 * Functional only: access() returns whether the block was present and
 * installs it if not.  Eviction follows strict LRU within the set.
 */
class SetAssocCache
{
  public:
    /** Build a cache; validates that the geometry is a power of two. */
    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Access the block containing @p addr.
     *
     * @param addr Byte address.
     * @param is_write True for stores (sets the dirty bit).
     * @return True on hit, false on miss (block is then installed).
     */
    bool
    access(Addr addr, bool is_write = false)
    {
        // Runs of accesses to one block (sequential fetch) find the
        // line they touched last; a block occupies at most one way,
        // so it is the line the set search would find.
        if (Line &line = lines[mruLine];
            line.valid && (addr >> blockShift) == mruBlock) {
            line.lastUse = ++useClock;
            line.dirty = line.dirty || is_write;
            ++_stats.hits;
            return true;
        }
        return accessSet(addr, is_write);
    }

    /** True if the block containing @p addr is currently resident. */
    bool contains(Addr addr) const;

    /** Invalidate all contents (statistics are kept). */
    void flush();

    /** Access statistics. */
    const CacheStats &stats() const { return _stats; }

    /** Geometry. */
    const CacheConfig &config() const { return cfg; }

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    /** access() past the last-block check: search the set. */
    bool accessSet(Addr addr, bool is_write);

    /** Set index for an address. */
    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> blockShift) & setMask;
    }

    /** Tag for an address. */
    Addr
    tagOf(Addr addr) const
    {
        return addr >> tagShift;
    }

    CacheConfig cfg;

    /**
     * Address decomposition, precomputed from the power-of-two
     * geometry: log2(blockBytes), numSets - 1, and
     * log2(blockBytes * numSets).
     */
    unsigned blockShift = 0;
    std::uint64_t setMask = 0;
    unsigned tagShift = 0;

    std::vector<Line> lines; // numSets x assoc, row-major

    /**
     * The line last hit or filled, and the block number
     * (addr >> blockShift) it holds while valid.  An index, not a
     * pointer, so the cache stays copyable.
     */
    std::size_t mruLine = 0;
    Addr mruBlock = 0;
    std::uint64_t useClock = 0;
    CacheStats _stats;
};

} // namespace mech

#endif // MECH_CACHE_CACHE_HH
