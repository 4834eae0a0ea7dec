/**
 * @file
 * Single-pass all-associativity cache simulation.
 *
 * Implements the classic Mattson stack-distance algorithm (paper
 * refs [12, 22]): one pass over an address stream yields hit counts
 * for *every* associativity of an LRU cache with a fixed set count
 * and block size, thanks to LRU's inclusion property.  The paper's
 * profiling methodology leans on this to cover a range of cache
 * configurations with a single profiling run; sweepL2()
 * (profiler/profiler.hh) derives every L2 geometry of a design-space
 * study this way, one pass per set count.
 *
 * Implementation: each set keeps its recency order as an intrusive
 * doubly-linked list over a slab of at most maxTrackedAssoc nodes,
 * with a block -> node hash map in front.  A hit walks the list only
 * down to the block's depth and relinks in O(1); a miss is O(1) plus
 * one hash update.  Per-access cost is therefore
 * O(min(hit depth, max_assoc)) instead of the O(stack size) scan +
 * shift of the naive vector-of-tags formulation, while the distance
 * histogram stays bit-identical (golden-tested against the reference
 * implementation in tests/cache_test.cc).
 *
 * Storage: every set's slab lives in one node pool per simulator, so
 * a set costs a 16 B header (slab base, node count, head, tail) and
 * no heap allocation of its own.  A slab is contiguous, which keeps
 * the depth walk on a few cache lines; sets never share one.  Its
 * capacity is derived from the count: the next power of two, capped
 * at maxTrackedAssoc.  A full slab below the cap doubles: in place
 * when it is the pool's last slab, otherwise by moving to the pool's
 * end and leaving its old nodes behind.  Links are slab-relative, so
 * a move copies nodes without touching the map.  A slab is less than
 * twice its set's blocks and the slabs it left behind are smaller
 * than it together, so the pool stays under four nodes per block
 * held: a one-set 2^20-way L2 costs what its stream touches, not
 * 2^20 nodes up front.
 *
 * The map is a flat open-addressing table (linear probing, tombstone
 * deletion, amortized doubling) rather than std::unordered_map: a
 * lookup touches one contiguous cache line instead of chasing bucket
 * and node pointers, which is worth >2x on real address streams.
 */

#ifndef MECH_CACHE_STACK_SIM_HH
#define MECH_CACHE_STACK_SIM_HH

#include <cstdint>
#include <vector>

#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace mech {

/**
 * Stack-distance simulator for LRU caches with @p num_sets sets.
 *
 * After streaming accesses through access(), hitsForAssoc(a) returns
 * exactly the hit count a SetAssocCache with the same set count,
 * block size, associativity @p a and LRU replacement would report —
 * for every a in [1, maxTrackedAssoc] simultaneously.
 */
class StackDistanceSimulator
{
  public:
    /**
     * @param num_sets Number of sets (power of two).
     * @param block_bytes Line size in bytes (power of two).
     * @param max_tracked_assoc Depth beyond which distances count as
     *        misses for every tracked associativity.
     */
    StackDistanceSimulator(std::uint64_t num_sets,
                           std::uint32_t block_bytes,
                           std::uint32_t max_tracked_assoc = 64);

    /**
     * Stream one access through the simulator.
     *
     * Defined inline below: profiling streams hundreds of millions
     * of accesses through this call, and keeping it inlinable is
     * worth ~2x by itself (the cold insert/evict path stays
     * out-of-line in the .cc).
     *
     * @return The access's stack distance (1 = the set's MRU block),
     *         or 0 when it is cold or deeper than maxTrackedAssoc.
     *         Under LRU it hits an A-way cache exactly when the
     *         distance lies in [1, A].
     */
    std::uint64_t access(Addr addr);

    /** Total accesses observed. */
    std::uint64_t accesses() const { return total; }

    /**
     * Hits an LRU cache of associativity @p assoc would score.
     * @pre assoc in [1, maxTrackedAssoc].
     */
    std::uint64_t hitsForAssoc(std::uint32_t assoc) const;

    /** Misses for associativity @p assoc (complement of hits). */
    std::uint64_t
    missesForAssoc(std::uint32_t assoc) const
    {
        return total - hitsForAssoc(assoc);
    }

    /** Histogram of stack distances (1-based; key 0 = cold/deep). */
    const Histogram &distanceHistogram() const { return distances; }

  private:
    /** Null link / "no node". */
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Map-slot marker: never occupied. */
    static constexpr std::uint32_t kEmpty = 0xffffffffu;

    /** Map-slot marker: erased, probe sequences continue past it. */
    static constexpr std::uint32_t kTomb = 0xfffffffeu;

    /** One LRU-stack entry, linked MRU-first within its set. */
    struct Node
    {
        /** Global block number (the hash-map key). */
        std::uint64_t block;

        /** Neighbours in recency order (indices into the set's slab). */
        std::uint32_t prev;
        std::uint32_t next;
    };

    /** Recency list of one set: a slab of the node pool. */
    struct SetList
    {
        /** Pool index of the slab's first node. */
        std::uint32_t base = 0;

        /** Nodes in use; grows to maxAssoc, then slots are recycled. */
        std::uint32_t count = 0;

        /** Most- and least-recently-used node, or kNil when empty. */
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };
    static_assert(sizeof(SetList) == 16);

    /** One slot of the flat block -> node map. */
    struct MapSlot
    {
        /** Key: global block number (valid when occupied). */
        std::uint64_t block = 0;

        /** Node index within the block's set, kEmpty or kTomb. */
        std::uint32_t node = kEmpty;
    };

    /** Multiplicative hash; the table index is its top bits. */
    static std::uint64_t
    hashBlock(std::uint64_t block)
    {
        return block * 0x9E3779B97F4A7C15ull;
    }

    /** Map slot holding @p block, or the end of its probe run. */
    std::size_t
    findSlot(std::uint64_t block) const
    {
        const std::size_t mask = table.size() - 1;
        std::size_t pos = hashBlock(block) >> tableShift;
        for (;; pos = (pos + 1) & mask) {
            const MapSlot &slot = table[pos];
            if (slot.node == kEmpty ||
                (slot.node != kTomb && slot.block == block)) {
                return pos;
            }
        }
    }

    /** Cold path of access(): install a block seen cold or deep. */
    void insertCold(SetList &s, std::uint64_t block);

    /** Double @p s's full slab (see the file comment). */
    void growSlab(SetList &s);

    /** Insert block -> node (block must be absent). */
    void mapInsert(std::uint64_t block, std::uint32_t node);

    /** Remove @p block from the map (must be present). */
    void mapErase(std::uint64_t block);

    /** Rebuild the table, dropping tombstones and growing on demand. */
    void rehash();

    std::uint64_t numSets;
    std::uint32_t blockBytes;
    std::uint32_t maxAssoc;

    /** log2(blockBytes), so block extraction is a shift. */
    std::uint32_t blockShift;

    /** Per-set recency lists, MRU first, depth-capped at maxAssoc. */
    std::vector<SetList> stacks;

    /** Every set's slab, back to back (see the file comment). */
    std::vector<Node> pool;

    /** Flat open-addressing map: resident block -> node slot. */
    std::vector<MapSlot> table;

    /** Top-bits shift for the current table size. */
    std::uint32_t tableShift;

    /** Occupied slots (live entries). */
    std::size_t tableOccupied = 0;

    /** Occupied + tombstoned slots (probe-run length control). */
    std::size_t tableUsed = 0;

    /** distances.at(k) = accesses with stack distance k (1-based). */
    Histogram distances;

    std::uint64_t total = 0;
};

inline std::uint64_t
StackDistanceSimulator::access(Addr addr)
{
    const std::uint64_t block = addr >> blockShift;
    SetList &s = stacks[block & (numSets - 1)];
    Node *nodes = pool.data() + s.base;

    ++total;

    // Re-reference of the most recent block in the set: no recency
    // change, no hash lookup.  This is the hottest path for streams
    // with spatial locality.
    if (s.head != kNil && nodes[s.head].block == block) {
        distances.add(1);
        return 1;
    }

    const std::size_t map_pos = findSlot(block);
    if (table[map_pos].node == kEmpty) {
        // Cold or beyond the tracked depth: a miss at every tracked
        // associativity.  Key 0 marks "deeper than tracked".
        distances.add(0);
        insertCold(s, block);
        return 0;
    }

    // Hit below the top: the depth walk stops at the node, so cost is
    // bounded by the hit depth, and the relink is O(1).
    const std::uint32_t idx = table[map_pos].node;
    std::uint64_t depth = 2;
    for (std::uint32_t cur = nodes[s.head].next; cur != idx;
         cur = nodes[cur].next) {
        ++depth;
    }
    distances.add(depth);

    Node &n = nodes[idx];
    nodes[n.prev].next = n.next;
    if (n.next != kNil)
        nodes[n.next].prev = n.prev;
    else
        s.tail = n.prev;
    n.prev = kNil;
    n.next = s.head;
    nodes[s.head].prev = idx;
    s.head = idx;
    return depth;
}

} // namespace mech

#endif // MECH_CACHE_STACK_SIM_HH
