#include "cache/stack_sim.hh"

#include <algorithm>
#include <bit>
#include <utility>

namespace mech {

namespace {

/** Initial map capacity (slots; power of two). */
constexpr std::size_t kInitialTableSize = 256;

} // namespace

StackDistanceSimulator::StackDistanceSimulator(std::uint64_t num_sets,
                                               std::uint32_t block_bytes,
                                               std::uint32_t max_tracked_assoc)
    : numSets(num_sets), blockBytes(block_bytes),
      maxAssoc(max_tracked_assoc)
{
    if (!std::has_single_bit(numSets) ||
        !std::has_single_bit(static_cast<std::uint64_t>(blockBytes))) {
        fatal("stack simulator set count and block size must be powers "
              "of two");
    }
    MECH_ASSERT(maxAssoc >= 1, "need at least one tracked way");
    blockShift = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(blockBytes)));
    stacks.resize(numSets);
    table.resize(kInitialTableSize);
    tableShift = static_cast<std::uint32_t>(
        64 - std::countr_zero(kInitialTableSize));
}

void
StackDistanceSimulator::mapInsert(std::uint64_t block,
                                  std::uint32_t node)
{
    constexpr std::size_t no_slot = static_cast<std::size_t>(-1);
    const std::size_t mask = table.size() - 1;
    std::size_t pos = hashBlock(block) >> tableShift;
    std::size_t tomb = no_slot;
    for (;; pos = (pos + 1) & mask) {
        MapSlot &slot = table[pos];
        if (slot.node == kEmpty) {
            if (tomb != no_slot) {
                pos = tomb;
            } else {
                ++tableUsed;
            }
            break;
        }
        if (slot.node == kTomb && tomb == no_slot)
            tomb = pos;
    }
    table[pos] = {block, node};
    ++tableOccupied;
    // Keep probe runs short: rebuild once 3/4 of the slots carry an
    // entry or a tombstone.
    if (tableUsed * 4 >= table.size() * 3)
        rehash();
}

void
StackDistanceSimulator::mapErase(std::uint64_t block)
{
    std::size_t pos = findSlot(block);
    MECH_ASSERT(table[pos].node != kEmpty, "erasing absent block");
    table[pos].node = kTomb;
    --tableOccupied;
}

void
StackDistanceSimulator::rehash()
{
    std::size_t new_size = table.size();
    while (tableOccupied * 3 >= new_size)
        new_size *= 2;

    std::vector<MapSlot> old = std::move(table);
    table.assign(new_size, MapSlot{});
    tableShift = static_cast<std::uint32_t>(
        64 - std::countr_zero(new_size));
    tableUsed = tableOccupied;

    const std::size_t mask = new_size - 1;
    for (const MapSlot &slot : old) {
        if (slot.node == kEmpty || slot.node == kTomb)
            continue;
        std::size_t pos = hashBlock(slot.block) >> tableShift;
        while (table[pos].node != kEmpty)
            pos = (pos + 1) & mask;
        table[pos] = slot;
    }
}

void
StackDistanceSimulator::growSlab(SetList &s)
{
    const std::uint64_t cap = s.count;
    const std::uint64_t grown =
        std::min<std::uint64_t>(maxAssoc, cap == 0 ? 1 : 2 * cap);
    if (cap != 0 && s.base + cap == pool.size()) {
        pool.resize(s.base + grown);
        return;
    }
    const std::size_t base = pool.size();
    MECH_ASSERT(base + grown < kNil, "stack simulator node pool overflow");
    pool.resize(base + grown);
    std::copy_n(pool.begin() + s.base, s.count, pool.begin() + base);
    s.base = static_cast<std::uint32_t>(base);
}

void
StackDistanceSimulator::insertCold(SetList &s, std::uint64_t block)
{
    std::uint32_t idx;
    if (s.count < maxAssoc) {
        // A slab's capacity is the next power of two of its count
        // (capped at maxAssoc), so a count at a power of two is full.
        if (s.count == 0 || std::has_single_bit(s.count))
            growSlab(s);
        idx = s.count++;
        pool[s.base + idx] = {block, kNil, kNil};
    } else {
        // Set full: recycle the LRU node's slot for the new block.
        idx = s.tail;
        Node &victim = pool[s.base + idx];
        mapErase(victim.block);
        s.tail = victim.prev;
        if (s.tail != kNil)
            pool[s.base + s.tail].next = kNil;
        else
            s.head = kNil;
        victim.block = block;
    }

    Node *nodes = pool.data() + s.base;
    Node &n = nodes[idx];
    n.prev = kNil;
    n.next = s.head;
    if (s.head != kNil)
        nodes[s.head].prev = idx;
    s.head = idx;
    if (s.tail == kNil)
        s.tail = idx;
    // The insert re-probes rather than reusing the access-time slot:
    // the eviction above may have tombstoned an earlier slot of this
    // very probe run, and the insert should prefer it.
    mapInsert(block, idx);
}

std::uint64_t
StackDistanceSimulator::hitsForAssoc(std::uint32_t assoc) const
{
    MECH_ASSERT(assoc >= 1 && assoc <= maxAssoc,
                "assoc ", assoc, " outside tracked range");
    return distances.sumRange(1, assoc);
}

} // namespace mech
