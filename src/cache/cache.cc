#include "cache/cache.hh"

#include <bit>

namespace mech {

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : cfg(config)
{
    if (!std::has_single_bit(cfg.sizeBytes) ||
        !std::has_single_bit(static_cast<std::uint64_t>(cfg.blockBytes))) {
        fatal("cache size and block size must be powers of two (got ",
              cfg.sizeBytes, " / ", cfg.blockBytes, ")");
    }
    if (cfg.assoc == 0 || cfg.sizeBytes <
        static_cast<std::uint64_t>(cfg.assoc) * cfg.blockBytes) {
        fatal("cache geometry invalid: ", cfg.sizeBytes, "B / ", cfg.assoc,
              "-way / ", cfg.blockBytes, "B blocks");
    }
    if (!std::has_single_bit(cfg.numSets()))
        fatal("cache set count must be a power of two");
    blockShift = static_cast<unsigned>(std::countr_zero(cfg.blockBytes));
    setMask = cfg.numSets() - 1;
    tagShift = blockShift + static_cast<unsigned>(std::popcount(setMask));
    lines.resize(cfg.numSets() * cfg.assoc);
}

bool
SetAssocCache::accessSet(Addr addr, bool is_write)
{
    std::uint64_t set = setIndex(addr);
    Addr tag = tagOf(addr);
    Line *base = &lines[set * cfg.assoc];

    ++useClock;

    Line *victim = base;
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        Line &line = base[w];
        // Ways fill in index order and only flush() invalidates, all
        // at once, so the valid lines are a prefix of the set: the
        // first invalid way ends the search and is the victim.
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.tag == tag) {
            line.lastUse = useClock;
            line.dirty = line.dirty || is_write;
            ++_stats.hits;
            mruLine = static_cast<std::size_t>(&line - lines.data());
            mruBlock = addr >> blockShift;
            return true;
        }
        // Otherwise the LRU way is the victim.
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }

    ++_stats.misses;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock;
    victim->dirty = is_write;
    mruLine = static_cast<std::size_t>(victim - lines.data());
    mruBlock = addr >> blockShift;
    return false;
}

bool
SetAssocCache::contains(Addr addr) const
{
    std::uint64_t set = setIndex(addr);
    Addr tag = tagOf(addr);
    const Line *base = &lines[set * cfg.assoc];
    // The valid lines are a prefix of the set (see accessSet).
    for (std::uint32_t w = 0; w < cfg.assoc && base[w].valid; ++w) {
        if (base[w].tag == tag)
            return true;
    }
    return false;
}

void
SetAssocCache::flush()
{
    for (auto &line : lines)
        line = Line{};
}

} // namespace mech
