/**
 * @file
 * Fully-associative LRU translation lookaside buffer.
 *
 * TLB misses are one of the paper's miss-event classes (Table 1);
 * like cache misses their penalty is the miss latency minus the
 * partial-group overlap term.
 */

#ifndef MECH_CACHE_TLB_HH
#define MECH_CACHE_TLB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mech {

/** Geometry of a TLB. */
struct TlbConfig
{
    /** Number of entries (fully associative). */
    std::uint32_t entries = 32;

    /** Page size in bytes. */
    std::uint64_t pageBytes = 4096;
};

/** Fully-associative, true-LRU TLB. */
class Tlb
{
  public:
    /** Build a TLB with @p config geometry. */
    explicit Tlb(const TlbConfig &config)
        : cfg(config)
    {
        MECH_ASSERT(cfg.entries > 0, "TLB needs at least one entry");
        slots.resize(cfg.entries);
    }

    /**
     * Translate the page containing @p addr.
     * @return True on TLB hit; on miss the translation is installed.
     */
    bool
    access(Addr addr)
    {
        Addr vpn = addr / cfg.pageBytes;
        ++useClock;

        // A vpn occupies at most one slot, so probing the last slot
        // touched first changes nothing but the time to find it.
        if (Slot &last = slots[mru]; last.valid && last.vpn == vpn) {
            last.lastUse = useClock;
            ++hits;
            return true;
        }

        Slot *victim = &slots[0];
        for (auto &slot : slots) {
            if (slot.valid && slot.vpn == vpn) {
                slot.lastUse = useClock;
                mru = static_cast<std::size_t>(&slot - slots.data());
                ++hits;
                return true;
            }
            if (!slot.valid) {
                if (victim->valid || slot.lastUse < victim->lastUse)
                    victim = &slot;
            } else if (victim->valid && slot.lastUse < victim->lastUse) {
                victim = &slot;
            }
        }

        ++misses;
        mru = static_cast<std::size_t>(victim - slots.data());
        victim->valid = true;
        victim->vpn = vpn;
        victim->lastUse = useClock;
        return false;
    }

    /** Number of hits so far. */
    std::uint64_t hitCount() const { return hits; }

    /** Number of misses so far. */
    std::uint64_t missCount() const { return misses; }

    /** Geometry. */
    const TlbConfig &config() const { return cfg; }

  private:
    struct Slot
    {
        Addr vpn = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    TlbConfig cfg;
    std::vector<Slot> slots;

    /**
     * The last slot hit or filled; an index rather than a pointer
     * keeps Tlb copyable.
     */
    std::size_t mru = 0;
    std::uint64_t useClock = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

} // namespace mech

#endif // MECH_CACHE_TLB_HH
