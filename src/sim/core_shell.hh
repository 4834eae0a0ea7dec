/**
 * @file
 * The front end and the memory-latency ladder that both cycle-accurate
 * pipelines share.
 *
 * The in-order simulator (src/sim/) and the out-of-order simulator
 * (src/oosim/) schedule differently but fetch and price memory the
 * same way, and CoreShell is the one place that policy lives:
 *
 *  - fetch probes the instruction side exactly once per instruction;
 *    an I-cache/I-TLB miss stalls fetch for its latency, a correctly
 *    predicted taken branch costs one bubble, and a mispredicted
 *    branch stops fetch until the pipeline calls redirect() at its
 *    own resolution point (wrong-path fetch is not simulated);
 *  - every access, instruction or data side, is priced by one
 *    L1 -> L2 -> memory + TLB ladder (latency());
 *  - one deadlock guard bounds the cycles a trace may take.
 *
 * A pipeline derives from CoreShell<its result type>, supplies its own
 * room check and fetch acceptance, and keeps its own scheduling core.
 * Header-only so the per-cycle calls inline into each pipeline.
 */

#ifndef MECH_SIM_CORE_SHELL_HH
#define MECH_SIM_CORE_SHELL_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>

#include "common/logging.hh"
#include "sim/inorder_sim.hh"

namespace mech {

/** Sentinel "not known yet" cycle or trace index. */
inline constexpr Cycles kUnknown = std::numeric_limits<Cycles>::max();

/** Memory-stage service demand of one instruction. */
struct MemService
{
    /** Cycles until the value is available (1 for non-loads). */
    Cycles cycles = 1;

    /**
     * True when the access holds the in-order pipeline's single miss
     * port: L2/memory service and page walks serialize, L1 hits are
     * pipelined at full width.  A perfect-D-cache load serializes
     * when the L1 hit itself takes more than one cycle.
     */
    bool serialized = false;
};

/** Shared front end, latency ladder and deadlock guard; see file. */
template <class Result>
class CoreShell
{
    static_assert(std::is_base_of_v<CoreResult, Result>);

  protected:
    CoreShell(const Trace &trace, const SimConfig &config)
        : trace(trace), machine(config.machine), hier(config.hierarchy),
          predictor(makePredictor(config.predictor)),
          perfectICache(config.perfectICache),
          perfectDCache(config.perfectDCache),
          perfectTlbs(config.perfectTlbs)
    {
        machine.validate();
        guard = trace.size() *
                    (latency({MemLevel::Memory, true}, 0) + 64) +
                1000000;
    }

    /**
     * Fetch for cycle @p t: up to W instructions, in program order,
     * while @p has_room() holds, each handed to @p accept(idx).
     * Returns true when fetch changed state: it fetched something, or
     * it probed an I-side miss (which consumes nothing).
     */
    template <class HasRoom, class Accept>
    bool
    fetch(Cycles t, HasRoom has_room, Accept accept)
    {
        if (nextFetchIdx >= trace.size())
            return false;

        if (pendingRedirectIdx != kUnknown) {
            ++stats.mispredictStallCycles;
            return false;
        }
        if (fetchReadyAt > t) {
            if (fetchStallCause == FetchStall::Miss)
                ++stats.fetchMissStallCycles;
            else if (fetchStallCause == FetchStall::TakenBubble)
                ++stats.takenBubbleCycles;
            return false;
        }
        // Diagnostics only: read again only once a later fetch has set
        // fetchReadyAt, so clearing it does not make the cycle active.
        fetchStallCause = FetchStall::None;

        std::uint32_t fetched = 0;
        while (fetched < machine.width && has_room() &&
               nextFetchIdx < trace.size()) {
            const DynInstr &di = trace[nextFetchIdx];

            // Probe the instruction side exactly once per instruction
            // (the profiler sees the very same access stream).  On a
            // miss the instruction is NOT consumed: it waits for its
            // line, while anything fetched earlier this cycle proceeds.
            if (nextFetchIdx != probedFetchIdx && !perfectICache) {
                probedFetchIdx = nextFetchIdx;
                const Cycles stall =
                    latency(masked(hier.fetch(di.pc)), 0);
                if (stall > 0) {
                    fetchReadyAt = t + stall;
                    fetchStallCause = FetchStall::Miss;
                    return true; // the probe itself changed state
                }
            }

            accept(nextFetchIdx);
            ++nextFetchIdx;
            ++fetched;

            if (isBranch(di.op)) {
                bool predicted = predictor->predict(di.pc);
                predictor->update(di.pc, di.taken);
                if (predicted != di.taken) {
                    ++stats.mispredicts;
                    // Wrong path: nothing useful can be fetched until
                    // the branch resolves.
                    pendingRedirectIdx = nextFetchIdx - 1;
                    break;
                }
                if (predicted) {
                    ++stats.predictedTakenCorrect;
                    // Redirect is known one cycle after fetch: one
                    // bubble.
                    fetchReadyAt = t + 2;
                    fetchStallCause = FetchStall::TakenBubble;
                    break;
                }
            }
        }
        return fetched != 0;
    }

    /**
     * If @p idx is the mispredicted branch fetch waits on, it has
     * resolved: fetch restarts on the correct path at cycle @p at.
     */
    void
    redirect(std::uint64_t idx, Cycles at)
    {
        if (idx != pendingRedirectIdx)
            return;
        fetchReadyAt = at;
        pendingRedirectIdx = kUnknown;
        fetchStallCause = FetchStall::None;
    }

    /**
     * Probe the data side for @p di and return its service demand.
     * Stores probe for cache/TLB state only (ideal store buffer), so
     * the miss stream stays identical to the profiler's.
     */
    MemService
    memService(const DynInstr &di)
    {
        MemService svc;
        if (di.op == OpClass::Load) {
            if (perfectDCache) {
                svc.cycles = machine.dl1HitCycles;
                svc.serialized = svc.cycles > 1;
                return svc;
            }
            const HierAccess acc = masked(hier.data(di.effAddr, false));
            svc.cycles = latency(acc, machine.dl1HitCycles);
            svc.serialized = acc.level != MemLevel::L1 || acc.tlbMiss;
        } else if (di.op == OpClass::Store && !perfectDCache) {
            (void)hier.data(di.effAddr, true);
        }
        return svc;
    }

    /** Panic once cycle @p t passes the deadlock guard. */
    void
    checkProgress(Cycles t, std::uint64_t retired,
                  const char *pipeline) const
    {
        if (t > guard)
            panic(pipeline, " deadlock: retired ", retired, " of ",
                  trace.size(), " instructions after ", t, " cycles");
    }

    /** Trace index of the next instruction to fetch. */
    std::uint64_t nextFetchIndex() const { return nextFetchIdx; }

    /** Fetch is stalled until this cycle (miss / taken bubble). */
    Cycles fetchReadyCycle() const { return fetchReadyAt; }

    const Trace &trace;
    MachineParams machine;

    /** Diagnostics. */
    Result stats;

  private:
    /**
     * The one latency ladder: cycles of an access served as @p acc
     * when an L1 hit costs @p l1_hit.
     */
    Cycles
    latency(const HierAccess &acc, Cycles l1_hit) const
    {
        Cycles lat = l1_hit;
        if (acc.level == MemLevel::L2)
            lat = machine.l2HitCycles;
        else if (acc.level == MemLevel::Memory)
            lat = machine.l2HitCycles + machine.memCycles;
        if (acc.tlbMiss)
            lat += machine.tlbMissCycles;
        return lat;
    }

    /** @p acc with the TLB miss dropped under perfect TLBs. */
    HierAccess
    masked(HierAccess acc) const
    {
        if (perfectTlbs)
            acc.tlbMiss = false;
        return acc;
    }

    CacheHierarchy hier;
    std::unique_ptr<BranchPredictor> predictor;
    const bool perfectICache;
    const bool perfectDCache;
    const bool perfectTlbs;

    /** Cycle past which the trace is declared deadlocked. */
    Cycles guard = 0;

    std::uint64_t nextFetchIdx = 0;

    /** Last trace index probed against the instruction side. */
    std::uint64_t probedFetchIdx = kUnknown;

    /** Fetch stalled until this cycle (miss / taken bubble). */
    Cycles fetchReadyAt = 0;

    /** Trace index of an unresolved mispredicted branch, if any. */
    std::uint64_t pendingRedirectIdx = kUnknown;

    /** Cause of the current fetch stall (diagnostics only). */
    enum class FetchStall : std::uint8_t { None, Miss, TakenBubble };
    FetchStall fetchStallCause = FetchStall::None;
};

} // namespace mech

#endif // MECH_SIM_CORE_SHELL_HH
