#include "sim/inorder_sim.hh"

#include <algorithm>
#include <array>

#include "sim/core_shell.hh"

namespace mech {

namespace {

/** An instruction in the execute or memory stage. */
struct StageEntry
{
    std::uint64_t idx = 0; ///< dynamic trace index
    Cycles doneAt = 0;     ///< first cycle it may leave the stage
};

/**
 * FIFO contents of the execute or memory stage: at most W entries,
 * and MachineParams::validate() caps W at 16, so a fixed ring needs
 * no heap.
 */
class StageRing
{
  public:
    static constexpr std::uint32_t kCapacity = 16;

    bool empty() const { return count == 0; }
    std::uint32_t size() const { return count; }
    const StageEntry &front() const { return slots[head]; }

    void
    push_back(const StageEntry &entry)
    {
        slots[(head + count) & (kCapacity - 1)] = entry;
        ++count;
    }

    void
    pop_front()
    {
        head = (head + 1) & (kCapacity - 1);
        --count;
    }

  private:
    std::array<StageEntry, kCapacity> slots{};
    std::uint32_t head = 0;
    std::uint32_t count = 0;
};

/** The per-cycle stall counters an idle-cycle skip replicates. */
constexpr Cycles SimResult::*kStallCounters[] = {
    &SimResult::fetchMissStallCycles,
    &SimResult::takenBubbleCycles,
    &SimResult::mispredictStallCycles,
    &SimResult::dependencyStallCycles,
    &SimResult::backPressureStallCycles,
};

/**
 * The pipeline state machine.
 *
 * One instance simulates one trace; per-cycle processing moves
 * instructions downstream-first so a handoff takes effect on the next
 * stage in the same clock (simultaneous shift semantics), while each
 * instruction advances at most one stage per cycle.
 *
 * Every timing decision compares a recorded timestamp (doneAt,
 * regReadyAt, fetchReadyAt, the blocked-until maxima) against the
 * current cycle.  A cycle that moves no instruction therefore repeats
 * unchanged until the earliest such timestamp above it, so run()
 * jumps straight there and credits the skipped cycles to the stall
 * counters the idle cycle charged — the result is exactly that of
 * stepping every cycle.
 */
class Pipeline : CoreShell<SimResult>
{
  public:
    Pipeline(const Trace &trace, const SimConfig &config)
        : CoreShell(trace, config),
          feCount(config.machine.frontendDepth, 0)
    {
        regReadyAt.fill(0);
    }

    SimResult run();

  private:
    /**
     * Process one full cycle @p t.  Returns false when the cycle
     * moved no instruction and probed nothing (an idle cycle).
     */
    bool step(Cycles t);

    /** Earliest recorded timestamp above @p t, or kUnknown. */
    Cycles nextEventAfter(Cycles t) const;

    // Each stage returns true when it changed pipeline state.
    bool retireFromMem(Cycles t);
    bool execToMem(Cycles t);
    bool issue(Cycles t);
    bool shiftFrontEnd();

    /** Trace index of the oldest instruction in the front end. */
    std::uint64_t
    oldestFrontEndIdx() const
    {
        return nextFetchIndex() - feInFlight;
    }

    /** True when every source of @p di is forwardable at cycle @p t. */
    bool
    operandsReady(const DynInstr &di, Cycles t) const
    {
        for (RegIndex src : {di.src1, di.src2}) {
            if (src != kNoReg && regReadyAt[src] > t)
                return false;
        }
        return true;
    }

    /** regReadyAt[r]: first cycle a consumer entering EX may read r. */
    std::array<Cycles, kNumArchRegs> regReadyAt{};

    /**
     * Occupancy of each front-end stage; [0] = fetch output, [D-1] =
     * decode buffer.  Instructions leave the front end in order, so
     * together the stages hold the contiguous trace range
     * [nextFetchIndex() - feInFlight, nextFetchIndex()), oldest in
     * decode.
     */
    std::vector<std::uint32_t> feCount;

    /** Sum of feCount. */
    std::uint64_t feInFlight = 0;

    /** Execute-stage contents (<= W). */
    StageRing ex;

    /** Memory-stage contents (<= W). */
    StageRing mem;

    /**
     * Latest doneAt of a serialized (long-latency) execute entry and
     * of a serialized memory access.  An entry leaves its stage only
     * once doneAt <= t, so "some serialized entry is still in
     * service at t" is exactly "blockedUntil > t".
     */
    Cycles exBlockedUntil = 0;
    Cycles memBlockedUntil = 0;

    std::uint64_t retired = 0;
};

bool
Pipeline::retireFromMem(Cycles t)
{
    std::uint32_t moved = 0;
    while (!mem.empty() && moved < machine.width) {
        if (mem.front().doneAt > t)
            break; // in-order: younger entries cannot pass
        mem.pop_front();
        ++retired;
        ++moved;
    }
    return moved != 0;
}

bool
Pipeline::execToMem(Cycles t)
{
    // A missing load "blocks up the memory stage" (paper SS2.2): while
    // a serialized access is in service, nothing enters the stage.
    if (memBlockedUntil > t)
        return false;

    std::uint32_t moved = 0;
    while (!ex.empty() && moved < machine.width &&
           mem.size() < machine.width) {
        const StageEntry &head = ex.front();
        if (head.doneAt > t)
            break; // oldest not finished: in-order block

        const DynInstr &di = trace[head.idx];
        MemService svc = memService(di);
        StageEntry entry;
        entry.idx = head.idx;
        entry.doneAt = t + svc.cycles;
        if (svc.serialized)
            memBlockedUntil = std::max(memBlockedUntil, entry.doneAt);

        // Loads produce their value when leaving the memory stage.
        if (di.op == OpClass::Load && di.hasDst())
            regReadyAt[di.dst] = entry.doneAt;

        mem.push_back(entry);
        ex.pop_front();
        ++moved;

        // A serialized access admits nothing behind it this cycle.
        if (svc.serialized)
            break;
    }
    return moved != 0;
}

bool
Pipeline::issue(Cycles t)
{
    std::uint32_t &decode = feCount[machine.frontendDepth - 1];
    std::uint32_t moved = 0;
    bool stalled_on_deps = false;

    // A long-latency instruction in execute "blocks all subsequent
    // instructions" (paper SS2.2, in-order commit): no issue while one
    // is still executing.
    if (exBlockedUntil > t) {
        if (decode != 0)
            ++stats.backPressureStallCycles;
        return false;
    }

    while (decode != 0 && moved < machine.width &&
           ex.size() < machine.width) {
        std::uint64_t idx = oldestFrontEndIdx();
        const DynInstr &di = trace[idx];

        if (!operandsReady(di, t)) {
            stalled_on_deps = true;
            break; // stall-on-use: this and all younger wait
        }

        Cycles lat = machine.execLatency(di.op);
        ex.push_back({idx, t + lat});
        if (lat > 1)
            exBlockedUntil = std::max(exBlockedUntil, t + lat);

        if (di.hasDst()) {
            // Unit and long-latency results forward out of execute;
            // loads resolve later, at memory-stage entry.
            regReadyAt[di.dst] =
                di.op == OpClass::Load ? kUnknown : t + lat;
        }

        // A misprediction resolves at the end of execute: the front
        // end restarts on the correct path next cycle.
        redirect(idx, t + lat);

        --decode;
        --feInFlight;
        ++moved;

        // A just-issued long-latency instruction immediately blocks
        // everything younger.
        if (lat > 1)
            break;
    }

    if (moved == 0 && decode != 0) {
        if (stalled_on_deps)
            ++stats.dependencyStallCycles;
        else
            ++stats.backPressureStallCycles;
    }
    return moved != 0;
}

bool
Pipeline::shiftFrontEnd()
{
    bool moved = false;
    for (std::size_t s = feCount.size() - 1; s >= 1; --s) {
        const std::uint32_t n =
            std::min(feCount[s - 1], machine.width - feCount[s]);
        feCount[s] += n;
        feCount[s - 1] -= n;
        moved |= n != 0;
    }
    return moved;
}

bool
Pipeline::step(Cycles t)
{
    // Every stage runs, whatever the earlier ones returned.
    bool active = retireFromMem(t);
    active |= execToMem(t);
    active |= issue(t);
    active |= shiftFrontEnd();
    std::uint32_t &stage0 = feCount[0];
    active |= fetch(
        t, [&] { return stage0 < machine.width; },
        [&](std::uint64_t) {
            ++stage0;
            ++feInFlight;
        });
    return active;
}

Cycles
Pipeline::nextEventAfter(Cycles t) const
{
    Cycles next = kUnknown;
    auto consider = [&](Cycles at) {
        if (at > t && at < next)
            next = at;
    };
    // Only a stage's oldest entry gates movement (in-order), and a
    // younger one becomes oldest only in an active cycle.
    if (!ex.empty())
        consider(ex.front().doneAt);
    if (!mem.empty())
        consider(mem.front().doneAt);
    consider(exBlockedUntil);
    consider(memBlockedUntil);
    consider(fetchReadyCycle());
    // Issue only ever tests the oldest front-end instruction's
    // operands; kUnknown (a load not yet in memory) is no timestamp
    // and is skipped by the strict "< next" above.
    if (feInFlight != 0) {
        const DynInstr &di = trace[oldestFrontEndIdx()];
        for (RegIndex src : {di.src1, di.src2}) {
            if (src != kNoReg)
                consider(regReadyAt[src]);
        }
    }
    return next;
}

SimResult
Pipeline::run()
{
    Cycles t = 0;
    std::array<Cycles, std::size(kStallCounters)> before{};
    while (retired < trace.size()) {
        for (std::size_t i = 0; i < before.size(); ++i)
            before[i] = stats.*kStallCounters[i];
        Cycles next = t + 1;
        if (!step(t)) {
            // Idle: cycles t+1 .. event-1 would replay cycle t exactly.
            // With no pending timestamp at all, keep stepping so the
            // deadlock guard below still fires.
            const Cycles event = nextEventAfter(t);
            if (event != kUnknown) {
                const Cycles skipped = event - next;
                for (std::size_t i = 0; i < before.size(); ++i) {
                    Cycles &counter = stats.*kStallCounters[i];
                    counter += (counter - before[i]) * skipped;
                }
                next = event;
            }
        }
        t = next;
        checkProgress(t, retired, "pipeline");
    }
    stats.cycles = t;
    stats.retired = retired;
    return stats;
}

} // namespace

SimResult
simulateInOrder(const Trace &trace, const SimConfig &config)
{
    if (trace.empty())
        return SimResult{};
    Pipeline pipe(trace, config);
    return pipe.run();
}

} // namespace mech
