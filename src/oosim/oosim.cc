#include "oosim/oosim.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <vector>

#include "sim/core_shell.hh"

namespace mech {

namespace {

/** Sentinel "no pending producer" tag. */
constexpr std::uint64_t kNoTag = std::numeric_limits<std::uint64_t>::max();

/** Functional-unit classes the scheduler arbitrates over. */
enum class FuType : std::uint8_t { Alu, Mul, Mem, Br };

constexpr std::size_t kNumFuTypes = 4;

/** Map an op class onto its functional-unit class. */
FuType
fuTypeOf(OpClass oc)
{
    if (isMem(oc))
        return FuType::Mem;
    if (isBranch(oc))
        return FuType::Br;
    if (isLongLatencyClass(oc))
        return FuType::Mul;
    return FuType::Alu; // IntAlu, Nop
}

/** An instruction waiting in the front end for dispatch. */
struct FrontEndEntry
{
    std::uint64_t idx = 0; ///< dynamic trace index
    Cycles readyAt = 0;    ///< first cycle dispatch may take it
};

/** One centralized reservation-station (issue queue) entry. */
struct RsEntry
{
    std::uint64_t idx = 0; ///< dynamic trace index == result tag
    FuType fu = FuType::Alu;
    Cycles lat = 1; ///< service latency once issued

    /** Pending producer tags; kNoTag == ready bit set. */
    std::uint64_t src1Tag = kNoTag;
    std::uint64_t src2Tag = kNoTag;

    bool ready() const { return src1Tag == kNoTag && src2Tag == kNoTag; }
};

/** An issued instruction executing (or awaiting a result bus). */
struct Inflight
{
    std::uint64_t idx = 0;
    Cycles doneAt = 0;
    FuType fu = FuType::Alu;
};

/**
 * The out-of-order pipeline state machine.
 *
 * One instance simulates one trace.  Per-cycle processing order is
 * retire -> writeback (result-bus grant + wakeup broadcast) -> select
 * -> dispatch -> fetch, which realizes the half-cycle contract: a
 * result written back in cycle t wakes and fires its consumers in the
 * same cycle (back-to-back dependent issue), while instructions
 * dispatched in cycle t cannot be selected before t+1 and completed
 * instructions retire no earlier than the cycle after writeback.
 */
class OoOPipeline : CoreShell<OoOSimResult>
{
  public:
    OoOPipeline(const Trace &trace, const OoOSimConfig &config)
        : CoreShell(trace, config.core), ooo(config.ooo),
          feDelay(config.core.machine.frontendDepth - 1),
          feCapacity(static_cast<std::size_t>(
                         config.core.machine.frontendDepth) *
                     config.core.machine.width)
    {
        if (ooo.robSize < 1 || ooo.iqSize < 1)
            fatal("out-of-order core needs a ROB and an issue queue "
                  "(rob=", ooo.robSize, ", iq=", ooo.iqSize, ")");
        if (ooo.fuAlu < 1 || ooo.fuMul < 1 || ooo.fuMem < 1 ||
            ooo.fuBr < 1) {
            fatal("every functional-unit class needs at least one "
                  "unit (alu=", ooo.fuAlu, ", mul=", ooo.fuMul,
                  ", mem=", ooo.fuMem, ", br=", ooo.fuBr, ")");
        }
        if (ooo.resultBuses < 1)
            fatal("out-of-order core needs at least one result bus");
        fuCount = {ooo.fuAlu, ooo.fuMul, ooo.fuMem, ooo.fuBr};
        regTag.fill(kNoTag);
        rs.reserve(ooo.iqSize);
        inflight.reserve(ooo.robSize);
    }

    OoOSimResult run();

  private:
    void step(Cycles t);

    void retire(Cycles t);
    void writeback(Cycles t);
    void select(Cycles t);
    void dispatch(Cycles t);

    OooParams ooo;

    /** Fetch-to-dispatch pipeline delay (front end minus dispatch). */
    const Cycles feDelay;

    /** Front-end buffer capacity (D stages of W slots). */
    const std::size_t feCapacity;

    /** Units per FuType, indexed by static_cast<size_t>(FuType). */
    std::array<std::uint32_t, kNumFuTypes> fuCount{};

    /** regTag[r]: trace index of r's latest in-flight producer. */
    std::array<std::uint64_t, kNumArchRegs> regTag{};

    /** Fetched instructions flowing toward dispatch. */
    std::deque<FrontEndEntry> frontEnd;

    /** Centralized reservation station, ascending trace index. */
    std::vector<RsEntry> rs;

    /** Issued instructions (executing or waiting for a bus). */
    std::vector<Inflight> inflight;

    /**
     * Reorder buffer: completion flags for the contiguous trace-index
     * range [retired, retired + robCompleted.size()).
     */
    std::deque<bool> robCompleted;

    /** Scratch: inflight indices completing this cycle. */
    std::vector<std::size_t> doneScratch;

    std::uint64_t retired = 0;
};

void
OoOPipeline::retire(Cycles t)
{
    (void)t;
    std::uint32_t moved = 0;
    while (!robCompleted.empty() && moved < machine.width &&
           robCompleted.front()) {
        robCompleted.pop_front();
        ++retired;
        ++moved;
    }
}

void
OoOPipeline::writeback(Cycles t)
{
    doneScratch.clear();
    for (std::size_t i = 0; i < inflight.size(); ++i) {
        if (inflight[i].doneAt <= t)
            doneScratch.push_back(i);
    }
    if (doneScratch.empty())
        return;

    // Oldest-first result-bus arbitration.
    std::sort(doneScratch.begin(), doneScratch.end(),
              [this](std::size_t a, std::size_t b) {
                  return inflight[a].idx < inflight[b].idx;
              });
    const std::size_t grants =
        std::min<std::size_t>(doneScratch.size(), ooo.resultBuses);
    stats.busStallEvents += doneScratch.size() - grants;
    doneScratch.resize(grants);

    for (std::size_t pos : doneScratch) {
        const std::uint64_t idx = inflight[pos].idx;
        const DynInstr &di = trace[idx];

        // Completion reaches the ROB; retirement happens next cycle.
        robCompleted[idx - retired] = true;

        // Release the architectural tag if still the latest producer.
        if (di.hasDst() && regTag[di.dst] == idx)
            regTag[di.dst] = kNoTag;

        // Wakeup: broadcast the tag, setting consumer ready bits.
        for (RsEntry &e : rs) {
            if (e.src1Tag == idx)
                e.src1Tag = kNoTag;
            if (e.src2Tag == idx)
                e.src2Tag = kNoTag;
        }

        // A misprediction resolves at writeback: the front end
        // restarts on the correct path next cycle.
        redirect(idx, t + 1);
    }

    // Free the granted in-flight slots.  Swap-and-pop must run in
    // descending *position* order (doneScratch is in age order), or a
    // granted entry could be relocated into a lower granted slot and
    // survive.  inflight order itself is irrelevant: arbitration
    // re-sorts candidates by age every cycle.
    std::sort(doneScratch.begin(), doneScratch.end(),
              std::greater<std::size_t>());
    for (std::size_t pos : doneScratch) {
        inflight[pos] = inflight.back();
        inflight.pop_back();
    }
}

void
OoOPipeline::select(Cycles t)
{
    std::array<std::uint32_t, kNumFuTypes> fired{};
    auto it = rs.begin();
    while (it != rs.end()) {
        if (it->ready()) {
            const auto fu = static_cast<std::size_t>(it->fu);
            if (fired[fu] < fuCount[fu]) {
                ++fired[fu];
                inflight.push_back({it->idx, t + it->lat, it->fu});
                it = rs.erase(it);
                continue;
            }
            ++stats.fuStallEvents;
        }
        ++it;
    }
}

void
OoOPipeline::dispatch(Cycles t)
{
    std::uint32_t moved = 0;
    bool robBlocked = false;
    bool iqBlocked = false;
    while (!frontEnd.empty() && moved < machine.width &&
           frontEnd.front().readyAt <= t) {
        if (robCompleted.size() >= ooo.robSize) {
            robBlocked = true;
            break;
        }
        if (rs.size() >= ooo.iqSize) {
            iqBlocked = true;
            break;
        }
        const std::uint64_t idx = frontEnd.front().idx;
        const DynInstr &di = trace[idx];

        RsEntry entry;
        entry.idx = idx;
        entry.fu = fuTypeOf(di.op);
        // The data side is probed here, in program order, so the miss
        // stream matches the profiler's; the latency applies when the
        // access later issues, letting misses overlap in the window.
        entry.lat = entry.fu == FuType::Mem ? memService(di).cycles
                                            : machine.execLatency(di.op);
        // Source tags read the rename state *before* this
        // instruction's own destination claim (WAR-safe).
        if (di.src1 != kNoReg)
            entry.src1Tag = regTag[di.src1];
        if (di.src2 != kNoReg)
            entry.src2Tag = regTag[di.src2];
        if (di.hasDst())
            regTag[di.dst] = idx;

        rs.push_back(entry);
        robCompleted.push_back(false);
        frontEnd.pop_front();
        ++moved;
    }
    if (robBlocked)
        ++stats.robStallCycles;
    else if (iqBlocked)
        ++stats.iqStallCycles;

    stats.maxRobOccupancy =
        std::max<std::uint32_t>(stats.maxRobOccupancy,
                                static_cast<std::uint32_t>(
                                    robCompleted.size()));
    stats.maxIqOccupancy = std::max<std::uint32_t>(
        stats.maxIqOccupancy, static_cast<std::uint32_t>(rs.size()));
}

void
OoOPipeline::step(Cycles t)
{
    retire(t);
    writeback(t);
    select(t);
    dispatch(t);
    fetch(
        t, [&] { return frontEnd.size() < feCapacity; },
        [&](std::uint64_t idx) { frontEnd.push_back({idx, t + feDelay}); });
}

OoOSimResult
OoOPipeline::run()
{
    Cycles t = 0;
    while (retired < trace.size()) {
        step(t);
        ++t;
        checkProgress(t, retired, "out-of-order pipeline");
    }
    stats.cycles = t;
    stats.retired = retired;
    return stats;
}

} // namespace

OoOSimResult
simulateOutOfOrder(const Trace &trace, const OoOSimConfig &config)
{
    if (trace.empty())
        return OoOSimResult{};
    OoOPipeline pipe(trace, config);
    return pipe.run();
}

OoOSimConfig
oooSimConfigFor(const DesignPoint &point, const LatencySpec &spec)
{
    OoOSimConfig cfg;
    cfg.core = simConfigFor(point, spec);
    cfg.ooo = point.ooo;
    return cfg;
}

} // namespace mech
