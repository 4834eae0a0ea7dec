/**
 * @file
 * Cycle-accurate superscalar in-order pipeline simulator.
 *
 * This is the reproduction's stand-in for the paper's detailed M5
 * simulation: a trace-driven, W-wide, in-order pipeline implementing
 * the microarchitecture contract of paper §2.2 / DESIGN.md §3:
 *
 *  - D front-end stages (fetch .. decode), each holding up to W
 *    instructions, then execute / memory / writeback;
 *  - full forwarding, stall-on-use at the decode->execute boundary;
 *  - long-latency instructions block the execute stage (in-order
 *    commit / precise interrupts);
 *  - loads produce in the memory stage; a missing load blocks it;
 *  - branches predicted one cycle after fetch (taken predictions cost
 *    one fetch bubble), resolved in execute (mispredictions restart
 *    the front end);
 *  - stores never block (ideal store buffer).
 *
 * Wrong-path fetch is not simulated (the trace holds the correct path
 * only): a mispredicted branch stalls fetch until it resolves, which
 * reproduces the refill penalty without wrong-path cache pollution —
 * consistent with the profiler, and with the paper's decision not to
 * model such second-order effects.
 *
 * The fetch policy and the L1 -> L2 -> memory + TLB latency ladder are
 * shared with the out-of-order simulator and live in one place,
 * CoreShell (sim/core_shell.hh); this file's pipeline keeps only its
 * own scheduling: the stage rings and the idle-cycle skip.
 *
 * Everything the analytical model does NOT capture — overlap of miss
 * events with long-latency execution, back-pressure, burstiness —
 * emerges here naturally; the gap between this simulator and the
 * model is exactly the "second-order effects" error source the paper
 * discusses (§5).
 */

#ifndef MECH_SIM_INORDER_SIM_HH
#define MECH_SIM_INORDER_SIM_HH

#include <cstdint>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "isa/machine_params.hh"
#include "trace/trace.hh"

namespace mech {

/** Full simulator configuration. */
struct SimConfig
{
    /** Core parameters (width, depths, latencies). */
    MachineParams machine;

    /** Memory hierarchy geometry. */
    HierarchyConfig hierarchy;

    /** Branch predictor design. */
    PredictorKind predictor = PredictorKind::Gshare1K;

    /**
     * Idealization knobs: never-missing instruction cache, data cache
     * or TLBs.  Used by micro-benchmarks, pipeline unit tests and
     * ablation studies to isolate individual penalty mechanisms.
     */
    bool perfectICache = false;
    bool perfectDCache = false;
    bool perfectTlbs = false;
};

/**
 * What every cycle-accurate pipeline reports: the shared front end's
 * counters (src/sim/core_shell.hh) plus cycles and retirement.
 */
struct CoreResult
{
    /** Total execution cycles. */
    Cycles cycles = 0;

    /** Instructions retired (trace length). */
    InstCount retired = 0;

    /** Cycles the fetch unit was stalled on I-cache/I-TLB misses. */
    Cycles fetchMissStallCycles = 0;

    /** Fetch bubbles from correctly-predicted taken branches. */
    Cycles takenBubbleCycles = 0;

    /** Cycles fetch waited on an unresolved mispredicted branch. */
    Cycles mispredictStallCycles = 0;

    /** Branch mispredictions observed. */
    std::uint64_t mispredicts = 0;

    /** Correctly-predicted taken branches observed. */
    std::uint64_t predictedTakenCorrect = 0;

    /** Cycles per instruction. */
    double
    cpi() const
    {
        return retired ? static_cast<double>(cycles) /
                             static_cast<double>(retired)
                       : 0.0;
    }

    /** Execution time in seconds at @p freq_ghz. */
    double
    seconds(double freq_ghz) const
    {
        return static_cast<double>(cycles) / (freq_ghz * 1e9);
    }
};

/** In-order simulation outcome with diagnostic counters. */
struct SimResult : CoreResult
{
    /** Cycles decode stalled with unready operands (head-of-queue). */
    Cycles dependencyStallCycles = 0;

    /** Cycles decode stalled on execute-stage back-pressure. */
    Cycles backPressureStallCycles = 0;
};

/**
 * Simulate @p trace on the configured pipeline, cycle by cycle.
 *
 * Deterministic; cold caches, TLBs and predictor.
 */
SimResult simulateInOrder(const Trace &trace, const SimConfig &config);

} // namespace mech

#endif // MECH_SIM_INORDER_SIM_HH
