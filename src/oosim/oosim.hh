/**
 * @file
 * Cycle-accurate superscalar out-of-order pipeline simulator.
 *
 * The out-of-order counterpart of src/sim/: a trace-driven, W-wide,
 * five-stage dynamically scheduled pipeline in the style of the
 * classic Tomasulo/ROB machines —
 *
 *   fetch -> dispatch -> schedule -> execute -> state update
 *
 * with a tag-based *centralized* reservation station (the issue
 * queue), ready-bit wakeup on result broadcast, a reorder buffer for
 * in-order retirement, per-class functional-unit issue ports
 * (ALU / mul / mem / branch) and a limited number of result buses.
 *
 * Intra-cycle ordering follows the usual half-cycle rules: results
 * write back (bus grant) in the first half, the broadcast wakes
 * dependent reservation-station entries, and only then does select
 * fire ready entries — so a unit-latency producer feeds its consumer
 * back-to-back.  Retirement precedes writeback, so an instruction
 * completing in cycle t retires no earlier than t+1.
 *
 * Modeling decisions (all idealizations are shared with the in-order
 * reference simulator and the profiler so model-vs-sim error measures
 * timing fidelity, not state skew):
 *
 *  - Fetch, the L1 -> L2 -> memory + TLB latency ladder and the
 *    deadlock guard are the in-order simulator's, from the one shared
 *    component CoreShell (sim/core_shell.hh); this pipeline keeps only
 *    its own scheduling core (RS, ROB, FU ports, result buses) and
 *    resolves mispredictions at writeback.
 *  - The data side is probed at *dispatch*, in program order, and the
 *    resulting service latency applies when the access later issues.
 *    Miss classification is therefore deterministic and independent
 *    of issue order, while the latencies themselves still overlap in
 *    the window (memory-level parallelism emerges naturally, bounded
 *    by the ROB and issue queue, not by an MLP constant).
 *  - Functional units are fully pipelined issue ports: each unit
 *    accepts one new operation per cycle, which completes after its
 *    class latency and then arbitrates (oldest first) for a result
 *    bus.  No MSHR limit is modeled.
 *  - Every completion — including stores and branches — consumes one
 *    result bus slot; an instruction holds its in-flight slot until a
 *    bus is granted.
 *  - Stores never block retirement (ideal store buffer) but probe the
 *    hierarchy so cache/TLB state tracks the profiler.
 *  - Wrong-path fetch is not simulated: a mispredicted branch stalls
 *    fetch until its result bus grant, reproducing refill plus
 *    resolution delay without wrong-path pollution.
 */

#ifndef MECH_OOSIM_OOSIM_HH
#define MECH_OOSIM_OOSIM_HH

#include <cstdint>

#include "dse/design_space.hh"
#include "ooo/ooo_params.hh"
#include "sim/inorder_sim.hh"
#include "trace/trace.hh"

namespace mech {

/** Full out-of-order simulator configuration. */
struct OoOSimConfig
{
    /** Shared core/hierarchy/predictor configuration. */
    SimConfig core;

    /** Out-of-order structures (ROB, issue queue, FUs, buses). */
    OooParams ooo;
};

/** Simulation outcome with out-of-order stall diagnostics. */
struct OoOSimResult : CoreResult
{
    /** Cycles dispatch was blocked by a full reorder buffer. */
    Cycles robStallCycles = 0;

    /** Cycles dispatch was blocked by a full issue queue. */
    Cycles iqStallCycles = 0;

    /** (ready entry, cycle) pairs that lost FU-port arbitration. */
    Cycles fuStallEvents = 0;

    /** (completed op, cycle) pairs that lost result-bus arbitration. */
    Cycles busStallEvents = 0;

    /** High-water reorder-buffer occupancy. */
    std::uint32_t maxRobOccupancy = 0;

    /** High-water issue-queue occupancy. */
    std::uint32_t maxIqOccupancy = 0;
};

/**
 * Simulate @p trace on the configured out-of-order pipeline.
 *
 * Deterministic; cold caches, TLBs and predictor.  Calls fatal() on
 * a structurally invalid configuration (zero-sized ROB/issue queue,
 * missing FU class, no result buses).
 */
OoOSimResult simulateOutOfOrder(const Trace &trace,
                                const OoOSimConfig &config);

/** Complete out-of-order simulator configuration for a design point. */
OoOSimConfig oooSimConfigFor(const DesignPoint &point,
                             const LatencySpec &spec =
                                 activeLatencySpec());

} // namespace mech

#endif // MECH_OOSIM_OOSIM_HH
