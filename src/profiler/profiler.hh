/**
 * @file
 * The profiling pass: one walk over a dynamic trace collecting every
 * model input (paper Fig. 2 "profiling run").
 *
 * Program statistics (mix, dependency distances) are machine
 * independent; the same pass also runs the trace through a concrete
 * cache hierarchy and a set of branch predictors to collect the mixed
 * program-machine statistics.  Re-profiling is only needed when the
 * L1/TLB geometry changes; L2 geometry sweeps reuse the captured L2
 * stream (see sweepL2) and predictor sweeps are all collected in
 * this single pass.
 */

#ifndef MECH_PROFILER_PROFILER_HH
#define MECH_PROFILER_PROFILER_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "profiler/profile_data.hh"
#include "trace/trace.hh"

namespace mech {

/** Options for one profiling pass. */
struct ProfilerConfig
{
    /** Hierarchy to collect miss statistics for. */
    HierarchyConfig hierarchy;

    /** Predictors to train simultaneously. */
    std::vector<PredictorKind> predictors = {PredictorKind::Gshare1K,
                                             PredictorKind::Hybrid3K5};

    /** Capture the L2 input stream for later geometry sweeps. */
    bool captureL2Stream = false;

    /** Longest dependency distance recorded in the histograms. */
    std::uint64_t maxDepDistance = 63;
};

/** Run the profiling pass over @p trace. */
WorkloadProfile profileTrace(const Trace &trace,
                             const ProfilerConfig &config);

/**
 * Re-derive MemoryStats for unified L2s of @p num_sets sets of 64 B
 * blocks, one per associativity in @p assocs, from a single
 * stack-distance pass (StackDistanceSimulator) over the captured L2
 * stream of @p profile.
 *
 * Under LRU a reference hits an A-way cache exactly when its stack
 * distance lies in [1, A], so out[i] is what replaying the stream
 * into a cache of assocs[i] ways would count, load index vectors
 * included.  L1 and TLB statistics are geometry-invariant under this
 * sweep and are copied through.
 *
 * @pre profile was collected with captureL2Stream = true.
 */
std::vector<MemoryStats> sweepL2(const WorkloadProfile &profile,
                                 std::uint64_t num_sets,
                                 const std::vector<std::uint32_t> &assocs);

} // namespace mech

#endif // MECH_PROFILER_PROFILER_HH
