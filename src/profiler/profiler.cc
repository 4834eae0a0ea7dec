#include "profiler/profiler.hh"

#include <algorithm>
#include <array>
#include <limits>

#include "cache/stack_sim.hh"
#include "common/logging.hh"

namespace mech {

namespace {

/**
 * Tie-break priority of producer classes at equal dependency
 * distance: prefer the costlier hazard.  Loads rank highest (they
 * produce latest, in the memory stage), then the longer-latency
 * arithmetic classes.
 */
int
producerPriority(OpClass oc)
{
    switch (oc) {
      case OpClass::Load: return 6;
      case OpClass::IntDiv: return 5;
      case OpClass::FpDiv: return 5;
      case OpClass::IntMult: return 4;
      case OpClass::FpMult: return 4;
      case OpClass::FpAlu: return 3;
      default: return 1;
    }
}

} // namespace

WorkloadProfile
profileTrace(const Trace &trace, const ProfilerConfig &config)
{
    WorkloadProfile out;
    out.program.n = trace.size();

    CacheHierarchy hier(config.hierarchy);
    BranchProfiler branches(config.predictors);

    struct LastWrite
    {
        std::uint64_t idx = 0;
        OpClass op = OpClass::IntAlu;
        bool valid = false;
    };
    std::array<LastWrite, kNumArchRegs> last_write{};

    const std::uint64_t max_d = config.maxDepDistance;

    // The instruction mix is accumulated inside the main walk instead
    // of a separate trace.mix() pass.
    InstMix &mix = out.program.mix;

    // Same-block fast paths.  The L1I and iTLB are touched only by
    // fetches, and the L1D/dTLB only by data accesses, so an access
    // to the same block as the immediately preceding one of its kind
    // is an L1 + TLB hit by construction: the block was installed (or
    // refreshed) to MRU and nothing has touched the structure since.
    // Skipping the hierarchy call changes no counter, captures no L2
    // reference, and preserves every relative LRU order — the profile
    // is bit-identical, just cheaper.  A cache block can only span a
    // page when blocks are larger than pages, so the paths are gated
    // on that (never true for real geometries).
    const Addr ifetch_block_bytes = config.hierarchy.l1i.blockBytes;
    const Addr data_block_bytes = config.hierarchy.l1d.blockBytes;
    const bool ifetch_fast =
        ifetch_block_bytes <= config.hierarchy.itlb.pageBytes;
    const bool data_fast =
        data_block_bytes <= config.hierarchy.dtlb.pageBytes;
    Addr last_ifetch_block = ~Addr(0);
    Addr last_data_block = ~Addr(0);

    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        const DynInstr &di = trace[i];

        ++mix.counts[static_cast<std::size_t>(di.op)];

        // ---- instruction-side memory behaviour -------------------------
        const Addr fetch_block = di.pc / ifetch_block_bytes;
        if (!ifetch_fast || fetch_block != last_ifetch_block) {
            last_ifetch_block = fetch_block;
            HierAccess ifetch = hier.fetch(di.pc);
            if (ifetch.tlbMiss)
                ++out.memory.itlbMisses;
            if (ifetch.level == MemLevel::L2) {
                ++out.memory.iFetchL2Hits;
                if (config.captureL2Stream)
                    out.l2Stream.push_back({di.pc, i, L2RefKind::Ifetch});
            } else if (ifetch.level == MemLevel::Memory) {
                ++out.memory.iFetchMemory;
                if (config.captureL2Stream)
                    out.l2Stream.push_back({di.pc, i, L2RefKind::Ifetch});
            }
        }

        // ---- dependency measurement (shortest distance wins) -----------
        std::uint64_t best_d = std::numeric_limits<std::uint64_t>::max();
        OpClass best_op = OpClass::IntAlu;
        for (RegIndex src : {di.src1, di.src2}) {
            if (src == kNoReg)
                continue;
            const LastWrite &lw = last_write[src];
            if (!lw.valid)
                continue;
            std::uint64_t d = i - lw.idx;
            if (d < best_d ||
                (d == best_d &&
                 producerPriority(lw.op) > producerPriority(best_op))) {
                best_d = d;
                best_op = lw.op;
            }
        }
        if (best_d <= max_d)
            out.program.deps.of(best_op).add(best_d);

        // ---- data-side memory behaviour ---------------------------------
        if (di.op == OpClass::Load) {
            const Addr data_block = di.effAddr / data_block_bytes;
            if (data_fast && data_block == last_data_block) {
                // L1 hit by construction: nothing to record.
            } else {
                HierAccess acc = hier.data(di.effAddr, false);
                if (acc.tlbMiss)
                    ++out.memory.dtlbMisses;
                if (acc.level == MemLevel::L2) {
                    ++out.memory.loadL2Hits;
                    out.memory.loadL2HitIdx.push_back(i);
                    if (config.captureL2Stream) {
                        out.l2Stream.push_back(
                            {di.effAddr, i, L2RefKind::Load});
                    }
                } else if (acc.level == MemLevel::Memory) {
                    ++out.memory.loadMemory;
                    out.memory.loadMemoryIdx.push_back(i);
                    if (config.captureL2Stream) {
                        out.l2Stream.push_back(
                            {di.effAddr, i, L2RefKind::Load});
                    }
                }
            }
            last_data_block = data_block;
        } else if (di.op == OpClass::Store) {
            // Stores allocate but never block; TLB misses on stores are
            // absorbed by the ideal store buffer (DESIGN.md §3).
            // Stores always take the full path: they must set the
            // line's dirty state, so only the subsequent same-block
            // accesses are skippable.
            HierAccess acc = hier.data(di.effAddr, true);
            if (acc.level != MemLevel::L1) {
                ++out.memory.storeL1Misses;
                if (config.captureL2Stream) {
                    out.l2Stream.push_back(
                        {di.effAddr, i, L2RefKind::Store});
                }
            }
            last_data_block = di.effAddr / data_block_bytes;
        }

        // ---- branch behaviour -------------------------------------------
        if (isBranch(di.op)) {
            ++out.program.branches;
            if (di.taken)
                ++out.program.takenBranches;
            branches.observe(di.pc, di.taken);
        }

        // ---- producer side ------------------------------------------------
        if (di.hasDst())
            last_write[di.dst] = {i, di.op, true};
    }

    mix.total = trace.size();
    out.branchProfiles = branches.profiles();
    return out;
}

std::vector<MemoryStats>
sweepL2(const WorkloadProfile &profile, std::uint64_t num_sets,
        const std::vector<std::uint32_t> &assocs)
{
    MECH_ASSERT(!profile.l2Stream.empty() ||
                    (profile.memory.iFetchL2Hits +
                     profile.memory.iFetchMemory +
                     profile.memory.loadL2Hits + profile.memory.loadMemory +
                     profile.memory.storeL1Misses) == 0,
                "sweepL2 requires a profile captured with "
                "captureL2Stream=true");

    MemoryStats base;
    // L1/TLB statistics are unaffected by L2 geometry.
    base.itlbMisses = profile.memory.itlbMisses;
    base.dtlbMisses = profile.memory.dtlbMisses;
    base.storeL1Misses = profile.memory.storeL1Misses;
    std::vector<MemoryStats> out(assocs.size(), base);
    if (assocs.empty())
        return out;

    StackDistanceSimulator l2(num_sets, 64, std::ranges::max(assocs));
    for (const auto &ref : profile.l2Stream) {
        const std::uint64_t distance = l2.access(ref.addr);
        // Stores never block; their allocation is already applied.
        if (ref.kind == L2RefKind::Store)
            continue;
        for (std::size_t i = 0; i < assocs.size(); ++i) {
            const bool hit = distance != 0 && distance <= assocs[i];
            MemoryStats &mem = out[i];
            if (ref.kind == L2RefKind::Ifetch) {
                hit ? ++mem.iFetchL2Hits : ++mem.iFetchMemory;
            } else if (hit) {
                ++mem.loadL2Hits;
                mem.loadL2HitIdx.push_back(ref.instrIdx);
            } else {
                ++mem.loadMemory;
                mem.loadMemoryIdx.push_back(ref.instrIdx);
            }
        }
    }
    return out;
}

} // namespace mech
