/**
 * @file
 * The unified evaluation-backend API.
 *
 * Every predictor in the stack — the paper's analytical in-order
 * model, the cycle-accurate reference pipeline, the out-of-order
 * interval model — answers the same question: "how does this workload
 * perform at this design point?".  EvalBackend is that question as an
 * interface: an EvalRequest (a read-only view of a profiled workload
 * plus a DesignPoint) goes in, an EvalResult (cycles, CPI stack,
 * optional simulator detail, activity and energy) comes out.
 *
 * Backends are registered by name in a BackendRegistry (registry.hh),
 * so tools select evaluation engines with strings ("model,sim") and
 * new backends plug in without touching the DSE drivers.  Evaluations
 * must be deterministic and thread-safe: evaluate() is const and the
 * same request must produce bit-identical results on any thread.
 */

#ifndef MECH_EVAL_BACKEND_HH
#define MECH_EVAL_BACKEND_HH

#include <optional>
#include <string>
#include <string_view>

#include "dse/design_space.hh"
#include "model/cpi_stack.hh"
#include "oosim/oosim.hh"
#include "power/power_model.hh"
#include "profiler/profile_data.hh"
#include "sim/inorder_sim.hh"
#include "trace/trace.hh"

namespace mech {

/**
 * What a design point costs every backend before any benchmark is
 * read: its machine parameters and its power model.  Neither depends
 * on the benchmark, so batch drivers build them once per point and
 * share them across the point's (point, benchmark) cells.
 */
struct PointTerms
{
    /** Builds every term from @p point. */
    explicit PointTerms(const DesignPoint &point);

    /** The point the terms were built from. */
    DesignPoint point;

    /** machineFor(point). */
    MachineParams machine;

    /** The power model over the point's core, caches and predictor. */
    PowerModel power;
};

/**
 * One evaluation request: a non-owning view of the profiled workload
 * plus the design point to evaluate it at.
 *
 * The pointers must outlive the call.  @c memory must already match
 * the request's L2 geometry (DseStudy's memoization does this);
 * @c trace may be null for backends that do not replay the trace
 * (EvalBackend::needsTrace() says which ones do).
 */
struct EvalRequest
{
    /** Machine-independent program statistics. */
    const ProgramStats *program = nullptr;

    /** Miss statistics for the point's memory hierarchy. */
    const MemoryStats *memory = nullptr;

    /** Profile of the point's branch predictor. */
    const BranchProfile *branch = nullptr;

    /** Dynamic trace (null unless the backend needsTrace()). */
    const Trace *trace = nullptr;

    /**
     * The design point under evaluation (terms->point) and the terms
     * built from it.  The point carries everything a backend may
     * consume, including the out-of-order structures (point.ooo) —
     * there is no side-channel next to the point, so a point's
     * identity fully determines its results.
     */
    const PointTerms *terms = nullptr;
};

/**
 * One backend's answer for one (workload, design point) pair.
 *
 * Every backend fills cycles, instructions, activity, energy and edp;
 * model backends additionally decompose cycles into a CPI stack, and
 * the detailed simulator attaches its stall diagnostics.
 */
struct EvalResult
{
    /** Registry name of the backend that produced this result. */
    std::string backend;

    /** Predicted (or simulated) execution cycles. */
    double cycles = 0.0;

    /** Cycle breakdown by mechanism (zero for backends without one). */
    CpiStack stack;

    /** True when @c stack carries a meaningful decomposition. */
    bool hasStack = false;

    /** Dynamic instruction count the result covers. */
    InstCount instructions = 0;

    /** Detailed simulator counters (InOrderSimBackend only). */
    std::optional<SimResult> detail;

    /** Out-of-order stall diagnostics (OoOSimBackend only). */
    std::optional<OoOSimResult> oooDetail;

    /** Activity counts the energy estimate is based on. */
    ActivityCounts activity;

    /** Energy estimate for the run. */
    EnergyBreakdown energy;

    /** Energy-delay product in joule-seconds. */
    double edp = 0.0;

    /** Cycles per instruction. */
    double
    cpi() const
    {
        return instructions ? cycles / static_cast<double>(instructions)
                            : 0.0;
    }

    /** Execution time in seconds at @p freq_ghz. */
    double
    seconds(double freq_ghz) const
    {
        return cycles / (freq_ghz * 1e9);
    }
};

/**
 * An evaluation engine.
 *
 * Implementations adapt one prediction or simulation technique to the
 * common request/result contract.  They hold no per-request state:
 * evaluate() is const and safe to call concurrently from any number
 * of threads, and must be deterministic (bit-identical results for
 * identical requests).
 */
class EvalBackend
{
  public:
    virtual ~EvalBackend() = default;

    /** Registry key ("model", "sim", "ooo", ...). */
    virtual std::string_view name() const = 0;

    /** One-line description for --help and registry listings. */
    virtual std::string_view description() const = 0;

    /**
     * True when one evaluation replays the whole trace (orders of
     * magnitude slower than a closed-form model).  Batch drivers use
     * this to pick sharding granularity.
     */
    virtual bool isDetailed() const { return false; }

    /** True when requests must carry a non-null trace. */
    virtual bool needsTrace() const { return false; }

    /**
     * True when the backend evaluates an out-of-order core and
     * therefore consumes the point's OooParams.  Drives the
     * validation that rejects out-of-order design axes when no
     * selected backend would ever read them.
     */
    virtual bool usesOoo() const { return false; }

    /** Evaluate one request.  Thread-safe and deterministic. */
    virtual EvalResult evaluate(const EvalRequest &request) const = 0;
};

} // namespace mech

#endif // MECH_EVAL_BACKEND_HH
