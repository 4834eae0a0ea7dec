#include "characterize/characterize.hh"

#include <algorithm>
#include <cmath>

#include "characterize/kernels.hh"
#include "common/logging.hh"
#include "eval/registry.hh"
#include "profiler/profiler.hh"

namespace mech {

namespace {

/** One named kernel of the measurement battery. */
struct NamedKernel
{
    std::string name;
    Trace trace;
};

/** The full battery for one config (deterministic order and names). */
std::vector<NamedKernel>
buildBattery(const CharacterizeConfig &cfg)
{
    std::vector<NamedKernel> battery;
    auto add = [&battery](std::string name, Trace trace) {
        battery.push_back({std::move(name), std::move(trace)});
    };
    auto addPair = [&](const std::string &stem, auto make) {
        add(stem + "/a", make(cfg.lenA));
        add(stem + "/b", make(cfg.lenB));
    };

    // Pipeline fill: one instruction's total latency.
    add("single", streamKernel(OpClass::IntAlu, 1));

    // Issue throughput of every class.
    for (OpClass oc : kAllOpClasses) {
        addPair("stream/" + std::string(opClassName(oc)),
                [oc](std::size_t n) { return streamKernel(oc, n); });
    }

    // Effective latency of the value-producing execute classes.
    for (OpClass oc : kAllOpClasses) {
        if (oc != OpClass::IntAlu && !isLongLatencyClass(oc))
            continue;
        addPair("chain/" + std::string(opClassName(oc)),
                [oc](std::size_t n) { return chainKernel(oc, n); });
    }

    // The memory ladder, independent (in-order memory-stage
    // occupancy) and chained (out-of-order load-to-use latency).
    const struct
    {
        const char *name;
        LoadPattern pattern;
    } ladder[] = {
        {"l1", LoadPattern::L1Hit},
        {"l2", LoadPattern::L2Hit},
        {"mem", LoadPattern::Memory},
        {"page", LoadPattern::FreshPage},
    };
    for (const auto &rung : ladder) {
        if (rung.pattern != LoadPattern::L1Hit) {
            // L1Hit is already covered by stream/Load.
            addPair(std::string("loadstream/") + rung.name,
                    [&rung](std::size_t n) {
                        return loadStreamKernel(rung.pattern, n);
                    });
        }
        addPair(std::string("loadchain/") + rung.name,
                [&rung](std::size_t n) {
                    return loadChainKernel(rung.pattern, n);
                });
    }

    // Mixed-class streams: per-class pressure below every FU cap, so
    // the sustained IPC is the core's effective width.
    const std::vector<OpClass> mix_albr = {OpClass::IntAlu,
                                           OpClass::IntAlu,
                                           OpClass::Load,
                                           OpClass::Branch};
    const std::vector<OpClass> mix_amlb = {OpClass::IntAlu,
                                           OpClass::IntMult,
                                           OpClass::Load,
                                           OpClass::Branch};
    addPair("mix/albr", [&mix_albr](std::size_t n) {
        return mixKernel(mix_albr, n);
    });
    addPair("mix/amlb", [&mix_amlb](std::size_t n) {
        return mixKernel(mix_amlb, n);
    });

    return battery;
}

/** Measurement lookup keyed by kernel name (battery-sized, linear). */
class Measurements
{
  public:
    explicit Measurements(const std::vector<KernelMeasurement> &ms)
        : ms(ms)
    {
    }

    double
    cyclesOf(const std::string &name) const
    {
        for (const KernelMeasurement &m : ms) {
            if (m.kernel == name)
                return m.cycles;
        }
        panic("characterize: no measurement named '", name, "'");
    }

    /** Cycles-per-instruction slope between the two lengths. */
    double
    slopeOf(const std::string &stem, std::size_t len_a,
            std::size_t len_b) const
    {
        return (cyclesOf(stem + "/b") - cyclesOf(stem + "/a")) /
               static_cast<double>(len_b - len_a);
    }

  private:
    const std::vector<KernelMeasurement> &ms;
};

/**
 * An occupancy read off an independent-stream slope: a one-cycle
 * stage pipelines at 1/width (slope <= 1), anything slower
 * serializes at its occupancy.
 */
Cycles
occupancyOf(double slope)
{
    if (slope < 1.5)
        return 1;
    return static_cast<Cycles>(std::lround(slope));
}

Cycles
latencyOf(double slope)
{
    return std::max<Cycles>(1,
                            static_cast<Cycles>(std::lround(slope)));
}

/**
 * Resolve the upper memory ladder shared by both pipelines: given
 * the L2-hit occupancy and the fresh-line / fresh-page slopes
 * (l2 + mem + tlb/64 and l2 + mem + tlb), separate the memory and
 * TLB penalties.
 */
void
solveMemoryLadder(MachineParams &m, double slope_mem,
                  double slope_page)
{
    const double tlb = (slope_page - slope_mem) * 64.0 / 63.0;
    m.tlbMissCycles =
        std::max<Cycles>(1, static_cast<Cycles>(std::lround(tlb)));
    const auto total =
        static_cast<Cycles>(std::lround(slope_page));
    m.memCycles = std::max<Cycles>(
        1, total - m.l2HitCycles - m.tlbMissCycles);
}

/**
 * Front-end depth from the single-instruction kernel: the lone
 * instruction retires at frontendDepth + 3, plus its unavoidable
 * cold I-side penalty — one L1I miss to memory and one ITLB miss,
 * exactly the ladder just inferred.  Runs after solveMemoryLadder.
 */
void
solveFrontEndDepth(MachineParams &m, double single_cycles)
{
    const double cold = static_cast<double>(
        m.l2HitCycles + m.memCycles + m.tlbMissCycles);
    m.frontendDepth = static_cast<std::uint32_t>(
        std::max<long>(2, std::lround(single_cycles - cold) - 3));
}

/** In-order inference: stream slopes carry the stage occupancies. */
MachineParams
inferInOrder(const Measurements &ms, const CharacterizeConfig &cfg)
{
    const auto slope = [&](const std::string &stem) {
        return ms.slopeOf(stem, cfg.lenA, cfg.lenB);
    };

    MachineParams m;
    const double ipc = 1.0 / slope("stream/IntAlu");
    m.width = static_cast<std::uint32_t>(
        std::clamp<long>(std::lround(ipc), 1, 16));
    m.latIntMult = latencyOf(slope("chain/IntMult"));
    m.latIntDiv = latencyOf(slope("chain/IntDiv"));
    m.latFpAlu = latencyOf(slope("chain/FpAlu"));
    m.latFpMult = latencyOf(slope("chain/FpMult"));
    m.latFpDiv = latencyOf(slope("chain/FpDiv"));
    m.dl1HitCycles = occupancyOf(slope("stream/Load"));
    m.l2HitCycles = occupancyOf(slope("loadstream/l2"));
    solveMemoryLadder(m, slope("loadstream/mem"),
                      slope("loadstream/page"));
    solveFrontEndDepth(m, ms.cyclesOf("single"));
    m.freqGHz = cfg.point.freqGHz;
    return m;
}

/** Out-of-order inference: chains carry latencies, mixes the width. */
MachineParams
inferOutOfOrder(const Measurements &ms, const CharacterizeConfig &cfg)
{
    const auto slope = [&](const std::string &stem) {
        return ms.slopeOf(stem, cfg.lenA, cfg.lenB);
    };

    MachineParams m;
    const double ipc = std::max(1.0 / slope("mix/albr"),
                                1.0 / slope("mix/amlb"));
    m.width = static_cast<std::uint32_t>(
        std::clamp<long>(std::lround(ipc), 1, 16));
    m.latIntMult = latencyOf(slope("chain/IntMult"));
    m.latIntDiv = latencyOf(slope("chain/IntDiv"));
    m.latFpAlu = latencyOf(slope("chain/FpAlu"));
    m.latFpMult = latencyOf(slope("chain/FpMult"));
    m.latFpDiv = latencyOf(slope("chain/FpDiv"));
    m.dl1HitCycles = latencyOf(slope("loadchain/l1"));
    m.l2HitCycles = latencyOf(slope("loadchain/l2"));
    solveMemoryLadder(m, slope("loadchain/mem"),
                      slope("loadchain/page"));
    solveFrontEndDepth(m, ms.cyclesOf("single"));
    m.freqGHz = cfg.point.freqGHz;
    return m;
}

} // namespace

CharacterizeResult
characterize(const CharacterizeConfig &cfg, ThreadPool &pool)
{
    const bool in_order = cfg.backend == kSimBackend;
    if (!in_order && cfg.backend != kOoOSimBackend) {
        fatal("characterize: backend must be '", kSimBackend, "' or '",
              kOoOSimBackend, "' (got '", cfg.backend, "')");
    }
    MECH_ASSERT(cfg.lenB > cfg.lenA && cfg.lenA >= 2048,
                "kernel lengths must satisfy 2048 <= lenA < lenB");
    const EvalBackend &backend =
        BackendRegistry::global().at(cfg.backend);

    const std::vector<NamedKernel> battery = buildBattery(cfg);

    CharacterizeResult result;
    result.measurements.resize(battery.size());

    // One kernel per parallelFor index: each measurement profiles its
    // trace against the point's hierarchy and replays it through the
    // backend, writing only its own preassigned slot.
    ProfilerConfig profiler_config;
    profiler_config.hierarchy = hierarchyFor(cfg.point);
    const PointTerms terms(cfg.point);
    pool.parallelFor(
        battery.size(), 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const NamedKernel &kernel = battery[i];
                WorkloadProfile profile =
                    profileTrace(kernel.trace, profiler_config);
                EvalRequest req;
                req.program = &profile.program;
                req.memory = &profile.memory;
                req.branch =
                    &profile.branchProfileFor(cfg.point.predictor);
                req.trace = &kernel.trace;
                req.terms = &terms;
                const EvalResult res = backend.evaluate(req);
                result.measurements[i] = {kernel.name,
                                          kernel.trace.size(),
                                          res.cycles};
            }
        });

    const Measurements ms(result.measurements);
    MachineDescription &desc = result.description;
    desc.machine = in_order ? inferInOrder(ms, cfg)
                            : inferOutOfOrder(ms, cfg);
    desc.sourceBackend = cfg.backend;
    desc.sourcePoint = cfg.point.toKey();
    desc.hasThroughput = true;
    for (OpClass oc : kAllOpClasses) {
        const double s = ms.slopeOf(
            "stream/" + std::string(opClassName(oc)), cfg.lenA,
            cfg.lenB);
        desc.throughput[static_cast<std::size_t>(oc)] = 1.0 / s;
    }
    return result;
}

double
expectedOooStreamIpc(OpClass oc, const MachineParams &machine,
                     const OooParams &ooo)
{
    std::uint32_t fu = ooo.fuAlu;
    if (isMem(oc))
        fu = ooo.fuMem;
    else if (isBranch(oc))
        fu = ooo.fuBr;
    else if (isLongLatencyClass(oc))
        fu = ooo.fuMul;
    return static_cast<double>(
        std::min({machine.width, fu, ooo.resultBuses}));
}

} // namespace mech
