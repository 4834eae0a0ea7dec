#include "power/power_model.hh"

#include <algorithm>
#include <cmath>

namespace mech {

namespace {

// Calibration constants (32 nm-class, order-of-magnitude realistic).
// Absolute values scale every design point identically; the case
// study depends on the relative terms only.
constexpr double kInstrEnergyNj = 0.06;   ///< base per-instruction
constexpr double kWidthEnergySlope = 0.35; ///< per extra slot of width
constexpr double kCycleEnergyNj = 0.012;  ///< per cycle per slot-stage
constexpr double kSram32kNj = 0.10;       ///< per access, 32 KiB array
constexpr double kMemAccessNj = 4.0;      ///< off-chip access
constexpr double kStaticCoreW = 0.05;     ///< per width slot at V=1
constexpr double kStaticSramWPerMB = 0.25; ///< per MiB at V=1
constexpr double kMaxFreqGHz = 1.0;       ///< V scaling reference

/** SRAM access energy scales ~sqrt(capacity) x weak assoc term. */
double
sramAccessNj(std::uint64_t bytes, std::uint32_t assoc)
{
    double size_scale = std::sqrt(static_cast<double>(bytes) /
                                  (32.0 * 1024.0));
    double assoc_scale = std::pow(static_cast<double>(assoc) / 4.0, 0.3);
    return kSram32kNj * size_scale * assoc_scale;
}

} // namespace

PowerModel::PowerModel(const MachineParams &machine,
                       const HierarchyConfig &hier, PredictorKind pred)
{
    machine.validate();
    hz = machine.freqGHz * 1e9;
    // Lower-frequency design points run at proportionally lower
    // supply: V/Vmax = 0.6 + 0.4 f/fmax (clamped below by retention).
    double f_ratio = machine.freqGHz / kMaxFreqGHz;
    voltage = 0.6 + 0.4 * std::min(1.0, f_ratio);
    v2 = voltage * voltage; // dynamic energy scales with V^2

    // Core: per-instruction work grows with width (bypass, ports);
    // per-cycle overhead grows with width x depth (latches, clock).
    double w = machine.width;
    perInstrNj = kInstrEnergyNj * (1.0 + kWidthEnergySlope * (w - 1.0));
    perCycleNj = kCycleEnergyNj * w * static_cast<double>(machine.depth());

    // SRAM arrays.
    l1iNj = sramAccessNj(hier.l1i.sizeBytes, hier.l1i.assoc);
    l1dNj = sramAccessNj(hier.l1d.sizeBytes, hier.l1d.assoc);
    l2Nj = sramAccessNj(hier.l2.sizeBytes, hier.l2.assoc);
    predictorNj =
        sramAccessNj(std::max<std::uint64_t>(predictorBytes(pred), 64), 1);

    double sram_bytes =
        static_cast<double>(hier.l1i.sizeBytes + hier.l1d.sizeBytes +
                            hier.l2.sizeBytes + predictorBytes(pred));
    double core = kStaticCoreW * machine.width *
                  (0.7 + 0.1 * machine.depth());
    double sram = kStaticSramWPerMB * sram_bytes / (1024.0 * 1024.0);
    // Leakage scales ~V (first order).
    staticW = (core + sram) * voltage;
}

EnergyBreakdown
PowerModel::energy(const ActivityCounts &activity) const
{
    EnergyBreakdown out;
    out.coreDynamicJ = (activity.instructions * perInstrNj +
                        activity.cycles * perCycleNj) *
                       v2 * 1e-9;
    double cache_nj = activity.l1iAccesses * l1iNj +
                      activity.l1dAccesses * l1dNj +
                      activity.l2Accesses * l2Nj +
                      activity.branches * predictorNj;
    out.cacheDynamicJ = cache_nj * v2 * 1e-9;
    out.memoryDynamicJ = activity.memAccesses * kMemAccessNj * 1e-9;
    out.staticJ = staticW * seconds(activity.cycles);
    return out;
}

double
PowerModel::edp(const ActivityCounts &activity) const
{
    return energy(activity).totalJ() * seconds(activity.cycles);
}

} // namespace mech
