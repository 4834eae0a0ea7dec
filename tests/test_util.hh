/**
 * @file
 * Shared helpers for mechsim tests: hand-built micro-traces and
 * idealized simulator configurations that isolate one mechanism at a
 * time.
 */

#ifndef MECH_TESTS_TEST_UTIL_HH
#define MECH_TESTS_TEST_UTIL_HH

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "mech/mech.hh"

namespace mech::test {

/** Path of the first non-finite number under @p v, or empty. */
inline std::string
nonFiniteNumberPath(const json::Value &v, const std::string &at = "$")
{
    if (v.isNumber())
        return std::isfinite(v.number) ? "" : at;
    for (std::size_t i = 0; i < v.array.size(); ++i) {
        std::string bad =
            nonFiniteNumberPath(v.array[i], at + "[" + std::to_string(i) + "]");
        if (!bad.empty())
            return bad;
    }
    for (const auto &[key, member] : v.object) {
        std::string bad = nonFiniteNumberPath(member, at + "." + key);
        if (!bad.empty())
            return bad;
    }
    return "";
}

/**
 * Why @p text is not one JSON value whose every number is finite, or
 * empty when it is.  The oracle for every line a response, report or
 * gather writes: a client must be able to parse it, and "inf" or
 * "nan" is not JSON.
 */
inline std::string
finiteJsonError(const std::string &text)
{
    std::string error;
    const std::optional<json::Value> v = json::parse(text, &error);
    if (!v)
        return "not JSON (" + error + ")";
    const std::string bad = nonFiniteNumberPath(*v);
    return bad.empty() ? "" : "non-finite number at " + bad;
}

/** Registers 0..7 are never written in micro-traces (always ready). */
inline constexpr RegIndex kLiveIn = 0;

/** Simulator configuration with perfect memory and no predictor noise. */
inline SimConfig
idealSim(std::uint32_t width = 4, std::uint32_t frontend_depth = 2)
{
    SimConfig cfg;
    cfg.machine.width = width;
    cfg.machine.frontendDepth = frontend_depth;
    cfg.perfectICache = true;
    cfg.perfectDCache = true;
    cfg.perfectTlbs = true;
    return cfg;
}

/**
 * Cycles an N-instruction hazard-free trace takes on an idealized
 * pipeline: ceil(N/W) issue groups plus pipeline fill (D front-end
 * stages + execute + memory) plus the final loop increment.
 */
inline Cycles
idealCycles(InstCount n, std::uint32_t width, std::uint32_t depth)
{
    return (n + width - 1) / width + depth + 2;
}

/** Builder for hand-crafted micro-traces. */
class TraceBuilder
{
  public:
    /** Append a unit-latency ALU op. */
    TraceBuilder &
    alu(RegIndex dst, RegIndex src1 = kLiveIn, RegIndex src2 = kNoReg)
    {
        DynInstr di;
        di.pc = nextPc();
        di.op = OpClass::IntAlu;
        di.dst = dst;
        di.src1 = src1;
        di.src2 = src2;
        tr.push(di);
        return *this;
    }

    /** Append an op of a specific class. */
    TraceBuilder &
    op(OpClass oc, RegIndex dst, RegIndex src1 = kLiveIn,
       RegIndex src2 = kNoReg)
    {
        DynInstr di;
        di.pc = nextPc();
        di.op = oc;
        di.dst = dst;
        di.src1 = src1;
        di.src2 = src2;
        tr.push(di);
        return *this;
    }

    /** Append a load from @p addr. */
    TraceBuilder &
    load(RegIndex dst, Addr addr, RegIndex addr_reg = kLiveIn)
    {
        DynInstr di;
        di.pc = nextPc();
        di.op = OpClass::Load;
        di.dst = dst;
        di.src1 = addr_reg;
        di.effAddr = addr;
        tr.push(di);
        return *this;
    }

    /** Append a store to @p addr. */
    TraceBuilder &
    store(Addr addr, RegIndex data_reg = kLiveIn)
    {
        DynInstr di;
        di.pc = nextPc();
        di.op = OpClass::Store;
        di.src1 = data_reg;
        di.effAddr = addr;
        tr.push(di);
        return *this;
    }

    /** Append a branch with the given outcome. */
    TraceBuilder &
    branch(bool taken, Addr target = 0x9000, RegIndex src = kLiveIn)
    {
        DynInstr di;
        di.pc = nextPc();
        di.op = OpClass::Branch;
        di.src1 = src;
        di.taken = taken;
        di.targetPc = taken ? target : 0;
        tr.push(di);
        return *this;
    }

    /** Append @p n independent ALU filler ops. */
    TraceBuilder &
    filler(int n)
    {
        for (int i = 0; i < n; ++i)
            alu(static_cast<RegIndex>(8 + (fillerReg++ % 20)));
        return *this;
    }

    /** Finish and return the trace. */
    Trace build() { return std::move(tr); }

  private:
    Addr
    nextPc()
    {
        Addr p = pc;
        pc += kInstBytes;
        return p;
    }

    Trace tr;
    Addr pc = 0x1000;
    int fillerReg = 0;
};

} // namespace mech::test

#endif // MECH_TESTS_TEST_UTIL_HH
