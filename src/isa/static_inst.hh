/**
 * @file
 * Static-instruction record used by the workload IR and the compiler
 * passes.
 *
 * A StaticInst describes one instruction slot in a basic block:
 * its op class and register operands, plus generator hints (memory
 * stream, branch behaviour) that the executor resolves into concrete
 * dynamic instances.
 */

#ifndef MECH_ISA_STATIC_INST_HH
#define MECH_ISA_STATIC_INST_HH

#include <cstdint>

#include "common/types.hh"
#include "isa/op_class.hh"

namespace mech {

/**
 * How a memory instruction walks the address space.
 *
 * The executor materializes these into concrete effective addresses;
 * the pattern determines cache behaviour (spatial streams hit, random
 * walks over big footprints miss).
 */
enum class MemPattern : std::uint8_t {
    None,       ///< not a memory instruction
    Sequential, ///< unit-stride stream over a region (walks forward)
    Strided,    ///< fixed non-unit stride over a region
    Random,     ///< uniform random within a region (pointer-ish)
    Pointer,    ///< serial random chain (each address depends on last)
};

/** One instruction slot of a basic block in the workload IR. */
struct StaticInst
{
    /**
     * Instruction address, assigned by Program::assignPcs() after the
     * IR is final (compiler passes invalidate and reassign it).
     */
    Addr pc = 0;

    /**
     * Dense id of this op's memory stream (mem ops only).  The trace
     * executor keeps per-stream cursor state indexed by this id.
     */
    std::uint32_t memStreamId = 0;

    /** Operation class. */
    OpClass op = OpClass::IntAlu;

    /** Destination register, kNoReg if none (stores, branches, nops). */
    RegIndex dst = kNoReg;

    /** First source register, kNoReg if unused. */
    RegIndex src1 = kNoReg;

    /** Second source register, kNoReg if unused. */
    RegIndex src2 = kNoReg;

    /** Memory access pattern (mem ops only). */
    MemPattern memPattern = MemPattern::None;

    /** Index of the memory region this op walks (mem ops only). */
    std::uint16_t memRegion = 0;

    /** Stride in bytes for MemPattern::Strided. */
    std::uint32_t stride = 0;

    /**
     * Branch-behaviour tag (branches only): identifies which dynamic
     * condition stream drives this branch (loop back-edge, biased
     * if-then, data-dependent, alternating...).
     */
    std::uint16_t branchStream = 0;

    /** True if this instruction writes a register. */
    bool hasDst() const { return dst != kNoReg; }
};

} // namespace mech

#endif // MECH_ISA_STATIC_INST_HH
