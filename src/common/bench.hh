/**
 * @file
 * Micro-benchmark measurement primitives.
 *
 * The paper's selling point is throughput — the model evaluates a
 * design point orders of magnitude faster than detailed simulation —
 * so the repo measures it like any other invariant.  This header
 * holds the timing core every benchmark driver shares: a monotonic
 * timer, optimizer barriers, and measure(), which runs a callable
 * with warmup, adaptive iteration-count calibration and min-of-N
 * repetition selection.
 *
 * Minimum-of-N is the standard noise model for micro-benchmarks:
 * timing noise on a quiet machine is strictly additive (preemption,
 * cache pollution, frequency ramps), so the minimum over repetitions
 * is the best estimator of the true cost.  The higher layers
 * (bench/harness.hh) turn Measurements into schema-versioned JSON
 * artifacts; this header stays dependency-free so the library, tests
 * and every driver can use it.
 */

#ifndef MECH_COMMON_BENCH_HH
#define MECH_COMMON_BENCH_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace mech::bench {

/** Seconds on a monotonic clock (for intervals, not wall time). */
inline double
monotonicSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Optimizer barrier: force @p value to be materialized.
 *
 * Mirrors the classic DoNotOptimize idiom so a benchmark body whose
 * result is otherwise dead cannot be deleted by the compiler.
 */
template <typename T>
inline void
doNotOptimize(const T &value)
{
#if defined(__GNUC__) || defined(__clang__)
    asm volatile("" : : "r,m"(value) : "memory");
#else
    static volatile const T *sink;
    sink = &value;
#endif
}

/** Controls for one measure() call. */
struct MeasureOptions
{
    /** Timed repetitions; the minimum is reported. */
    unsigned repetitions = 5;

    /** Untimed warmup invocations before calibration. */
    unsigned warmupIters = 1;

    /**
     * Target duration of one repetition.  The iteration count per
     * repetition is scaled up until a repetition takes at least this
     * long, so short-running bodies still get a quantization-free
     * timing base.
     */
    double minSeconds = 0.05;

    /** Iteration-count bounds for the calibration loop. */
    std::uint64_t minIters = 1;
    std::uint64_t maxIters = std::uint64_t(1) << 30;
};

/** Result of one measure() call. */
struct Measurement
{
    /** Seconds per iteration of the best (minimum) repetition. */
    double secondsPerIter = 0.0;

    /** Iterations timed per repetition. */
    std::uint64_t itersPerRep = 0;

    /** Seconds per iteration of every repetition, in run order. */
    std::vector<double> repSecondsPerIter;

    /**
     * Throughput in items/second given @p items_per_iter work items
     * per iteration (instructions, accesses, evaluations, ...).
     */
    double
    rate(double items_per_iter) const
    {
        return secondsPerIter > 0.0 ? items_per_iter / secondsPerIter
                                    : 0.0;
    }
};

/**
 * Measure @p fn: warmup, calibrate an iteration count so one
 * repetition lasts at least opts.minSeconds, then time
 * opts.repetitions repetitions and report the minimum.
 *
 * @p fn is a nullary callable; it must keep its own results alive
 * through doNotOptimize() if they would otherwise be dead.
 */
template <typename F>
Measurement
measure(F &&fn, const MeasureOptions &opts = {})
{
    MECH_ASSERT(opts.repetitions >= 1, "need at least one repetition");
    MECH_ASSERT(opts.minIters >= 1 && opts.minIters <= opts.maxIters,
                "bad iteration bounds");

    for (unsigned i = 0; i < opts.warmupIters; ++i)
        fn();

    auto timeIters = [&](std::uint64_t iters) {
        double t0 = monotonicSeconds();
        for (std::uint64_t i = 0; i < iters; ++i)
            fn();
        return monotonicSeconds() - t0;
    };

    // Calibrate: grow the per-repetition iteration count until one
    // repetition meets the time floor.  Growth is geometric but
    // informed by the observed rate, so calibration converges in a
    // few probes even for nanosecond-scale bodies.
    std::uint64_t iters = opts.minIters;
    double elapsed = timeIters(iters);
    while (elapsed < opts.minSeconds && iters < opts.maxIters) {
        std::uint64_t next;
        if (elapsed <= 0.0) {
            next = iters * 16;
        } else {
            double scale = 1.2 * opts.minSeconds / elapsed;
            next = static_cast<std::uint64_t>(
                static_cast<double>(iters) * scale) + 1;
            if (next < iters * 2)
                next = iters * 2;
        }
        iters = next < opts.maxIters ? next : opts.maxIters;
        elapsed = timeIters(iters);
    }

    Measurement m;
    m.itersPerRep = iters;
    m.repSecondsPerIter.reserve(opts.repetitions);
    // The calibration run already timed `iters` iterations; count it
    // as the first repetition instead of discarding the work.
    m.repSecondsPerIter.push_back(elapsed /
                                  static_cast<double>(iters));
    for (unsigned r = 1; r < opts.repetitions; ++r) {
        m.repSecondsPerIter.push_back(timeIters(iters) /
                                      static_cast<double>(iters));
    }
    m.secondsPerIter = m.repSecondsPerIter.front();
    for (double s : m.repSecondsPerIter) {
        if (s < m.secondsPerIter)
            m.secondsPerIter = s;
    }
    return m;
}

} // namespace mech::bench

#endif // MECH_COMMON_BENCH_HH
