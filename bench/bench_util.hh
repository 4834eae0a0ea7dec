/**
 * @file
 * Shared helpers for the figure/table regeneration benches.
 *
 * Every bench takes the same standard options (--instructions,
 * --threads, --profile-dir) parsed through the shared cli::ArgParser,
 * with MECH_TRACE_LEN / MECH_THREADS environment fallbacks so suite
 * runs can be resized without editing command lines.
 */

#ifndef MECH_BENCH_BENCH_UTIL_HH
#define MECH_BENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>

#include "harness.hh"
#include "mech/mech.hh"

namespace mech::bench {

/** Standard options shared by every bench. */
struct Args
{
    /** Dynamic instructions per benchmark trace. */
    InstCount instructions = 0;

    /** Worker threads for batched sweeps. */
    unsigned threads = 0;

    /** Directory of .mprof artifacts ("" = profile in-process). */
    std::string profileDir;

    /** Path for the machine-readable JSON artifact ("" = none). */
    std::string jsonPath;

    /** Loaded `.mdesc` machine description ("" = built-in params). */
    std::string mdescPath;
};

/**
 * Parse the standard bench options.
 *
 * Defaults: @p fallback_instructions (or MECH_TRACE_LEN), every
 * hardware thread (or MECH_THREADS).  Benches default to
 * container-friendly lengths; raise for tighter statistics.  Exits
 * with a usage string on --help or bad arguments.
 *
 * Only advertise what the bench consumes: @p with_threads /
 * @p with_profile_dir drop those options from the parser so a
 * serial or artifact-incompatible bench rejects them loudly instead
 * of accepting and silently ignoring them.  A driver with options of
 * its own registers them through @p extra_options rather than
 * re-implementing this env/default/sanitize pipeline.
 */
inline Args
parseArgs(int argc, char **argv, const std::string &prog,
          const std::string &description,
          InstCount fallback_instructions, bool with_threads = true,
          bool with_profile_dir = true,
          const std::function<void(cli::ArgParser &)> &extra_options = {})
{
    Args args;
    args.instructions = fallback_instructions;
    if (const char *env = std::getenv("MECH_TRACE_LEN"))
        args.instructions = std::strtoull(env, nullptr, 10);
    args.threads = ThreadPool::defaultWorkerCount();
    if (const char *env = std::getenv("MECH_THREADS")) {
        args.threads = ThreadPool::sanitizeWorkerCount(
            std::strtoll(env, nullptr, 10));
    }

    cli::ArgParser parser(prog, description);
    parser.add("instructions", "N",
               "dynamic instructions per benchmark trace",
               &args.instructions);
    if (with_threads) {
        parser.add("threads", "N",
                   "worker threads for batched sweeps (0 = all "
                   "hardware threads)",
                   &args.threads);
    }
    if (with_profile_dir) {
        parser.add("profile-dir", "dir",
                   "load .mprof artifacts from this directory instead "
                   "of re-profiling (see tools/mech_profile)",
                   &args.profileDir);
    }
    parser.add("json", "path",
               "also write the run's headline numbers as a "
               "schema-versioned JSON artifact (docs/benchmarking.md)",
               &args.jsonPath);
    parser.add("mdesc", "file",
               "run on a characterized .mdesc machine description "
               "instead of the built-in Table 1 parameters (see "
               "tools/mech_characterize)",
               &args.mdescPath);
    if (extra_options)
        extra_options(parser);
    parser.parse(argc, argv);
    args.threads = ThreadPool::sanitizeWorkerCount(
        static_cast<long long>(args.threads));
    if (!args.mdescPath.empty())
        applyMachineDescription(args.mdescPath);
    return args;
}

/**
 * Build a study for @p bench: loaded from its artifact when
 * --profile-dir supplies one, otherwise profiled in-process.
 */
inline DseStudy
makeStudy(const BenchmarkProfile &bench, const Args &args)
{
    return DseStudy::loadOrProfile(args.profileDir, bench,
                                   args.instructions);
}

/**
 * Write @p report to args.jsonPath when --json was given.
 *
 * Every figure/table driver calls this last, so each reproduction
 * doubles as a machine-readable artifact producer on demand.
 */
inline void
maybeWriteReport(const Args &args, const BenchReport &report)
{
    if (args.jsonPath.empty())
        return;
    try {
        saveReport(report, args.jsonPath);
        std::cout << "\nwrote " << args.jsonPath << "\n";
    } catch (const BenchIoError &e) {
        fatal(e.what());
    }
}

/** Paper-style coarse stack groups used by Figs. 4 and 8. */
struct CoarseStack
{
    double base = 0, muldiv = 0, l2access = 0, l2miss = 0, tlb = 0,
           bpredMiss = 0, bpredTaken = 0, deps = 0, ifetch = 0;

    double
    total() const
    {
        return base + muldiv + l2access + l2miss + tlb + bpredMiss +
               bpredTaken + deps + ifetch;
    }
};

/** Regroup a fine-grained model stack into the paper's categories. */
inline CoarseStack
coarsen(const CpiStack &stack)
{
    CoarseStack c;
    c.base = stack[CpiComponent::Base];
    c.muldiv =
        stack[CpiComponent::LongLat] + stack[CpiComponent::L1DAccess];
    c.l2access = stack[CpiComponent::L2Access];
    c.l2miss = stack[CpiComponent::L2Miss];
    c.tlb = stack.tlb();
    c.bpredMiss = stack[CpiComponent::BpredMiss];
    c.bpredTaken = stack[CpiComponent::BpredTakenHit];
    c.deps = stack.dependencies();
    c.ifetch = stack.ifetch();
    return c;
}

} // namespace mech::bench

#endif // MECH_BENCH_BENCH_UTIL_HH
