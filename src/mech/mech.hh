/**
 * @file
 * Umbrella header: the full public API of mechsim.
 *
 * Typical flow (see examples/quickstart.cpp):
 *   1. pick a BenchmarkProfile (workload/suites.hh) or build your own;
 *   2. DseStudy profiles it once (or DseStudy::load() reuses a saved
 *      .mprof artifact — see profiler/profile_io.hh);
 *   3. evaluate() any design point with a registry-selected backend
 *      set: "model" for an instant prediction + CPI stack, "sim" for
 *      the cycle-accurate reference, "ooo" for the out-of-order
 *      interval model, "oosim" for the cycle-accurate out-of-order
 *      pipeline that validates it (eval/backend.hh, docs/api.md);
 *   4. or drop to the closed-form entry points directly:
 *      profileTrace() + evaluateInOrder() / simulateInOrder().
 */

#ifndef MECH_MECH_HH
#define MECH_MECH_HH

#include "branch/predictor.hh"
#include "branch/profiler.hh"
#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/stack_sim.hh"
#include "cache/tlb.hh"
#include "characterize/characterize.hh"
#include "characterize/kernels.hh"
#include "characterize/mdesc.hh"
#include "common/bench.hh"
#include "common/cli.hh"
#include "common/file_util.hh"
#include "common/histogram.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/numfmt.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/types.hh"
#include "compiler/passes.hh"
#include "dse/design_space.hh"
#include "dse/study.hh"
#include "eval/backend.hh"
#include "eval/registry.hh"
#include "isa/machine_params.hh"
#include "isa/op_class.hh"
#include "isa/static_inst.hh"
#include "model/cpi_stack.hh"
#include "model/inorder_model.hh"
#include "obs/metrics.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "ooo/ooo_model.hh"
#include "ooo/ooo_params.hh"
#include "oosim/oosim.hh"
#include "power/power_model.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "search/batch_engine.hh"
#include "search/cache_io.hh"
#include "search/eval_cache.hh"
#include "search/evaluator.hh"
#include "search/objective.hh"
#include "search/pareto.hh"
#include "search/report.hh"
#include "search/space_spec.hh"
#include "search/strategy.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/session.hh"
#include "serve/shard.hh"
#include "sim/inorder_sim.hh"
#include "trace/trace.hh"
#include "workload/builder.hh"
#include "workload/executor.hh"
#include "workload/profile.hh"
#include "workload/program.hh"
#include "workload/suites.hh"

#endif // MECH_MECH_HH
