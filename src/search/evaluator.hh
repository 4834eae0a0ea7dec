/**
 * @file
 * Batched, cache-aware design-point evaluation for search strategies.
 *
 * SearchEvaluator is the search layer's face of the BatchEngine
 * (search/batch_engine.hh): it fixes a benchmark set, one backend
 * and an objective set, and turns batches of DesignPoints into
 * SearchEvals — per-benchmark objective values plus their
 * cross-benchmark aggregate — through the engine's cached path.
 * Hits, duplicates and misses are classified and published on the
 * calling thread in request order, so stats and cache entry order
 * never depend on worker scheduling.
 *
 * The returned pointers alias cache entries and stay valid for the
 * cache's lifetime.
 */

#ifndef MECH_SEARCH_EVALUATOR_HH
#define MECH_SEARCH_EVALUATOR_HH

#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "eval/registry.hh"
#include "search/batch_engine.hh"
#include "search/eval_cache.hh"
#include "search/objective.hh"
#include "search/space_spec.hh"
#include "workload/profile.hh"

namespace mech {

/** Shared evaluation engine behind every search strategy. */
class SearchEvaluator
{
  public:
    /**
     * @param benches Benchmarks the search optimizes over.
     * @param trace_len Dynamic instructions per benchmark trace.
     * @param objectives Objective set (first = scalar objective).
     * @param backends Backend set of exactly one backend, whose
     *        result feeds the objectives (default: the analytical
     *        model).  Larger sets are rejected with fatal() — their
     *        extra results could only be discarded, and e.g. "sim"
     *        would turn the search into a silent simulation
     *        campaign.  Validate winners against other backends
     *        after the search.
     */
    SearchEvaluator(std::vector<BenchmarkProfile> benches,
                    InstCount trace_len,
                    std::vector<Objective> objectives,
                    BackendSet backends = defaultBackends());

    SearchEvaluator(const SearchEvaluator &) = delete;
    SearchEvaluator &operator=(const SearchEvaluator &) = delete;

    /**
     * Load studies from `.mprof` artifacts under @p dir when they
     * exist (see BatchEngine::useProfileDir).  Call before the first
     * prepare().
     */
    void useProfileDir(const std::string &dir);

    /**
     * Build the studies (once; parallel across @p pool) and memoize
     * every L2 geometry of @p spec.  Rejects with fatal() a spec the
     * backend cannot evaluate (see admissionError) — a clear error
     * beats a worker panic.  Idempotent and cumulative across specs.
     */
    void prepare(const SpaceSpec &spec, ThreadPool &pool);

    /**
     * Evaluate @p points through the memo.  Returns one SearchEval
     * pointer per requested point, in request order (duplicates map
     * to the same entry).  @p stats is updated deterministically.
     * @pre prepare() ran.
     */
    std::vector<const SearchEval *>
    evaluateBatch(const std::vector<DesignPoint> &points,
                  EvalCache &cache, ThreadPool &pool,
                  SearchStats &stats) const;

    /** Benchmark names, in construction order. */
    std::vector<std::string> benchmarkNames() const;

    /** The objective set. */
    const std::vector<Objective> &objectives() const { return objs; }

  private:
    std::vector<BenchmarkProfile> benches;
    std::vector<Objective> objs;
    BackendSet backends_;
    BatchEngine engine;

    /** The engine's studies of benches, set by prepare(). */
    std::vector<BatchEngine::Study *> studies;
};

} // namespace mech

#endif // MECH_SEARCH_EVALUATOR_HH
