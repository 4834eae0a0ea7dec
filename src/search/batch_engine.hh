/**
 * @file
 * The batch-evaluation engine behind every sweep, search and served
 * request: the paper's "profile once, predict the whole space" loop.
 *
 * BatchEngine owns the studies — one DseStudy per benchmark name,
 * built on first use and shared by every later batch — and runs the
 * one evaluation fan-out: a parallelFor over the flattened (point x
 * benchmark) cells, one scratch PointEvaluation per chunk, with every
 * study's lock held shared.  Locks are taken in study creation order,
 * so concurrent batches over overlapping study sets cannot deadlock
 * against a pending writer (geometry preparation holds a study's lock
 * exclusively).  A chunk is one cell when the backend set contains a
 * detailed (trace-replaying) backend, otherwise bulkChunk(cells).
 *
 * The fan-out has two entry points: evaluateMatrix() returns raw
 * PointEvaluations (the figure/table drivers' sweep), and
 * evaluateCached() answers points through an EvalCache (the search
 * and serve layers).  Every cell writes only its own slots and every
 * reduction runs on the calling thread in a fixed order, so results
 * are bit-identical for any pool size; a zero-worker pool runs
 * everything inline on the calling thread.
 */

#ifndef MECH_SEARCH_BATCH_ENGINE_HH
#define MECH_SEARCH_BATCH_ENGINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "dse/study.hh"
#include "eval/registry.hh"
#include "search/eval_cache.hh"
#include "search/objective.hh"
#include "search/space_spec.hh"
#include "workload/profile.hh"

namespace mech {

/** All point evaluations for one benchmark, in point order. */
struct StudyResult
{
    /** Benchmark name. */
    std::string benchmark;

    /** evals[i] is the evaluation of points[i]. */
    std::vector<PointEvaluation> evals;
};

/** Cache traffic of evaluateCached() calls. */
struct SearchStats
{
    /** Point lookups requested. */
    std::uint64_t requested = 0;

    /** Lookups served from the memo or an earlier point of the same
     *  batch (zero evaluations). */
    std::uint64_t hits = 0;

    /** Fresh evaluations (the quantity a search --budget bounds). */
    std::uint64_t misses = 0;

    /** evaluateCached() calls. */
    std::uint64_t batches = 0;
};

/**
 * Why the points of @p spec cannot be evaluated through @p backends,
 * or empty when they can.  The rules mech_search, mech_serve and
 * mech_shard share:
 *
 *   - a space that sweeps out-of-order axes needs a backend that reads
 *     them (the in-order model and simulator would evaluate every
 *     swept value to the same result) — skipped when @p sweep is
 *     false: a single requested point is not a sweep, and each
 *     backend reads the axes it models;
 *   - every predictor must be one the studies profiled, when
 *     @p profiled is given (a client that only partitions the space
 *     has no study to ask).
 *
 * @param space The space as the user wrote it, quoted in the message.
 */
std::string admissionError(const SpaceSpec &spec, const std::string &space,
                           const BackendSet &backends,
                           const WorkloadProfile *profiled, bool sweep = true);

/** Studies, geometry preparation and the one evaluation fan-out. */
class BatchEngine
{
  public:
    /** One benchmark's shared study. */
    struct Study
    {
        std::unique_ptr<DseStudy> study;

        /** Creation order, for deadlock-free multi-study locking. */
        std::uint64_t seq = 0;

        /** Exclusive for prepare, shared for the fan-out. */
        std::shared_mutex rw;

        /**
         * True while the study lacks the trace it was profiled from:
         * studies() dropped it for callers whose backends never read
         * one, and regenerates it for the first caller that does.
         * Guarded by the engine's mutex.
         */
        bool traceDropped = false;
    };

    /**
     * @param trace_len Dynamic instructions per benchmark trace.
     * @param profile_dir Directory of `.mprof` artifacts to load
     *        instead of profiling (see useProfileDir); empty profiles
     *        every benchmark in-process.
     */
    explicit BatchEngine(InstCount trace_len, std::string profile_dir = {});

    BatchEngine(const BatchEngine &) = delete;
    BatchEngine &operator=(const BatchEngine &) = delete;

    /**
     * Load studies from `.mprof` artifacts under @p dir: a benchmark
     * whose artifact exists is loaded, the rest are profiled
     * in-process.  Call before the first study is built.  Artifacts
     * are produced by tools/mech_profile or DseStudy::save().
     */
    void useProfileDir(const std::string &dir);

    /**
     * The studies of @p benches, in order, building the missing ones
     * in parallel across @p pool (one benchmark per task).  Studies
     * are keyed by benchmark name and reused by every later call.
     * Thread-safe.
     *
     * A study the engine profiles keeps its trace only when a backend
     * of @p backends needsTrace(); otherwise the trace is dropped
     * right after profiling.  A later call whose backends need the
     * trace regenerates it (traces are deterministic functions of
     * the benchmark and length, so no result moves) and attaches it
     * under the study's exclusive lock.  Studies loaded from the
     * profile directory keep exactly what their artifact holds.
     */
    std::vector<Study *> studies(const std::vector<BenchmarkProfile> &benches,
                                 const BackendSet &backends,
                                 ThreadPool &pool);

    /**
     * Memoize the L2 geometries of @p points in every study of
     * @p set: one task per study whose memo lacks one, each holding
     * its study's lock exclusively.  When every memo covers the
     * geometries (checked under the shared lock) no task runs.
     */
    void prepare(const std::vector<Study *> &set,
                 const std::vector<DesignPoint> &points,
                 ThreadPool &pool) const;

    /**
     * The matrix path: build (or reuse) the studies of @p benches,
     * prepare every geometry of @p points, and evaluate every
     * benchmark at every point through @p backends.
     *
     * @return One StudyResult per benchmark, in @p benches order;
     *         each holds one PointEvaluation per point, in @p points
     *         order.  Bit-identical for any pool size.
     */
    std::vector<StudyResult>
    evaluateMatrix(const std::vector<BenchmarkProfile> &benches,
                   const std::vector<DesignPoint> &points, ThreadPool &pool,
                   const BackendSet &backends = defaultBackends());

    /**
     * The cached path: answer @p points for the studies @p set through
     * @p backends and @p objectives, memoized in @p cache.  Hits and
     * in-batch duplicates are classified on the calling thread in
     * request order; only the misses are prepared and fanned out, each
     * cell writing perBench[(b * NBE + be) * K + k].  The calling
     * thread then sums aggregate[be * K + k] in benchmark order and
     * inserts into @p cache in request order.  With one backend this
     * is the search layout; mech_serve uses any number.
     *
     * @return One SearchEval pointer per point, in request order
     *         (duplicates map to the same entry); pointers alias
     *         cache entries and live as long as the cache.
     * @param stats Accumulates this call's traffic, counted in request
     *        order on the calling thread.
     * @param was_hit When given, receives one flag per point: true when
     *        it was answered without a fresh evaluation.
     *
     * A batch where every point hits takes no study lock.
     */
    std::vector<const SearchEval *>
    evaluateCached(const std::vector<Study *> &set, const BackendSet &backends,
                   const std::vector<Objective> &objectives,
                   const std::vector<DesignPoint> &points, EvalCache &cache,
                   ThreadPool &pool, SearchStats &stats,
                   std::vector<bool> *was_hit = nullptr) const;

  private:
    InstCount traceLen;
    std::string profileDir;

    /** Guards byName; held while missing studies build. */
    std::mutex mtx;
    std::map<std::string, std::unique_ptr<Study>> byName;
};

} // namespace mech

#endif // MECH_SEARCH_BATCH_ENGINE_HH
