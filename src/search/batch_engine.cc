#include "search/batch_engine.hh"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "workload/executor.hh"

namespace mech {

std::string
admissionError(const SpaceSpec &spec, const std::string &space,
               const BackendSet &backends,
               const WorkloadProfile *profiled, bool sweep)
{
    if (sweep && spec.hasOooAxes() &&
        std::none_of(backends.begin(), backends.end(),
                     [](const EvalBackend *b) { return b->usesOoo(); })) {
        return "space '" + space +
               "' sweeps out-of-order axes (rob/iq/fu*/buses) but "
               "backend '" +
               std::string(backends[0]->name()) +
               "' ignores them; use an out-of-order backend "
               "(ooo, oosim)";
    }
    if (!profiled)
        return {};
    // A predictor outside the profiled set would panic() deep inside
    // a worker; report it as a configuration error instead.
    for (PredictorKind kind : spec.predictor) {
        const auto &trained = profiled->branchProfiles;
        if (std::none_of(trained.begin(), trained.end(),
                         [kind](const auto &bp) { return bp.kind == kind; })) {
            return "predictor '" + std::string(predictorKey(kind)) +
                   "' is outside the profiled design space "
                   "(profiled: gshare1k, hybrid3k5)";
        }
    }
    return {};
}

namespace {

/**
 * The one fan-out: @p cell(i, b, terms, scratch) for every (point i,
 * benchmark b) pair, point-major, across @p pool — so a lone point
 * still spreads its benchmarks over the pool.  A chunk builds each of
 * its points' PointTerms once and hands them to every benchmark at
 * that point, and adds its cell count once to the evaluation counter
 * of each model-speed backend (detailed backends count their own
 * calls).  Every study's lock is held shared for the whole fan-out,
 * once each (a set may name a benchmark twice), in ascending seq
 * order.
 */
template <typename Cell>
void
fanOut(const std::vector<BatchEngine::Study *> &set,
       const std::vector<DesignPoint> &points, const BackendSet &backends,
       ThreadPool &pool, Cell &&cell)
{
    std::vector<BatchEngine::Study *> locked = set;
    std::sort(locked.begin(), locked.end(),
              [](const auto *a, const auto *b) { return a->seq < b->seq; });
    locked.erase(std::unique(locked.begin(), locked.end()), locked.end());
    std::vector<std::shared_lock<std::shared_mutex>> guards;
    guards.reserve(locked.size());
    for (BatchEngine::Study *s : locked)
        guards.emplace_back(s->rw);

    std::vector<obs::Counter *> counted;
    for (const EvalBackend *b : backends) {
        if (!b->isDetailed())
            counted.push_back(&backendEvalCounter(b->name()));
    }

    // A model evaluation is microseconds, so model-speed cells go in
    // ~8 chunks per pool participant; a detailed backend replays the
    // trace per point and shards per cell.
    const bool detailed = counted.size() < backends.size();
    const std::size_t nbench = set.size();
    const std::size_t cells = points.size() * nbench;
    const std::size_t chunk = detailed ? 1 : pool.bulkChunk(cells);
    pool.parallelFor(cells, chunk, [&](std::size_t begin, std::size_t end) {
        std::optional<PointTerms> terms;
        PointEvaluation scratch;
        for (std::size_t c = begin; c < end; ++c) {
            // Point-major cells: a new point starts every nbench.
            if (c == begin || c % nbench == 0)
                terms.emplace(points[c / nbench]);
            cell(c / nbench, c % nbench, *terms, scratch);
        }
        for (obs::Counter *evals : counted)
            evals->inc(end - begin);
    });
}

/**
 * The process-wide `evalcache.*` counters, cumulative over every
 * cache.  evaluateCached() adds each batch's SearchStats once, so
 * they equal the summed stats of every batch.
 */
struct CacheCounters
{
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &inserts;
};

CacheCounters &
cacheCounters()
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    static CacheCounters c{
        reg.counter("evalcache.hits",
                    "EvalCache lookups answered from the memo or an "
                    "earlier point of the same batch"),
        reg.counter("evalcache.misses", "EvalCache lookups that missed"),
        reg.counter("evalcache.inserts",
                    "Fresh evaluations published into an EvalCache")};
    return c;
}

} // namespace

BatchEngine::BatchEngine(InstCount trace_len, std::string profile_dir)
    : traceLen(trace_len), profileDir(std::move(profile_dir))
{
    // Register the cache series up front, so a scrape lists them
    // before the first batch.
    cacheCounters();
}

void
BatchEngine::useProfileDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mtx);
    MECH_ASSERT(byName.empty(), "useProfileDir must precede the first study");
    profileDir = dir;
}

std::vector<BatchEngine::Study *>
BatchEngine::studies(const std::vector<BenchmarkProfile> &benches,
                     const BackendSet &backends, ThreadPool &pool)
{
    const bool needs_trace =
        std::any_of(backends.begin(), backends.end(),
                    [](const EvalBackend *b) { return b->needsTrace(); });

    // The lock covers lookup and building: a concurrent caller naming
    // a benchmark being profiled waits for it instead of profiling it
    // a second time.
    std::lock_guard<std::mutex> lock(mtx);
    std::vector<const BenchmarkProfile *> missing;
    std::vector<std::pair<const BenchmarkProfile *, Study *>> retrace;
    for (const BenchmarkProfile &bench : benches) {
        auto it = byName.find(bench.name);
        if (it == byName.end()) {
            if (std::none_of(missing.begin(), missing.end(),
                             [&](const BenchmarkProfile *m) {
                                 return m->name == bench.name;
                             })) {
                missing.push_back(&bench);
            }
        } else if (needs_trace && it->second->traceDropped) {
            // Cleared now, so a benchmark named twice regenerates once.
            it->second->traceDropped = false;
            retrace.emplace_back(&bench, it->second.get());
        }
    }
    // Profiling is the expensive part of a cold benchmark: one task
    // each, and one per trace to regenerate.  parallelFor retires
    // every task before it rethrows, so no task outlives the locals
    // it references.
    std::vector<std::unique_ptr<DseStudy>> built(missing.size());
    std::vector<char> dropped(missing.size(), 0);
    pool.parallelFor(
        missing.size() + retrace.size(), 1,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t t = begin; t < end; ++t) {
                if (t >= missing.size()) {
                    const auto &[bench, study] = retrace[t - missing.size()];
                    Trace trace = generateTrace(*bench, traceLen);
                    std::unique_lock<std::shared_mutex> writer(study->rw);
                    study->study->attachTrace(std::move(trace));
                    continue;
                }
                const BenchmarkProfile &bench = *missing[t];
                if (auto loaded = DseStudy::tryLoad(profileDir, bench.name)) {
                    built[t] = std::make_unique<DseStudy>(std::move(*loaded));
                    continue;
                }
                built[t] = std::make_unique<DseStudy>(bench, traceLen);
                if (!needs_trace) {
                    built[t]->dropTrace();
                    dropped[t] = 1;
                }
            }
        });
    for (std::size_t m = 0; m < missing.size(); ++m) {
        auto entry = std::make_unique<Study>();
        entry->study = std::move(built[m]);
        entry->seq = byName.size();
        entry->traceDropped = dropped[m];
        byName.emplace(missing[m]->name, std::move(entry));
    }

    std::vector<Study *> out;
    out.reserve(benches.size());
    for (const BenchmarkProfile &bench : benches)
        out.push_back(byName.at(bench.name).get());
    return out;
}

void
BatchEngine::prepare(const std::vector<Study *> &set,
                     const std::vector<DesignPoint> &points,
                     ThreadPool &pool) const
{
    // The memo is keyed by L2 geometry alone: one point per geometry
    // stands for the batch.
    std::vector<DesignPoint> geometries;
    std::set<std::pair<std::uint64_t, std::uint32_t>> seen;
    for (const DesignPoint &point : points) {
        if (seen.emplace(point.l2KB, point.l2Assoc).second)
            geometries.push_back(point);
    }
    // Only studies whose memo lacks a geometry need the exclusive
    // pass; after a search's up-front prepare that is none of them.
    // The check reads the memo under the shared lock, so it cannot
    // race a writer, and a memo only grows, so a covered study stays
    // covered.
    std::vector<Study *> stale;
    for (Study *s : set) {
        std::shared_lock<std::shared_mutex> reader(s->rw);
        if (!s->study->covers(geometries))
            stale.push_back(s);
    }
    // One task per study, since the geometries of one study are
    // memoized sequentially; the exclusive lock keeps preparation from
    // overlapping another batch's shared-lock fan-out of that study.
    pool.parallelFor(stale.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
            std::unique_lock<std::shared_mutex> lock(stale[s]->rw);
            stale[s]->study->prepare(geometries);
        }
    });
}

std::vector<StudyResult>
BatchEngine::evaluateMatrix(const std::vector<BenchmarkProfile> &benches,
                            const std::vector<DesignPoint> &points,
                            ThreadPool &pool, const BackendSet &backends)
{
    MECH_ASSERT(!backends.empty(), "empty backend set");
    obs::TraceSpan span("engine.evaluateMatrix", "dse");
    {
        static obs::Counter &sweeps =
            obs::MetricsRegistry::global().counter(
                "dse.sweeps", "evaluateMatrix sweeps run");
        static obs::Counter &evals =
            obs::MetricsRegistry::global().counter(
                "dse.points_evaluated",
                "(benchmark x point) evaluations requested of "
                "evaluateMatrix");
        sweeps.inc();
        evals.inc(benches.size() * points.size());
    }

    const std::vector<Study *> set = studies(benches, backends, pool);
    prepare(set, points, pool);

    std::vector<StudyResult> results(benches.size());
    for (std::size_t b = 0; b < benches.size(); ++b) {
        results[b].benchmark = benches[b].name;
        results[b].evals.resize(points.size());
    }
    // Each cell evaluates straight into its preassigned output slot.
    fanOut(set, points, backends, pool,
           [&](std::size_t i, std::size_t b, const PointTerms &terms,
               PointEvaluation &) {
               set[b]->study->evaluateInto(results[b].evals[i], terms,
                                           backends);
           });
    return results;
}

std::vector<const SearchEval *>
BatchEngine::evaluateCached(const std::vector<Study *> &set,
                            const BackendSet &backends,
                            const std::vector<Objective> &objectives,
                            const std::vector<DesignPoint> &points,
                            EvalCache &cache, ThreadPool &pool,
                            SearchStats &stats,
                            std::vector<bool> *was_hit) const
{
    // Classify hits, in-batch duplicates and fresh misses on this
    // thread, in request order, so accounting never depends on worker
    // scheduling.  fresh maps a missed point to its missPoints slot,
    // through which misses and in-batch duplicates resolve after
    // publishing.
    std::vector<const SearchEval *> out(points.size(), nullptr);
    if (was_hit)
        was_hit->assign(points.size(), false);
    std::vector<DesignPoint> missPoints;
    std::unordered_map<DesignPoint, std::size_t, DesignPointHash> fresh;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (const SearchEval *hit = cache.find(points[i])) {
            out[i] = hit;
        } else if (fresh.try_emplace(points[i], missPoints.size()).second) {
            missPoints.push_back(points[i]);
            continue;
        }
        if (was_hit)
            (*was_hit)[i] = true;
        ++hits;
    }
    const std::uint64_t misses = missPoints.size();
    ++stats.batches;
    stats.requested += points.size();
    stats.hits += hits;
    stats.misses += misses;

    // Fan the misses out; each cell writes only its own perBench
    // slots.
    std::vector<SearchEval> computed(missPoints.size());
    if (!missPoints.empty()) {
        prepare(set, missPoints, pool);

        const std::size_t n_be = backends.size();
        const std::size_t k_objs = objectives.size();
        const std::size_t width = n_be * k_objs;
        for (std::size_t j = 0; j < computed.size(); ++j) {
            computed[j].point = missPoints[j];
            computed[j].perBench.resize(set.size() * width);
        }
        fanOut(set, missPoints, backends, pool,
               [&](std::size_t j, std::size_t b, const PointTerms &terms,
                   PointEvaluation &ev) {
                   SearchEval &eval = computed[j];
                   set[b]->study->evaluateInto(ev, terms, backends);
                   for (std::size_t be = 0; be < n_be; ++be) {
                       for (std::size_t k = 0; k < k_objs; ++k) {
                           eval.perBench[(b * n_be + be) * k_objs + k] =
                               objectives[k].value(ev.results[be], eval.point);
                       }
                   }
               });

        // Cross-benchmark means, summed in benchmark order on this
        // thread: the additions of a serial loop in the same order,
        // so every aggregate is bit-identical at any pool size.
        const double n = static_cast<double>(set.size());
        for (SearchEval &eval : computed) {
            eval.aggregate.assign(width, 0.0);
            for (std::size_t b = 0; b < set.size(); ++b) {
                for (std::size_t i = 0; i < width; ++i)
                    eval.aggregate[i] += eval.perBench[b * width + i];
            }
            for (double &v : eval.aggregate)
                v /= n;
        }
    }

    // Publish in request order; a miss or duplicate takes the entry
    // its slot's insert() returned.
    std::vector<const SearchEval *> published;
    published.reserve(computed.size());
    for (SearchEval &eval : computed)
        published.push_back(&cache.insert(std::move(eval)));
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!out[i])
            out[i] = published[fresh.find(points[i])->second];
    }
    CacheCounters &counters = cacheCounters();
    counters.hits.inc(hits);
    counters.misses.inc(misses);
    counters.inserts.inc(misses);
    return out;
}

} // namespace mech
