/**
 * @file
 * Memoized evaluation cache keyed by DesignPoint content identity.
 *
 * Iterative strategies (hill-climbing, genetic populations) revisit
 * design points constantly; the cache makes every revisit cost zero
 * model evaluations.  Keys use DesignPoint::hash()/operator== — the
 * stable content identity added alongside this subsystem — and
 * entries live in a node list so pointers handed out stay valid for
 * the cache's lifetime, letting strategies pass results around
 * without copying.  An empty cache allocates nothing, which keeps a
 * short-lived serve group that caches a handful of points small.
 *
 * Thread safety: one mutex guards the index.  Pool workers never
 * touch a cache; only the threads calling
 * BatchEngine::evaluateCached() (several serve sessions may share a
 * group) and EvalService's spill load do.  insert() tolerates
 * duplicates: a point already present (e.g. evaluated concurrently
 * by two sessions) returns the existing entry instead of failing.
 * firstIndex is deterministic because evaluateCached() inserts in
 * request order on its calling thread, independent of worker count.
 * The `evalcache.*` counters are kept per batch by evaluateCached(),
 * not here.
 */

#ifndef MECH_SEARCH_EVAL_CACHE_HH
#define MECH_SEARCH_EVAL_CACHE_HH

#include <cstdint>
#include <forward_list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dse/design_space.hh"

namespace mech {

/** One cached search evaluation of one design point. */
struct SearchEval
{
    /** The evaluated point. */
    DesignPoint point;

    /**
     * Aggregate objective values (arithmetic mean across the
     * evaluator's benchmarks), in objective order.  Raw values — the
     * optimization direction is applied by Objective::normalized().
     */
    std::vector<double> aggregate;

    /** Per-benchmark raw values, flattened [bench * objectives + k]. */
    std::vector<double> perBench;

    /** Insertion index: deterministic first-evaluation order. */
    std::uint64_t firstIndex = 0;
};

/** Thread-safe memo of SearchEvals with stable pointers. */
class EvalCache
{
  public:
    EvalCache() = default;
    EvalCache(const EvalCache &) = delete;
    EvalCache &operator=(const EvalCache &) = delete;

    /** The cached evaluation of @p point, or null on a miss. */
    const SearchEval *
    find(const DesignPoint &point) const
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = index.find(point);
        return it == index.end() ? nullptr : it->second;
    }

    /**
     * Insert a freshly computed evaluation; @p eval.firstIndex is
     * assigned here.  If the point is already cached — a benign
     * concurrent re-discovery — the existing entry is returned and
     * @p eval is discarded.
     */
    const SearchEval &
    insert(SearchEval eval)
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (auto it = index.find(eval.point); it != index.end())
            return *it->second;
        store.push_front(std::move(eval));
        SearchEval &stored = store.front();
        stored.firstIndex = order.size();
        order.push_back(&stored);
        index.emplace(stored.point, &stored);
        return stored;
    }

    /** Number of cached points. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return order.size();
    }

    /** Every entry, in first-evaluation (firstIndex) order. */
    std::vector<const SearchEval *>
    entries() const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return order;
    }

  private:
    mutable std::mutex mtx;
    /** Entry storage; its order is irrelevant (see order). */
    std::forward_list<SearchEval> store;
    std::unordered_map<DesignPoint, const SearchEval *, DesignPointHash>
        index;
    std::vector<const SearchEval *> order;
};

} // namespace mech

#endif // MECH_SEARCH_EVAL_CACHE_HH
