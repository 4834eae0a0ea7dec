/**
 * @file
 * Memoized evaluation cache keyed by DesignPoint content identity.
 *
 * Iterative strategies (hill-climbing, genetic populations) revisit
 * design points constantly; the cache makes every revisit cost zero
 * model evaluations.  Keys use DesignPoint::hash()/operator== — the
 * stable content identity added alongside this subsystem — and
 * entries live in per-shard node lists so pointers handed out stay
 * valid for the cache's lifetime, letting strategies pass results
 * around without copying.  An empty shard allocates nothing (a
 * default std::deque allocates its map and first block), which keeps
 * a short-lived serve group that caches a handful of points small.
 *
 * Thread safety: the index is striped across kShards buckets selected
 * by DesignPoint::hash(), each behind its own mutex, so concurrent
 * find() probes from pool workers only contend when they land on the
 * same shard — a single global lock here used to serialize the whole
 * evaluation fan-out.  insert() tolerates duplicates: a point already
 * present (e.g. re-discovered concurrently by two sessions) returns
 * the existing entry instead of failing.  Determinism of firstIndex
 * is preserved exactly as before: the SearchEvaluator and EvalService
 * call insert() only from the coordinating thread in request order,
 * which makes entry order independent of worker count.
 */

#ifndef MECH_SEARCH_EVAL_CACHE_HH
#define MECH_SEARCH_EVAL_CACHE_HH

#include <array>
#include <cstdint>
#include <forward_list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dse/design_space.hh"
#include "obs/registry.hh"

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

/** Thread-safe sharded memo of SearchEvals with stable pointers. */
class EvalCache
{
  public:
    EvalCache() = default;
    EvalCache(const EvalCache &) = delete;
    EvalCache &operator=(const EvalCache &) = delete;

    /** Index shards; a power of two so selection is a mask. */
    static constexpr std::size_t kShards = 16;

    /** The cached evaluation of @p point, or null on a miss. */
    const SearchEval *
    find(const DesignPoint &point) const
    {
        const std::size_t s =
            DesignPointHash{}(point) & (kShards - 1);
        const Shard &shard = shards[s];
        const SearchEval *hit;
        {
            std::lock_guard<std::mutex> lock(shard.mtx);
            auto it = shard.index.find(point);
            hit = it == shard.index.end() ? nullptr : it->second;
        }
        CacheObs &o = cacheObs();
        if (hit) {
            o.hits.inc();
            o.shards[s].hits.inc();
        } else {
            o.misses.inc();
            o.shards[s].misses.inc();
        }
        return hit;
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
        const std::size_t s =
            DesignPointHash{}(eval.point) & (kShards - 1);
        Shard &shard = shards[s];
        std::lock_guard<std::mutex> lock(shard.mtx);
        if (auto it = shard.index.find(eval.point);
            it != shard.index.end()) {
            return *it->second;
        }
        CacheObs &o = cacheObs();
        o.inserts.inc();
        o.shards[s].inserts.inc();
        shard.store.push_front(std::move(eval));
        SearchEval &stored = shard.store.front();
        {
            // Global first-evaluation order spans every shard; the
            // counter and entry list share one light mutex, taken
            // strictly after the shard's (no reverse nesting).
            std::lock_guard<std::mutex> order_lock(orderMtx);
            stored.firstIndex = order.size();
            order.push_back(&stored);
        }
        shard.index.emplace(stored.point, &stored);
        return stored;
    }

    /** Number of cached points. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(orderMtx);
        return order.size();
    }

    /** Every entry, in first-evaluation (firstIndex) order. */
    std::vector<const SearchEval *>
    entries() const
    {
        std::lock_guard<std::mutex> lock(orderMtx);
        return order;
    }

  private:
    /** One lock-striped bucket of the index. */
    struct Shard
    {
        mutable std::mutex mtx;
        /** Entry storage; its order is irrelevant (see order). */
        std::forward_list<SearchEval> store;
        std::unordered_map<DesignPoint, const SearchEval *,
                           DesignPointHash>
            index;
    };

    /**
     * Process-wide cache observability: aggregate and per-shard
     * hit/miss/insert counters, shared by every EvalCache instance
     * (serve groups come and go; the counters are cumulative).
     * Updates are relaxed atomics outside the shard locks.
     */
    struct CacheObs
    {
        struct ShardObs
        {
            obs::Counter &hits;
            obs::Counter &misses;
            obs::Counter &inserts;
        };

        obs::Counter &hits;
        obs::Counter &misses;
        obs::Counter &inserts;
        std::vector<ShardObs> shards;
    };

    static CacheObs &
    cacheObs()
    {
        static CacheObs o = [] {
            obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
            CacheObs obs{
                reg.counter("evalcache.hits",
                            "EvalCache lookups answered from the memo"),
                reg.counter("evalcache.misses",
                            "EvalCache lookups that missed"),
                reg.counter("evalcache.inserts",
                            "Fresh evaluations inserted into EvalCache"),
                {}};
            obs.shards.reserve(kShards);
            for (std::size_t s = 0; s < kShards; ++s) {
                const std::string p =
                    "evalcache.shard" + std::to_string(s);
                obs.shards.push_back(CacheObs::ShardObs{
                    reg.counter(p + ".hits"),
                    reg.counter(p + ".misses"),
                    reg.counter(p + ".inserts")});
            }
            return obs;
        }();
        return o;
    }

    std::array<Shard, kShards> shards;
    mutable std::mutex orderMtx;
    std::vector<const SearchEval *> order;
};

} // namespace mech

#endif // MECH_SEARCH_EVAL_CACHE_HH
