#include "serve/service.hh"

#include <algorithm>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>

#include "characterize/mdesc.hh"
#include "common/file_util.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "dse/study.hh"
#include "eval/registry.hh"
#include "search/cache_io.hh"
#include "search/eval_cache.hh"
#include "search/objective.hh"
#include "search/space_spec.hh"
#include "serve/serve_obs.hh"
#include "serve/shard.hh"
#include "workload/suites.hh"

namespace mech::serve {

namespace {

/** Join names with commas (for group keys and response fields). */
std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names)
        out += (out.empty() ? "" : ",") + name;
    return out;
}

/** Emit a JSON array of strings. */
void
writeNameArray(std::ostream &os, const std::vector<std::string> &names)
{
    os << '[';
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i)
            os << ", ";
        json::writeString(os, names[i]);
    }
    os << ']';
}

} // namespace

/**
 * One (benchmarks, backends, objectives) evaluation group with its
 * own PR-4 EvalCache.  SearchEval vectors use serve layouts:
 * aggregate[be * K + k] is the cross-benchmark mean of objective k
 * through backend be; perBench[(b * NBE + be) * K + k] the
 * per-benchmark value.
 */
struct EvalService::Group
{
    std::string key;
    std::vector<std::string> benchNames;
    std::vector<BatchEngine::Study *> studies;
    BackendSet backends;
    std::vector<Objective> objectives;
    EvalCache cache;

    /** This group's own hit/miss traffic (guarded by statsMtx). */
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;

    std::uint32_t
    aggregateLen() const
    {
        return static_cast<std::uint32_t>(backends.size() *
                                          objectives.size());
    }

    std::uint32_t
    perBenchLen() const
    {
        return static_cast<std::uint32_t>(
            benchNames.size() * backends.size() * objectives.size());
    }
};

EvalService::EvalService(ServeConfig cfg_in)
    : cfg(std::move(cfg_in)),
      pool(cfg.threads <= 1 ? 0 : cfg.threads),
      engine(cfg.traceLen, cfg.profileDir)
{
    MECH_ASSERT(!cfg.defaultBench.empty(),
                "service needs a default benchmark set");
    MECH_ASSERT(!cfg.defaultBackends.empty(),
                "service needs a default backend set");
    MECH_ASSERT(!cfg.defaultObjectives.empty(),
                "service needs a default objective set");
    // Single-threaded here: no request can race the install.
    if (!cfg.mdescPath.empty())
        applyMachineDescription(cfg.mdescPath);
}

EvalService::~EvalService() = default;

void
EvalService::loadSpill(Group &group)
{
    // Caller holds resolveMtx (the group is still being materialized,
    // so no other thread can reach its cache yet).
    if (cfg.cacheDir.empty())
        return;
    const std::string path = cacheSpillPath(cfg.cacheDir, group.key);
    if (!fileExists(path))
        return;
    obs::TraceSpan span("cache.load", "cache");
    MappedFile file;
    std::string error;
    if (!file.open(path, &error)) {
        warn("mech_serve: cannot map cache spill: ", error);
        return;
    }
    // Decode into a staging cache: a spill rejected halfway must not
    // leave a partial memo behind.
    EvalCache staged;
    if (!decodeEvalCache(file.view(), group.key, group.aggregateLen(),
                         group.perBenchLen(), &staged, &error)) {
        warn("mech_serve: ignoring cache spill '", path, "': ", error);
        return;
    }
    const std::vector<const SearchEval *> entries = staged.entries();
    for (const SearchEval *eval : entries)
        group.cache.insert(*eval);
    std::lock_guard<std::mutex> stats_lock(statsMtx);
    counters.restored += entries.size();
}

EvalService::Group *
EvalService::resolveGroup(const ServeRequest &req, std::string *error)
{
    // Benchmarks: default set when unnamed; aliases resolve to their
    // canonical profile so "cjpeg" and "jpeg_c" share a group.
    const std::vector<std::string> &named =
        req.bench.empty() ? cfg.defaultBench : req.bench;
    std::vector<std::string> benches;
    for (const std::string &name : named) {
        if (name.empty()) {
            *error = "empty benchmark name";
            return nullptr;
        }
        const BenchmarkProfile *profile = findProfile(name);
        if (!profile) {
            *error = "unknown benchmark '" + name + "'";
            return nullptr;
        }
        if (std::find(benches.begin(), benches.end(), profile->name) !=
            benches.end()) {
            *error = "benchmark '" + profile->name +
                     "' listed twice";
            return nullptr;
        }
        benches.push_back(profile->name);
    }

    // Backends, via the registry's non-fatal set parser.
    const std::vector<std::string> &be_names =
        req.backends.empty() ? cfg.defaultBackends : req.backends;
    auto backends = BackendRegistry::global().tryParseSet(
        joinNames(be_names), error);
    if (!backends)
        return nullptr;

    // Objectives.
    const std::vector<std::string> &obj_names =
        req.objectives.empty() ? cfg.defaultObjectives : req.objectives;
    std::vector<Objective> objectives;
    for (const std::string &name : obj_names) {
        if (name.empty()) {
            *error = "empty objective name";
            return nullptr;
        }
        auto obj = objectiveByName(name);
        if (!obj) {
            std::string known;
            for (const Objective &o : allObjectives())
                known += (known.empty() ? "" : ", ") + o.name;
            *error = "unknown objective '" + name + "' (known: " +
                     known + ")";
            return nullptr;
        }
        for (const Objective &seen : objectives) {
            if (seen.name == obj->name) {
                *error = "objective '" + name + "' listed twice";
                return nullptr;
            }
        }
        objectives.push_back(*obj);
    }

    std::string key = "bench=" + joinNames(benches) + "|backends=";
    for (std::size_t i = 0; i < backends->size(); ++i)
        key += (i ? "," : "") + std::string((*backends)[i]->name());
    key += "|obj=" + joinNames(obj_names);

    // The resolve lock covers lookup and materialization: a cold
    // group profiles under it, which intentionally serializes other
    // sessions' (microsecond) lookups behind first use rather than
    // letting two sessions profile the same benchmark twice.
    std::lock_guard<std::mutex> lock(resolveMtx);
    if (auto it = groupIndex.find(key); it != groupIndex.end())
        return it->second;

    // Materialize the group: studies first (the expensive half).
    std::vector<BenchmarkProfile> profiles;
    for (const std::string &name : benches)
        profiles.push_back(profileByName(name));
    auto group = std::make_unique<Group>();
    group->key = key;
    group->benchNames = benches;
    group->studies = engine.studies(profiles, *backends, pool);
    group->backends = std::move(*backends);
    group->objectives = std::move(objectives);
    loadSpill(*group);
    Group *raw = group.get();
    groupList.push_back(std::move(group));
    groupIndex.emplace(raw->key, raw);
    {
        std::lock_guard<std::mutex> stats_lock(statsMtx);
        ++counters.groups;
    }
    return raw;
}

std::vector<const SearchEval *>
EvalService::evaluatePoints(Group &group,
                            const std::vector<DesignPoint> &points,
                            std::vector<bool> *was_hit,
                            SearchStats *counts)
{
    // Counts accumulate locally and merge into the service counters
    // once — concurrent flushes each account their own traffic
    // exactly.
    obs::TraceSpan span("service.evaluate", "serve");
    SearchStats local;
    std::vector<const SearchEval *> out = engine.evaluateCached(
        group.studies, group.backends, group.objectives, points,
        group.cache, pool, local, was_hit);
    {
        std::lock_guard<std::mutex> lock(statsMtx);
        counters.requested += local.requested;
        counters.hits += local.hits;
        counters.misses += local.misses;
        group.hitCount += local.hits;
        group.missCount += local.misses;
    }
    if (counts)
        *counts = local;
    return out;
}

std::string
EvalService::evalResponse(const ServeRequest &req, Group &group,
                          const SearchEval &eval, bool was_hit)
{
    const std::size_t k_objs = group.objectives.size();
    const std::size_t n_be = group.backends.size();
    std::ostringstream os;
    os << responseHead(req.idJson, "result") << ", \"point\": ";
    json::writeString(os, eval.point.toKey());
    os << ", \"label\": ";
    json::writeString(os, eval.point.label());
    os << ", \"cached\": " << (was_hit ? "true" : "false");
    os << ", \"bench\": ";
    writeNameArray(os, group.benchNames);
    os << ", \"results\": { ";
    for (std::size_t be = 0; be < n_be; ++be) {
        if (be)
            os << ", ";
        json::writeString(os, std::string(group.backends[be]->name()));
        os << ": { \"objectives\": ";
        writeObjectiveObject(os, group.objectives, eval.aggregate,
                             be * k_objs);
        os << ", \"per_benchmark\": { ";
        for (std::size_t b = 0; b < group.benchNames.size(); ++b) {
            if (b)
                os << ", ";
            json::writeString(os, group.benchNames[b]);
            os << ": ";
            writeObjectiveObject(os, group.objectives, eval.perBench,
                                 (b * n_be + be) * k_objs);
        }
        os << " } }";
    }
    os << " }}";
    return os.str();
}

std::string
EvalService::batchResponse(const ServeRequest &req, Group &group,
                           bool *ok)
{
    *ok = false;
    std::string error;
    auto spec = SpaceSpec::tryParse(req.space, &error);
    if (!spec)
        return errorResponse(req.idJson,
                             "bad space '" + req.space + "': " + error);
    if (std::string why = spec->check(); !why.empty())
        return errorResponse(req.idJson,
                             "invalid space '" + req.space + "': " + why);
    if (spec->size() > cfg.maxSpacePoints) {
        return errorResponse(
            req.idJson,
            "space has " + std::to_string(spec->size()) +
                " points; this server caps batch requests at " +
                std::to_string(cfg.maxSpacePoints) +
                " (see mech_serve --max-space)");
    }
    if (group.backends.size() != 1) {
        return errorResponse(
            req.idJson,
            "batch requests take exactly one backend (got " +
                std::to_string(group.backends.size()) +
                "); rank with one engine, then validate winners "
                "with eval requests");
    }
    if (std::string why = admissionError(*spec, req.space, group.backends,
                                         &group.studies[0]->study->profile());
        !why.empty()) {
        return errorResponse(req.idJson, why);
    }

    const std::uint64_t n = spec->size();
    std::vector<DesignPoint> points;
    points.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        points.push_back(spec->at(i));

    // Per-call accounting: under concurrent sessions the global
    // counters move underneath us, so the response's "cache" object
    // reports this flush's own classification, which is exact.
    SearchStats flush;
    std::vector<bool> was_hit;
    std::vector<const SearchEval *> evals =
        evaluatePoints(group, points, &was_hit, &flush);

    // The response body is assembled by the same frontierResponse()
    // the sharded scatter-gather path uses: one serializer, so the
    // two stay byte-identical by construction.
    const std::size_t k_objs = group.objectives.size();
    std::vector<FrontierEntry> entries;
    entries.reserve(evals.size());
    for (const SearchEval *eval : evals) {
        FrontierEntry e;
        e.pointKey = eval->point.toKey();
        e.label = eval->point.label();
        e.objectives.assign(eval->aggregate.begin(),
                            eval->aggregate.begin() +
                                static_cast<std::ptrdiff_t>(k_objs));
        entries.push_back(std::move(e));
    }

    *ok = true;
    return frontierResponse(
        req.idJson, spec->describe(), n,
        std::string(group.backends[0]->name()), group.objectives,
        group.benchNames, entries,
        GatherCounts{flush.requested, flush.hits, flush.misses});
}

std::vector<std::string>
EvalService::handleFlush(const std::vector<ServeRequest> &requests)
{
    obs::TraceSpan span("service.flush", "serve");
    // Per-request slots, filled out of order, emitted in order.
    std::vector<std::string> responses(requests.size());

    // This flush's own control-plane accounting, merged under one
    // lock at the end so concurrent flushes never interleave
    // half-counted requests.
    std::uint64_t evalReqs = 0, batchReqs = 0, errorReqs = 0;

    // Pending eval requests per group, coalesced across the flush.
    // A batch request of the same group is a barrier: pending evals
    // flush first, so accounting is exactly what strictly sequential
    // processing would produce, independent of how the session
    // chunked the input stream.
    struct PendingEval
    {
        std::size_t slot;
        DesignPoint point;
    };
    std::vector<Group *> groupOrder;
    std::map<Group *, std::vector<PendingEval>> pending;

    auto flushGroup = [&](Group *group) {
        auto it = pending.find(group);
        if (it == pending.end() || it->second.empty())
            return;
        std::vector<DesignPoint> points;
        points.reserve(it->second.size());
        for (const PendingEval &pe : it->second)
            points.push_back(pe.point);
        std::vector<bool> was_hit;
        std::vector<const SearchEval *> evals =
            evaluatePoints(*group, points, &was_hit);
        for (std::size_t i = 0; i < it->second.size(); ++i) {
            const PendingEval &pe = it->second[i];
            responses[pe.slot] = evalResponse(requests[pe.slot], *group,
                                              *evals[i], was_hit[i]);
        }
        it->second.clear();
    };

    for (std::size_t i = 0; i < requests.size(); ++i) {
        const ServeRequest &req = requests[i];
        std::string error;
        Group *group = resolveGroup(req, &error);
        if (!group) {
            responses[i] = errorResponse(req.idJson, error);
            ++errorReqs;
            continue;
        }
        if (std::find(groupOrder.begin(), groupOrder.end(), group) ==
            groupOrder.end()) {
            groupOrder.push_back(group);
        }

        if (req.type == RequestType::Eval) {
            const DesignPoint &point = *req.point;
            const SpaceSpec single = SpaceSpec::single(point);
            if (std::string why = single.check(); !why.empty()) {
                responses[i] = errorResponse(
                    req.idJson, "invalid design point '" +
                                    point.toKey() + "': " + why);
                ++errorReqs;
                continue;
            }
            if (std::string why = admissionError(
                    single, {}, group->backends,
                    &group->studies[0]->study->profile(), false);
                !why.empty()) {
                responses[i] = errorResponse(req.idJson, why);
                ++errorReqs;
                continue;
            }
            pending[group].push_back({i, point});
            ++evalReqs;
        } else if (req.type == RequestType::Batch) {
            flushGroup(group);
            bool ok = false;
            responses[i] = batchResponse(req, *group, &ok);
            if (ok)
                ++batchReqs;
            else
                ++errorReqs;
        } else {
            panic("control request reached handleFlush");
        }
    }

    for (Group *group : groupOrder)
        flushGroup(group);

    {
        std::lock_guard<std::mutex> lock(statsMtx);
        counters.evalRequests += evalReqs;
        counters.batchRequests += batchReqs;
        counters.errors += errorReqs;
    }
    return responses;
}

void
EvalService::noteShedRequests(std::uint64_t n)
{
    std::lock_guard<std::mutex> lock(statsMtx);
    counters.errors += n;
    counters.shed += n;
}

std::size_t
EvalService::persistCaches(std::ostream *log) const
{
    if (cfg.cacheDir.empty())
        return 0;
    obs::TraceSpan span("cache.spill", "cache");
    std::string error;
    if (!ensureDirectory(cfg.cacheDir, &error)) {
        warn("mech_serve: cannot create cache dir: ", error);
        return 0;
    }
    std::size_t written = 0;
    std::lock_guard<std::mutex> lock(resolveMtx);
    for (const auto &group : groupList) {
        if (group->cache.size() == 0)
            continue;
        const std::string bytes =
            encodeEvalCache(group->cache, group->key,
                            group->aggregateLen(), group->perBenchLen());
        const std::string path =
            cacheSpillPath(cfg.cacheDir, group->key);
        if (!atomicWriteFile(path, bytes, &error)) {
            warn("mech_serve: cannot write cache spill: ", error);
            continue;
        }
        if (log) {
            *log << "mech_serve: spilled " << group->cache.size()
                 << " point(s) of group " << group->key << " to "
                 << path << "\n";
        }
        ++written;
    }
    return written;
}

std::string
EvalService::infoResponse(const std::string &id_json) const
{
    std::vector<std::string> obj_names;
    for (const Objective &obj : allObjectives())
        obj_names.push_back(obj.name);

    std::ostringstream os;
    os << responseHead(id_json, "info")
       << ", \"generator\": \"mech_serve\"";
    os << ", \"benchmarks\": ";
    writeNameArray(os, allProfileNames());
    os << ", \"backends\": ";
    writeNameArray(os, BackendRegistry::global().names());
    os << ", \"objectives\": ";
    writeNameArray(os, obj_names);
    os << ", \"defaults\": { \"bench\": ";
    writeNameArray(os, cfg.defaultBench);
    os << ", \"backends\": ";
    writeNameArray(os, cfg.defaultBackends);
    os << ", \"objectives\": ";
    writeNameArray(os, cfg.defaultObjectives);
    os << " }, \"max_space\": " << cfg.maxSpacePoints;
    os << ", \"instructions\": " << cfg.traceLen << "}";
    return os.str();
}

namespace {

/** Emit { "count": N, "p50": ..., "p95": ..., "p99": ... }. */
void
writeQuantileObject(std::ostream &os, const obs::LatencyHistogram &h)
{
    const obs::HistogramSnapshot snap = h.snapshot();
    os << "{ \"count\": " << snap.count()
       << ", \"p50\": " << snap.quantile(0.50)
       << ", \"p95\": " << snap.quantile(0.95)
       << ", \"p99\": " << snap.quantile(0.99) << " }";
}

} // namespace

std::string
EvalService::statsResponse(const std::string &id_json,
                           RequestType type, bool timing) const
{
    const ServiceStats s = stats();
    std::ostringstream os;
    os << responseHead(id_json,
                       type == RequestType::Shutdown ? "bye" : "stats");
    os << ", \"requests\": { \"eval\": " << s.evalRequests
       << ", \"batch\": " << s.batchRequests
       << ", \"errors\": " << s.errors << ", \"shed\": " << s.shed
       << " }";
    os << ", \"cache\": { \"requested\": " << s.requested
       << ", \"hits\": " << s.hits << ", \"misses\": " << s.misses
       << ", \"restored\": " << s.restored << ", \"hit_rate\": ";
    json::writeNumber(os, s.hitRate());
    os << " }, \"groups\": " << s.groups
       << ", \"cached_points\": " << s.cachedPoints;

    // Uptime is wall clock, so deterministic mode pins it to 0 — the
    // field order stays identical either way, keeping goldens stable.
    std::uint64_t uptime_ms = 0;
    if (timing) {
        uptime_ms = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - startTime)
                .count());
    }
    os << ", \"uptime_ms\": " << uptime_ms;

    // Per-group cache occupancy and hit-rate, in materialization
    // order (deterministic for a single session; under concurrent
    // sessions it truthfully reflects arrival order, like "groups").
    os << ", \"group_caches\": [";
    {
        std::lock_guard<std::mutex> lock(resolveMtx);
        std::lock_guard<std::mutex> stats_lock(statsMtx);
        for (std::size_t i = 0; i < groupList.size(); ++i) {
            const Group &g = *groupList[i];
            const std::uint64_t lookups = g.hitCount + g.missCount;
            if (i)
                os << ", ";
            os << "{ \"key\": ";
            json::writeString(os, g.key);
            os << ", \"points\": " << g.cache.size()
               << ", \"hits\": " << g.hitCount
               << ", \"misses\": " << g.missCount
               << ", \"hit_rate\": ";
            json::writeNumber(
                os, lookups ? static_cast<double>(g.hitCount) /
                                  static_cast<double>(lookups)
                            : 0.0);
            os << " }";
        }
    }
    os << "]";

    // Latency quantiles are wall clock through and through; they
    // only appear in timing mode, where responses already carry
    // latency_us fields.  (Named distinctly from the scalar
    // "latency_us" the response writer appends, so the stats object
    // never carries a duplicate key.)
    if (timing) {
        ServeObs &o = ServeObs::get();
        os << ", \"latency_quantiles_us\": { \"result\": ";
        writeQuantileObject(os, o.latencyResult);
        os << ", \"frontier\": ";
        writeQuantileObject(os, o.latencyFrontier);
        os << ", \"control\": ";
        writeQuantileObject(os, o.latencyControl);
        os << ", \"error\": ";
        writeQuantileObject(os, o.latencyError);
        os << ", \"queue_wait\": ";
        writeQuantileObject(
            os, obs::MetricsRegistry::global().histogram(
                    "admission.queue_wait_us"));
        os << " }";
    }
    os << "}";
    return os.str();
}

ServiceStats
EvalService::stats() const
{
    ServiceStats s;
    {
        std::lock_guard<std::mutex> lock(statsMtx);
        s = counters;
    }
    // Sequential (never nested) acquisition: statsMtx above, then
    // resolveMtx for the group list.
    std::lock_guard<std::mutex> lock(resolveMtx);
    s.cachedPoints = 0;
    for (const auto &group : groupList)
        s.cachedPoints += group->cache.size();
    return s;
}

} // namespace mech::serve
