#include "search/evaluator.hh"

#include <utility>

#include "common/logging.hh"

namespace mech {

SearchEvaluator::SearchEvaluator(std::vector<BenchmarkProfile> benches,
                                 InstCount trace_len,
                                 std::vector<Objective> objectives,
                                 BackendSet backends)
    : benches(std::move(benches)), objs(std::move(objectives)),
      backends_(std::move(backends)), engine(trace_len)
{
    MECH_ASSERT(!this->benches.empty(), "no benchmarks to search over");
    MECH_ASSERT(!objs.empty(), "no objectives");
    // Only the first backend's result can feed the objectives;
    // evaluating the rest of a set would be paid-for, discarded
    // work (a "model,sim" set would run a silent simulation
    // campaign).  Reject it loudly instead.
    if (backends_.size() != 1) {
        fatal("search evaluation uses exactly one backend (got ",
              backends_.size(),
              "); validate winners against other backends "
              "afterwards");
    }
}

void
SearchEvaluator::useProfileDir(const std::string &dir)
{
    engine.useProfileDir(dir);
}

void
SearchEvaluator::prepare(const SpaceSpec &spec, ThreadPool &pool)
{
    studies = engine.studies(benches, backends_, pool);
    if (std::string why = admissionError(spec, spec.describe(), backends_,
                                         &studies[0]->study->profile());
        !why.empty()) {
        fatal(why);
    }
    engine.prepare(studies, spec.l2Geometries(), pool);
}

std::vector<const SearchEval *>
SearchEvaluator::evaluateBatch(const std::vector<DesignPoint> &points,
                               EvalCache &cache, ThreadPool &pool,
                               SearchStats &stats) const
{
    MECH_ASSERT(!studies.empty(), "prepare() must run before evaluateBatch()");
    return engine.evaluateCached(studies, backends_, objs, points, cache,
                                 pool, stats);
}

std::vector<std::string>
SearchEvaluator::benchmarkNames() const
{
    std::vector<std::string> names;
    names.reserve(benches.size());
    for (const auto &bench : benches)
        names.push_back(bench.name);
    return names;
}

} // namespace mech
