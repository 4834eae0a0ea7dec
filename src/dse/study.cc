#include "dse/study.hh"

#include <algorithm>
#include <filesystem>

#include "workload/builder.hh"

namespace mech {

namespace {

/** Profiling configuration shared by all studies. */
ProfilerConfig
studyProfilerConfig()
{
    ProfilerConfig cfg;
    cfg.hierarchy = hierarchyFor(defaultDesignPoint());
    cfg.predictors = {PredictorKind::Gshare1K, PredictorKind::Hybrid3K5};
    cfg.captureL2Stream = true;
    return cfg;
}

/** Sets of @p point's L2 at 64 B blocks. */
std::uint64_t
l2Sets(const DesignPoint &point)
{
    if (point.l2Assoc == 0)
        fatal("cache geometry invalid: 0-way L2");
    return point.l2KB * 1024 / (std::uint64_t{point.l2Assoc} * 64);
}

} // namespace

DseStudy::DseStudy(const BenchmarkProfile &bench, InstCount trace_len)
    : benchName(bench.name)
{
    dynTrace = generateTrace(bench, trace_len);
    prof = profileTrace(dynTrace, studyProfilerConfig());
}

DseStudy::DseStudy(const BenchmarkProfile &bench, InstCount trace_len,
                   const Program &program)
    : benchName(bench.name)
{
    TraceExecutor exec(program, bench.seed ^ 0xabcdef1234567890ull);
    dynTrace = exec.run(trace_len);
    prof = profileTrace(dynTrace, studyProfilerConfig());
}

DseStudy::DseStudy(ProfileArtifact artifact)
    : benchName(std::move(artifact.name)),
      dynTrace(std::move(artifact.trace)),
      prof(std::move(artifact.profile))
{
}

ProfileArtifact
DseStudy::artifact(bool include_trace) const
{
    ProfileArtifact out;
    out.name = benchName;
    out.profile = prof;
    out.hasTrace = include_trace && !dynTrace.empty();
    if (out.hasTrace)
        out.trace = dynTrace;
    return out;
}

void
DseStudy::save(const std::string &path, bool include_trace) const
{
    saveProfileArtifact(artifact(include_trace), path);
}

DseStudy
DseStudy::load(const std::string &path)
{
    return DseStudy(loadProfileArtifact(path));
}

DseStudy
DseStudy::loadOrProfile(const std::string &dir,
                        const BenchmarkProfile &bench,
                        InstCount trace_len)
{
    if (std::optional<DseStudy> loaded = tryLoad(dir, bench.name))
        return std::move(*loaded);
    return DseStudy(bench, trace_len);
}

std::optional<DseStudy>
DseStudy::tryLoad(const std::string &dir, const std::string &name)
{
    if (dir.empty())
        return std::nullopt;
    std::string path = profileArtifactPath(dir, name);
    if (!std::filesystem::exists(path))
        return std::nullopt;
    try {
        return load(path);
    } catch (const ProfileIoError &e) {
        // A damaged artifact is a user-input problem, not a library
        // bug: report it cleanly instead of letting the exception
        // escape (or terminate a worker).
        fatal("cannot load profile artifact '", path, "': ", e.what());
    }
}

const MemoryStats *
DseStudy::findMemo(const DesignPoint &point) const
{
    const DesignPoint def = defaultDesignPoint();
    if (point.l2KB == def.l2KB && point.l2Assoc == def.l2Assoc)
        return &prof.memory;
    auto it = l2Memo.find(std::make_pair(point.l2KB, point.l2Assoc));
    return it != l2Memo.end() ? &it->second : nullptr;
}

void
DseStudy::prepare(const std::vector<DesignPoint> &points)
{
    // The (l2KB, l2Assoc) geometries not yet memoized, grouped by set
    // count: one stack-distance pass answers a whole group.
    using Geometry = std::pair<std::uint64_t, std::uint32_t>;
    std::map<std::uint64_t, std::vector<Geometry>> groups;
    for (const auto &point : points) {
        if (findMemo(point))
            continue;
        std::vector<Geometry> &group = groups[l2Sets(point)];
        const Geometry geom(point.l2KB, point.l2Assoc);
        if (std::find(group.begin(), group.end(), geom) == group.end())
            group.push_back(geom);
    }
    for (const auto &[sets, group] : groups) {
        std::vector<std::uint32_t> assocs;
        for (const Geometry &geom : group)
            assocs.push_back(geom.second);
        std::vector<MemoryStats> stats = sweepL2(prof, sets, assocs);
        for (std::size_t i = 0; i < group.size(); ++i)
            l2Memo.emplace(group[i], std::move(stats[i]));
    }
}

bool
DseStudy::covers(const std::vector<DesignPoint> &points) const
{
    return std::all_of(points.begin(), points.end(),
                       [this](const DesignPoint &p) { return findMemo(p); });
}

void
DseStudy::evaluateWithInto(PointEvaluation &out, const MemoryStats &mem,
                           const PointTerms &terms,
                           const BackendSet &backends) const
{
    out.point = terms.point;
    // resize + assign rather than clear + push_back: a warm scratch
    // keeps its element storage, and a model-backend EvalResult holds
    // no heap state (SSO name, flat stack, disengaged detail), so the
    // assignment allocates nothing.
    out.results.resize(backends.size());

    EvalRequest req;
    req.program = &prof.program;
    req.memory = &mem;
    req.branch = &prof.branchProfileFor(terms.point.predictor);
    req.trace = dynTrace.empty() ? nullptr : &dynTrace;
    req.terms = &terms;

    for (std::size_t i = 0; i < backends.size(); ++i) {
        MECH_ASSERT(backends[i], "null backend in set");
        out.results[i] = backends[i]->evaluate(req);
    }
}

PointEvaluation
DseStudy::evaluate(const DesignPoint &point,
                   const BackendSet &backends) const
{
    PointEvaluation ev;
    evaluateInto(ev, point, backends);
    return ev;
}

void
DseStudy::evaluateInto(PointEvaluation &out, const DesignPoint &point,
                       const BackendSet &backends) const
{
    evaluateInto(out, PointTerms(point), backends);
}

void
DseStudy::evaluateInto(PointEvaluation &out, const PointTerms &terms,
                       const BackendSet &backends) const
{
    if (const MemoryStats *memo = findMemo(terms.point)) {
        evaluateWithInto(out, *memo, terms, backends);
        return;
    }
    const std::vector<MemoryStats> swept =
        sweepL2(prof, l2Sets(terms.point), {terms.point.l2Assoc});
    evaluateWithInto(out, swept.front(), terms, backends);
}

} // namespace mech
