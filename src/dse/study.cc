#include "dse/study.hh"

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
    if (!dir.empty()) {
        std::string path = profileArtifactPath(dir, bench.name);
        if (std::filesystem::exists(path)) {
            try {
                return load(path);
            } catch (const ProfileIoError &e) {
                // A damaged artifact is a user-input problem, not a
                // library bug: report it cleanly instead of letting
                // the exception escape (or terminate a worker).
                fatal("cannot load profile artifact '", path,
                      "': ", e.what());
            }
        }
    }
    return DseStudy(bench, trace_len);
}

const MemoryStats *
DseStudy::findMemo(const DesignPoint &point) const
{
    auto it = l2Memo.find(std::make_pair(point.l2KB, point.l2Assoc));
    return it != l2Memo.end() ? &it->second : nullptr;
}

const MemoryStats &
DseStudy::memoryFor(const DesignPoint &point)
{
    if (const MemoryStats *memo = findMemo(point))
        return *memo;
    return l2Memo
        .emplace(std::make_pair(point.l2KB, point.l2Assoc),
                 computeMemory(point))
        .first->second;
}

MemoryStats
DseStudy::computeMemory(const DesignPoint &point) const
{
    const DesignPoint def = defaultDesignPoint();
    if (point.l2KB == def.l2KB && point.l2Assoc == def.l2Assoc)
        return prof.memory;

    CacheConfig l2{point.l2KB * 1024, point.l2Assoc, 64};
    return resweepL2(prof, l2);
}

void
DseStudy::prepare(const std::vector<DesignPoint> &points)
{
    for (const auto &point : points)
        memoryFor(point);
}

void
DseStudy::evaluateWithInto(PointEvaluation &out, const MemoryStats &mem,
                           const DesignPoint &point,
                           const BackendSet &backends) const
{
    out.point = point;
    // resize + assign rather than clear + push_back: a warm scratch
    // keeps its element storage, and a model-backend EvalResult holds
    // no heap state (SSO name, flat stack, disengaged detail), so the
    // assignment allocates nothing.
    out.results.resize(backends.size());

    EvalRequest req;
    req.program = &prof.program;
    req.memory = &mem;
    req.branch = &prof.branchProfileFor(point.predictor);
    req.trace = dynTrace.empty() ? nullptr : &dynTrace;
    req.point = point;

    for (std::size_t i = 0; i < backends.size(); ++i) {
        MECH_ASSERT(backends[i], "null backend in set");
        out.results[i] = backends[i]->evaluate(req);
    }
}

PointEvaluation
DseStudy::evaluate(const DesignPoint &point, const BackendSet &backends)
{
    PointEvaluation ev;
    evaluateWithInto(ev, memoryFor(point), point, backends);
    return ev;
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
    if (const MemoryStats *memo = findMemo(point)) {
        evaluateWithInto(out, *memo, point, backends);
        return;
    }
    evaluateWithInto(out, computeMemory(point), point, backends);
}

} // namespace mech
