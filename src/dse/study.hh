/**
 * @file
 * Design-space study driver: the paper's "profile once, predict the
 * whole space" workflow (Figs. 3, 5, 9).
 *
 * Per benchmark: one trace generation, one profiling pass (capturing
 * the L2 input stream and training both Table 2 predictors), one
 * stack-distance pass over that stream per L2 set count (prepare()),
 * then evaluation at any design point through any set of registered
 * EvalBackends — the analytical model at microseconds per point,
 * optionally backed by the detailed simulator or the out-of-order
 * interval model for the same point.
 *
 * A study is also a serializable artifact: save() persists the
 * profile (and trace) as an `.mprof` file, and load() reconstitutes
 * an equivalent study in another process, producing bit-identical
 * model results (see profiler/profile_io.hh).
 */

#ifndef MECH_DSE_STUDY_HH
#define MECH_DSE_STUDY_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dse/design_space.hh"
#include "eval/registry.hh"
#include "profiler/profile_io.hh"
#include "profiler/profiler.hh"
#include "workload/executor.hh"
#include "workload/profile.hh"
#include "workload/program.hh"

namespace mech {

/**
 * Outcome of evaluating one design point for one benchmark: one
 * EvalResult per requested backend, in backend-set order.
 */
struct PointEvaluation
{
    DesignPoint point;

    /** results[i] comes from the i-th backend of the requested set. */
    std::vector<EvalResult> results;

    /** Result of backend @p backend, or null when it did not run. */
    const EvalResult *
    find(std::string_view backend) const
    {
        for (const auto &res : results) {
            if (res.backend == backend)
                return &res;
        }
        return nullptr;
    }

    /** True when backend @p backend ran. */
    bool has(std::string_view backend) const { return find(backend); }

    /** Result of backend @p backend; panics when it did not run. */
    const EvalResult &
    of(std::string_view backend) const
    {
        if (const EvalResult *res = find(backend))
            return *res;
        panic("no result from backend '", backend,
              "' in this evaluation");
    }

    /** The analytical model's result; panics when "model" did not run. */
    const EvalResult &model() const { return of(kModelBackend); }

    /** The detailed simulation's result, or null when "sim" did not run. */
    const EvalResult *sim() const { return find(kSimBackend); }

    /**
     * Absolute relative CPI error of backend @p predicted against
     * backend @p reference.
     *
     * Empty unless both backends ran — callers must not conflate "no
     * reference" with "perfect prediction".
     */
    std::optional<double>
    cpiErrorOf(std::string_view predicted, std::string_view reference)
        const
    {
        const EvalResult *m = find(predicted);
        const EvalResult *s = find(reference);
        if (!m || !s || s->cycles == 0.0)
            return std::nullopt;
        return std::abs(m->cycles - s->cycles) / s->cycles;
    }

    /**
     * Absolute relative CPI error of the in-order model vs the
     * in-order simulation ("model" vs "sim").
     */
    std::optional<double>
    cpiError() const
    {
        return cpiErrorOf(kModelBackend, kSimBackend);
    }

    /**
     * Absolute relative CPI error of the out-of-order interval model
     * vs the out-of-order simulation ("ooo" vs "oosim").
     */
    std::optional<double>
    oooCpiError() const
    {
        return cpiErrorOf(kOooBackend, kOoOSimBackend);
    }
};

/**
 * Per-benchmark design-space study.
 *
 * Holds the captured profile and, unless dropTrace() released it, the
 * generated trace; evaluations of individual points are cheap (model
 * backends) or trace-replaying (simulator backends).
 */
class DseStudy
{
  public:
    /**
     * @param bench Benchmark profile to study.
     * @param trace_len Dynamic instructions to generate.
     * @param program Optional pre-transformed program (compiler case
     *        study); defaults to the profile's own program.
     */
    DseStudy(const BenchmarkProfile &bench, InstCount trace_len);
    DseStudy(const BenchmarkProfile &bench, InstCount trace_len,
             const Program &program);

    /** Reconstitute a study from a loaded profile artifact. */
    explicit DseStudy(ProfileArtifact artifact);

    /**
     * Obtain a study for @p bench: loaded from its `.mprof` artifact
     * under @p dir when one exists (a damaged artifact is a fatal()
     * user error), otherwise profiled in-process at @p trace_len.
     * An empty @p dir always profiles.
     */
    static DseStudy loadOrProfile(const std::string &dir,
                                  const BenchmarkProfile &bench,
                                  InstCount trace_len);

    /**
     * The study of benchmark @p name loaded from its `.mprof` artifact
     * under @p dir, or nullopt when @p dir is empty or holds none.  A
     * damaged artifact is a fatal() user error.
     */
    static std::optional<DseStudy> tryLoad(const std::string &dir,
                                           const std::string &name);

    /**
     * Evaluate one design point with every backend in @p backends
     * (default: the analytical model only).  Thread-safe: never
     * mutates the study.  L2 geometries already prepare()d (or
     * profiled) are served from the memo; others are re-derived on
     * the calling thread by a one-geometry sweepL2() pass without
     * being cached.
     */
    PointEvaluation
    evaluate(const DesignPoint &point,
             const BackendSet &backends = defaultBackends()) const;

    /**
     * Thread-safe evaluation into a caller-owned result: bit-identical
     * to evaluate(), but reuses @p out's storage instead of
     * constructing a fresh PointEvaluation.  Sweep hot
     * loops pass a per-worker scratch (or the preassigned output
     * slot), so a model-speed evaluation performs no heap allocation
     * once the scratch has warmed up.
     */
    void evaluateInto(PointEvaluation &out, const DesignPoint &point,
                      const BackendSet &backends =
                          defaultBackends()) const;

    /**
     * evaluateInto() at @p terms.point, with terms the caller built
     * once for every benchmark at that point (the batch fan-out).
     */
    void evaluateInto(PointEvaluation &out, const PointTerms &terms,
                      const BackendSet &backends) const;

    /**
     * Memoize MemoryStats for every distinct L2 geometry in
     * @p points, so subsequent evaluations are pure lookups.  The
     * geometries not yet memoized are grouped by set count, and one
     * sweepL2() stack-distance pass answers every associativity of a
     * group.  The only writer of the memo: call it before sharing the
     * study read-only across threads.
     */
    void prepare(const std::vector<DesignPoint> &points);

    /**
     * True when every L2 geometry of @p points is profiled or
     * memoized, so prepare(points) would change nothing.  Reads the
     * memo: hold off prepare() meanwhile.
     */
    bool covers(const std::vector<DesignPoint> &points) const;

    /**
     * Snapshot the study as a serializable artifact.
     *
     * @param include_trace Also embed the dynamic trace so detailed
     *        (trace-replaying) backends work on the loaded study.
     */
    ProfileArtifact artifact(bool include_trace = true) const;

    /** Persist the study as a profile artifact at @p path. */
    void save(const std::string &path, bool include_trace = true) const;

    /** Load a study saved with save().  Throws ProfileIoError. */
    static DseStudy load(const std::string &path);

    /** The workload profile (collected on the default hierarchy). */
    const WorkloadProfile &profile() const { return prof; }

    /** The generated trace (empty for trace-less loaded artifacts). */
    const Trace &trace() const { return dynTrace; }

    /** True when trace-replaying backends can run on this study. */
    bool hasTrace() const { return !dynTrace.empty(); }

    /**
     * Release the trace: only trace-replaying backends read it after
     * profiling, and it is the largest part of a study.
     */
    void dropTrace() { dynTrace.clear(); }

    /**
     * Attach @p trace, e.g. one regenerated after dropTrace().  Not
     * thread-safe: no evaluation may run concurrently.
     */
    void attachTrace(Trace trace) { dynTrace = std::move(trace); }

    /** Benchmark name. */
    const std::string &name() const { return benchName; }

  private:
    /**
     * Stats for @p point's L2 geometry: the profiled ones at the
     * default geometry, else the memo entry, or null on a miss.
     */
    const MemoryStats *findMemo(const DesignPoint &point) const;

    /** Shared core of every evaluate path. */
    void evaluateWithInto(PointEvaluation &out, const MemoryStats &mem,
                          const PointTerms &terms,
                          const BackendSet &backends) const;

    std::string benchName;
    Trace dynTrace;
    WorkloadProfile prof;
    std::map<std::pair<std::uint64_t, std::uint32_t>, MemoryStats>
        l2Memo;
};

} // namespace mech

#endif // MECH_DSE_STUDY_HH
