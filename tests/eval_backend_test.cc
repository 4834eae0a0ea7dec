/**
 * @file
 * Tests for the unified evaluation-backend API: registry lookups and
 * set parsing, adapter equivalence with the underlying engines (the
 * backends are adapters, not re-implementations), request validation,
 * and extensibility with custom backends.
 */

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "dse/design_space.hh"
#include "dse/study.hh"
#include "eval/backend.hh"
#include "eval/registry.hh"
#include "model/inorder_model.hh"
#include "ooo/ooo_model.hh"
#include "sim/inorder_sim.hh"
#include "workload/suites.hh"

namespace {

using namespace mech;

constexpr InstCount kLen = 15000;

const DseStudy &
sharedStudy()
{
    static const DseStudy study(profileByName("tiffdither"), kLen);
    return study;
}

/** The default design point's terms. */
const PointTerms &
defaultTerms()
{
    static const PointTerms terms(defaultDesignPoint());
    return terms;
}

/** A request against the shared study at the default design point. */
EvalRequest
defaultRequest()
{
    const DseStudy &study = sharedStudy();
    EvalRequest req;
    req.program = &study.profile().program;
    req.memory = &study.profile().memory;
    req.branch = &study.profile().branchProfileFor(
        defaultDesignPoint().predictor);
    req.trace = &study.trace();
    req.terms = &defaultTerms();
    return req;
}

// ---- registry --------------------------------------------------------------------

TEST(BackendRegistry, GlobalHasBuiltins)
{
    BackendRegistry &reg = BackendRegistry::global();
    ASSERT_NE(reg.find(kModelBackend), nullptr);
    ASSERT_NE(reg.find(kSimBackend), nullptr);
    ASSERT_NE(reg.find(kOooBackend), nullptr);
    EXPECT_EQ(reg.find("model")->name(), "model");
    EXPECT_FALSE(reg.find("model")->isDetailed());
    EXPECT_TRUE(reg.find("sim")->isDetailed());
    EXPECT_TRUE(reg.find("sim")->needsTrace());
    EXPECT_FALSE(reg.find("no-such-backend"));
}

TEST(BackendRegistry, ParseSetPreservesOrderAndTrimsSpaces)
{
    BackendSet set = backendSet(" sim , model ");
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set[0]->name(), "sim");
    EXPECT_EQ(set[1]->name(), "model");
}

TEST(BackendRegistry, DefaultSetIsModelOnly)
{
    const BackendSet &set = defaultBackends();
    ASSERT_EQ(set.size(), 1u);
    EXPECT_EQ(set[0]->name(), kModelBackend);
}

TEST(BackendRegistry, CustomBackendsPlugIn)
{
    /** A trivial fixed-CPI backend, as an external user would add. */
    class ConstantBackend : public EvalBackend
    {
      public:
        std::string_view name() const override { return "constant"; }
        std::string_view
        description() const override
        {
            return "fixed CPI of 1";
        }
        EvalResult
        evaluate(const EvalRequest &req) const override
        {
            EvalResult res;
            res.backend = std::string(name());
            res.instructions = req.program->n;
            res.cycles = static_cast<double>(req.program->n);
            return res;
        }
    };

    BackendRegistry local;
    local.registerBackend(std::make_unique<ConstantBackend>());
    BackendSet set = local.parseSet("constant");
    ASSERT_EQ(set.size(), 1u);

    EvalResult res = set[0]->evaluate(defaultRequest());
    EXPECT_DOUBLE_EQ(res.cpi(), 1.0);
}

// ---- adapter equivalence ----------------------------------------------------------

TEST(EvalBackend, ModelBackendMatchesEvaluateInOrder)
{
    EvalRequest req = defaultRequest();
    EvalResult res =
        BackendRegistry::global().at(kModelBackend).evaluate(req);

    ModelResult direct =
        evaluateInOrder(*req.program, *req.memory, *req.branch,
                        machineFor(req.terms->point));

    EXPECT_EQ(res.cycles, direct.cycles);
    EXPECT_EQ(res.instructions, direct.instructions);
    EXPECT_TRUE(res.hasStack);
    for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
        auto comp = static_cast<CpiComponent>(c);
        EXPECT_EQ(res.stack[comp], direct.stack[comp])
            << cpiComponentName(comp);
    }
    EXPECT_FALSE(res.detail.has_value());
    EXPECT_GT(res.edp, 0.0);
    EXPECT_GT(res.energy.totalJ(), 0.0);
    EXPECT_GT(res.activity.instructions, 0.0);
}

TEST(EvalBackend, SimBackendMatchesSimulateInOrder)
{
    EvalRequest req = defaultRequest();
    EvalResult res =
        BackendRegistry::global().at(kSimBackend).evaluate(req);

    SimResult direct =
        simulateInOrder(sharedStudy().trace(), simConfigFor(req.terms->point));

    ASSERT_TRUE(res.detail.has_value());
    EXPECT_EQ(res.cycles, static_cast<double>(direct.cycles));
    EXPECT_EQ(res.detail->cycles, direct.cycles);
    EXPECT_EQ(res.detail->mispredicts, direct.mispredicts);
    EXPECT_EQ(res.instructions, direct.retired);
    EXPECT_FALSE(res.hasStack);
    EXPECT_GT(res.edp, 0.0);
}

TEST(EvalBackend, OooBackendMatchesEvaluateOutOfOrder)
{
    DesignPoint point = defaultDesignPoint();
    point.ooo.robSize = 64;
    const PointTerms terms(point);
    EvalRequest req = defaultRequest();
    req.terms = &terms;
    EvalResult res =
        BackendRegistry::global().at(kOooBackend).evaluate(req);

    OooParams ooo;
    ooo.robSize = 64;
    ModelResult direct =
        evaluateOutOfOrder(*req.program, *req.memory, *req.branch,
                           machineFor(point), ooo);

    EXPECT_EQ(res.cycles, direct.cycles);
    EXPECT_TRUE(res.hasStack);
    for (std::size_t c = 0; c < kNumCpiComponents; ++c) {
        auto comp = static_cast<CpiComponent>(c);
        EXPECT_EQ(res.stack[comp], direct.stack[comp])
            << cpiComponentName(comp);
    }
}

TEST(EvalBackend, BackendsShareTheActivityModel)
{
    // Same cycles in => same energy out, whatever backend produced
    // them: the EDP ordering of backends must reflect cycles only.
    EvalRequest req = defaultRequest();
    EvalResult model =
        BackendRegistry::global().at(kModelBackend).evaluate(req);
    EvalResult ooo =
        BackendRegistry::global().at(kOooBackend).evaluate(req);
    EXPECT_EQ(model.activity.instructions, ooo.activity.instructions);
    EXPECT_EQ(model.activity.l2Accesses, ooo.activity.l2Accesses);
    EXPECT_EQ(model.activity.branches, ooo.activity.branches);
}

// ---- PointEvaluation accessors ----------------------------------------------------

TEST(PointEvaluation, AccessorsReflectBackendSet)
{
    DseStudy study(profileByName("sha"), kLen);
    PointEvaluation ev =
        study.evaluate(defaultDesignPoint(), backendSet("ooo,model"));
    ASSERT_EQ(ev.results.size(), 2u);
    EXPECT_EQ(ev.results[0].backend, kOooBackend);
    EXPECT_EQ(ev.results[1].backend, kModelBackend);
    EXPECT_TRUE(ev.has(kOooBackend));
    EXPECT_FALSE(ev.has(kSimBackend));
    EXPECT_EQ(ev.sim(), nullptr);
    EXPECT_EQ(&ev.model(), &ev.results[1]);
    EXPECT_FALSE(ev.cpiError().has_value());
}

// ---- request validation -----------------------------------------------------------

TEST(EvalBackendDeathTest, SimWithoutTraceIsAFatalUserError)
{
    EvalRequest req = defaultRequest();
    req.trace = nullptr;
    // fatal(), not panic(): a trace-less artifact is a user-input
    // condition and must exit cleanly rather than abort.
    EXPECT_EXIT(
        BackendRegistry::global().at(kSimBackend).evaluate(req),
        ::testing::ExitedWithCode(1), "replays the trace");
}

TEST(EvalBackendDeathTest, MissingProfileViewPanics)
{
    EvalRequest req = defaultRequest();
    req.memory = nullptr;
    EXPECT_DEATH(
        BackendRegistry::global().at(kModelBackend).evaluate(req),
        "profile view");
}

} // namespace
