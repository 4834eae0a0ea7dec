/**
 * @file
 * Tests for the serve layer: protocol parsing (including every
 * malformed-input class), the pipelined session loop, cache/hit
 * accounting, thread-count byte-identity, batch frontiers against
 * the search engine, and graceful drain.
 *
 * Sessions run fully in-process over stringstreams: the stdio
 * ServerSession, minus the fds, in front of the request pipeline the
 * TCP front end shares (tests/serve_tcp_test.cc checks the two agree).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "common/json.hh"
#include "dse/study.hh"
#include "eval/registry.hh"
#include "obs/trace.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/session.hh"

#include "search/objective.hh"
#include "search/report.hh"
#include "search/space_spec.hh"
#include "search/strategy.hh"
#include "workload/suites.hh"

#include "test_util.hh"

namespace mech::serve {
namespace {

constexpr InstCount kTraceLen = 10000;

ServeConfig
testConfig(unsigned threads = 1)
{
    ServeConfig cfg;
    cfg.traceLen = kTraceLen;
    cfg.threads = threads;
    cfg.defaultBench = {"jpeg_c"};
    return cfg;
}

/** Run @p requests through a fresh service; return response lines. */
std::vector<std::string>
serveLines(const std::string &requests, EvalService &service,
           SessionOptions opts = {})
{
    opts.latencyFields = false;
    std::istringstream in(requests);
    std::ostringstream out;
    IstreamLineSource source(in);
    ServerSession session(service, source, out, opts);
    session.run();

    std::vector<std::string> lines;
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line))
        lines.push_back(line);
    return lines;
}

json::Value
parsedResponse(const std::string &line)
{
    std::string error;
    auto v = json::parse(line, &error);
    EXPECT_TRUE(v.has_value()) << line << ": " << error;
    return v ? *v : json::Value{};
}

std::string
typeOf(const json::Value &v)
{
    const json::Value *t = v.get("type");
    return t && t->isString() ? t->string : "";
}

// ---- protocol parsing -----------------------------------------------------

TEST(ServeProtocol, ParsesEvalWithKeyAndAxes)
{
    ParseOutcome a = parseRequest(
        R"({"id": 1, "type": "eval", "point": )"
        R"("l2kb=256,assoc=16,depth=7,freq=0.8,)"
        R"(width=2,pred=hybrid3k5"})");
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_EQ(a.request->idJson, "1");
    EXPECT_EQ(a.request->point->l2KB, 256u);
    EXPECT_EQ(a.request->point->predictor, PredictorKind::Hybrid3K5);

    ParseOutcome b = parseRequest(
        R"({"id": "x", "type": "eval", "point": {"width": 3}})");
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_EQ(b.request->idJson, "\"x\"");
    DesignPoint expect = defaultDesignPoint();
    expect.width = 3;
    EXPECT_EQ(*b.request->point, expect);
}

TEST(ServeProtocol, ParsesOooPointAxes)
{
    ParseOutcome a = parseRequest(
        R"({"type": "eval", "point": {"rob": 64, "iq": 16,)"
        R"( "fumul": 2, "buses": 8}})");
    ASSERT_TRUE(a.ok()) << a.error;
    DesignPoint expect = defaultDesignPoint();
    expect.ooo.robSize = 64;
    expect.ooo.iqSize = 16;
    expect.ooo.fuMul = 2;
    expect.ooo.resultBuses = 8;
    EXPECT_EQ(*a.request->point, expect);

    // Zero-sized structures are malformed at the protocol layer.
    EXPECT_FALSE(parseRequest(
                     R"({"type": "eval", "point": {"rob": 0}})")
                     .ok());
    EXPECT_FALSE(parseRequest(
                     R"({"type": "eval", "point": {"buses": 0}})")
                     .ok());
}

TEST(ServeProtocol, NameListsAcceptCsvAndArrays)
{
    ParseOutcome a = parseRequest(
        R"({"type": "eval", "point": {"width": 1},)"
        R"( "bench": "jpeg_c, sha", "backends": ["model", "sim"]})");
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_EQ(a.request->bench,
              (std::vector<std::string>{"jpeg_c", "sha"}));
    EXPECT_EQ(a.request->backends,
              (std::vector<std::string>{"model", "sim"}));
}

TEST(ServeProtocol, MalformedLinesReportNotCrash)
{
    // Truncated JSON, wrong shapes, bad axes: all must come back as
    // messages, never terminate the process.
    for (const char *line : {
             "{\"type\": \"eval\", \"point\":",
             "[1, 2, 3]",
             "{\"type\": 7}",
             "{\"type\": \"fly\"}",
             "{\"type\": \"eval\"}",
             "{\"type\": \"eval\", \"point\": 9}",
             "{\"type\": \"eval\", \"point\": \"l2kb=512\"}",
             "{\"type\": \"eval\", \"point\": {}}",
             "{\"type\": \"eval\", \"point\": {\"l2kbb\": 512}}",
             "{\"type\": \"eval\", \"point\": {\"width\": 0}}",
             "{\"type\": \"eval\", \"point\": {\"freq\": -1}}",
             "{\"type\": \"eval\", \"point\": {\"pred\": \"p6\"}}",
             "{\"type\": \"batch\"}",
             "{\"type\": \"batch\", \"space\": \"\"}",
             "{\"type\": \"eval\", \"point\": {\"width\": 1},"
             " \"bench\": 3}",
             "{\"id\": [], \"type\": \"stats\"}",
         }) {
        ParseOutcome outcome = parseRequest(line);
        EXPECT_FALSE(outcome.ok()) << line;
        EXPECT_FALSE(outcome.error.empty()) << line;
    }
}

TEST(ServeProtocol, IdEchoSurvivesParseFailures)
{
    ParseOutcome outcome =
        parseRequest(R"({"id": 42, "type": "eval", "point": 1})");
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.idJson, "42");
    EXPECT_EQ(errorResponse(outcome.idJson, "boom"),
              "{\"schema_version\": 1, \"id\": 42, "
              "\"type\": \"error\", \"error\": \"boom\"}");
}

// ---- sessions end to end --------------------------------------------------

TEST(ServeSession, AnswersInRequestOrderWithCacheFlags)
{
    EvalService service(testConfig());
    const std::string point = defaultDesignPoint().toKey();
    std::string requests;
    requests += "{\"id\": 1, \"type\": \"eval\", \"point\": \"" +
                point + "\"}\n";
    requests += "not json at all\n";
    requests += "{\"id\": 3, \"type\": \"eval\", \"point\": \"" +
                point + "\"}\n";
    requests += "{\"id\": 4, \"type\": \"stats\"}\n";

    std::vector<std::string> lines = serveLines(requests, service);
    ASSERT_EQ(lines.size(), 4u);

    json::Value r1 = parsedResponse(lines[0]);
    EXPECT_EQ(typeOf(r1), "result");
    EXPECT_EQ(r1.get("id")->number, 1.0);
    EXPECT_FALSE(r1.get("cached")->boolean);
    ASSERT_NE(r1.get("results")->get("model"), nullptr);
    double cpi = r1.get("results")
                     ->get("model")
                     ->get("objectives")
                     ->get("cpi")
                     ->number;
    EXPECT_GT(cpi, 0.1);
    EXPECT_LT(cpi, 10.0);

    EXPECT_EQ(typeOf(parsedResponse(lines[1])), "error");

    json::Value r3 = parsedResponse(lines[2]);
    EXPECT_EQ(typeOf(r3), "result");
    EXPECT_TRUE(r3.get("cached")->boolean);

    json::Value r4 = parsedResponse(lines[3]);
    EXPECT_EQ(typeOf(r4), "stats");
    EXPECT_EQ(r4.get("cache")->get("requested")->number, 2.0);
    EXPECT_EQ(r4.get("cache")->get("hits")->number, 1.0);
    EXPECT_EQ(r4.get("cache")->get("misses")->number, 1.0);
}

TEST(ServeSession, StatsCarryUptimeAndGroupCacheOccupancy)
{
    EvalService service(testConfig());
    const std::string point = defaultDesignPoint().toKey();
    std::string requests;
    requests += "{\"id\": 1, \"type\": \"eval\", \"point\": \"" +
                point + "\"}\n";
    requests += "{\"id\": 2, \"type\": \"eval\", \"point\": \"" +
                point + "\"}\n";
    requests += "{\"id\": 3, \"type\": \"stats\"}\n";

    std::vector<std::string> lines = serveLines(requests, service);
    ASSERT_EQ(lines.size(), 3u);
    json::Value stats = parsedResponse(lines[2]);

    // Deterministic mode pins wall clock to 0 and omits the latency
    // quantiles entirely — the response bytes carry no timing.
    ASSERT_NE(stats.get("uptime_ms"), nullptr);
    EXPECT_EQ(stats.get("uptime_ms")->number, 0.0);
    EXPECT_EQ(stats.get("latency_quantiles_us"), nullptr);

    const json::Value *groups = stats.get("group_caches");
    ASSERT_NE(groups, nullptr);
    ASSERT_TRUE(groups->isArray());
    ASSERT_EQ(groups->array.size(), 1u);
    const json::Value &g = groups->array[0];
    EXPECT_FALSE(g.get("key")->string.empty());
    EXPECT_EQ(g.get("points")->number, 1.0);
    EXPECT_EQ(g.get("hits")->number, 1.0);
    EXPECT_EQ(g.get("misses")->number, 1.0);
    EXPECT_EQ(g.get("hit_rate")->number, 0.5);
}

TEST(ServeSession, TimingStatsReportLatencyQuantiles)
{
    EvalService service(testConfig());
    const std::string point = defaultDesignPoint().toKey();
    std::string requests;
    requests += "{\"id\": 1, \"type\": \"eval\", \"point\": \"" +
                point + "\"}\n";
    requests += "{\"id\": 2, \"type\": \"stats\"}\n";

    std::istringstream in(requests);
    std::ostringstream out;
    IstreamLineSource source(in);
    SessionOptions opts;
    opts.latencyFields = true;
    ServerSession session(service, source, out, opts);
    session.run();

    std::vector<std::string> lines;
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);

    json::Value stats = parsedResponse(lines[1]);
    const json::Value *q = stats.get("latency_quantiles_us");
    ASSERT_NE(q, nullptr);
    for (const char *kind :
         {"result", "frontier", "control", "error", "queue_wait"}) {
        ASSERT_NE(q->get(kind), nullptr) << kind;
        ASSERT_NE(q->get(kind)->get("count"), nullptr) << kind;
        EXPECT_LE(q->get(kind)->get("p50")->number,
                  q->get(kind)->get("p99")->number)
            << kind;
    }
    // This session answered at least one eval in timing mode, so the
    // result histogram cannot be empty.  (The instruments are
    // process-wide, so other tests may have added more.)
    EXPECT_GE(q->get("result")->get("count")->number, 1.0);
}

TEST(ServeSession, MalformedServiceInputsYieldStructuredErrors)
{
    EvalService service(testConfig());
    const std::string good = defaultDesignPoint().toKey();
    std::string requests;
    // Unknown names of every kind, plus semantically invalid points
    // (out of the representable space) with valid syntax.
    requests += "{\"id\": 1, \"type\": \"eval\", \"point\": \"" +
                good + "\", \"bench\": [\"nope\"]}\n";
    requests += "{\"id\": 2, \"type\": \"eval\", \"point\": \"" +
                good + "\", \"backends\": \"warp\"}\n";
    requests += "{\"id\": 3, \"type\": \"eval\", \"point\": \"" +
                good + "\", \"objectives\": [\"speed\"]}\n";
    requests += "{\"id\": 4, \"type\": \"eval\", \"point\": "
                "{\"l2kb\": 96}}\n";
    requests += "{\"id\": 5, \"type\": \"eval\", \"point\": "
                "{\"width\": 12}, \"objectives\": "
                "[\"cpi\", \"cpi\"]}\n";
    requests += "{\"id\": 6, \"type\": \"eval\", \"point\": "
                "{\"pred\": \"bimodal\"}}\n";
    requests += "{\"id\": 7, \"type\": \"batch\", \"space\": "
                "\"l2kb=67\"}\n";
    requests += "{\"id\": 8, \"type\": \"batch\", \"space\": "
                "\"wide\", \"backends\": \"model,sim\"}\n";
    requests += "{\"id\": 9, \"type\": \"eval\", \"point\": \"" +
                good + "\"}\n";

    std::vector<std::string> lines = serveLines(requests, service);
    ASSERT_EQ(lines.size(), 9u);
    for (std::size_t i = 0; i < 8; ++i) {
        json::Value v = parsedResponse(lines[i]);
        EXPECT_EQ(typeOf(v), "error") << lines[i];
        EXPECT_FALSE(v.get("error")->string.empty());
        EXPECT_EQ(v.get("id")->number, static_cast<double>(i + 1));
    }
    // The session survived it all and still answers real requests.
    EXPECT_EQ(typeOf(parsedResponse(lines[8])), "result");
}

TEST(ServeSession, OooAxesNeedAnOooBackend)
{
    EvalService service(testConfig());
    std::string requests;
    // Sweeping rob under the default (in-order model) backend: the
    // axis would be silently ignored, so the service refuses.
    requests += "{\"id\": 1, \"type\": \"batch\", \"space\": "
                "\"rob=64,128\"}\n";
    // Same space under an out-of-order backend is served.
    requests += "{\"id\": 2, \"type\": \"batch\", \"space\": "
                "\"rob=64,128\", \"backends\": \"ooo\"}\n";
    // Point evals aren't sweeps: explicit axes work per backend, and
    // out-of-range structures are semantic errors, not crashes.
    requests += "{\"id\": 3, \"type\": \"eval\", \"point\": "
                "{\"rob\": 64}, \"backends\": \"ooo,oosim\"}\n";
    requests += "{\"id\": 4, \"type\": \"eval\", \"point\": "
                "{\"rob\": 8192}}\n";

    std::vector<std::string> lines = serveLines(requests, service);
    ASSERT_EQ(lines.size(), 4u);

    json::Value r1 = parsedResponse(lines[0]);
    EXPECT_EQ(typeOf(r1), "error");
    EXPECT_NE(r1.get("error")->string.find("out-of-order"),
              std::string::npos);

    EXPECT_EQ(typeOf(parsedResponse(lines[1])), "frontier");

    json::Value r3 = parsedResponse(lines[2]);
    EXPECT_EQ(typeOf(r3), "result");
    ASSERT_NE(r3.get("results")->get("oosim"), nullptr);
    EXPECT_GT(r3.get("results")
                  ->get("oosim")
                  ->get("objectives")
                  ->get("cpi")
                  ->number,
              0.0);

    EXPECT_EQ(typeOf(parsedResponse(lines[3])), "error");
}

TEST(ServeSession, SimAfterAModelOnlyGroupAnswersFreshBytes)
{
    // A model-only group builds its studies without their traces; a
    // later model,sim group on the same benchmark regenerates the
    // trace and must answer exactly what a fresh server answers when
    // asked the model,sim request first.
    const std::string point =
        "\"point\": \"l2kb=256,assoc=16,depth=7,freq=0.8,width=2,"
        "pred=hybrid3k5\"";
    const std::string model_only = "{\"id\": 1, \"type\": \"eval\", "
                                   "\"bench\": [\"sha\"], " +
                                   point + "}\n";
    const std::string with_sim =
        "{\"id\": 2, \"type\": \"eval\", \"bench\": [\"sha\"], "
        "\"backends\": [\"model\", \"sim\"], " +
        point + "}\n";
    EvalService warmed(testConfig(2));
    EvalService fresh(testConfig(2));
    std::vector<std::string> after = serveLines(model_only + with_sim, warmed);
    std::vector<std::string> first = serveLines(with_sim, fresh);
    ASSERT_EQ(after.size(), 2u);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(typeOf(parsedResponse(after[1])), "result") << after[1];
    EXPECT_EQ(after[1], first[0]);
}

TEST(ServeSession, PathologicalGeometryIsRejectedNotAllocated)
{
    // A hostile client naming a gigantic L2 must get an error, not
    // drive a tag-array allocation (SpaceSpec::kMaxL2KB bounds it).
    EvalService service(testConfig());
    std::vector<std::string> lines = serveLines(
        "{\"id\": 1, \"type\": \"eval\", \"point\": "
        "{\"l2kb\": 1073741824}}\n"
        "{\"id\": 2, \"type\": \"batch\", \"space\": "
        "\"l2kb=1048576\"}\n",
        service);
    ASSERT_EQ(lines.size(), 2u);
    for (const std::string &line : lines) {
        json::Value v = parsedResponse(line);
        EXPECT_EQ(typeOf(v), "error") << line;
        EXPECT_NE(v.get("error")->string.find("64 MiB"),
                  std::string::npos)
            << line;
    }
}

TEST(ServeSession, PathologicalDepthIsRefusedAndTheSessionContinues)
{
    // `sim` sizes per-stage front-end state from the depth: at 2^32-1
    // one request would allocate gigabytes and abort the server.
    // SpaceSpec::kMaxDepth refuses it, and the next line is answered.
    EvalService service(testConfig());
    auto eval = [](int id, const std::string &depth) {
        return "{\"id\": " + std::to_string(id) +
               ", \"type\": \"eval\", \"backends\": [\"model\", "
               "\"sim\"], \"point\": \"l2kb=512,assoc=8,depth=" +
               depth + ",freq=1,width=4,pred=gshare1k\"}\n";
    };
    const std::vector<std::string> lines = serveLines(
        eval(1, "4294967295") +
            eval(2, std::to_string(SpaceSpec::kMaxDepth + 1)) +
            eval(3, "9"),
        service);
    ASSERT_EQ(lines.size(), 3u);
    for (std::size_t i = 0; i < 2; ++i) {
        const json::Value v = parsedResponse(lines[i]);
        EXPECT_EQ(typeOf(v), "error") << lines[i];
        EXPECT_NE(v.get("error")->string.find("above maximum 1024"),
                  std::string::npos)
            << lines[i];
    }
    EXPECT_EQ(typeOf(parsedResponse(lines[2])), "result") << lines[2];
}

TEST(ServeSession, WideBatchIsCappedByMaxSpace)
{
    ServeConfig cfg = testConfig();
    cfg.maxSpacePoints = 100;
    EvalService service(cfg);
    std::vector<std::string> lines = serveLines(
        "{\"id\": 1, \"type\": \"batch\", \"space\": \"table2\"}\n",
        service);
    ASSERT_EQ(lines.size(), 1u);
    json::Value v = parsedResponse(lines[0]);
    EXPECT_EQ(typeOf(v), "error");
    EXPECT_NE(v.get("error")->string.find("192"), std::string::npos);
}

TEST(ServeSession, OversizedLineIsAnErrorNotACrash)
{
    EvalService service(testConfig());
    std::string huge = "{\"pad\": \"";
    huge.append(kMaxRequestBytes + 16, 'x');
    huge += "\"}";
    std::vector<std::string> lines =
        serveLines(huge + "\n{\"id\": 2, \"type\": \"stats\"}\n",
                   service);
    ASSERT_EQ(lines.size(), 2u);
    json::Value v = parsedResponse(lines[0]);
    EXPECT_EQ(typeOf(v), "error");
    EXPECT_NE(v.get("error")->string.find("exceeds"),
              std::string::npos);
    EXPECT_EQ(typeOf(parsedResponse(lines[1])), "stats");
}

TEST(ServeSession, ShutdownDrainsAndStops)
{
    EvalService service(testConfig());
    const std::string point = defaultDesignPoint().toKey();
    std::string requests;
    requests += "{\"id\": 1, \"type\": \"eval\", \"point\": \"" +
                point + "\"}\n";
    requests += "{\"id\": 2, \"type\": \"shutdown\"}\n";
    requests += "{\"id\": 3, \"type\": \"eval\", \"point\": \"" +
                point + "\"}\n"; // after shutdown: never answered

    std::istringstream in(requests);
    std::ostringstream out;
    IstreamLineSource source(in);
    SessionOptions opts;
    opts.latencyFields = false;
    ServerSession session(service, source, out, opts);
    SessionStats stats = session.run();
    EXPECT_TRUE(stats.shutdownRequested);

    std::vector<std::string> lines;
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(typeOf(parsedResponse(lines[0])), "result");
    json::Value bye = parsedResponse(lines[1]);
    EXPECT_EQ(typeOf(bye), "bye");
    EXPECT_EQ(bye.get("requests")->get("eval")->number, 1.0);
}

TEST(ServeSession, MaxBatchCapsEachFlush)
{
    EvalService service(testConfig());
    SpaceSpec spec = SpaceSpec::table2();
    std::string requests;
    for (int i = 0; i < 5; ++i) {
        requests += "{\"id\": " + std::to_string(i) +
                    ", \"type\": \"eval\", \"point\": \"" +
                    spec.at(i).toKey() + "\"}\n";
    }
    SessionOptions opts;
    opts.maxBatch = 2;

    auto recorder = std::make_unique<obs::TraceRecorder>();
    obs::TraceRecorder::install(recorder.get());
    const std::vector<std::string> lines =
        serveLines(requests, service, opts);
    obs::TraceRecorder::install(nullptr);
    ASSERT_EQ(lines.size(), 5u);

    // Five buffered lines at a cap of two: flushes of 2, 2 and 1.
    std::ostringstream os;
    recorder->writeJson(os);
    std::string error;
    const auto doc = json::parse(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    int flushes = 0;
    for (const json::Value &ev : doc->get("traceEvents")->array)
        flushes += ev.get("name")->string == "session.flush";
    EXPECT_EQ(flushes, 3);
}

TEST(ServeSession, LatencyFieldsAppendWhenEnabled)
{
    EvalService service(testConfig());
    std::istringstream in("{\"id\": 1, \"type\": \"info\"}\n");
    std::ostringstream out;
    IstreamLineSource source(in);
    SessionOptions opts;
    opts.latencyFields = true;
    ServerSession session(service, source, out, opts);
    session.run();
    json::Value v = parsedResponse(out.str());
    ASSERT_NE(v.get("latency_us"), nullptr);
    EXPECT_GE(v.get("latency_us")->number, 0.0);
}

// ---- determinism ----------------------------------------------------------

/** A mixed 600-line request stream over the Table 2 space. */
std::string
replayStream()
{
    std::string requests;
    SpaceSpec spec = SpaceSpec::table2();
    for (int i = 0; i < 600; ++i) {
        DesignPoint p = spec.at((i * 37) % spec.size());
        requests += "{\"id\": " + std::to_string(i) +
                    ", \"type\": \"eval\", \"point\": \"" +
                    p.toKey() + "\"}\n";
        if (i == 300) {
            requests += "{\"id\": 9300, \"type\": \"batch\", "
                        "\"space\": \"l2kb=128,256;width=1,4\"}\n";
        }
    }
    requests += "{\"id\": 10000, \"type\": \"stats\"}\n";
    return requests;
}

TEST(ServeDeterminism, ThreadCountNeverChangesResponseBytes)
{
    EvalService serial(testConfig(1));
    EvalService threaded(testConfig(4));
    const std::string requests = replayStream();
    std::vector<std::string> a = serveLines(requests, serial);
    std::vector<std::string> b = serveLines(requests, threaded);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "line " << i;
}

TEST(ServeDeterminism, ChunkedDeliveryMatchesOneShot)
{
    // The same stream fed line by line (forcing a flush per line,
    // maxBatch 1) must produce byte-identical output to the fully
    // pipelined run: accounting may not depend on flush boundaries.
    EvalService one(testConfig(2));
    EvalService chunked(testConfig(2));
    const std::string requests = replayStream();
    SessionOptions tiny;
    tiny.maxBatch = 1;
    std::vector<std::string> a = serveLines(requests, one);
    std::vector<std::string> b =
        serveLines(requests, chunked, tiny);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "line " << i;
}

TEST(ServeDeterminism, ReplayHitRateExceedsNinetyPercent)
{
    // The acceptance-criteria scenario in miniature: a long replay
    // over a bounded space must be served overwhelmingly from the
    // memo.
    EvalService service(testConfig(2));
    SpaceSpec spec = SpaceSpec::table2();
    std::string requests;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        DesignPoint p = spec.at((i * 13) % spec.size());
        requests += "{\"type\": \"eval\", \"point\": \"" +
                    p.toKey() + "\"}\n";
    }
    std::vector<std::string> lines = serveLines(requests, service);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(n));

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requested, static_cast<std::uint64_t>(n));
    EXPECT_EQ(stats.misses, spec.size());
    EXPECT_GT(stats.hitRate(), 0.90);
    EXPECT_EQ(stats.cachedPoints, spec.size());
}

TEST(ServeOracle, ServedValuesMatchTheStudiesBitForBit)
{
    // Every served number against an independent oracle: a fresh
    // DseStudy per benchmark evaluated directly.  Three benchmarks and
    // a two-backend set exercise the serve layout (per-benchmark
    // values at [(b * NBE + be) * K + k]); the points span three L2
    // geometries and repeat one, so hits, in-flush duplicates and
    // fresh geometries all appear.
    const std::vector<std::string> benches = {"sha", "adpcm_d",
                                              "patricia"};
    const BackendSet backends = backendSet("model,sim");
    const std::vector<Objective> objs = parseObjectives("cpi,edp");
    const SpaceSpec spec = SpaceSpec::table2();
    const std::vector<DesignPoint> points = {
        defaultDesignPoint(), spec.at(5), spec.at(100), spec.at(191),
        defaultDesignPoint()};

    std::string requests;
    for (std::size_t i = 0; i < points.size(); ++i) {
        requests += "{\"id\": " + std::to_string(i) +
                    ", \"type\": \"eval\", \"point\": \"" +
                    points[i].toKey() +
                    "\", \"bench\": \"sha,adpcm_d,patricia\", "
                    "\"backends\": \"model,sim\", "
                    "\"objectives\": \"cpi,edp\"}\n";
    }

    std::vector<DseStudy> studies;
    for (const std::string &name : benches)
        studies.emplace_back(profileByName(name), kTraceLen);

    for (unsigned threads : {1u, 3u}) {
        EvalService service(testConfig(threads));
        std::vector<std::string> lines = serveLines(requests, service);
        ASSERT_EQ(lines.size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            json::Value v = parsedResponse(lines[i]);
            ASSERT_EQ(typeOf(v), "result") << lines[i];
            const json::Value *results = v.get("results");
            ASSERT_NE(results, nullptr);
            for (std::size_t be = 0; be < backends.size(); ++be) {
                const std::string be_name(backends[be]->name());
                const json::Value *r = results->get(be_name);
                ASSERT_NE(r, nullptr) << be_name;
                for (std::size_t k = 0; k < objs.size(); ++k) {
                    double sum = 0.0;
                    for (std::size_t b = 0; b < benches.size(); ++b) {
                        const PointEvaluation ev =
                            studies[b].evaluate(points[i], backends);
                        const double want =
                            objs[k].value(ev.results[be], points[i]);
                        EXPECT_EQ(r->get("per_benchmark")
                                      ->get(benches[b])
                                      ->get(objs[k].name)
                                      ->number,
                                  want)
                            << "threads " << threads << " point " << i
                            << " " << be_name << " " << benches[b]
                            << " " << objs[k].name;
                        sum += want;
                    }
                    EXPECT_EQ(r->get("objectives")
                                  ->get(objs[k].name)
                                  ->number,
                              sum / static_cast<double>(benches.size()))
                        << "threads " << threads << " point " << i
                        << " " << be_name << " " << objs[k].name;
                }
            }
        }
    }
}

// ---- batch vs the search engine -------------------------------------------

// ---- every admitted point answers finite JSON -----------------------------

/** Every objective, so each formula meets every bound. */
constexpr const char *kAllObjectives =
    "[\"cpi\", \"cycles\", \"delay\", \"bips\", \"energy\", "
    "\"edp\", \"ed2p\"]";

/** The values at and just inside [lo, hi]. */
template <typename T>
std::vector<T>
edges(T lo, T hi)
{
    return {lo, static_cast<T>(lo + 1), static_cast<T>(hi - 1), hi};
}

std::vector<double>
freqEdges()
{
    constexpr double lo = SpaceSpec::kMinFreqGHz;
    constexpr double hi = SpaceSpec::kMaxFreqGHz;
    return {lo, std::nextafter(lo, hi), std::nextafter(hi, lo), hi};
}

/** A seeded point whose every axis sits at or just inside a bound. */
DesignPoint
edgePoint(Rng &rng)
{
    auto pick = [&rng](const auto &values) {
        return values[rng.below(values.size())];
    };
    DesignPoint p;
    const std::uint64_t max_kb = SpaceSpec::kMaxL2KB;
    p.l2KB = pick(std::vector<std::uint64_t>{1, 2, max_kb / 2, max_kb});
    // Powers of two up to one set's worth of ways (16 per KiB).
    p.l2Assoc = std::min<std::uint32_t>(
        pick(std::vector<std::uint32_t>{1, 2, 1u << 19, 1u << 20}),
        static_cast<std::uint32_t>(p.l2KB * 16));
    p.depth = pick(edges<std::uint32_t>(5, SpaceSpec::kMaxDepth));
    p.freqGHz = pick(freqEdges());
    p.width = pick(edges<std::uint32_t>(1, 16));
    p.predictor = rng.chance(0.5) ? PredictorKind::Gshare1K
                                  : PredictorKind::Hybrid3K5;
    p.ooo.robSize = std::max(p.width,
                             pick(edges<std::uint32_t>(1, SpaceSpec::kMaxRobSize)));
    p.ooo.iqSize = pick(edges<std::uint32_t>(1, SpaceSpec::kMaxIqSize));
    const auto fu = edges<std::uint32_t>(1, SpaceSpec::kMaxFuCount);
    p.ooo.fuAlu = pick(fu);
    p.ooo.fuMul = pick(fu);
    p.ooo.fuMem = pick(fu);
    p.ooo.fuBr = pick(fu);
    p.ooo.resultBuses =
        pick(edges<std::uint32_t>(1, SpaceSpec::kMaxResultBuses));
    return p;
}

TEST(ServeProperty, EveryAdmittedEdgeAnswersFiniteJson)
{
    // Seeded eval and batch requests at and just inside every axis
    // bound, through both mechanistic models: every response line
    // must parse, and every number in it must be finite.  Points just
    // outside the frequency bounds, the 1e-300 GHz point among them,
    // must be refused with an error line instead.
    Rng rng(0x66696e69ull);
    std::string requests;
    int id = 0;
    auto eval = [&](const std::string &key) {
        requests += "{\"id\": " + std::to_string(++id) +
                    ", \"type\": \"eval\", \"bench\": [\"sha\"], "
                    "\"backends\": [\"model\", \"ooo\"], "
                    "\"objectives\": " +
                    std::string(kAllObjectives) + ", \"point\": \"" + key +
                    "\"}\n";
    };
    for (int i = 0; i < 64; ++i)
        eval(edgePoint(rng).toKey());
    const int admitted = id;
    for (double bad : {std::nextafter(SpaceSpec::kMinFreqGHz, 0.0),
                       std::nextafter(SpaceSpec::kMaxFreqGHz, 1e300), 1e-300}) {
        DesignPoint p = defaultDesignPoint();
        p.freqGHz = bad;
        eval(p.toKey());
    }
    requests += "{\"id\": " + std::to_string(++id) +
                ", \"type\": \"eval\", \"bench\": [\"sha\"], "
                "\"objectives\": [\"cpi\", \"edp\"], \"point\": "
                "\"l2kb=512,assoc=8,depth=9,freq=1e-300,width=4,"
                "pred=gshare1k\"}\n";

    // Batches sweep the bounds themselves, through frontierResponse.
    std::string depth_axis;
    const auto depths = edges<std::uint32_t>(5, SpaceSpec::kMaxDepth);
    const auto freqs = freqEdges();
    for (std::size_t i = 0; i < depths.size(); ++i) {
        if (i)
            depth_axis += ',';
        depth_axis += std::to_string(depths[i]) + '@' + exactDouble(freqs[i]);
    }
    const std::string inorder_space = "l2kb=1,65536;assoc=1,16;depth=" +
                                      depth_axis +
                                      ";width=1,16;pred=gshare1k,hybrid3k5";
    const std::string ooo_space =
        "width=1,16;rob=16,4096;iq=1,4096;fualu=1,64;fumul=1,64;"
        "fumem=1,64;fubr=1,64;buses=1,64";
    for (const auto &[space, backend] :
         {std::pair<std::string, std::string>{inorder_space, "model"},
          {inorder_space, "ooo"},
          {ooo_space, "ooo"}}) {
        requests += "{\"id\": " + std::to_string(++id) +
                    ", \"type\": \"batch\", \"bench\": [\"sha\"], "
                    "\"backends\": \"" + backend + "\", \"objectives\": " +
                    std::string(kAllObjectives) + ", \"space\": \"" + space +
                    "\"}\n";
    }

    ServeConfig cfg = testConfig(2);
    EvalService service(cfg);
    const std::vector<std::string> lines = serveLines(requests, service);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(id));
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(test::finiteJsonError(lines[i]), "") << lines[i];
        const std::string type = typeOf(parsedResponse(lines[i]));
        if (static_cast<int>(i) < admitted || i >= lines.size() - 3) {
            EXPECT_EQ(type, i < lines.size() - 3 ? "result" : "frontier")
                << lines[i];
        } else {
            EXPECT_EQ(type, "error") << lines[i];
        }
    }

    // mech_search's --json report over the in-order bounds space.
    SearchEvaluator evaluator({profileByName("sha")}, kTraceLen,
                              parseObjectives("cpi,cycles,delay,bips,energy,"
                                              "edp,ed2p"));
    SearchOptions opts;
    opts.budget = 0;
    const SearchResult result = runSearch(SpaceSpec::parse(inorder_space),
                                          "exhaustive", evaluator, opts);
    std::ostringstream report;
    writeSearchResultJson(result, report);
    EXPECT_EQ(test::finiteJsonError(report.str()), "");
}

TEST(ServeBatch, FrontierMatchesExhaustiveSearch)
{
    const std::string space_text =
        "l2kb=128,256;assoc=8;depth=5@0.6,9@1.0;width=1:4;"
        "pred=gshare1k";

    EvalService service(testConfig(2));
    std::vector<std::string> lines = serveLines(
        "{\"id\": 1, \"type\": \"batch\", \"space\": \"" +
            space_text +
            "\", \"objectives\": \"energy,delay\", "
            "\"bench\": \"jpeg_c\"}\n",
        service);
    ASSERT_EQ(lines.size(), 1u);
    json::Value v = parsedResponse(lines[0]);
    ASSERT_EQ(typeOf(v), "frontier") << lines[0];

    // Reference: the PR-4 search engine, exhaustive over the same
    // space with the same objectives and backend.
    SearchEvaluator evaluator({profileByName("jpeg_c")}, kTraceLen,
                              parseObjectives("energy,delay"));
    SearchOptions opts;
    opts.budget = 0;
    SearchResult reference = runSearch(SpaceSpec::parse(space_text),
                                       "exhaustive", evaluator, opts);

    const json::Value *frontier = v.get("frontier");
    ASSERT_TRUE(frontier && frontier->isArray());
    ASSERT_EQ(frontier->array.size(), reference.frontier.size());

    // Both sides enumerate in space order, so frontiers align
    // entry for entry.
    for (std::size_t i = 0; i < reference.frontier.size(); ++i) {
        const SearchEval &ref =
            *reference.evaluated[reference.frontier[i]];
        const json::Value &entry = frontier->array[i];
        EXPECT_EQ(entry.get("point")->string, ref.point.toKey());
        EXPECT_EQ(entry.get("objectives")->get("energy")->number,
                  ref.aggregate[0]);
        EXPECT_EQ(entry.get("objectives")->get("delay")->number,
                  ref.aggregate[1]);
    }

    // And the scalar best agrees on the first objective.
    EXPECT_EQ(v.get("best")->get("point")->string,
              reference.best().point.toKey());
}

// ---- stdio front end ------------------------------------------------------

TEST(ServeServer, StdioServerRunsASession)
{
    EvalService service(testConfig());
    std::istringstream in("{\"id\": 1, \"type\": \"info\"}\n");
    std::ostringstream out, log;
    SessionOptions opts;
    opts.latencyFields = false;
    SessionStats stats =
        runStdioServer(service, in, out, log, opts);
    EXPECT_EQ(stats.responses, 1u);
    EXPECT_EQ(typeOf(parsedResponse(out.str())), "info");
    EXPECT_NE(log.str().find("session over"), std::string::npos);
}

} // namespace
} // namespace mech::serve
