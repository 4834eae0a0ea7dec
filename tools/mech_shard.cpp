/**
 * @file
 * mech_shard: scatter-gather client over mech_serve shards, plus a
 * scripted NDJSON replay client for smokes and CI.
 *
 * Scatter mode splits a SpaceSpec across N running servers by
 * DesignPoint hash, pipelines one eval request per point to the
 * owning shard, and prints the exact "frontier" response line a
 * single server would have produced for the whole space:
 *
 *   mech_shard --ports 7301,7302 --space l2kb=256,512:assoc=4,8
 *
 * Replay mode pipelines a request file to one server and prints the
 * response lines — the client half of the CI golden smokes:
 *
 *   mech_shard --port 7301 --replay tests/data/serve_smoke.jsonl
 *
 * --flood switches replay to slam mode (write everything, half-close,
 * read to EOF), which is how the overload smoke drives admission
 * control past its bounds.  Diagnostics go to stderr; stdout carries
 * only response lines.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "mech/mech.hh"

namespace {

using namespace mech;

/**
 * One shard's worth of client-observed replay accounting: latencies
 * land in a log2 histogram (so the quantiles match the server's own
 * observability conventions) and shed responses are counted by their
 * structured "overloaded" code.
 */
struct ShardSummary
{
    std::string target;
    std::size_t requests = 0;
    std::size_t responses = 0;
    std::size_t shed = 0;
    obs::LatencyHistogram latency;

    void
    note(const std::vector<std::string> &reply_lines,
         const std::vector<double> &latencies_us)
    {
        responses += reply_lines.size();
        for (const std::string &r : reply_lines) {
            if (r.find("\"code\": \"overloaded\"") != std::string::npos)
                ++shed;
        }
        for (double us : latencies_us) {
            latency.record(us <= 0.0
                               ? 0
                               : static_cast<std::uint64_t>(us));
        }
    }
};

/** The per-shard latency/shed summary table (stderr, not protocol). */
void
printShardSummary(const std::vector<ShardSummary> &shards,
                  std::ostream &os)
{
    TextTable table({"shard", "requests", "responses", "shed",
                     "p50_us", "p95_us", "p99_us"});
    for (const ShardSummary &s : shards) {
        table.addRow({s.target, std::to_string(s.requests),
                      std::to_string(s.responses),
                      std::to_string(s.shed),
                      std::to_string(s.latency.quantile(0.50)),
                      std::to_string(s.latency.quantile(0.95)),
                      std::to_string(s.latency.quantile(0.99))});
    }
    table.print(os);
}

/** Read non-blank request lines from @p path. */
std::vector<std::string>
readRequestFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open replay file '", path, "'");
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        bool blank = true;
        for (char c : line) {
            if (c != ' ' && c != '\t' && c != '\r')
                blank = false;
        }
        if (!blank)
            lines.push_back(line);
    }
    return lines;
}

int
runReplay(unsigned short port, const std::string &path, bool flood,
          std::uint64_t window)
{
    const std::vector<std::string> lines = readRequestFile(path);
    serve::LoopbackClient client;
    std::string error;
    if (!client.connect(port, &error))
        fatal("mech_shard: ", error);
    std::vector<std::string> responses;
    std::vector<double> latencies;
    const bool ok =
        flood ? client.flood(lines, &responses, &error)
              : client.run(lines, &responses, &error,
                           static_cast<std::size_t>(window),
                           &latencies);
    for (const std::string &response : responses)
        std::cout << response << "\n";
    if (!ok)
        fatal("mech_shard: replay failed: ", error);
    std::cerr << "mech_shard: replayed " << lines.size()
              << " line(s), " << responses.size() << " response(s)\n";

    // Client-observed accounting; flood mode has no send-to-receive
    // pairing (the whole file goes out at once), so its latency
    // columns read 0 and only the shed count is meaningful.
    std::vector<ShardSummary> shards(1);
    shards[0].target = "127.0.0.1:" + std::to_string(port);
    shards[0].requests = lines.size();
    shards[0].note(responses, latencies);
    printShardSummary(shards, std::cerr);
    return 0;
}

/** One gathered double, with path diagnostics on shape mismatch. */
double
gatherValue(const json::Value &response, const std::string &backend,
            const std::string &objective)
{
    const json::Value *results = response.get("results");
    const json::Value *be = results ? results->get(backend) : nullptr;
    const json::Value *objs = be ? be->get("objectives") : nullptr;
    const json::Value *v = objs ? objs->get(objective) : nullptr;
    if (!v || !v->isNumber()) {
        fatal("mech_shard: response lacks results.", backend,
              ".objectives.", objective);
    }
    return v->number;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mech;

    std::string ports_csv;
    std::string space;
    std::string bench_csv = "jpeg_c,sha";
    std::string backends_csv = "model";
    std::string objectives_csv = "cpi";
    std::string replay_file;
    std::string log_level;
    std::uint64_t max_space = 100000;
    std::uint64_t window = 64;
    unsigned port = 0;
    bool flood = false;
    bool send_shutdown = false;

    cli::ArgParser parser(
        "mech_shard",
        "scatter-gather a design space across mech_serve shards, or "
        "replay a request file against one server");
    parser.add("ports", "csv",
               "shard server ports on 127.0.0.1 (scatter mode)",
               &ports_csv);
    parser.add("space", "spec",
               "design space to scatter (preset or axis grammar)",
               &space);
    parser.add("bench", "csv", "benchmark set for every request",
               &bench_csv);
    parser.add("backend", "csv",
               "backend for every request (exactly one)",
               &backends_csv);
    parser.add("objective", "csv", "objective set for every request",
               &objectives_csv);
    parser.add("max-space", "N",
               "largest space this client will enumerate", &max_space);
    parser.add("window", "N",
               "most requests outstanding per connection (keep at or "
               "below the server's --max-inflight)",
               &window);
    parser.add("port", "N", "server port for --replay", &port);
    parser.add("replay", "file",
               "replay this NDJSON request file and print responses",
               &replay_file);
    parser.addFlag("flood",
                   "replay by writing everything at once and reading "
                   "to EOF (overload smokes)",
                   &flood);
    parser.addFlag("shutdown",
                   "send a shutdown request to every shard after the "
                   "gather",
                   &send_shutdown);
    parser.add("log-level", "level",
               "stderr verbosity: error, warn, info, debug or trace "
               "(default info)",
               &log_level);
    parser.parse(argc, argv);

    if (!log_level.empty()) {
        const auto level = parseLogLevel(log_level);
        if (!level) {
            fatal("unknown --log-level '", log_level,
                  "' (use error, warn, info, debug or trace)");
        }
        setLogLevel(*level);
    }

    if (!replay_file.empty()) {
        if (port == 0 || port > 65535)
            fatal("--replay needs --port");
        if (window == 0)
            fatal("--window must be positive");
        return runReplay(static_cast<unsigned short>(port),
                         replay_file, flood, window);
    }

    // Scatter-gather mode.
    if (ports_csv.empty())
        fatal("scatter mode needs --ports (or use --replay)");
    if (space.empty())
        fatal("scatter mode needs --space");
    if (window == 0)
        fatal("--window must be positive");

    std::vector<unsigned short> ports;
    for (const std::string &token : cli::splitCsv(ports_csv)) {
        const unsigned long value = std::stoul(token);
        if (value == 0 || value > 65535)
            fatal("bad port '", token, "'");
        ports.push_back(static_cast<unsigned short>(value));
    }

    std::string error;
    auto spec = SpaceSpec::tryParse(space, &error);
    if (!spec)
        fatal("bad space '", space, "': ", error);
    if (std::string why = spec->check(); !why.empty())
        fatal("invalid space '", space, "': ", why);
    if (spec->size() > max_space) {
        fatal("space has ", spec->size(),
              " points; this client caps at ", max_space,
              " (see --max-space)");
    }

    const BackendSet backends = backendSet(backends_csv);
    if (backends.size() != 1)
        fatal("scatter mode takes exactly one --backend");
    if (std::string why = admissionError(*spec, space, backends, nullptr);
        !why.empty()) {
        fatal(why);
    }
    const std::string backend_name(backends[0]->name());
    const std::vector<Objective> objectives =
        parseObjectives(objectives_csv);
    std::vector<std::string> bench_names;
    for (const std::string &name : cli::splitCsv(bench_csv))
        bench_names.push_back(profileByName(name).name);

    // Partition the enumeration across the shards by point hash.
    const std::uint64_t n = spec->size();
    std::vector<DesignPoint> points;
    points.reserve(n);
    std::vector<std::vector<std::uint64_t>> shardIdx(ports.size());
    for (std::uint64_t i = 0; i < n; ++i) {
        points.push_back(spec->at(i));
        shardIdx[serve::shardOf(points.back(), ports.size())]
            .push_back(i);
    }

    std::vector<serve::FrontierEntry> entries(n);
    serve::GatherCounts counts;
    counts.requested = n;
    std::vector<ShardSummary> summaries(ports.size());
    for (std::size_t s = 0; s < ports.size(); ++s) {
        std::vector<std::string> lines;
        lines.reserve(shardIdx[s].size());
        for (std::uint64_t idx : shardIdx[s]) {
            std::ostringstream os;
            os << "{\"id\": " << idx << ", \"type\": \"eval\", "
               << "\"point\": ";
            json::writeString(os, points[idx].toKey());
            os << ", \"bench\": ";
            json::writeString(os, bench_csv);
            os << ", \"backends\": ";
            json::writeString(os, backends_csv);
            os << ", \"objectives\": ";
            json::writeString(os, objectives_csv);
            os << "}";
            lines.push_back(os.str());
        }
        if (lines.empty())
            continue;

        serve::LoopbackClient client;
        if (!client.connect(ports[s], &error))
            fatal("mech_shard: shard ", s, ": ", error);
        std::vector<std::string> responses;
        std::vector<double> latencies;
        if (!client.run(lines, &responses, &error,
                        static_cast<std::size_t>(window),
                        &latencies)) {
            fatal("mech_shard: shard ", s, " failed: ", error);
        }
        summaries[s].target =
            "127.0.0.1:" + std::to_string(ports[s]);
        summaries[s].requests = lines.size();
        summaries[s].note(responses, latencies);
        std::cerr << "mech_shard: shard " << s << " (port "
                  << ports[s] << "): " << responses.size()
                  << " point(s)\n";

        for (const std::string &response : responses) {
            auto value = json::parse(response, &error);
            if (!value)
                fatal("mech_shard: bad response line: ", error);
            const json::Value *type = value->get("type");
            if (!type || !type->isString() ||
                type->string != "result") {
                fatal("mech_shard: shard ", s,
                      " answered: ", response);
            }
            const json::Value *id = value->get("id");
            auto idx = id ? id->asU64() : std::nullopt;
            if (!idx || *idx >= n)
                fatal("mech_shard: response with bad id: ", response);
            const json::Value *cached = value->get("cached");
            if (cached && cached->isBool() && cached->boolean)
                ++counts.hits;
            else
                ++counts.misses;

            serve::FrontierEntry &entry = entries[*idx];
            entry.pointKey = points[*idx].toKey();
            entry.label = points[*idx].label();
            entry.objectives.clear();
            for (const Objective &obj : objectives) {
                entry.objectives.push_back(
                    gatherValue(*value, backend_name, obj.name));
            }
        }
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        if (entries[i].objectives.empty())
            fatal("mech_shard: point ", points[i].toKey(),
                  " was never answered");
    }

    std::cout << serve::frontierResponse(
                     "", spec->describe(), n, backend_name, objectives,
                     bench_names, entries, counts)
              << "\n";
    printShardSummary(summaries, std::cerr);

    if (send_shutdown) {
        for (std::size_t s = 0; s < ports.size(); ++s) {
            serve::LoopbackClient client;
            if (!client.connect(ports[s], &error))
                continue; // already gone
            std::vector<std::string> responses;
            client.run({"{\"type\": \"shutdown\"}"}, &responses,
                       &error);
        }
        std::cerr << "mech_shard: sent shutdown to " << ports.size()
                  << " shard(s)\n";
    }
    return 0;
}
