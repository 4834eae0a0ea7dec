/**
 * @file
 * Walkthrough of the mech_serve protocol, fully in-process.
 *
 * Drives the ServerSession the mech_serve tool runs on stdio.  The
 * TCP front end answers its connections through the same request
 * pipeline (answerLines() in serve/session.hh); the two only differ
 * in where the bytes come from.  The scripted conversation covers
 * point evaluations (cache cold, then warm), a multi-backend
 * comparison, a whole-space batch request with its Pareto frontier,
 * a deliberately malformed line, and the final drain.  Each request
 * line prints before its response line, so the output reads as a
 * protocol transcript.
 *
 * Against a live server the same lines work verbatim:
 *
 *   mech_serve --port 8642 &
 *   printf '%s\n' '{"id": 1, "type": "info"}' | nc 127.0.0.1 8642
 *
 * The TCP front end serves many such sessions concurrently behind
 * admission control; a production client should additionally match
 * on '"code": "overloaded"' error responses and retry with backoff
 * (docs/serving.md), and tools/mech_shard shows the scatter-gather
 * pattern for splitting a space across several servers.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "mech/mech.hh"

int
main()
{
    using namespace mech;

    // A small service: one benchmark by default, serial evaluation
    // (the walkthrough is about the protocol, not throughput).
    serve::ServeConfig cfg;
    cfg.traceLen = 30000;
    cfg.threads = 1;
    cfg.defaultBench = {"jpeg_c"};
    serve::EvalService service(cfg);

    const std::string point = defaultDesignPoint().toKey();
    std::vector<std::string> script = {
        // 1. The paper's default configuration, by its toKey()
        //    identity.  First sight: a cache miss.
        "{\"id\": 1, \"type\": \"eval\", \"point\": \"" + point +
            "\"}",
        // 2. The same point again: answered from the memo
        //    ("cached": true), no model evaluation spent.
        "{\"id\": 2, \"type\": \"eval\", \"point\": \"" + point +
            "\"}",
        // 3. Explicit axes (omitted ones default to Table 2) and two
        //    backends: the analytical model versus the detailed
        //    simulator, each reporting cpi.
        "{\"id\": 3, \"type\": \"eval\", "
        "\"point\": {\"width\": 2, \"l2kb\": 256}, "
        "\"backends\": [\"model\", \"sim\"]}",
        // 4. A batch request: fan out a 16-point space and return
        //    its energy/delay Pareto frontier in one response.
        "{\"id\": 4, \"type\": \"batch\", "
        "\"space\": \"l2kb=128,256;width=1:4;depth=5@0.6,9@1.0\", "
        "\"objectives\": \"energy,delay\"}",
        // 5. Garbage: the server answers with a structured error and
        //    keeps serving.
        "{\"id\": 5, \"type\": \"eval\", \"point\": \"nonsense\"}",
        // 6. Accounting, then a graceful drain.
        "{\"id\": 6, \"type\": \"stats\"}",
        "{\"id\": 7, \"type\": \"shutdown\"}",
    };

    std::string input;
    for (const std::string &line : script)
        input += line + "\n";

    std::istringstream in(input);
    std::ostringstream out;
    serve::IstreamLineSource source(in);
    serve::SessionOptions opts;
    opts.latencyFields = false; // transcript stays reproducible
    opts.maxBatch = 1;          // answer each line before the next
    serve::ServerSession session(service, source, out, opts);
    session.run();

    std::istringstream responses(out.str());
    std::string response;
    for (const std::string &line : script) {
        std::cout << ">> " << line << "\n";
        if (std::getline(responses, response))
            std::cout << "<< " << response << "\n\n";
    }

    serve::ServiceStats stats = service.stats();
    std::cout << "service accounting: " << stats.requested
              << " point lookups, " << stats.hits << " cache hits, "
              << stats.misses << " evaluations, " << stats.groups
              << " group(s)\n";

    // The walkthrough doubles as a smoke test: the default point
    // must have been served from the cache the second time.
    if (stats.hits == 0) {
        std::cerr << "serve_client: expected at least one cache hit\n";
        return 1;
    }
    return 0;
}
