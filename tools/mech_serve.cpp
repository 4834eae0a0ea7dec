/**
 * @file
 * mech_serve: the long-running batched evaluation service.
 *
 * Speaks newline-delimited JSON over stdin/stdout (the default) or a
 * loopback TCP socket (--port).  Requests name a design point or a
 * whole design space, a benchmark set, one or more registered
 * backends and an objective set; responses stream back in request
 * order, answered from a shared memoized evaluation cache whenever
 * the point has been seen before.
 *
 *   echo '{"id": 1, "type": "eval",
 *          "point": "l2kb=512,assoc=8,depth=9,freq=1,
 *                    width=4,pred=gshare1k"}' | mech_serve --threads 4
 *
 * See docs/serving.md for the protocol schema, batching semantics
 * and the determinism contract, and examples/serve_client for a
 * scripted walkthrough.  All diagnostics go to stderr; stdout is
 * reserved for the response stream.
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "mech/mech.hh"

int
main(int argc, char **argv)
{
    using namespace mech;

    std::string bench_csv = "jpeg_c,sha";
    std::string backends_csv = "model";
    std::string objectives_csv = "cpi";
    std::string profile_dir;
    InstCount instructions = 50000;
    std::uint64_t max_space = 100000;
    std::uint64_t max_batch = 64;
    std::uint64_t max_queue = 1024;
    std::uint64_t max_inflight = 256;
    unsigned threads = 0;
    unsigned dispatchers = 0;
    unsigned dispatch_hold_ms = 0;
    unsigned port = 0;
    int metrics_port = -1;
    std::string cache_dir;
    std::string mdesc_path;
    std::string trace_out;
    std::string log_level;
    bool deterministic = false;

    cli::ArgParser parser(
        "mech_serve",
        "long-running batched evaluation service over "
        "newline-delimited JSON (stdin/stdout, or TCP with --port)");
    parser.add("port", "N",
               "serve on 127.0.0.1:N instead of stdin/stdout",
               &port);
    parser.add("threads", "N",
               "worker threads for cache misses (0 = all hardware "
               "threads); responses are byte-identical for any value",
               &threads);
    parser.add("instructions", "N",
               "dynamic instructions per benchmark trace when "
               "profiling",
               &instructions);
    parser.add("profile-dir", "dir",
               "load .mprof artifacts from this directory instead of "
               "re-profiling",
               &profile_dir);
    parser.add("bench", "csv",
               "benchmark set for requests that name none",
               &bench_csv);
    parser.add("backend", "csv",
               "backend set for requests that name none",
               &backends_csv);
    parser.add("objective", "csv",
               "objective set for requests that name none",
               &objectives_csv);
    parser.add("max-batch", "N",
               "most pipelined requests coalesced into one "
               "evaluation flush",
               &max_batch);
    parser.add("max-space", "N",
               "largest space a batch request may fan out",
               &max_space);
    parser.add("max-queue", "N",
               "admission control: total request lines queued across "
               "all TCP sessions before shedding with "
               "\"overloaded\" errors",
               &max_queue);
    parser.add("max-inflight", "N",
               "admission control: queued request lines any one TCP "
               "session may hold",
               &max_inflight);
    parser.add("dispatchers", "N",
               "dispatcher threads answering TCP sessions (0 = "
               "derive from --threads); per-session responses are "
               "byte-identical for any value",
               &dispatchers);
    parser.add("dispatch-hold-ms", "N",
               "testing knob: freeze dispatch for N ms after the "
               "first TCP connection so overload goldens are "
               "deterministic",
               &dispatch_hold_ms);
    parser.add("cache-dir", "dir",
               "persistent warm cache: reload .mcache spills from "
               "this directory on first use and write them back on "
               "drain",
               &cache_dir);
    parser.add("mdesc", "file",
               "serve a characterized .mdesc machine description "
               "instead of the built-in Table 1 parameters",
               &mdesc_path);
    parser.add("metrics-port", "N",
               "with --port: also serve a Prometheus text exposition "
               "at http://127.0.0.1:N/metrics (0 = ephemeral port)",
               &metrics_port);
    parser.add("trace-out", "file",
               "write a Chrome Trace Event Format JSON of "
               "request/evaluation spans on exit (chrome://tracing)",
               &trace_out);
    parser.add("log-level", "level",
               "stderr verbosity: error, warn, info, debug or trace "
               "(default info)",
               &log_level);
    parser.addFlag("deterministic",
                   "omit per-response latency fields, making the "
                   "response stream byte-reproducible",
                   &deterministic);
    parser.parse(argc, argv);

    // Unsynced, std::cin reads through its own buffered filebuf, whose
    // in_avail() also counts what the pipe or file already holds; the
    // stdio session coalesces exactly those lines into one flush.
    // Synced with C stdio, in_avail() is always 0 and every piped line
    // would be its own flush.  Done before any stream I/O, and only
    // for stdio: the TCP front end logs from several threads, and
    // only synced standard streams are safe to share between threads.
    if (port == 0)
        std::ios::sync_with_stdio(false);

    if (!log_level.empty()) {
        const auto level = parseLogLevel(log_level);
        if (!level) {
            fatal("unknown --log-level '", log_level,
                  "' (use error, warn, info, debug or trace)");
        }
        setLogLevel(*level);
    }
    if (port > 65535)
        fatal("--port must be below 65536");
    if (metrics_port > 65535)
        fatal("--metrics-port must be below 65536");
    if (metrics_port >= 0 && port == 0)
        fatal("--metrics-port requires the TCP front end (--port)");
    if (max_batch == 0)
        fatal("--max-batch must be positive");
    if (max_space == 0)
        fatal("--max-space must be positive");
    if (max_queue == 0)
        fatal("--max-queue must be positive");
    if (max_inflight == 0)
        fatal("--max-inflight must be positive");
    if (dispatchers > 64)
        fatal("--dispatchers capped at 64");
    if (instructions < 1000)
        fatal("--instructions too small for a meaningful profile");

    serve::ServeConfig cfg;
    cfg.traceLen = instructions;
    cfg.profileDir = profile_dir;
    cfg.threads = ThreadPool::sanitizeWorkerCount(
        static_cast<long long>(threads));
    cfg.maxSpacePoints = max_space;
    cfg.cacheDir = cache_dir;
    cfg.mdescPath = mdesc_path;
    // Resolve the default sets now: a typoed --bench/--backend/
    // --objective must fail at startup like every other tool, not
    // surface request by request once the daemon is already up.
    cfg.defaultBench.clear();
    for (const std::string &name : cli::splitCsv(bench_csv)) {
        if (name.empty())
            fatal("empty benchmark name in '", bench_csv, "'");
        profileByName(name); // fatal() on an unknown profile
        cfg.defaultBench.push_back(name);
    }
    backendSet(backends_csv); // fatal() on an unknown backend
    cfg.defaultBackends = cli::splitCsv(backends_csv);
    parseObjectives(objectives_csv); // fatal() on an unknown objective
    cfg.defaultObjectives = cli::splitCsv(objectives_csv);

    serve::SessionOptions opts;
    opts.maxBatch = max_batch;
    opts.latencyFields = !deterministic;

    // The recorder outlives the service so drain-time spans (cache
    // spills) land in the file; a null recorder keeps every span a
    // single relaxed load.
    std::unique_ptr<obs::TraceRecorder> recorder;
    if (!trace_out.empty()) {
        recorder = std::make_unique<obs::TraceRecorder>();
        obs::TraceRecorder::install(recorder.get());
    }

    serve::EvalService service(cfg);
    std::cerr << "mech_serve: defaults bench=" << bench_csv
              << " backends=" << backends_csv
              << " objectives=" << objectives_csv << "; "
              << cfg.threads << " worker thread(s), batch cap "
              << max_batch << "\n";

    int rc = 0;
    if (port != 0) {
        serve::TcpServerConfig tcp;
        tcp.port = static_cast<unsigned short>(port);
        tcp.dispatchers =
            dispatchers != 0
                ? dispatchers
                : std::min(4u, std::max(1u, cfg.threads));
        tcp.maxQueue = max_queue;
        tcp.maxInflight = max_inflight;
        tcp.dispatchHoldMs = dispatch_hold_ms;
        tcp.metricsPort = metrics_port;
        rc = serve::runTcpServer(service, tcp, std::cerr, opts);
    } else {
        serve::runStdioServer(service, std::cin, std::cout, std::cerr,
                              opts);
    }
    // Spill the warm caches after the drain (no-op without
    // --cache-dir): the next start with the same directory answers
    // repeat points without re-simulating.
    service.persistCaches(&std::cerr);

    if (recorder) {
        std::string error;
        if (!recorder->writeJsonFile(trace_out, &error))
            warn("mech_serve: --trace-out: ", error);
        else
            std::cerr << "mech_serve: wrote "
                      << recorder->eventCount() << " trace event(s) to "
                      << trace_out << "\n";
    }
    return rc;
}
