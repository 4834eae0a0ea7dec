#!/usr/bin/env python3
"""The repository benchmark: cold search, warm serve hits and
serve-side simulator validation, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search_cold --seed 7 \
        --seconds 25 --trace 0

It builds mech_search, mech_serve and perfbench_workloads in Release
(under $CARGO_TARGET_DIR, default .bench_build), fingerprints the box,
runs one workload through perfbench_workloads, prints each metric with
its unit and base, and ends with one JSON line.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  The exit code is 0
only when every output check passed.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
RUNDIR = os.path.join(BUILD, "run")
NPROC = os.cpu_count() or 1

WORKLOADS = ("search_cold", "serve_hits", "serve_validate")

# (name, unit); the bounds and directions live in BENCHMARK.json.
E2E = [("setup_s", "s"), ("p50_us", "us"), ("tail_us", "us"),
       ("rps", "1/s"), ("cpu_ms_per_req", "ms"), ("max_rss_mb", "MB"),
       ("cpi_err_mean_pct", "%"), ("cpi_err_max_pct", "%"),
       ("ooo_cpi_err_mean_pct", "%")]

# Tail percentile per workload: the highest one with at least ten
# samples beyond it per latency window at the workload's usual count.
TAIL = {"search_cold": 0.90, "serve_hits": 0.99, "serve_validate": 0.90}

# Timed seconds of a --trace 1 run: its timed phase only feeds the
# ratios the per-layer metrics need.
TRACE_SECONDS = 3.0


class BenchError(Exception):
    pass


def log_path(name):
    os.makedirs(os.path.join(BUILD, "logs"), exist_ok=True)
    return os.path.join(BUILD, "logs", name)


def run_logged(cmd, name, timeout):
    """Run @cmd in its own session; on timeout kill it and its children."""
    with open(log_path(name), "a") as log:
        p = subprocess.Popen(cmd, stdout=log, stderr=log, cwd=ROOT,
                             start_new_session=True)
        try:
            rc = p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            raise BenchError(f"{cmd[0]} timed out after {timeout:.0f} s")
    if rc != 0:
        with open(log_path(name)) as f:
            tail = f.read()[-2000:]
        raise BenchError(f"{' '.join(cmd[:3])} ... failed ({rc}):\n{tail}")


def build():
    """Configure (once) and build the programs under test, Release."""
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no {need} here: run from a repository "
                             "checkout root")
    run_logged(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"], "build.log", 600)
    run_logged(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
                "mech_search", "mech_serve", "perfbench_workloads"],
               "build.log", 1200)
    return {"search": os.path.join(BUILD, "mechsim", "tools", "mech_search"),
            "serve": os.path.join(BUILD, "mechsim", "tools", "mech_serve"),
            "workloads": os.path.join(BUILD, "perfbench_workloads")}


def cmake_cache(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """Digest of the sources the benchmark builds (git SHA stand-in)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def call_workloads(bins, args, name, timeout):
    """One perfbench_workloads subcommand; returns its JSON document."""
    out = os.path.join(RUNDIR, name + ".json")
    os.makedirs(RUNDIR, exist_ok=True)
    run_logged([bins["workloads"]] + args + ["--out", out], "workloads.log",
               timeout)
    with open(out) as f:
        return json.load(f)


def fingerprint(bins):
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError(f"refusing to measure a {build_type or 'default'}"
                         " build; the benchmark times Release only")
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=30).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    # The first probe wakes idle cores; the second is the measurement.
    call_workloads(bins, ["probe"], "probe", 120)
    probe = call_workloads(bins, ["probe"], "probe", 120)
    return {"git_sha": sha, "source_digest": source_digest(),
            "compiler": f"{compiler} ({version})", "build_type": build_type,
            "nproc": NPROC, "spin_s": probe["spin_s"],
            "effective_parallelism": round(probe["effective_parallelism"], 2)}


def run_workload(bins, workload, seed, seconds, flush_trace):
    args = ["run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--search", bins["search"],
            "--server", bins["serve"], "--log", log_path("programs.log"),
            "--dir", RUNDIR]
    if flush_trace:
        args += ["--flush-trace", flush_trace]
    # Set-ups, the oracle and the accuracy pass take well under 150 s.
    return call_workloads(bins, args, workload, seconds + 150)


def end_to_end(workload, r):
    """The end-to-end metrics: {name: (value, base)}."""
    lat = r["latency_us"]
    n = int(lat["count"])
    windows = int(lat["windows"])
    rank = ("median" if lat["window_rank"] == 0.5
            else f"{lat['window_rank'] * 100:g}th-percentile (fastest first)")
    split = f"of {windows} windows of {lat['window_s']:g} s"
    over = f"{rank} {split}" if windows > 1 else "one window"
    tail_over = f"median {split}" if windows > 1 else "one window"
    tail = lat["p99" if TAIL[workload] == 0.99 else "p90"]
    acc = r["accuracy"]
    beyond = int(n / windows * (1 - TAIL[workload]))
    requests = int(r["requests"])
    return {
        "setup_s": (statistics.median(r["setup_s"]),
                    f"median of {len(r['setup_s'])} set-ups"),
        "p50_us": (lat["p50"], f"{over}, {n} client-observed latencies"),
        "tail_us": (tail, f"p{TAIL[workload] * 100:g}, {tail_over}, "
                          f"{beyond} beyond per window"),
        "rps": (lat["rps"], f"{over}; {requests} answered in "
                            f"{r['wall_s']:.3f} s"),
        "cpu_ms_per_req": (1e3 * r["program_cpu_s"] / max(1, requests),
                           f"{r['program_cpu_s']:.3f} s program CPU / "
                           f"{requests} requests"),
        "max_rss_mb": (r["max_rss_kb"] / 1024.0, "peak of the program"),
        "cpi_err_mean_pct": (acc["cpi_err_mean_pct"],
                             f"{int(acc['cpi_err_pairs'])} model/sim pairs"),
        "cpi_err_max_pct": (acc["cpi_err_max_pct"],
                            f"{int(acc['cpi_err_pairs'])} model/sim pairs"),
        "ooo_cpi_err_mean_pct": (acc["ooo_cpi_err_mean_pct"],
                                 f"{int(acc['ooo_cpi_err_pairs'])} "
                                 "ooo/oosim pairs"),
    }


def server_flushes(path):
    """service.flush spans in a server's trace; refuses a lossy trace."""
    with open(path) as f:
        doc = json.load(f)
    dropped = doc.get("otherData", {}).get("dropped_events", 0)
    if dropped:
        raise BenchError(f"{path} dropped {dropped} events; its flush "
                         "count would be short")
    return sum(ev["name"] == "service.flush" for ev in doc["traceEvents"])


def per_layer(bins, a, r, flush_trace):
    """Traced replay plus the untraced one: {name: (value, unit, base)}."""
    w = a.workload
    flushes = server_flushes(flush_trace) if flush_trace else 0
    data_lines = r.get("flush_data_lines", 0)
    flush_lines = data_lines / flushes if flushes else 0.0
    args = ["layers", "--workload", w, "--seed", str(a.seed),
            "--batch", str(max(1, round(flush_lines))), "--dir", RUNDIR]
    chrome = os.path.join(BUILD, "traces", f"{w}.json")
    os.makedirs(os.path.dirname(chrome), exist_ok=True)
    traced = call_workloads(
        bins, args + ["--traced", "1", "--chrome", chrome], "layers_traced",
        170)
    plain = call_workloads(bins, args + ["--traced", "0"], "layers_plain",
                           170)
    L = traced["layers"]

    def self_s(name):
        return L.get(name, {}).get("self_s", 0.0)

    def items(name):
        return L.get(name, {}).get("items", 0.0)

    def per_item_us(name):
        return 1e6 * self_s(name) / items(name) if items(name) else 0.0

    def rate(num, den):
        return num / den if den else 0.0

    requests = max(1, int(r["requests"]))
    replayed = traced.get("replayed_lines", 0)
    session_lines = items("serve.ServerSession.run")
    session_cpu_us = rate(1e6 * traced.get("session_cpu_s", 0.0),
                          session_lines)
    cpu_per_req_us = 1e6 * r["program_cpu_s"] / requests
    if w == "serve_hits":
        hit = rate(r["timed_hits"], r["timed_requested"])
        hit_base = f"{r['timed_hits']:.0f}/{r['timed_requested']:.0f}"
    elif w == "serve_validate":
        hit = r["hit_ratio"]
        hit_base = f"stats hit rate over {requests} requests"
    else:
        hit, hit_base = 0.0, "no serve layer on this workload"
    if w == "search_cold":
        e2e = r["latency_us"]["p50"] / 1e6
        e2e_base = "median untraced cold mech_search"
    elif w == "serve_hits":
        e2e = r["program_cpu_s"] / requests * replayed
        e2e_base = f"untraced server CPU for {replayed:.0f} requests"
    else:
        e2e = r["replayed_wall_s"]
        e2e_base = (f"untraced wall to answer the first {replayed:.0f} "
                    "requests (one pipe, answered one at a time)")
    path_self = traced["path_layer_self_s"]
    search_hits = traced.get("search_hits", 0)
    search_req = traced.get("search_requested", 0)
    geoms = items("dse.DseStudy.prepare")
    sim_s = traced.get("sim_busy_us", 0.0) / 1e6
    oosim_s = traced.get("oosim_busy_us", 0.0) / 1e6
    insns = items("profiler.profileTrace")
    return {
        "workload.trace_s": (self_s("workload.generateTrace"), "s",
                             f"{items('workload.generateTrace'):.0f} insns, "
                             "serial probe"),
        "profiler.profile_s": (self_s("profiler.profileTrace"), "s",
                               f"{insns:.0f} insns, serial probe"),
        "profiler.minsns_per_s": (
            rate(insns, self_s("profiler.profileTrace")) / 1e6, "Minsn/s",
            f"{insns:.0f} insns"),
        "dse.prepare_s": (self_s("dse.DseStudy.prepare"), "s",
                          f"{geoms:.0f} L2 geometries, serial probe"),
        "dse.geometries": (geoms, "count", "(study, L2 geometry) pairs"),
        "model.evals": (traced.get("model_evals", 0), "count",
                        "eval.backend.model.evals over the replayed path"),
        "model.eval_us": (per_item_us("model.evaluate"), "us",
                          f"{items('model.evaluate'):.0f} evaluations, "
                          "probe"),
        "search.prepare_s": (self_s("search.SearchEvaluator.prepare"), "s",
                             "SearchEvaluator::prepare: studies + L2 memo"),
        "search.run_s": (L.get("search.runSearch", {}).get("total_s", 0.0),
                         "s", f"runSearch's steps over {search_req} lookups"),
        "search.batch_s": (self_s("search.SearchEvaluator.evaluateBatch"),
                           "s", f"{search_req} lookups in the strategy's "
                                "batches"),
        "search.pareto_s": (self_s("search.paretoFrontier"), "s",
                            f"{items('search.paretoFrontier'):.0f} points"),
        "search.hit_ratio": (rate(search_hits, search_req), "ratio",
                             f"{search_hits:.0f}/{search_req:.0f} lookups"),
        "search.lookup_us": (per_item_us("search.EvalCache.find"), "us",
                             f"{items('search.EvalCache.find'):.0f} finds, "
                             "probe"),
        "serve.parse_us": (per_item_us("serve.parseRequest"), "us",
                           f"{items('serve.parseRequest'):.0f} lines"),
        "serve.flush_us": (per_item_us("serve.EvalService.handleFlush"), "us",
                           f"per request, {replayed:.0f} requests in "
                           "flushes of the server's size"),
        "serve.write_us": (per_item_us("serve.ResponseWriter.write"), "us",
                           f"{items('serve.ResponseWriter.write'):.0f} "
                           "responses"),
        "serve.session_us": (per_item_us("serve.ServerSession.run"), "us",
                             f"per request, {session_lines:.0f} lines in one"
                             " session, probe"),
        "serve.io_us": ((cpu_per_req_us - session_cpu_us) if session_lines
                        else 0.0, "us",
                        f"untraced server CPU/request {cpu_per_req_us:.2f} us"
                        f" minus session CPU/request {session_cpu_us:.2f} us"
                        if session_lines else "serve_hits only"),
        "serve.queue_wait_p50_us": (r.get("queue_wait_p50_us", 0.0), "us",
                                    f"{r.get('queue_wait_count', 0):.0f} "
                                    "admissions (log2 bucket bound)"),
        "serve.queue_wait_p99_us": (r.get("queue_wait_p99_us", 0.0), "us",
                                    f"{r.get('queue_wait_count', 0):.0f} "
                                    "admissions (log2 bucket bound)"),
        "serve.flush_lines": (flush_lines, "lines",
                              f"{data_lines:.0f} lines / {flushes} "
                              "service.flush spans, one traced round"),
        "serve.hit_ratio": (hit, "ratio", hit_base),
        "sim.busy_s": (sim_s, "s",
                       f"{traced.get('sim_evals', 0):.0f} simulations, "
                       "summed over threads"),
        "sim.mcycles_per_s": (
            rate(traced.get("sim_cycles", 0.0), sim_s) / 1e6, "Mcycle/s",
            f"{traced.get('sim_cycles', 0.0):.0f} simulated cycles"),
        "oosim.busy_s": (oosim_s, "s",
                         f"{traced.get('oosim_evals', 0):.0f} simulations, "
                         "summed over threads"),
        "oosim.mcycles_per_s": (
            rate(traced.get("oosim_cycles", 0.0), oosim_s) / 1e6,
            "Mcycle/s",
            f"{traced.get('oosim_cycles', 0.0):.0f} simulated cycles"),
        "ooo.eval_us": (per_item_us("ooo.evaluate"), "us",
                        f"{items('ooo.evaluate'):.0f} evaluations, probe"),
        "pool.utilization": (
            r["program_cpu_s"] / (r["wall_s"] * r["program_threads"]),
            "ratio", f"{r['program_cpu_s']:.3f} s CPU / ({r['wall_s']:.3f}"
                     f" s x {r['program_threads']:.0f} threads), untraced"),
        "client.busy_ratio": (r["client_cpu_s"] / r["wall_s"], "ratio",
                              f"{r['client_cpu_s']:.3f} s client CPU / "
                              f"{r['wall_s']:.3f} s"),
        "unattributed_s": (e2e - path_self, "s",
                           f"{e2e_base} {e2e:.4f} s minus {path_self:.4f} s "
                           "layer self time on the replayed path"),
        "trace_overhead_pct": (
            100.0 * rate(traced["path_wall_s"] - plain["path_wall_s"],
                         plain["path_wall_s"]),
            "%", f"traced {traced['path_wall_s']:.4f} s vs untraced "
                 f"{plain['path_wall_s']:.4f} s replayed path"),
    }, chrome


def report(a, bins, fp, r, flush_trace):
    """Print the run's checks and metrics; return the metrics object."""
    client_busy = r["client_cpu_s"] / r["wall_s"]
    print(f"workload {a.workload} seed {a.seed}: {r['base']}")
    print(f"fail_ratio = {r['failed'] / r['attempted']:.6g} "
          f"({r['failed']:.0f} of {r['attempted']:.0f} attempted)")
    for why in r["failures"][:5]:
        print(f"  failure: {why}")
    print(f"client busy ratio = {client_busy:.3f}"
          + ("  ** client-bound: the load generator, not the program, "
             "limited this run **" if client_busy > 0.8 else ""))
    print(f"box: effective parallelism {fp['effective_parallelism']} of "
          f"{NPROC} (spinners {fp['spin_s']})")

    if a.trace:
        layers, chrome = per_layer(bins, a, r, flush_trace)
        for name, (value, unit, base) in layers.items():
            print(f"  {name} = {value:.6g} {unit}  ({base})")
        print(f"benchmark spans: {chrome}")
        if flush_trace:
            print(f"server spans: {flush_trace}")
        return {k: {"value": v, "unit": u} for k, (v, u, _) in layers.items()}
    units = dict(E2E)
    e2e = end_to_end(a.workload, r)
    for name, (value, base) in e2e.items():
        print(f"  {name} = {value:.6g} {units[name]}  ({base})")
    return {k: {"value": v, "unit": units[k]} for k, (v, _) in e2e.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        bins = build()
        fp = fingerprint(bins)
        print("fingerprint " + json.dumps(fp, sort_keys=True))
        seconds, flush_trace = a.seconds, None
        if a.trace:
            seconds = min(seconds, TRACE_SECONDS)
            if a.workload != "search_cold":
                flush_trace = os.path.join(BUILD, "traces",
                                           f"{a.workload}-server.json")
                os.makedirs(os.path.dirname(flush_trace), exist_ok=True)
                if os.path.exists(flush_trace):
                    os.remove(flush_trace)
        r = run_workload(bins, a.workload, a.seed, seconds, flush_trace)
        metrics = report(a, bins, fp, r, flush_trace)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError, ZeroDivisionError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    correct = r["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": int(r["attempted"]),
                      "failed": int(r["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
