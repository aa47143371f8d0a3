#!/usr/bin/env python3
"""The repository benchmark: drives `altroute_cli serve` over loopback with
one workload, checks every answer and prints the result as one JSON line.

    python3 perfbench/run.py --workload study_mix --seed 1 --seconds 55 \\
        --trace 0

Run it from the root of a checkout: it builds the server and its own native
tool there (Release, into .bench_build) on first use. --trace 0 reports the
end-to-end metrics; --trace 1 measures the same window and then the
per-layer metrics (work counters scraped from /metrics, and an in-process
traced replay). Metric names and units are those BENCHMARK.json declares;
perfbench/README.md says what each one measures.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

from harness import build
from harness import checker
from harness import hostspeed
from harness import httpclient
from harness import loadgen
from harness import server
from harness import stats
from harness import trace
from harness import workloads

# Per-layer names of approaches A-D: the engines `serve --ch` runs today.
ENGINE_KEYS = ("commercial", "plateau_ch", "dissimilarity", "penalty_ch")
WORK_COUNTERS = {
    "nodes_settled": "altroute_search_nodes_settled_total",
    "edges_relaxed": "altroute_search_edges_relaxed_total",
    "paths_generated": "altroute_paths_generated_total",
    "paths_rejected": "altroute_paths_rejected_total",
}
SERVE_PHASES = ("snapshot_acquire", "snap", "render", "serialize")
# Routes a run needs before its p99 has ten samples beyond it.
P99_MIN_SAMPLES = 1000
# A run whose loadgen.lag_p99_ms exceeds this measured the Python generator,
# not the server, and fails.
LAG_LIMIT_MS = 5.0
# Most slices a window's route metrics are the median over.
MAX_SLICES = 11
# Reloads start at most this often, so that a short burst of contention on
# the host does not catch all of a small city's reloads.
RELOAD_PACE_S = 0.01


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def log(msg):
    print("perfbench: %s" % msg, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_checkout(root):
    for rel in ("BENCHMARK.json", "CMakeLists.txt", "src",
                "tools/altroute_cli.cc", "perfbench/native/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, rel)):
            raise BenchError("%s is not a checkout of the repository (no %s)"
                             % (root, rel))


def declared_metrics(root, trace_run):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace_run else "end_to_end"]}


def serve_args(w):
    args = []
    for city in w.cities:
        args += ["--city", city]
    return args + ["--scale", repr(w.scale), "--ch", "--threads",
                   str(w.threads), "--log-level", "warn"]


def host_fingerprint(build_info):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "compiler": build_info.get("compiler"),
            "build_type": build_info.get("build_type")}


def check_ops(ops, plans, reload_city):
    """Fills op.error for every op whose answer fails its check; identical
    route answers to the same query are checked once."""
    verdicts = {}
    for op in ops:
        if op.error is not None:
            continue
        if op.kind == "route":
            s = op.session
            key = (s.city, s.od, op.status, op.body)
            if key not in verdicts:
                plan = plans[s.city]
                verdicts[key] = checker.check_route(
                    op.status, op.body, plan.bounds, plan.ods[s.od][4])
            op.error = verdicts[key]
        elif op.kind == "rate":
            op.error = checker.check_rate(op.status, op.body)
        else:
            op.error = checker.check_reload(op.status, op.body, reload_city)


def run_window(srv, w, sessions, plans, seconds):
    """The measured window. Returns (ops, t0, connections opened per
    request, the server's VmHWM in MiB after one pass over the sessions).

    The server keeps every rating it stores in memory, so its peak grows
    with the sessions it served. A closed loop's count follows its
    throughput, so the peak is read after a fixed amount of work instead of
    at the end."""
    counter = httpclient.ConnectionCounter()
    ops = []
    peak_mb = []
    t0 = time.perf_counter()
    loadgen.run_closed_loop(srv.port, counter, sessions, plans, w.threads,
                            t0 + seconds, ops, loadgen.Bodies(),
                            lambda: peak_mb.append(srv.vm_hwm_mb()))
    if not peak_mb:
        raise BenchError("the window ended before one pass over its %d "
                         "sessions" % len(sessions))
    return ops, t0, counter.opened / len(ops), peak_mb[0]


def run_reloads(srv, w):
    """`w.reloads` reloads of the first city on one connection, started at
    most every RELOAD_PACE_S."""
    ops = []
    client = srv.client()
    try:
        for k in range(w.reloads):
            send = time.perf_counter()
            status, error, body = loadgen.exchange(
                client, "POST", "/admin/reload?city=" + w.cities[0])
            ops.append(loadgen.Op("reload", k, send, time.perf_counter(),
                                  status, error, body))
            time.sleep(max(0.0, send + RELOAD_PACE_S - time.perf_counter()))
    finally:
        client.close()
    return ops


def route_metrics(good, t0, elapsed):
    """Route percentiles and goodput over the correct routes `good`.

    The window is cut into up to MAX_SLICES equal time slices of at least
    P99_MIN_SAMPLES routes each, and each figure is the median over the
    slices, so a burst of contention from other tenants of the host moves
    one slice rather than the figure. A window with room for one p99 is one
    slice."""
    k = max(1, min(MAX_SLICES, len(good) // P99_MIN_SAMPLES))
    width = elapsed / k
    slices = [[] for _ in range(k)]
    for op in good:
        slices[min(k - 1, int((op.done - t0) / width))].append(
            op.latency_s() * 1e3)
    return {
        "route_p50_ms": stats.median([stats.percentile(s, 50)
                                      for s in slices]),
        "route_p99_ms": stats.median([stats.percentile(s, 99)
                                      for s in slices]),
        "route_goodput_rps": stats.median([len(s) / width for s in slices]),
    }


def end_to_end(w, ops, t0, seconds, setups):
    """The end-to-end metrics and window facts, from checked ops."""
    window = [op for op in ops if op.kind in ("route", "rate")]
    routes = [op for op in window if op.kind == "route"]
    good = [op for op in routes if op.error is None]
    rate_ms = [op.latency_s() * 1e3 for op in window
               if op.kind == "rate" and op.error is None]
    reload_s = [op.done - op.send for op in ops
                if op.kind == "reload" and op.error is None]
    attempted = len(ops)
    failed = sum(1 for op in ops if op.error is not None)
    # From the window's start to its last answer.
    elapsed = max(op.done for op in window) - t0 if window else seconds
    lat = [op.latency_s() * 1e3 for op in good]
    metrics = {
        "setup_s": stats.median(setups),
        "ok_share": 1.0 - failed / attempted,
        "rate_p50_ms": stats.percentile(rate_ms, 50) if rate_ms else 0.0,
        "reload_s": stats.median(reload_s) if reload_s else 0.0,
    }
    metrics.update(route_metrics(good, t0, elapsed))
    lags = [op.lag_s() * 1e3 for op in routes]
    facts = {
        "route_samples": len(lat),
        "window_s": elapsed,
        "lag_p99_ms": stats.percentile(lags, 99) if lags else 0.0,
        "failures": sorted({op.error for op in ops if op.error})[:5],
    }
    return metrics, attempted, failed, facts


# The timed metrics of the window, which the window's reference scales.
WINDOW_TIMED = ("route_p50_ms", "route_p99_ms", "rate_p50_ms")


def at_reference_speed(wall, scale):
    """The end-to-end metrics with the window's times multiplied by `scale`,
    the window reference's factor, and the goodput divided by it. setup_s
    and reload_s, measured before the window, stay wall times: scaled by
    the window's reference or by one beside them, their spread over ten
    seeds grew more often than it shrank."""
    out = dict(wall)
    for name in WINDOW_TIMED:
        out[name] = wall[name] * scale
    out["route_goodput_rps"] = wall["route_goodput_rps"] / scale
    return out


def work_deltas(after, before, engines):
    """{engine: {counter: delta}} summed over cities."""
    return {e: {k: stats.delta(after, before, name, approach=e)
                for k, name in WORK_COUNTERS.items()} for e in engines}


def write_spec(path, w, run_dir, sessions, plans):
    lines = ["scale\t%r" % w.scale, "contexts\t%d" % w.threads,
             "setup_reps\t1",
             "ratings\t%s" % os.path.join(run_dir, "replay-ratings.jsonl"),
             "work_dir\t%s" % run_dir, "reload\t%s\t3" % w.cities[0]]
    lines += ["city\t%s" % city for city in w.cities]
    for s in sessions:
        slat, slng, tlat, tlng = plans[s.city].ods[s.od][:4]
        lines.append("route\tr%d\t%s\t%s\t%s\t%s\t%s" %
                     (s.index, s.city, slat, slng, tlat, tlng))
        lines.append("rate\tr%d-rate\t%d\t%d\t%d\t%d\t%d" %
                     ((s.index,) + s.ratings + (s.resident,)))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def traced_layers(srv, w, run_dir, tool, sessions, plans, window_before,
                  window_after, cli_digest, seed):
    """The --trace 1 part: counter passes over HTTP, then the in-process
    replay. Returns (per-layer metrics, ops, notes); a counter that does
    not repeat exactly raises BenchError."""
    m = min(w.trace_routes, len(sessions))
    replayed = sessions[:m]
    counter = httpclient.ConnectionCounter()
    m0 = srv.metrics()
    pass_a = loadgen.run_routes(srv.port, counter, replayed, plans, 1)
    m1 = srv.metrics()
    pass_b = loadgen.run_routes(srv.port, counter, replayed, plans,
                                w.threads)
    m2 = srv.metrics()
    ops = []
    for s, rtt, status, error, body in pass_a + pass_b:
        ops.append(loadgen.Op("route", s, 0.0, rtt, status, error, body))
    check_ops(ops, plans, w.cities[0])

    spec = os.path.join(run_dir, "replay.spec")
    spans_path = os.path.join(run_dir, "replay.spans")
    write_spec(spec, w, run_dir, replayed, plans)
    proc = subprocess.run([tool, "replay", "--spec", spec, "--spans",
                           spans_path], capture_output=True, text=True,
                          timeout=170, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise BenchError("replay failed: %s" % proc.stderr.strip())
    with open(spans_path) as f:
        spans, passtimes = trace.parse(f.read())
    layers, engine_names, replay_work = trace.summarize(
        spans, passtimes, ENGINE_KEYS)

    engines = [engine_names[a] for a in range(len(ENGINE_KEYS))]
    work_a = work_deltas(m1, m0, engines)
    work_b = work_deltas(m2, m1, engines)
    if work_a != work_b:
        raise BenchError("work counters drifted between two passes over the "
                         "same requests: %r vs %r" % (work_a, work_b))
    for a, engine in enumerate(engines):
        replayed_work = {k: replay_work[a][k] for k in WORK_COUNTERS}
        if replayed_work != {k: int(v) for k, v in work_a[engine].items()}:
            raise BenchError("server counters %r differ from the replay's %r "
                             "for %s" % (work_a[engine], replayed_work,
                                         engine))
    requests = "\n".join(workloads.route_target(s, plans[s.city])
                         for s in replayed)
    check_counter_history(w, seed, cli_digest, requests, work_a)

    shipped = [0] * len(ENGINE_KEYS)
    for _, _, status, error, body in pass_a:
        if status == 200 and error is None:
            doc = json.loads(body)
            for a, approach in enumerate(doc["approaches"]):
                shipped[a] += len(approach["routes"])
    out = dict(layers)
    for a, key in enumerate(ENGINE_KEYS):
        for k in WORK_COUNTERS:
            out["core.%s.%s" % (key, k)] = work_a[engines[a]][k] / m
        generated = work_a[engines[a]]["paths_generated"]
        out["core.%s.accept_ratio" % key] = (shipped[a] / generated
                                             if generated else 0.0)
        out["serve_phase.engine.%s_ms" % key] = 1e3 * stats.delta(
            m1, m0, "altroute_request_phase_seconds_sum",
            phase="engine:" + engines[a]) / m
    for phase in SERVE_PHASES:
        out["serve_phase.%s_ms" % phase] = 1e3 * stats.delta(
            m1, m0, "altroute_request_phase_seconds_sum", phase=phase) / m
    # Transport: the round trip minus the server's own Acquire + Process +
    # ToJson time for the same requests, i.e. every phase it recorded
    # (queue wait included) plus the Process() remainder the replay
    # measured. What is left is connect, parse, handler glue and write.
    rtt_ms = stats.mean([rtt * 1e3 for _, rtt, _, _, _ in pass_a])
    server_ms = 1e3 * stats.delta(
        m1, m0, "altroute_request_phase_seconds_sum") / m
    out["http_server.transport_ms"] = (
        rtt_ms - server_ms - layers["query_processor.unattributed_ms"])
    waits = stats.delta(window_after, window_before,
                        "altroute_request_phase_seconds_count",
                        phase="queue_wait")
    out["http_server.queue_wait_ms"] = 1e3 * stats.delta(
        window_after, window_before, "altroute_request_phase_seconds_sum",
        phase="queue_wait") / waits if waits else 0.0
    out["http_server.rejected"] = stats.delta(
        window_after, window_before, "altroute_queue_rejected_total")
    engine_ms = sum(out["core.%s.ms" % k] for k in ENGINE_KEYS)
    out["trace.engine_share_pct"] = 100.0 * engine_ms / rtt_ms
    notes = {"replayed_routes": m, "engines": engines,
             "http_round_trip_ms": rtt_ms, "server_phases_ms": server_ms,
             "self_time": trace.self_time_table(spans)}
    return out, ops, notes


def check_counter_history(w, seed, cli_digest, requests, work):
    """Work counters of one binary over one request list must repeat exactly
    across runs: the first run records them, every later run compares."""
    hist_dir = os.path.join(build.build_dir(os.getcwd()), "counters")
    os.makedirs(hist_dir, exist_ok=True)
    key = hashlib.sha256((cli_digest + "\n" + requests).encode()).hexdigest()
    path = os.path.join(hist_dir, "%s-seed%d-%s.json" %
                        (w.name, seed, key[:16]))
    if os.path.exists(path):
        with open(path) as f:
            if json.load(f) != work:
                raise BenchError("work counters differ from an earlier run "
                                 "of seed %d (%s)" % (seed, path))
    else:
        with open(path, "w") as f:
            json.dump(work, f, sort_keys=True)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run(args):
    root = os.getcwd()
    check_checkout(root)
    declared = declared_metrics(root, args.trace)
    w = workloads.WORKLOADS[args.workload]
    try:
        cli, tool, calibrate = build.ensure_built(root)
    except build.BuildError as e:
        raise BenchError(str(e)) from e
    run_dir = os.path.join(build.build_dir(root), "runs", "%s-s%d-t%d-%d" % (
        w.name, args.seed, args.trace, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)

    plans = workloads.plan_cities(tool, w, workloads.PLAN_SEED)
    sessions = workloads.make_sessions(
        w, args.seed, {c: len(p.ods) for c, p in plans.items()})
    sargs = serve_args(w)

    setups = []
    srv = None
    layers = {}
    notes = {}
    reloads = []
    try:
        # Reload time differs by a fifth between server processes, so the
        # reloads are spread over several: each set-up server but the last
        # is reloaded and stopped, and the last one serves the window.
        for k in range(w.setup_reps + 1):
            if srv is not None:
                srv.stop()
            srv = server.Server(cli, sargs + [
                "--ratings-file", os.path.join(run_dir, "ratings-%d.jsonl" % k)
            ], run_dir, "serve-%d" % k)
            setups.append(srv.start())
            if k < w.setup_reps:
                reloads += run_reloads(srv, w)
        build_info = srv.get_json("/debug/build")
        if build_info.get("build_type") != "release":
            raise BenchError("refusing to report from a %r build" %
                             build_info.get("build_type"))

        before = srv.metrics() if args.trace else None
        with hostspeed.Reference(calibrate) as ref:
            ops, t0, conns_per_request, rss_mb = run_window(
                srv, w, sessions, plans, args.seconds)
        after = srv.metrics() if args.trace else None
        ops += reloads
        check_ops(ops, plans, w.cities[0])
        wall, attempted, failed, facts = end_to_end(
            w, ops, t0, args.seconds, setups)
        wall["server_rss_mb"] = rss_mb
        metrics = at_reference_speed(wall, ref.scale())
        # Either would make the window measure the generator or too few
        # samples, not the server: no result rather than a wrong one.
        if facts["lag_p99_ms"] > LAG_LIMIT_MS:
            raise BenchError("generator lag p99 %.3f ms exceeds the "
                             "%g ms limit" %
                             (facts["lag_p99_ms"], LAG_LIMIT_MS))
        if facts["route_samples"] < P99_MIN_SAMPLES:
            raise BenchError("only %d correct routes in the window: the p99 "
                             "needs %d" % (facts["route_samples"],
                                           P99_MIN_SAMPLES))

        if args.trace:
            layers, trace_ops, notes = traced_layers(
                srv, w, run_dir, tool, sessions, plans, before, after,
                file_digest(cli), args.seed)
            attempted += len(trace_ops)
            failed += sum(1 for op in trace_ops if op.error is not None)
            facts["failures"] += sorted({op.error for op in trace_ops
                                         if op.error})[:5]
            layers["loadgen.connections_per_request"] = conns_per_request
            layers["loadgen.lag_p99_ms"] = facts["lag_p99_ms"]
    finally:
        if srv is not None:
            srv.stop()

    values = layers if args.trace else metrics
    if set(values) != set(declared):
        raise BenchError("measured metrics differ from BENCHMARK.json: %s" %
                         ", ".join(sorted(set(values) ^ set(declared))))

    provenance = {
        "workload": w.name, "why": w.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "clients": w.threads,
        "server_threads": w.threads, "lag_limit_ms": LAG_LIMIT_MS,
        "host": host_fingerprint(build_info), "serve_args": sargs,
        "setup_runs_s": setups, "end_to_end": metrics, "wall": wall,
        "reference_s": ref.seconds, "reference_reps": ref.reps,
    }
    provenance.update(facts)
    provenance.update(notes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": declared[k]}
                    for k in sorted(values)},
    }
    results_dir = os.path.join(build.build_dir(root), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            w.name, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    if failed:
        log("%d of %d operations failed: %s" % (failed, attempted,
                                                facts["failures"]))
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"provenance": {k: provenance[k] for k in (
        "workload", "seed", "clients", "lag_limit_ms",
        "lag_p99_ms", "route_samples", "host")}}))
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM becomes SystemExit, so the finally blocks still stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run(args)
    except (BenchError, server.ServerError, RuntimeError, OSError,
            ValueError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
