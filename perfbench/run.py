#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload pair-worstcase --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run builds the library, the
srna-serve/srna-router tools and the harness from source into
$CARGO_TARGET_DIR (default .bench_build). Every answer is checked. The last
stdout line is one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(which also writes a Chrome trace under <build>/traces/). The lines before it
are a human-readable table. Without --workload every workload runs in turn.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pair-worstcase", "pair-rrna", "serve-fleet"]

# serve-fleet traffic runs at a fixed ladder of open-loop rates (the harness's
# kRates, read back from its result): the rung whose latency is the headline,
# and the p99 limit a rate must meet.
NOMINAL_RATE = 2000
P99_LIMIT_MS = 10.0
# A run whose generator sent later than this (p99) is invalid and retried.
# Lateness below it is part of the measured latency (requests are timed
# from their due time); at the latency limit itself the run says nothing.
LATE_LIMIT_MS = P99_LIMIT_MS
GEN_ATTEMPTS = 3
SHARD_CACHE_ENTRIES = 256
# Room for a few tens of milliseconds of traffic, so a host stall queues
# requests instead of refusing them.
SHARD_QUEUE_CAPACITY = 256
# A backlog is growing when more than this many seconds of traffic are
# unanswered as a rung's sending window closes.
BACKLOG_S = 0.1

# Each workload, once built, must finish within this many seconds.
RUN_BUDGET_S = 170
DEADLINE = None  # set as each workload starts

PAIR_SETUPS = 20  # set-up repetitions per pair run (median reported)
FLEET_SETUPS = 5  # set-up repetitions per serve-fleet run

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("solve_s", "s"), ("solve_s.1t", "s"), ("speedup", "x"),
    ("rss_peak_mb", "MB"), ("lat_p50_ms", "ms"), ("lat_p99_ms", "ms"),
]
# Printed for serve-fleet but not in the result object. On a shared 4-core
# host the p99 at the ladder's top rate spreads 0.23 to 0.6 across ten runs,
# beyond any bound a gate may use; max_rate_rps can only take a ladder rate,
# so one rung more or less moves it by a third or more.
UNGATED = [("lat_p99_ms.peak", "ms"), ("max_rate_rps", "1/s")]
PER_LAYER = [  # name, unit
    ("core.kernel.ns_per_cell", "ns"), ("core.kernel.memo_ns_per_cell", "ns"),
    ("core.kernel.bytes_per_cell", "B"), ("core.preprocess_s", "s"),
    ("core.stage1_s", "s"), ("core.stage2_s", "s"), ("core.ns_per_cell", "ns"),
    ("core.cells", "count"), ("core.slices", "count"), ("core.arc_events", "count"),
    ("core.memo_bytes", "B"), ("core.arc_index_us", "us"), ("core.column_events_us", "us"),
    ("engine.dispatch_us", "us"), ("engine.workspace_alloc_bytes", "B"),
    ("engine.workspace_reuse", "count"), ("parallel.busy_s", "s"),
    ("parallel.idle_fraction", "ratio"), ("parallel.steals", "count"),
    ("serve.parse_us", "us"), ("serve.render_us", "us"),
    ("serve.queued_ms.p50", "ms"), ("serve.queued_ms.p99", "ms"),
    ("serve.solve_ms.p50", "ms"), ("serve.solve_ms.p99", "ms"),
    ("serve.cache_hit_ratio", "ratio"), ("serve.coalesced_ratio", "ratio"),
    ("serve.rejected", "count"), ("serve.timeouts", "count"),
    ("dist.router_queued_ms.p99", "ms"), ("dist.attempts_per_request", "count"),
    ("dist.hop_ms.p50", "ms"), ("gen.late_ms.p99", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
]


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def cpu_count():
    return len(os.sched_getaffinity(0))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the harness and the two serving tools."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    with open(logfile, "w") as log_out:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", out, "-j", str(min(4, cpu_count())), "--target",
                      "perfbench-harness", "srna-serve", "srna-router"])
        for step in steps:
            if subprocess.run(step, stdout=log_out, stderr=subprocess.STDOUT).returncode != 0:
                with open(logfile) as text:
                    sys.stderr.write(text.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))
    tools = os.path.join(out, "srna", "tools")
    return {"harness": os.path.join(out, "perfbench-harness"),
            "serve": os.path.join(tools, "srna-serve"),
            "router": os.path.join(tools, "srna-router")}


def remaining():
    return max(1.0, DEADLINE - time.monotonic())


def run_harness(args):
    """Runs the harness to completion; returns its last stdout line as JSON."""
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=remaining())
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"harness failed ({done.returncode}): {' '.join(args[:2])}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness printed nothing")
    return json.loads(lines[-1])


# ---------------------------------------------------------------- pairs

def run_pair(tools, workload, opts, trace_path):
    common = [f"--workload={workload}", f"--data={os.path.join(ROOT, 'data')}",
              f"--seed={opts.seed}"]
    setups = []
    for _ in range(PAIR_SETUPS):
        begin = time.perf_counter()
        run_harness([tools["harness"], "pair", "--setup-only"] + common)
        setups.append(time.perf_counter() - begin)
    result = run_harness([tools["harness"], "pair", f"--seconds={opts.seconds}",
                          f"--trace={opts.trace}", f"--trace-out={trace_path}"] + common)
    headline, single = result["solve_s"], result["solve_1t_s"]
    # The fastest solve of the run: a shared host's slow phases only ever add
    # time, and they move a run's median solve by up to 30%.
    solve_s, solve_1t = min(headline), min(single)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": solve_s,
        "solve_s.1t": solve_1t,
        "speedup": solve_1t / solve_s,
        "rss_peak_mb": result["rss_peak_mb"],
        # No request stream here, so the latency columns restate solve_s:
        # the tail of a run's solve times is the host's noise, not the
        # program's (the slowest solve spread 0.23 across ten runs).
        "lat_p50_ms": solve_s * 1e3,
        "lat_p99_ms": solve_s * 1e3,
    }
    samples = {"setup_s": len(setups), "solve_s": len(headline), "solve_s.1t": len(single)}
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["failed"] == 0, "metrics": metrics, "samples": samples,
            "layers": result["layers"], "traces": [trace_path] if opts.trace else []}


# ---------------------------------------------------------------- fleet

class Fleet:
    """srna-router with two spawned srna-serve shards, stopped on exit."""

    def __init__(self, tools, run_dir):
        self.status_path = os.path.join(run_dir, "fleet-status.json")
        if os.path.exists(self.status_path):
            os.remove(self.status_path)
        workers = max(1, (cpu_count() - 1) // 2)  # router + shard workers within nproc
        self.log = open(os.path.join(run_dir, "fleet.log"), "a")
        self.router = subprocess.Popen(
            [tools["router"], "--port=0", "--admin-port=0", "--spawn-shards=2",
             f"--serve-bin={tools['serve']}", f"--shard-arg=--workers={workers}",
             f"--shard-arg=--cache-entries={SHARD_CACHE_ENTRIES}",
             f"--shard-arg=--queue-capacity={SHARD_QUEUE_CAPACITY}", "--shard-arg=--log-level=warn",
             "--log-level=warn", f"--status-file={self.status_path}"],
            stdout=self.log, stderr=self.log)
        self.shard_pids = []
        deadline = time.monotonic() + min(60, remaining())
        while True:
            if self.router.poll() is not None:
                self.stop()
                raise BenchError("srna-router exited during start-up")
            try:
                with open(self.status_path) as text:
                    status = json.load(text)
                break
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError("fleet not ready in time")
            time.sleep(0.005)
        self.port = status["router"]["port"]
        self.admin_port = status["router"]["admin_port"]
        self.shard_pids = [shard["pid"] for shard in status["shards"]]

    def rss_peak_mb(self):
        total = 0.0
        for pid in [self.router.pid] + self.shard_pids:
            with open(f"/proc/{pid}/status") as text:
                for line in text:
                    if line.startswith("VmHWM:"):
                        total += float(line.split()[1]) / 1024.0
        return total

    def counters(self):
        """Fleet-wide engine counters from the router's aggregated /metrics."""
        url = f"http://127.0.0.1:{self.admin_port}/metrics"
        with urllib.request.urlopen(url, timeout=5) as response:
            text = response.read().decode()
        values = {}
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            name, _, value = line.rpartition(" ")
            name = name.split("{")[0]
            values[name] = values.get(name, 0.0) + float(value)
        return values

    def stop(self):
        if self.router.poll() is None:
            self.router.send_signal(signal.SIGTERM)
            try:
                self.router.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.router.kill()
                self.router.wait()
        # The router stops its shards; make sure none outlives it.
        deadline = time.monotonic() + 5
        for pid in self.shard_pids:
            while alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.01)
        self.log.close()


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # A zombie child of an exited router is reaped by init; treat it as gone.
    try:
        with open(f"/proc/{pid}/stat") as text:
            return text.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


def run_fleet(tools, opts, trace_path, run_dir):
    plan = os.path.join(run_dir, "plan.txt")
    prep_trace = os.path.join(run_dir, "prep-trace.json")
    gen_trace = os.path.join(run_dir, "gen-trace.json")
    setups, prep = [], None
    fleet = None
    try:
        for rep in range(FLEET_SETUPS):
            if fleet is not None:
                fleet.stop()
                fleet = None
            last = rep == FLEET_SETUPS - 1
            begin = time.perf_counter()
            prep = run_harness([tools["harness"], "fleet-prep", f"--seed={opts.seed}",
                                f"--plan={plan}", f"--trace={opts.trace if last else 0}",
                                f"--trace-out={prep_trace}"])
            fleet = Fleet(tools, run_dir)
            setups.append(time.perf_counter() - begin)

        for _ in range(GEN_ATTEMPTS):
            gen = run_harness([tools["harness"], "fleet-gen", f"--seed={opts.seed}",
                               f"--plan={plan}", f"--port={fleet.port}",
                               f"--seconds={opts.seconds}", f"--trace={opts.trace}",
                               f"--trace-out={gen_trace}"])
            late = max(r["late_p99_ms"] for r in gen["rungs"])
            if late <= LATE_LIMIT_MS:
                break
            log(f"generator ran {late:.2f} ms late (p99); run invalid, retrying")
        else:
            raise BenchError("the generator could not keep its schedule; no valid run")
        rss = fleet.rss_peak_mb()
        counters = fleet.counters() if opts.trace else {}
    finally:
        if fleet is not None:
            fleet.stop()

    rungs = {r["rate"]: r for r in gen["rungs"]}
    nominal, peak = rungs[NOMINAL_RATE], rungs[max(rungs)]
    passing = [r["rate"] for r in gen["rungs"]
               if r["p99_ms"] <= P99_LIMIT_MS and r["backlog"] <= r["rate"] * BACKLOG_S]
    median_solve = gen["solve_ms_p50"] / 1e3
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": median_solve,
        "solve_s.1t": median_solve,
        "speedup": 1.0,
        "rss_peak_mb": rss,
        "lat_p50_ms": nominal["p50_ms"],
        "lat_p99_ms": nominal["p99_ms"],
        "lat_p99_ms.peak": peak["p99_ms"],
        # Half the lowest rate when no rung meets the limit.
        "max_rate_rps": max(passing) if passing else min(rungs) / 2,
    }
    samples = {"setup_s": len(setups), "solve_s": gen["solves"],
               "lat_p50_ms": nominal["requests"], "lat_p99_ms": nominal["requests"],
               "lat_p99_ms.peak": peak["requests"]}
    layers = dict(prep["layers"])
    layers.update(gen["layers"])
    if opts.trace:
        layers["engine.workspace_alloc_bytes"] = counters.get("srna_engine_workspace_alloc_bytes", 0)
        layers["engine.workspace_reuse"] = counters.get("srna_engine_workspace_reuse", 0)
    broken = sum(r["lost"] + r["duplicates"] + r["wrong"] for r in gen["rungs"])
    for r in gen["rungs"]:
        log(f"rate {r['rate']:g}/s: {r['requests']} requests, p50 {r['p50_ms']:.3f} ms, "
            f"p99 {r['p99_ms']:.3f} ms (median of {r['p99_windows']} windows; "
            f"pooled {r['p99_pooled_ms']:.3f} ms), late p99 {r['late_p99_ms']:.3f} ms, "
            f"backlog {r['backlog']}, failed {r['failed']}")
    return {"attempted": gen["attempted"], "failed": gen["failed"], "correct": broken == 0,
            "metrics": metrics, "samples": samples, "layers": layers,
            "traces": [prep_trace, gen_trace] if opts.trace else []}


# ---------------------------------------------------------------- output

def merge_traces(paths, out_path):
    """Merges the harness processes' Chrome traces into one file."""
    events, self_seconds = [], {}
    for pid, path in enumerate(paths, start=1):
        with open(path) as text:
            doc = json.load(text)
        for event in doc["traceEvents"]:
            event["pid"] = pid
            events.append(event)
        for layer, seconds in doc.get("otherData", {}).get("self_seconds", {}).items():
            self_seconds[layer] = self_seconds.get(layer, 0.0) + seconds
    with open(out_path, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"self_seconds": self_seconds}}, out)
    return self_seconds


def run_workload(tools, workload, opts):
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_BUDGET_S
    traces = os.path.join(build_dir(), "traces")
    run_dir = os.path.join(build_dir(), "runs", f"{workload}-{os.getpid()}")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    trace_path = os.path.join(traces, f"{workload}-seed{opts.seed}.json")
    try:
        if workload == "serve-fleet":
            result = run_fleet(tools, opts, trace_path, run_dir)
        else:
            result = run_pair(tools, workload, opts, os.path.join(run_dir, "pair-trace.json"))
        self_seconds = merge_traces(result["traces"], trace_path) if opts.trace else {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload} (seed {opts.seed}, {opts.seconds} s, trace {opts.trace})")
    print(f"   correct {result['correct']}  attempted {attempted}  failed {failed}  "
          f"fail_ratio {failed / max(1, attempted):.6f}")
    if opts.trace:
        metrics = {name: {"value": float(result["layers"].get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
        for layer, seconds in sorted(self_seconds.items()):
            print(f"   self time {layer:<10} {seconds:.6f} s")
        print(f"   trace written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
                   for name, unit in END_TO_END}
    rows = dict(metrics)
    if not opts.trace:
        rows.update({name: {"value": result["metrics"][name], "unit": unit}
                     for name, unit in UNGATED if name in result["metrics"]})
    for name, metric in rows.items():
        n = result["samples"].get(name)
        print(f"   {name:<30} {metric['value']:>16.6f} {metric['unit']:<6}"
              + (f" (n={n})" if n else "") + ("" if name in metrics else " (not gated)"))
    return {"correct": result["correct"], "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args()
    try:
        tools = build()
        names = WORKLOADS if opts.workload == "all" else [opts.workload]
        results = {name: run_workload(tools, name, opts) for name in names}
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as error:
        log(f"error: {error}")
        return 1
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{w}/{m}": v for w, r in results.items()
                               for m, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
