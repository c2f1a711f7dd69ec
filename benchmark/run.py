#!/usr/bin/env python3
"""End-to-end benchmark of gemini: spec in, winner out.

  python3 benchmark/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1]
  python3 benchmark/run.py --selftest
  python3 benchmark/run.py --workload NAME --seed 1 --record-goldens

The first run builds the `gemini` CLI and the layer-replay probe from
source into build/benchmark (see benchmark/CMakeLists.txt) and refuses any
build type but Release. Each run generates its workload's spec files from
--seed, drives the built binary the way users do — `gemini run` for the
CLI workloads, `gemini serve` plus HTTP clients for serve_mix — for about
--seconds seconds, times everything from outside (os.wait4 rusage and
monotonic clocks) and checks every output.

With --trace 0 the last stdout line is the JSON result carrying every
end-to-end metric BENCHMARK.json lists; with --trace 1 the run is the
separate traced run: one pass of the workload, then the probe replays it
through the layers' public functions and the line carries every per-layer
metric. Each run also writes build/benchmark/runs/<workload>-s<seed>-*.json
with the host context, raw samples and tails; compare.py reads those.
See benchmark/README.md for the workloads, metrics and their bounds.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402
import stats  # noqa: E402
from client import Connection, HttpError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build" / "benchmark"
GEMINI = BUILD / "repo" / "gemini"
PROBE = BUILD / "gemini_probe"
GOLDENS = HERE / "goldens.json"

DEFAULT_SEED = 1
MIN_JOBS = 3        # CLI jobs per timed run, at least
SETUP_LAUNCHES = 10  # extra CLI launches timed to their first progress line
HIT_OPS = 100       # repeat submissions per CLI-workload run
TRACE_HIT_OPS = 20
COLD_STARTS = 15    # daemon cold starts behind serve_mix's setup_s
SERVE_CLIENTS = 3
SERVE_REPEATS = 3   # repeats of a finished spec after each fresh job
SERVE_GOLDEN_JOBS = 24  # fresh serve_mix jobs the default-seed golden pins
JOB_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def threads_available():
    return len(os.sched_getaffinity(0))


# ---- Workload inputs --------------------------------------------------------

def sa_seed(seed, salt):
    # Below 2**53: spec numbers travel as JSON doubles.
    return random.Random(f"{salt}:{seed}").randrange(1, 2**31)


def dse_screen_spec(seed, threads):
    return {
        "schema_version": 1, "name": "dse_screen", "mode": "dse",
        "models": [{"zoo": "transformer"}, {"zoo": "resnet50"}],
        "schedule": {"enabled": True},
        "max_candidates": 96, "threads": threads,
        "mapping": {"max_group_layers": 6, "analytic_seed": True,
                    "sa": {"iterations": 2048, "plateau_window": 1536,
                           "seed": sa_seed(seed, "dse_screen")}},
    }


def map_sa_gpt2_spec(seed, threads):
    return {
        "schema_version": 1, "name": "map_sa_gpt2", "mode": "map",
        "models": [{"zoo": "gpt2_medium"}], "arch": {"preset": "large_grid"},
        "threads": threads,
        "mapping": {"max_group_layers": 12,
                    "sa": {"iterations": 8000, "chains": 1,
                           "seed": sa_seed(seed, "map_sa_gpt2")}},
    }


def dse_flat_topo_spec(seed, threads):
    return {
        "schema_version": 1, "name": "dse_flat_topo", "mode": "dse",
        "models": [{"zoo": "transformer"}],
        "axes": {"topologies": ["mesh", "folded-torus", "concentrated-ring",
                                "hierarchical-nop"]},
        "max_candidates": 96, "threads": threads,
        "mapping": {"max_group_layers": 6,
                    "sa": {"iterations": 4096,
                           "seed": sa_seed(seed, "dse_flat_topo")}},
    }


SERVE_MODELS = ("tiny_conv", "tiny_transformer", "mobilenet_v2",
                "yolov3_tiny")
SERVE_CANDIDATES = (12, 16, 20)


def serve_spec(seed, threads, index):
    """Fresh serve_mix spec number `index`. Specs come in blocks holding
    every (model, max_candidates) pair once, in a seeded order, so any
    prefix of blocks carries the same mix of work whatever the seed."""
    block_size = len(SERVE_MODELS) * len(SERVE_CANDIDATES)
    block, slot = divmod(index, block_size)
    pairs = [(m, c) for m in SERVE_MODELS for c in SERVE_CANDIDATES]
    random.Random(f"serve_mix:{seed}:{block}").shuffle(pairs)
    model, candidates = pairs[slot]
    return {
        "schema_version": 1, "name": f"serve_mix-{index}", "mode": "dse",
        "models": [{"zoo": model}], "schedule": {"enabled": True},
        "max_candidates": candidates, "threads": threads,
        "mapping": {"sa": {"iterations": 512,
                           "seed": sa_seed(f"{seed}:{index}", "serve_mix")}},
    }


# ---- Processes --------------------------------------------------------------

class Procs:
    """Every child the run starts; anything still alive at exit is
    killed and reaped."""

    def __init__(self):
        self.live = []

    def spawn(self, argv, **kw):
        p = subprocess.Popen([str(a) for a in argv], **kw)
        self.live.append(p)
        return p

    def reap(self, p, timeout=JOB_TIMEOUT_S):
        """Wait for p with os.wait4; returns (exit code, rusage)."""
        watchdog = threading.Timer(timeout, p.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(p)
        return p.returncode, usage

    def kill_all(self):
        for p in list(self.live):
            try:
                p.kill()
            except ProcessLookupError:
                pass
            self.reap(p, timeout=30)


def cpu_seconds(usage):
    return usage.ru_utime + usage.ru_stime


def rss_mib(usage):
    return usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


class Daemon:
    """One `gemini serve` process on `store`."""

    def __init__(self, ctx, store, tag):
        self.ctx = ctx
        self.port_file = ctx.work / f"port-{tag}"
        self.log = open(ctx.work / f"serve-{tag}.log", "wb")
        self.t0 = time.monotonic()
        self.p = ctx.procs.spawn(
            [GEMINI, "serve", "--store", store, "--port", "0",
             "--port-file", self.port_file, "--jobs", "1",
             "--service-threads", ctx.threads],
            stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None

    def wait_ready(self, timeout=30.0):
        """Seconds from spawn to the first `/healthz` 200."""
        deadline = self.t0 + timeout
        while time.monotonic() < deadline:
            if self.port is None and self.port_file.exists():
                self.port = int(self.port_file.read_text())
            if self.port is not None:
                try:
                    conn = Connection(self.port)
                    try:
                        status, _ = conn.request("GET", "/healthz")
                    finally:
                        conn.close()
                    if status == 200:
                        return time.monotonic() - self.t0
                except (OSError, HttpError):
                    pass
            time.sleep(0.0005)
        raise BenchError(f"daemon not ready after {timeout} s; see "
                         f"{self.log.name}")

    def stop(self):
        """SIGTERM and reap; returns the daemon's rusage."""
        self.p.send_signal(signal.SIGTERM)
        code, usage = self.ctx.procs.reap(self.p, timeout=60)
        self.log.close()
        if code != 0:
            raise BenchError(f"daemon exited with {code}; see {self.log.name}")
        return usage


# ---- One operation ----------------------------------------------------------

def run_cli_job(ctx, spec_path, job_dir):
    """One `gemini run` with its own store; times spawn -> exit and the
    setup before the first `entered` progress line."""
    job_dir.mkdir(parents=True)
    out, store = job_dir / "out", job_dir / "store"
    with open(job_dir / "stdout.txt", "wb") as so:
        t0 = time.monotonic()
        p = ctx.procs.spawn([GEMINI, "run", spec_path, "--out", out,
                             "--store", store],
                            stdout=so, stderr=subprocess.PIPE)
        t_first, tail = None, []
        for line in p.stderr:
            if t_first is None and b" entered " in line:
                t_first = time.monotonic()
            tail = (tail + [line])[-5:]
        code, usage = ctx.procs.reap(p)
        t1 = time.monotonic()
    p.stderr.close()
    job = {"t0": t0, "t1": t1, "wall": t1 - t0, "cpu": cpu_seconds(usage),
           "rss_mib": rss_mib(usage), "store": store, "doc": None,
           "fails": []}
    if t_first is not None:
        job["setup"], job["t_first"] = t_first - t0, t_first
    else:
        job["fails"].append("no progress line")
    if code != 0:
        job["fails"].append(f"gemini run exited {code}: "
                            + b"".join(tail).decode(errors="replace"))
        return job
    try:
        job["text"] = (out / "result.json").read_text()
        job["doc"] = json.loads(job["text"])
    except (OSError, ValueError) as e:
        job["fails"].append(f"unreadable result.json: {e}")
        return job
    job["fails"] += checks.check_result(job["doc"])
    return job


def setup_launch(ctx, spec_path, job_dir):
    """Time a `gemini run` from spawn to its first progress line, then
    kill it: one more set-up sample without paying for the whole job."""
    t0 = time.monotonic()
    p = ctx.procs.spawn([GEMINI, "run", spec_path, "--out", job_dir / "out",
                         "--store", job_dir / "store"],
                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    t_first = None
    for line in p.stderr:
        if b" entered " in line:
            t_first = time.monotonic()
            break
    p.kill()
    p.stderr.close()
    ctx.procs.reap(p)
    shutil.rmtree(job_dir, ignore_errors=True)
    return None if t_first is None else t_first - t0


def client_op(conn, body, fresh, bodies):
    """POST a job, follow its event stream to the end, GET its result.
    The result body goes to `bodies` under its digest, unparsed: checks
    run after the timed loop so the client stays light while timing."""
    op = {"fresh": fresh, "t0": time.monotonic(), "fails": []}
    status, reply = conn.request("POST", "/v1/jobs", body)
    op["t_ack"] = time.monotonic()
    op["statuses"] = [status]
    want = 202 if fresh else 200
    if status != want:
        op["fails"].append(f"submit answered {status}, expected {want}")
        op["t_res"] = op["t_ack"]
        return op
    info = json.loads(reply)
    op["instant"] = bool(info.get("deduped") or info.get("from_cache"))
    job_id = info["id"]
    status, events, t_first = conn.events(f"/v1/jobs/{job_id}/events")
    op["t_end"] = time.monotonic()
    op["t_first"] = t_first
    op["statuses"].append(status)
    final = events[-1] if events else {}
    if status != 200 or final.get("state") != "done":
        op["fails"].append(f"event stream ended {final!r} (HTTP {status})")
    status, text = conn.request("GET", f"/v1/jobs/{job_id}/result")
    op["t_res"] = time.monotonic()
    op["statuses"].append(status)
    op["bytes"] = len(text)
    if status != 200:
        op["fails"].append(f"result answered {status}")
        return op
    op["sha"] = hashlib.sha256(text).hexdigest()
    bodies.setdefault(op["sha"], text)
    return op


class Parsed:
    """Result bodies parsed once per distinct digest."""

    def __init__(self, bodies):
        self.bodies, self.docs = bodies, {}

    def __call__(self, op):
        sha = op["sha"]
        if sha not in self.docs:
            self.docs[sha] = json.loads(self.bodies[sha])
        return self.docs[sha]


def hit_ops(ctx, store, spec, reference, n_ops):
    """Repeat submissions of an answered spec to a daemon on its store:
    admission dedup must answer each with the stored result."""
    daemon = Daemon(ctx, store, "hits")
    ops, bodies = [], {}
    try:
        daemon.wait_ready()
        conn = Connection(daemon.port, capture=ctx.capture)
        body = json.dumps({"spec": spec, "tenant": "hits"}).encode()
        try:
            ops = [client_op(conn, body, False, bodies)
                   for _ in range(n_ops)]
        finally:
            conn.close()
    finally:
        daemon.stop()
    parsed = Parsed(bodies)
    for op in ops:
        if "sha" in op:
            op["fails"] += checks.same_payload(reference, parsed(op))
        ctx.tally.op(op["fails"])
    return ops


# ---- Workloads --------------------------------------------------------------

def run_cli_workload(ctx):
    spec = ctx.spec_fn(ctx.seed, ctx.threads)
    spec_path = ctx.work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    jobs, first = [], None
    t_start = time.monotonic()
    while True:
        job = run_cli_job(ctx, spec_path, ctx.work / f"job{len(jobs)}")
        if job["doc"] is not None:
            if first is None:
                first = job
            else:
                job["fails"] += checks.same_payload(first["doc"], job["doc"],
                                                    timing=False)
                shutil.rmtree(ctx.work / f"job{len(jobs)}")
        ctx.tally.op(job["fails"])
        jobs.append(job)
        if ctx.trace or first is None:
            break
        elapsed = time.monotonic() - t_start
        typical = stats.median([j["wall"] for j in jobs])
        if len(jobs) >= MIN_JOBS and elapsed + typical > ctx.seconds:
            break
    if first is None:
        raise BenchError("no CLI job produced a result: "
                         + "; ".join(jobs[0]["fails"]))
    hits = hit_ops(ctx, first["store"], spec, first["doc"],
                   TRACE_HIT_OPS if ctx.trace else HIT_OPS)
    ctx.golden_check(first["doc"])
    setups = [j["setup"] for j in jobs if "setup" in j]
    for k in range(0 if ctx.trace else SETUP_LAUNCHES):
        setup = setup_launch(ctx, spec_path, ctx.work / f"setup{k}")
        ctx.tally.op([] if setup is not None else ["no progress line"])
        if setup is not None:
            setups.append(setup)

    ctx.samples = {
        "job_wall_s": [j["wall"] for j in jobs],
        "job_cpu_s": [j["cpu"] for j in jobs],
        "job_rss_mib": [j["rss_mib"] for j in jobs],
        "setup_s": setups,
        "hit_ms": [(o["t_res"] - o["t0"]) * 1e3 for o in hits],
    }
    ctx.metrics = {
        "wall_s": stats.median(ctx.samples["job_wall_s"]),
        "cpu_s": stats.median(ctx.samples["job_cpu_s"]),
        "peak_rss_mib": stats.median(ctx.samples["job_rss_mib"]),
        "setup_s": stats.median(setups),
        "jobs_per_s": len(jobs) / sum(ctx.samples["job_wall_s"]),
    }
    ctx.ops = hits
    ctx.cli_jobs = jobs
    ctx.replay_jobs = [(0, spec_path, first["text"])]
    ctx.e2e_cpu = first["cpu"]
    ctx.busy = (first["cpu"], first["wall"])


def serve_client(ctx, c, clients, deadline, results, bodies):
    """One closed-loop client (tenant t<c>) on one keep-alive connection:
    fresh job, then SERVE_REPEATS repeats of its own finished specs."""
    rng = random.Random(f"serve_mix:{ctx.seed}:client{c}")
    finished = []
    conn = Connection(ctx.port, capture=ctx.capture)
    try:
        index = c
        while time.monotonic() < deadline:
            spec = serve_spec(ctx.seed, ctx.threads, index)
            body = json.dumps({"spec": spec, "tenant": f"t{c}"}).encode()
            op = client_op(conn, body, True, bodies)
            op["index"], op["client"] = index, c
            results.append(op)
            if "sha" in op:
                finished.append((index, body))
                for _ in range(SERVE_REPEATS):
                    idx, rbody = rng.choice(finished)
                    rep = client_op(conn, rbody, False, bodies)
                    rep["index"], rep["client"] = idx, c
                    results.append(rep)
            index += clients
    finally:
        conn.close()


def run_serve_mix(ctx):
    store = ctx.work / "store"
    daemon = Daemon(ctx, store, "main")
    daemon.wait_ready()
    ctx.port = daemon.port
    clients = min(SERVE_CLIENTS, threads_available())
    results, bodies = [], {}
    t_start = time.monotonic()
    deadline = t_start + ctx.seconds
    workers = [threading.Thread(target=serve_client,
                                args=(ctx, c, clients, deadline, results,
                                      bodies))
               for c in range(clients)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    loop_wall = time.monotonic() - t_start
    usage = daemon.stop()

    parsed = Parsed(bodies)
    docs = {}
    for op in sorted((o for o in results if o["fresh"]),
                     key=lambda o: o["index"]):
        if "sha" in op:
            op["doc"] = docs[op["index"]] = parsed(op)
            op["fails"] += checks.check_result(op["doc"])
        ctx.tally.op(op["fails"])
    repeats = [o for o in results if not o["fresh"]]
    for op in repeats:
        if "sha" in op:
            op["fails"] += checks.same_payload(docs[op["index"]], parsed(op))
        ctx.tally.op(op["fails"])
    fresh = sorted((o for o in results if o["fresh"] and "doc" in o),
                   key=lambda o: o["index"])
    if not fresh:
        raise BenchError("serve_mix completed no fresh job")

    # The daemon must reproduce an in-process `gemini run` of one spec.
    spec0 = ctx.work / "fresh0.json"
    spec0.write_text(json.dumps(serve_spec(ctx.seed, ctx.threads,
                                           fresh[0]["index"])))
    ref = run_cli_job(ctx, spec0, ctx.work / "cli_reference")
    if ref["doc"] is not None:
        ref["fails"] += checks.same_payload(fresh[0]["doc"], ref["doc"],
                                            timing=False)
    ctx.tally.op(ref["fails"])
    ctx.golden_check({o["index"]: o["doc"] for o in fresh})

    setups = []
    if not ctx.trace:
        for k in range(COLD_STARTS):
            cold = Daemon(ctx, store, f"cold{k}")
            try:
                setups.append(cold.wait_ready())
                ctx.tally.op([])
            finally:
                cold.stop()

    ctx.samples = {
        "fresh_s": [o["t_res"] - o["t0"] for o in fresh],
        "repeat_ms": [(o["t_res"] - o["t0"]) * 1e3 for o in repeats],
        "cold_start_s": setups,
    }
    ctx.metrics = {
        "wall_s": stats.median(ctx.samples["fresh_s"]),
        "cpu_s": cpu_seconds(usage) / len(fresh),
        "peak_rss_mib": rss_mib(usage),
        "setup_s": stats.median(setups) if setups else None,
        "jobs_per_s": len(fresh) / loop_wall,
    }
    ctx.ops = results
    ctx.cli_jobs = []
    ctx.replay_jobs = []
    for o in fresh:
        path = ctx.work / f"fresh{o['index']}.spec.json"
        path.write_text(json.dumps(serve_spec(ctx.seed, ctx.threads,
                                              o["index"])))
        ctx.replay_jobs.append((o["index"], path,
                                bodies[o["sha"]].decode()))
    ctx.e2e_cpu = cpu_seconds(usage)
    ctx.busy = (cpu_seconds(usage), loop_wall)


WORKLOADS = {
    "dse_screen": (run_cli_workload, dse_screen_spec),
    "map_sa_gpt2": (run_cli_workload, map_sa_gpt2_spec),
    "dse_flat_topo": (run_cli_workload, dse_flat_topo_spec),
    "serve_mix": (run_serve_mix, None),
}


# ---- Goldens ----------------------------------------------------------------

def load_goldens():
    try:
        return json.loads(GOLDENS.read_text())
    except FileNotFoundError:
        return {}


def golden_entry(workload, docs):
    if workload == "serve_mix":
        return {"fresh_digests": {str(i): checks.digest(docs[i])
                                  for i in range(SERVE_GOLDEN_JOBS)}}
    return checks.golden_of(docs)


def golden_failures(workload, expected, docs):
    if workload != "serve_mix":
        return checks.check_golden(expected, checks.golden_of(docs),
                                   workload)
    fails = []
    for key, value in expected["fresh_digests"].items():
        doc = docs.get(int(key))
        if doc is not None and checks.digest(doc) != value:
            fails.append(f"serve_mix fresh job {key}: golden digest differs")
    return fails


# ---- Tracing ----------------------------------------------------------------

REPLAY_TOP = ("dnn.resolve", "dse.screen", "dse.race", "dse.polish",
              "dse.flat", "map.run")


def client_spans(ctx):
    """One span per client operation phase, on the probe's clock."""
    out, next_id = [], 1 << 40
    ns = lambda t: int(t * 1e9)  # noqa: E731

    def add(name, t0, t1, parent, job, thread):
        nonlocal next_id
        next_id += 1
        out.append({"id": next_id, "parent": parent, "name": name,
                    "workload": ctx.workload, "job": job, "item": -1,
                    "thread": thread, "t0_ns": ns(t0), "t1_ns": ns(t1),
                    "cpu_ns": None})
        return next_id

    for job in ctx.cli_jobs:
        root = add("cli.job", job["t0"], job["t1"], 0, 0, "cli")
        if "t_first" in job:
            add("api.wait", job["t0"], job["t_first"], root, 0, "cli")
            add("api.run", job["t_first"], job["t1"], root, 0, "cli")
    for op in ctx.ops:
        thread = f"client{op.get('client', 0)}"
        job = op.get("index", 0)
        root = add("client.op", op["t0"], op["t_res"], 0, job, thread)
        add("api.submit", op["t0"], op["t_ack"], root, job, thread)
        if "t_end" not in op:
            continue
        if op["fresh"] and op["t_first"] is not None:
            add("api.wait", op["t_ack"], op["t_first"], root, job, thread)
            add("api.run", op["t_first"], op["t_end"], root, job, thread)
        add("api.result", op["t_end"], op["t_res"], root, job, thread)
    return out


def run_probe(ctx):
    jobs = []
    for job_id, spec_path, text in ctx.replay_jobs:
        result_path = ctx.work / f"replay-result-{job_id}.json"
        result_path.write_text(text)
        jobs.append({"job": job_id, "spec": str(spec_path),
                     "result": str(result_path)})
    requests = ctx.work / "requests.json"
    requests.write_text(json.dumps(ctx.capture))
    manifest = ctx.work / "manifest.json"
    manifest.write_text(json.dumps({
        "workload": ctx.workload, "threads": ctx.threads,
        "scratch": str(ctx.work / "probe-store"), "jobs": jobs,
        "requests": str(requests)}))
    out = ctx.work / "trace.json"
    p = ctx.procs.spawn([PROBE, "replay", manifest, out],
                        stdout=subprocess.DEVNULL)
    code, _ = ctx.procs.reap(p)
    if code not in (0, 3) or not out.exists():
        raise BenchError(f"probe exited {code}")
    trace = json.loads(out.read_text())
    trace["spans"] += client_spans(ctx)
    return trace


def self_cpu_by_layer(spans):
    """Self CPU of every span (its CPU minus that of its children on the
    same thread), summed per layer (the span name's module prefix)."""
    child_cpu = defaultdict(int)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent and parent["thread"] == s["thread"] and s["cpu_ns"]:
            child_cpu[s["parent"]] += s["cpu_ns"]
    layers = defaultdict(float)
    for s in spans:
        if s["cpu_ns"] is not None:
            layers[s["name"].split(".")[0]] += \
                (s["cpu_ns"] - child_cpu[s["id"]]) / 1e9
    return dict(sorted(layers.items()))


def layer_metrics(ctx, trace):
    spans = trace["spans"]
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def cpu(pred):
        return sum(s["cpu_ns"] for s in spans
                   if s["cpu_ns"] is not None and pred(s["name"])) / 1e9

    def wall(name, scale):
        return stats.median([(s["t1_ns"] - s["t0_ns"]) / 1e9 * scale
                             for s in by[name]]) if by[name] else 0.0

    replay = cpu(lambda n: n.startswith(REPLAY_TOP))
    counters = trace["counters"]
    docs = [json.loads(text) for _, _, text in ctx.replay_jobs]
    pruned = {(job_id, i)
              for (job_id, _, _), doc in zip(ctx.replay_jobs, docs)
              for i, rec in enumerate(doc.get("dse", {}).get("records", []))
              if rec.get("pruned_by_bound")}
    records = sum(len(d.get("dse", {}).get("records", [])) for d in docs)
    waste = sum(s["cpu_ns"] for s in by["dse.screen"]
                if (s["job"], s["item"]) in pruned) / 1e9
    sa_cpu = cpu(lambda n: n == "mapping.sa")
    hits, misses = counters["explorer_hits"], counters["explorer_misses"]
    ops = ctx.ops
    fresh_phases = [o for o in ops if o["fresh"] and o.get("t_first")]
    fresh_phases += [{"t_ack": j["t0"], "t_first": j["t_first"],
                      "t_end": j["t1"]}
                     for j in ctx.cli_jobs if "t_first" in j]
    repeats = [o for o in ops if not o["fresh"]]
    statuses = [s for o in ops for s in o["statuses"]]
    threads = ctx.threads
    busy_cpu, busy_wall = ctx.busy

    def frac(x):
        return x / replay if replay else 0.0

    return {
        "trace.replay_cpu_s": replay,
        "trace.coverage": replay / ctx.e2e_cpu,
        "dnn.resolve_ms": wall("dnn.resolve", 1e3),
        "noc.build_ms": wall("noc.build", 1e3),
        "mapping.engine_init_ms": wall("mapping.engine_init", 1e3),
        "mapping.tmap_cpu_s": cpu(lambda n: n == "mapping.tmap"),
        "mapping.sa_cpu_s": sa_cpu,
        "mapping.sa_iters": counters["sa_iters"],
        "mapping.sa_iters_per_cpu_s":
            counters["sa_iters"] / sa_cpu if sa_cpu else 0.0,
        "mapping.group_layers_max": counters["group_layers_max"],
        "intracore.searches": misses,
        "intracore.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "cost.bound_dp_frac": frac(cpu(lambda n: n == "cost.bound_dp")),
        "cost.bound_dp_calls": counters["bound_dp_calls"],
        "dse.screen_frac": frac(cpu(lambda n: n == "dse.screen")),
        "dse.race_frac": frac(cpu(lambda n: n.startswith("dse.race"))),
        "dse.polish_frac": frac(cpu(lambda n: n == "dse.polish")),
        "dse.flat_frac": frac(cpu(lambda n: n == "dse.flat")),
        "dse.screen_waste_frac": frac(waste),
        "dse.memo_share_frac": frac(cpu(lambda n: n == "dse.memo_share")),
        "dse.pruned_bound_frac": len(pruned) / records if records else 0.0,
        "api.spec_hash_us": wall("api.spec_hash", 1e6),
        "api.result_json_ms": wall("api.result_json", 1e3),
        "api.store_put_ms": wall("api.store_put", 1e3),
        "api.store_get_ms": wall("api.store_get", 1e3),
        "api.submit_ms_p50":
            stats.median([(o["t_ack"] - o["t0"]) * 1e3 for o in ops]),
        "api.result_ms_p50":
            stats.median([(o["t_res"] - o["t_end"]) * 1e3 for o in ops
                          if "t_end" in o]),
        "api.result_kib":
            stats.median([o["bytes"] / 1024 for o in ops if "bytes" in o]),
        "api.wait_s_p50":
            stats.median([o["t_first"] - o["t_ack"] for o in fresh_phases]),
        "api.run_s_p50":
            stats.median([o["t_end"] - o["t_first"] for o in fresh_phases]),
        "api.dedup_frac":
            sum(1 for o in repeats if o.get("instant")) / len(repeats),
        "net.parse_us": wall("net.parse", 1e6),
        "net.http_errors": sum(1 for s in statuses if not 200 <= s < 300),
        "common.pool_busy_frac": busy_cpu / (busy_wall * threads),
    }


# ---- Host context -----------------------------------------------------------

def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except FileNotFoundError:
        pass
    return ""


def compiler_version():
    for f in sorted((BUILD / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake")):
        for line in f.read_text().splitlines():
            if line.startswith("set(CMAKE_CXX_COMPILER_ID ") or \
                    line.startswith("set(CMAKE_CXX_COMPILER_VERSION "):
                yield line.split(" ", 1)[1].rstrip(")").strip('"')


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, env=env)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_context(ctx):
    simd = subprocess.run([str(PROBE), "simd"], capture_output=True,
                          text=True).stdout.strip()
    return {
        "commit": git_commit(), "seed": ctx.seed, "nproc": os.cpu_count(),
        "threads": ctx.threads, "cpu_model": cpu_model(),
        "compiler": " ".join(compiler_version()) + " "
                    + cmake_cache("CMAKE_CXX_COMPILER"),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"), "simd": simd,
    }


# ---- Build ------------------------------------------------------------------

def ensure_built():
    """Configure (once) and build gemini + the probe; Release only."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        raise BenchError(f"no gemini source tree at {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, threads_available())), "--target", "gemini",
                  "gemini_probe"])
    with open(log, "wb") as f:
        for argv in steps:
            if subprocess.run(argv, stdout=f, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise BenchError(f"build failed; see {log}")
    if cmake_cache("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError(f"{BUILD} is a {cmake_cache('CMAKE_BUILD_TYPE')!r} "
                         "build; the benchmark times Release builds only")


# ---- Driver -----------------------------------------------------------------

class Context:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.threads = min(4, threads_available())
        self.procs = Procs()
        self.tally = checks.Tally()
        self.capture = [] if self.trace else None
        self.spec_fn = WORKLOADS[args.workload][1]
        self.record_goldens = args.record_goldens
        self.goldens = load_goldens()
        self.work = (BUILD / "work" /
                     f"{self.workload}-s{self.seed}-{os.getpid()}")

    def golden_check(self, docs):
        """Check (or, with --record-goldens, record) the default seed's
        goldens; other seeds have none."""
        if self.seed != DEFAULT_SEED or self.trace:
            return
        if self.record_goldens:
            self.goldens[self.workload] = golden_entry(self.workload, docs)
            return
        expected = self.goldens.get(self.workload)
        if expected is None:
            self.tally.op([f"no golden recorded for {self.workload}"])
        else:
            self.tally.op(golden_failures(self.workload, expected, docs))


def spec_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args):
    t_invocation = time.monotonic()
    ensure_built()
    _, e2e_units, layer_units = spec_names()
    ctx = Context(args)
    ctx.work.mkdir(parents=True)
    # A collection pass inside a timed window would read as program time.
    gc.disable()
    keep = False
    try:
        runner = WORKLOADS[ctx.workload][0]
        runner(ctx)
        extra = {}
        if ctx.trace:
            trace = run_probe(ctx)
            mismatches = trace["checks"]["mismatches"]
            ctx.tally.op([f"replay mismatch: {d}"
                          for d in trace["checks"]["details"]]
                         if mismatches else [])
            metrics = layer_metrics(ctx, trace)
            units = layer_units
            extra = {"replay_checks": trace["checks"],
                     "counters": trace["counters"],
                     "self_cpu_s_by_layer": self_cpu_by_layer(trace["spans"])}
            runs = BUILD / "runs"
            runs.mkdir(exist_ok=True)
            trace_out = runs / f"{ctx.workload}-s{ctx.seed}-trace.json"
            trace_out.write_text(json.dumps(trace))
            extra["trace_file"] = str(trace_out.relative_to(ROOT))
        else:
            metrics = ctx.metrics
            units = e2e_units
    except BaseException:
        keep = True
        raise
    finally:
        ctx.procs.kill_all()
        if not keep:
            shutil.rmtree(ctx.work, ignore_errors=True)

    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not computed: {sorted(missing)}")
    if ctx.record_goldens:
        GOLDENS.write_text(json.dumps(ctx.goldens, indent=2, sort_keys=True)
                           + "\n")

    out_metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in units.items()}
    record = dict(host_context(ctx), workload=ctx.workload,
                  seconds=ctx.seconds, trace=ctx.trace,
                  invocation_wall_s=time.monotonic() - t_invocation,
                  attempted=ctx.tally.attempted, failed=ctx.tally.failed,
                  failed_frac=ctx.tally.failed_frac(),
                  failures=ctx.tally.reasons, metrics=out_metrics,
                  samples={k: stats.summarize(v)
                           for k, v in ctx.samples.items()},
                  raw_samples=ctx.samples, **extra)
    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{ctx.workload}-s{ctx.seed}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1))

    for reason in ctx.tally.reasons:
        print(f"FAILED: {reason}")
    for name, m in out_metrics.items():
        print(f"{ctx.workload} {name} {m['value']:.6g} {m['unit']}")
    for name, summary in record["samples"].items():
        tail = (f" p{summary['tail_p']}={summary['tail']:.6g}"
                if "tail" in summary else "")
        if "p50" in summary:
            print(f"{ctx.workload} sample {name}: n={summary['n']} "
                  f"p50={summary['p50']:.6g}{tail}")
    correct = ctx.tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": ctx.tally.attempted,
                      "failed": ctx.tally.failed, "metrics": out_metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-goldens", action="store_true",
                        help="write this run's default-seed outputs to "
                             "benchmark/goldens.json instead of checking")
    args = parser.parse_args()
    if args.selftest:
        import selftest
        return selftest.main()
    if not args.workload:
        parser.error("--workload is required")
    if args.record_goldens and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--record-goldens needs the default seed and --trace 0")
    try:
        return run(args)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
