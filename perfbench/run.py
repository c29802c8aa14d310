#!/usr/bin/env python3
"""The repository benchmark: qsynth compile time, compile quality and
serve latency, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each one exists):

    paper-suite  the 32 benchmarks/ sources -> ibmqx5, QMDD verification on
    wide-synth   Table 8 cascades, QFT-24/48, Cuccaro-46 -> big96, unverified
    wide-proof   first two T6_b gates -> big96, staged QMDD proof
    serve-mix    a `qsc serve` daemon under a closed-loop Zipf client

The program under test is built from source first (dune, in _build/).
--trace 0 measures every end-to-end metric of BENCHMARK.json with no
tracing; --trace 1 runs the traced replay and reports every per-layer
metric.  Every output is checked before anything is reported; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 after a result was printed (check "correct"), 1 when the
build or the run broke, 2 when this is not a qsynth checkout.
"""

import argparse
import collections
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

WORKER = os.path.join("_build", "default", "perfbench", "qbench.exe")
QSC = os.path.join("_build", "default", "bin", "qsc.exe")
SOCKET_DIR = ".perfbench"
IN_PROCESS = ("paper-suite", "wide-synth", "wide-proof")
WORKLOADS = IN_PROCESS + ("serve-mix",)

# Set-up is sampled this many times per run (a fresh process each
# time) and the median is reported.  In-process workloads take the
# samples in batches before each pass, so that they spread over the run
# instead of following the heavy passes.
SETUP_SAMPLES = 100
SETUP_BATCH = 20
# serve-mix times every daemon it starts, at least this many per run.
DAEMON_SETUP_SAMPLES = 25

# serve-mix traffic: one connection, a closed loop over a Zipf-skewed
# stream of compile requests.  With two such loops, which misses overlap
# (and queue on the daemon's compile lock) depends on the seed and on
# timing, and a session's p99 spread 0.35 from sub-seed to sub-seed,
# against 0.13 with one.
REQUESTS = 2000
# The daemon's worker pool, one per core.
MAX_WORKERS = 2
# A run pools at least this many sessions (one when tracing), even past
# --seconds: p99 rests on 20 samples per session.
MIN_SESSIONS = 4
ZIPF_S = 1.0
SERVE_DEVICES = ("ibmqx5", "ibmq_16")
FORMATS = {".qc": "qc", ".real": "real", ".pla": "pla"}
BENCH_DIRS = ("benchmarks/qc", "benchmarks/revlib", "benchmarks/pla")

# Per-layer metrics that only the serve client measures.
SERVE_LAYER = (
    "serve.hit_frac",
    "serve.hit_ms_p50",
    "serve.miss_ms_p50",
    "serve.server_ms_p50",
    "serve.transport_ms_p50",
    "serve.shed",
)


class BenchError(Exception):
    """The run broke: reported on stderr, exit code 1, no result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def rank(n, q):
    """Nearest rank: index of the q-quantile among n sorted samples."""
    return max(0, math.ceil(q * n - 1e-9) - 1)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[rank(len(ordered), q)]


def is_checkout():
    needed = ("dune-project", "BENCHMARK.json", "lib/compiler/compiler.mli",
              "bin/qsc.ml", "benchmarks/qc")
    return all(os.path.exists(p) for p in needed)


def build():
    # dune from PATH, else through opam when only opam is on PATH.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    proc = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/qbench.exe",
                "./bin/qsc.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout)


# ---- in-process workloads ---------------------------------------------

def reap(proc, timeout=170):
    """Read the rest of [proc]'s stdout and wait for it; return the
    output and the process's peak resident set in MB (from wait4)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, usage.ru_maxrss / 1024.0


def start_worker(workload, mode, seed):
    """Start the worker; return (process, seconds from exec to "ready")."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([WORKER, workload, mode, str(seed)],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        reap(proc)
        raise BenchError(f"{workload}: worker did not become ready")
    return proc, ready


def finish_worker(proc, workload):
    """The worker's result object and its peak RSS in MB."""
    out, rss = reap(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), rss


def worker_setup_samples(workload, n):
    samples = []
    for _ in range(n):
        proc, ready = start_worker(workload, "setup", 0)
        reap(proc, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"{workload}: setup exited {proc.returncode}")
        samples.append(ready)
    return samples


def outcome_fields(raw):
    asked = raw["asked"]
    return {
        "out_cost": raw["out_cost"],
        "out_t_count": raw["out_t_count"],
        "out_gates": raw["out_gates"],
        # No job of wide-synth asks for verification; with nothing asked
        # the share of asks answered "verified" is vacuously 1.
        "verified_frac": raw["verified"] / asked if asked else 1.0,
    }


def run_in_process(workload, seed, seconds):
    """Fresh worker processes, one untraced pass each, until [seconds]
    have passed; every pass checks its outputs, and all passes must
    compile identical circuits."""
    samples, passes = [], []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        if len(samples) < SETUP_SAMPLES:
            samples += worker_setup_samples(workload, SETUP_BATCH)
        proc, _ = start_worker(workload, "pass", seed)
        passes.append(finish_worker(proc, workload))
    samples += worker_setup_samples(
        workload, max(0, SETUP_SAMPLES - len(samples)))
    first = passes[0][0]
    failures = [f for raw, _ in passes for f in raw["failures"]]
    failures += [f"pass {i}: outputs differ from the first pass"
                 for i, (raw, _) in enumerate(passes)
                 if raw["digest"] != first["digest"]]
    # Each job's latency is its median over the passes; the percentiles
    # are taken over the jobs.
    job_s = [statistics.median(times)
             for times in zip(*(raw["job_s"] for raw, _ in passes))]
    walls = [raw["wall_s"] for raw, _ in passes]
    metrics = {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(walls),
        "req_p50_ms": 1e3 * percentile(job_s, 0.50),
        "req_p99_ms": 1e3 * percentile(job_s, 0.99),
        "req_per_s": statistics.median(
            len(raw["job_s"]) / raw["wall_s"] for raw, _ in passes),
        "alloc_mwords": statistics.median(
            raw["alloc_mwords"] for raw, _ in passes),
        "peak_rss_mb": statistics.median(rss for _, rss in passes),
    }
    metrics.update(outcome_fields(first))
    notes = [f"passes {len(passes)} "
             f"(wall {min(walls):.3f}-{max(walls):.3f} s), "
             f"{len(job_s)} per-job median latencies "
             f"(nearest-rank percentiles), "
             f"{len(samples)} set-up samples, output checks "
             f"{first['check_s']:.3f} s per pass"]
    attempted = sum(raw["attempted"] for raw, _ in passes)
    failed = sum(raw["failed"] for raw, _ in passes)
    return metrics, attempted, failed, failures, notes


def trace_in_process(workload, seed, seconds):
    """Traced worker processes until [seconds] have passed (at least
    one).  Per-layer values, the tracing overhead among them, are
    medians over the processes."""
    runs = []
    t_start = time.perf_counter()
    while not runs or time.perf_counter() - t_start < seconds:
        proc, _ = start_worker(workload, "trace", seed)
        runs.append(finish_worker(proc, workload)[0])
    layers = {k: statistics.median(r["layers"][k] for r in runs)
              for k in runs[0]["layers"]}
    failures = [f for r in runs for f in r["failures"]]
    failures += [f"traced run {i}: outputs differ from the first run"
                 for i, r in enumerate(runs)
                 if r["digest"] != runs[0]["digest"]]
    shares = ", ".join(f"{k[len('share.'):]} {v:.3f}"
                       for k, v in sorted(layers.items(),
                                          key=lambda kv: -kv[1])
                       if k.startswith("share."))
    notes = [f"{len(runs)} traced passes; median replay "
             f"{statistics.median(r['replay_s'] for r in runs):.3f} s, "
             f"untraced compile "
             f"{statistics.median(r['compile_s'] for r in runs):.3f} s, "
             f"each job's two back to back on fresh domains",
             f"layer shares of the traced replay: {shares}"]
    return {"rows": runs[0]["rows"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": failures}, layers, notes


# ---- serve-mix --------------------------------------------------------

class Conn:
    """One newline-delimited JSON connection to the daemon."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120.0)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def send(self, payload):
        self.sock.sendall(payload)
        line = self.reader.readline()
        if not line.endswith(b"\n"):
            raise ConnectionError("connection closed mid-response")
        return line

    def request(self, obj):
        return json.loads(self.send((json.dumps(obj) + "\n").encode()))

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """A `qsc serve` subprocess; [setup_s] is exec -> first ping answer."""

    count = 0

    def __init__(self):
        Daemon.count += 1
        os.makedirs(SOCKET_DIR, exist_ok=True)
        self.path = os.path.join(
            SOCKET_DIR, f"serve-{os.getpid()}-{Daemon.count}.sock")
        env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [QSC, "serve", "--socket", self.path,
             "--max-workers", str(MAX_WORKERS)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            # The banner is printed just before the socket is bound, so
            # connecting is retried until it succeeds.
            if b"listening" not in self.proc.stdout.readline():
                raise BenchError("serve daemon did not start")
            while True:
                try:
                    conn = Conn(self.path)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    if time.perf_counter() - t0 > 30:
                        raise BenchError("serve daemon never accepted")
                    time.sleep(0.0005)
            pong = conn.request({"op": "ping"})
            self.setup_s = time.perf_counter() - t0
            conn.close()
            if pong.get("code") != 0:
                raise BenchError("serve daemon did not answer ping")
        except BaseException:
            self.kill()
            raise

    def shutdown(self):
        """Drain the daemon; return its lifetime allocation in Mwords and
        its peak RSS in MB."""
        conn = Conn(self.path)
        conn.request({"op": "shutdown"})
        conn.close()
        try:
            _, rss = reap(self.proc, timeout=60)
            err = self.proc.stderr.read()
        finally:
            if os.path.exists(self.path):
                os.unlink(self.path)
        if self.proc.returncode != 0:
            raise BenchError(f"serve daemon exited {self.proc.returncode}")
        gc = {}
        for line in err.decode().splitlines():
            key, _, value = line.partition(":")
            gc[key.strip()] = value.strip()
        try:
            words = (float(gc["minor_words"]) + float(gc["major_words"])
                     - float(gc["promoted_words"]))
        except (KeyError, ValueError):
            raise BenchError("serve daemon printed no GC statistics")
        return words / 1e6, rss

    def kill(self):
        self.proc.kill()
        reap(self.proc)
        if os.path.exists(self.path):
            os.unlink(self.path)


def serve_keys():
    """The 32 benchmark sources x SERVE_DEVICES, as compile requests."""
    keys = []
    for d in BENCH_DIRS:
        for name in sorted(os.listdir(d)):
            ext = os.path.splitext(name)[1]
            if ext in FORMATS:
                with open(os.path.join(d, name)) as f:
                    source = f.read()
                for device in SERVE_DEVICES:
                    keys.append({"name": f"{name}@{device}", "request": {
                        "op": "compile", "source": source,
                        "format": FORMATS[ext], "device": device}})
    return keys


def zipf_stream(n_keys, seed):
    """A stream of REQUESTS key indices: Zipf over a seeded ranking.
    Every key is requested at least once, so the miss set is the same
    for every seed: a key that was never drawn replaces a request for a
    key that is drawn more than once."""
    rng = random.Random(seed)
    ranking = list(range(n_keys))
    rng.shuffle(ranking)
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(n_keys)]
    stream = rng.choices(ranking, weights, k=REQUESTS)
    counts = collections.Counter(stream)
    for k in ranking:
        while counts[k] == 0:
            i = rng.randrange(len(stream))
            if counts[stream[i]] > 1:
                counts[stream[i]] -= 1
                stream[i] = k
                counts[k] = 1
    return stream


def serve_session(daemon, keys, stream):
    """Send [stream] over one connection, each request after the last
    reply; return per-request records (key, miss, round trip, response
    line), the wall time and the connection's error, if any."""
    payloads = [(json.dumps(k["request"]) + "\n").encode() for k in keys]
    seen = set()
    records, errors = [], []
    t0 = time.perf_counter()
    try:
        conn = Conn(daemon.path)
        for key in stream:
            miss = key not in seen
            seen.add(key)
            t = time.perf_counter()
            line = conn.send(payloads[key])
            records.append((key, miss, time.perf_counter() - t, line))
        conn.close()
    except OSError as e:
        errors.append(f"connection: {e}")
    return records, time.perf_counter() - t0, errors


def judge_session(keys, stream, records, errors, stats):
    """Check every response; return (failed, failures, first responses)."""
    failures = list(errors)
    failed = len(errors) + len(stream) - len(records)
    first = {}
    for key, miss, _, line in records:
        resp = json.loads(line)
        # The report, byte for byte: everything before the trailing
        # "cached" flag and the envelope's timing.
        body = line[:line.rfind(b',"cached":')]
        problems = []
        if resp.get("code") != 0 or resp.get("status") != "ok":
            problems.append(f"code {resp.get('code')}")
        elif resp["report"]["verification"] not in ("verified",
                                                    "verified-staged"):
            problems.append(resp["report"]["verification"])
        if resp.get("cached") != (not miss):
            problems.append(f"cached {resp.get('cached')} on a "
                            + ("miss" if miss else "hit"))
        if miss:
            first[key] = (body, resp)
        elif key not in first:
            problems.append("hit without a recorded miss")
        elif first[key][0] != body:
            problems.append("hit differs from the miss that populated it")
        if problems:
            failed += 1
            failures.append(f"{keys[key]['name']}: " + ", ".join(problems))
    cache = stats["cache"]
    if cache["hits"] + cache["misses"] != len(stream):
        failures.append(f"stats: hits + misses = "
                        f"{cache['hits'] + cache['misses']}, "
                        f"sent {len(stream)}")
    if cache["misses"] != len(first):
        failures.append(f"stats: {cache['misses']} misses, "
                        f"client saw {len(first)} distinct keys")
    if stats["overload"]["shed"] != 0:
        failures.append(f"stats: {stats['overload']['shed']} shed")
    return failed, failures, first


def serve_once(keys, stream):
    """One session on a fresh daemon (cold cache)."""
    daemon = Daemon()
    try:
        records, wall, errors = serve_session(daemon, keys, stream)
        conn = Conn(daemon.path)
        stats = conn.request({"op": "stats"})["stats"]
        conn.close()
        alloc, rss = daemon.shutdown()
    except BaseException:
        daemon.kill()
        raise
    return {"stream": stream, "records": records, "wall": wall,
            "errors": errors, "stats": stats, "alloc": alloc, "rss": rss,
            "setup": daemon.setup_s}


def daemon_setup_sample():
    daemon = Daemon()
    try:
        daemon.shutdown()
    except BaseException:
        daemon.kill()
        raise
    return daemon.setup_s


def run_serve(seed, seconds, trace):
    """Sessions on fresh daemons until [seconds] have passed and at least
    MIN_SESSIONS ran (exactly one when tracing); session i replays the
    Zipf stream of sub-seed i."""
    keys = serve_keys()
    sessions = []
    t_start = time.perf_counter()
    while not sessions or not trace and (
            len(sessions) < MIN_SESSIONS
            or time.perf_counter() - t_start < seconds):
        stream = zipf_stream(len(keys), seed * 1000 + len(sessions))
        sessions.append(serve_once(keys, stream))
    setup = [s["setup"] for s in sessions]
    setup += [daemon_setup_sample()
              for _ in range(DAEMON_SETUP_SAMPLES - len(setup))]

    failed = attempted = 0
    failures = []
    for s in sessions:
        f, why, s["first"] = judge_session(
            keys, s["stream"], s["records"], s["errors"], s["stats"])
        failed += f
        failures += why
        attempted += len(s["stream"])
    reference = {k: body for k, (body, _) in sessions[0]["first"].items()}
    for i, s in enumerate(sessions[1:], 1):
        if {k: body for k, (body, _) in s["first"].items()} != reference:
            failures.append(f"session {i}: reports differ from session 0")

    def med(f):
        return statistics.median(f(s) for s in sessions)

    reports = [resp["report"] for _, resp in sessions[0]["first"].values()]
    records = [r for s in sessions for r in s["records"]]
    # Latency percentiles pool the requests of every session.
    rtts = [r[2] for r in records]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": med(lambda s: s["wall"]),
        "req_p50_ms": 1e3 * percentile(rtts, 0.50),
        "req_p99_ms": 1e3 * percentile(rtts, 0.99),
        "req_per_s": med(lambda s: len(s["records"]) / s["wall"]),
        "alloc_mwords": med(lambda s: s["alloc"]),
        "peak_rss_mb": med(lambda s: s["rss"]),
        "out_cost": sum(r["optimized"]["cost"] for r in reports),
        "out_t_count": sum(r["optimized"]["t_count"] for r in reports),
        "out_gates": sum(r["optimized"]["gate_volume"] for r in reports),
        "verified_frac": sum(
            1 for r in records
            if b'"verification":"verified' in r[3]) / max(1, len(records)),
    }
    label = {True: "miss", False: "hit"}
    by_rtt = sorted(records, key=lambda r: r[2])
    i50, i99 = rank(len(by_rtt), 0.50), rank(len(by_rtt), 0.99)
    tail = by_rtt[i99 + 1:]
    notes = [
        f"{len(sessions)} sessions (walls "
        + ", ".join(f"{s['wall']:.3f}" for s in sessions)
        + f" s), {len(setup)} set-up samples",
        f"{len(by_rtt)} requests, {sum(1 for r in by_rtt if r[1])} misses; "
        f"p50 sample a {label[by_rtt[i50][1]]}, p99 sample a "
        f"{label[by_rtt[i99][1]]}, {len(tail)} samples beyond p99 "
        f"({sum(1 for r in tail if r[1])} misses)"]
    layers = {}
    if trace:
        s = sessions[0]
        hits = [r for r in s["records"] if not r[1]]
        misses = [r for r in s["records"] if r[1]]
        server = [json.loads(r[3])["seconds"] for r in s["records"]]
        layers = {
            "serve.hit_frac": len(hits) / len(s["records"]),
            "serve.hit_ms_p50": 1e3 * percentile([r[2] for r in hits], 0.5),
            "serve.miss_ms_p50": 1e3 * percentile(
                [r[2] for r in misses], 0.5),
            "serve.server_ms_p50": 1e3 * percentile(server, 0.5),
            "serve.transport_ms_p50": 1e3 * percentile(
                [r[2] - t for r, t in zip(s["records"], server)], 0.5),
            "serve.shed": float(s["stats"]["overload"]["shed"]),
        }
    return metrics, layers, attempted, failed, failures, notes


# ---- main -------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not is_checkout():
        log("perfbench: run from the root of a qsynth checkout "
            "(dune-project, lib/, bin/, benchmarks/ and BENCHMARK.json)")
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    rows = []
    if args.workload == "serve-mix":
        metrics, serve_layers, attempted, failed, failures, notes = run_serve(
            args.seed, args.seconds, args.trace)
        if args.trace:
            # The pipeline behind the misses, replayed layer by layer on
            # the same 64 keys.
            raw, metrics, more = trace_in_process(
                "serve-keys", args.seed, 0)
            metrics.update(serve_layers)
            notes += more
            rows = raw["rows"]
            attempted += raw["attempted"]
            failed += raw["failed"]
            failures += raw["failures"]
    elif args.trace:
        raw, metrics, notes = trace_in_process(
            args.workload, args.seed, args.seconds)
        rows = raw["rows"]
        metrics.update({k: 0.0 for k in SERVE_LAYER})
        attempted, failed = raw["attempted"], raw["failed"]
        failures = raw["failures"]
    else:
        metrics, attempted, failed, failures, notes = run_in_process(
            args.workload, args.seed, args.seconds)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))

    for row in rows:
        print("row " + json.dumps(row, sort_keys=True))
    for note in notes:
        print("note " + note)
    for failure in failures:
        print("FAIL " + failure)
    for m in declared:
        print(f"metric {m['name']} {metrics[m['name']]!r} {m['unit']}")
    print(f"metric failed_frac {failed / max(1, attempted)!r} ratio "
          f"({failed} of {attempted})")
    try:
        os.rmdir(SOCKET_DIR)
    except OSError:
        pass
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
