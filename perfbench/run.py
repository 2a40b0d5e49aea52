#!/usr/bin/env python3
"""End-to-end benchmark for fgr.

Run from the root of a checkout:

    python3 perfbench/run.py --workload offline|streamed \
        --seed N --seconds S --trace 0|1

It builds fgr_cli, fgrd and the benchmark's helper (perfbench/pb_tool.cc)
in Release under .bench_build/, makes the workload's inputs from --seed
under .bench_run/<workload>/, and runs them through `fgr_cli` processes for
--seconds seconds, checking every output. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 a separate traced run
times each layer through the library's public functions, drives a short
`fgrd` session over the v2 wire protocol, and reports the per-layer
figures. See perfbench/README.md.
"""

import argparse
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from checks import CheckError  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
K = 5

# Inputs and settings per workload. `threads` is the kernel thread count
# passed as --threads; `budget_mb` is --memory-budget (0 = in-core); `cpus`
# is how many CPUs the program is pinned to, one per busy thread (streamed:
# the kernel thread and the prefetch producer).
WORKLOADS = {
    "offline": dict(nodes=100_000, edges=1_250_000, seed_frac=0.01,
                    threads=1, budget_mb=0, setups=5, trace_rounds=3, cpus=1),
    "streamed": dict(nodes=400_000, edges=5_000_000, seed_frac=0.005,
                     threads=1, budget_mb=16, setups=3, trace_rounds=1, cpus=2),
}
# Memory budget the traced run streams under on the in-core workload.
TRACE_STREAM_BUDGET_MB = 16
# The traced run's served session: fgrd workers (one CPU each) and the
# closed loop's connections that send only estimate / only label.
SERVE_WORKERS = 3
SERVE_ESTIMATE_CONNS = 2
SERVE_LABEL_CONNS = 1
TRACE_SERVE_SECONDS = 4.0

# The program sees no FGR_* setting from the caller's environment
# (FGR_KERNEL, FGR_PREFETCH, FGR_NUM_THREADS, FGR_TRACE, ...).
ENV = {k: v for k, v in os.environ.items() if not k.startswith("FGR_")}

# CPU placement: the benchmark's own Python keeps the first allowed CPU;
# each program process is pinned to `cpus` of the others, the window moving
# by one CPU at every spawn. A process never migrates mid-run, and a run
# samples every CPU, so one CPU's slow spell moves a median less (README,
# "Stability"). Set by place().
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
BENCH_CPUS = set(ALLOWED_CPUS)
PROGRAM_CPU_SETS = [set(ALLOWED_CPUS)]
spawned = 0


def place(cpus):
    global BENCH_CPUS, PROGRAM_CPU_SETS
    others = ALLOWED_CPUS[1:]
    if len(others) >= cpus:
        BENCH_CPUS = {ALLOWED_CPUS[0]}
        PROGRAM_CPU_SETS = [{others[(i + j) % len(others)] for j in range(cpus)}
                            for i in range(len(others))]
    os.sched_setaffinity(0, BENCH_CPUS)


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


# --- build ------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "fgr", "fgr.h"))
            and os.path.isfile(os.path.join(HERE, "CMakeLists.txt"))):
        fail("run from the root of an fgr checkout (no CMakeLists.txt or src/ here)", 2)
    os.makedirs(RUNS, exist_ok=True)
    log_path = os.path.join(RUNS, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "fgr_cli", "fgrd", "pb_tool"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT, env=ENV) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    tools = {"cli": os.path.join(BUILD, "fgr", "fgr_cli"),
             "fgrd": os.path.join(BUILD, "fgr", "fgrd"),
             "pb": os.path.join(BUILD, "pb_tool")}
    for path in tools.values():
        if not os.access(path, os.X_OK):
            fail("build produced no " + path)
    return tools


def self_test():
    """Every check must reject the wrong answers in test_checks.py."""
    import test_checks
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_checks)
    with open(os.devnull, "w") as sink:
        result = unittest.TextTestRunner(stream=sink, verbosity=0).run(suite)
    if not result.wasSuccessful():
        for _, trace in result.failures + result.errors:
            sys.stderr.write(trace)
        fail("the output checks failed their own tests")


# --- processes --------------------------------------------------------------

def spawn(argv, out_path, err_path, extra_actions=()):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    # A child inherits the spawning thread's CPU set.
    global spawned
    os.sched_setaffinity(0, PROGRAM_CPU_SETS[spawned % len(PROGRAM_CPU_SETS)])
    spawned += 1
    try:
        return os.posix_spawn(argv[0], argv, ENV, file_actions=actions + list(extra_actions))
    finally:
        os.sched_setaffinity(0, BENCH_CPUS)


def run_timed(argv, out_path, err_path):
    """Runs one process to its exit. Returns (seconds, peak RSS MB, exit code)."""
    start = time.perf_counter()
    pid = spawn(argv, out_path, err_path)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return seconds, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def run_checked(argv, work, name):
    """Runs an untimed helper step; any failure ends the benchmark."""
    out, err = os.path.join(work, name + ".out"), os.path.join(work, name + ".err")
    seconds, rss, code = run_timed(argv, out, err)
    if code != 0:
        with open(err) as f:
            sys.stderr.write(f.read()[-2000:])
        fail("%s exited with %d" % (" ".join(argv), code))
    with open(out) as f:
        return f.read(), seconds, rss


def remove(*paths):
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


# --- one workload's inputs and reference answers ----------------------------

class Inputs:
    def __init__(self, tools, name, seed):
        self.tools, self.name, self.cfg = tools, name, WORKLOADS[name]
        self.work = os.path.join(RUNS, name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.edges = os.path.join(self.work, "graph.edges")
        self.seeds_path = os.path.join(self.work, "seeds.txt")
        self.fgrbin = os.path.join(self.work, "graph.fgrbin")
        cfg = self.cfg
        run_checked([tools["pb"], "gen", "--out", self.work, "--nodes", str(cfg["nodes"]),
                     "--edges", str(cfg["edges"]), "--seed-frac", repr(cfg["seed_frac"]),
                     "--seed", str(seed)],
                    self.work, "gen")
        with open(os.path.join(self.work, "meta.json")) as f:
            self.meta = json.load(f)
        self.n = self.meta["n"]
        self.seeds = checks.read_seeds(self.seeds_path, self.n)
        self.truth = checks.read_labels(os.path.join(self.work, "truth.txt"), self.n)
        self.planted = checks.read_matrix(os.path.join(self.work, "planted.txt"))
        self.chance = checks.chance(self.truth, self.seeds)
        self.ref = None

    def convert(self):
        """`fgr_cli datasets convert` of the text edge list into a .fgrbin
        with the seeds embedded, from no cache on disk. Returns (s, rc)."""
        remove(self.edges + ".fgrbin", self.fgrbin)
        seconds, _, code = run_timed(
            [self.tools["cli"], "datasets", "convert", self.edges, self.fgrbin,
             "--labels", self.seeds_path, "--classes", str(K),
             "--threads", str(self.cfg["threads"])],
            os.path.join(self.work, "convert.out"), os.path.join(self.work, "convert.err"))
        remove(self.edges + ".fgrbin")
        return seconds, code

    def load_reference(self):
        with open(os.path.join(self.work, "ref.json")) as f:
            self.ref = json.load(f)
        checks.check_nnz(self.ref["nnz"], self.meta["m"])
        self.ref_labels_bytes = open(os.path.join(self.work, "ref.labels"), "rb").read()

    def reference(self, threads):
        """Reference answers through the library's public functions."""
        run_checked([self.tools["pb"], "trace", "--dir", self.work, "--fgrbin", self.fgrbin,
                     "--threads", str(threads), "--ref-only"], self.work, "ref")
        self.load_reference()

    def check_label_output(self, data, label_cache):
        """Checks one label file's bytes; identical bytes are checked once."""
        if data in label_cache:
            return
        labels = checks.read_labels(data, self.n)
        checks.check_labels(labels, self.n, K, self.seeds)
        checks.check_accuracy(checks.accuracy(labels, self.truth, self.seeds),
                              self.chance, self.ref["acc_planted"])
        label_cache.add(data)


def median(values):
    return statistics.median(values) if values else float("nan")


# --- offline and streamed: fgr_cli processes --------------------------------

class CliLoop:
    """Closed loop of `fgr_cli estimate` and `fgr_cli label` processes,
    alternating, one at a time."""

    def __init__(self, inputs):
        self.inp = inputs
        cfg = inputs.cfg
        self.common = ["--classes", str(K), "--threads", str(cfg["threads"])]
        if cfg["budget_mb"]:
            self.common += ["--memory-budget", str(cfg["budget_mb"])]
        self.estimate_s, self.label_s, self.label_rss = [], [], []
        self.attempted = self.failed = 0
        self.label_cache = set()
        # At one thread the in-core and streamed paths give the in-core
        # reference's answers bit for bit.
        self.exact = cfg["threads"] == 1

    def estimate(self):
        inp = self.inp
        out = os.path.join(inp.work, "estimate.out")
        seconds, _, code = run_timed(
            [inp.tools["cli"], "estimate", inp.fgrbin, inp.seeds_path] + self.common,
            out, os.path.join(inp.work, "estimate.err"))
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return
        with open(out) as f:
            cells = checks.estimate_cells(f.read(), K)
        checks.check_h([[float(c) for c in row] for row in cells], inp.planted, K)
        if self.exact:
            checks.check_equal(cells, checks.format_h(inp.ref["h"]), "estimated H")
        self.estimate_s.append(seconds)

    def label(self):
        inp = self.inp
        out = os.path.join(inp.work, "out.labels")
        remove(out)
        seconds, rss, code = run_timed(
            [inp.tools["cli"], "label", inp.fgrbin, inp.seeds_path, out] + self.common,
            os.path.join(inp.work, "label.out"), os.path.join(inp.work, "label.err"))
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return
        data = open(out, "rb").read()
        inp.check_label_output(data, self.label_cache)
        if self.exact:
            checks.check_equal(data, inp.ref_labels_bytes, "label file")
        self.label_s.append(seconds)
        self.label_rss.append(rss)

    def run(self, seconds=None, rounds=None):
        """Whole estimate+label rounds until `rounds` are done or `seconds`
        have passed."""
        start = time.perf_counter()
        done = 0
        while not (rounds is not None and done >= rounds
                   or seconds is not None and time.perf_counter() - start >= seconds):
            self.estimate()
            self.label()
            done += 1


def streamed_identity_check(inp, in_core_rss_mb):
    """At one thread, a streamed `label` writes the same file as the in-core
    one, with a lower peak RSS."""
    out = os.path.join(inp.work, "streamed.labels")
    _, rss, code = run_timed(
        [inp.tools["cli"], "label", inp.fgrbin, inp.seeds_path, out, "--classes", str(K),
         "--threads", "1", "--memory-budget", "4"],
        os.path.join(inp.work, "streamed.out"), os.path.join(inp.work, "streamed.err"))
    if code != 0:
        raise CheckError("streamed label exited with %d" % code)
    checks.check_equal(open(out, "rb").read(), inp.ref_labels_bytes,
                       "streamed one-thread label file")
    checks.check_rss_lower(rss, in_core_rss_mb)


# --- the traced run's served session: fgrd requests ---------------------------

class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def exchange(self, line):
        self.sock.sendall(line)
        scanned = 0
        while True:
            at = self.buf.find(b"\n", scanned)
            if at >= 0:
                response = bytes(self.buf[:at])
                del self.buf[:at + 1]
                return response
            scanned = len(self.buf)
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("fgrd closed the connection")
            self.buf += chunk

    def close(self):
        self.sock.close()


class Daemon:
    """One fgrd process over the workload's .fgrbin, preloaded."""

    def __init__(self, inp, workers):
        self.inp = inp
        for name in os.listdir(inp.work):
            if name.endswith(".fgrsum"):
                remove(os.path.join(inp.work, name))
        read_fd, write_fd = os.pipe()
        argv = [inp.tools["fgrd"], "--port", "0", "--host", "127.0.0.1",
                "--workers", str(workers), "--threads", str(inp.cfg["threads"]),
                "--preload", inp.fgrbin]
        self.pid = spawn(argv, os.devnull, os.path.join(inp.work, "fgrd.err"),
                         [(os.POSIX_SPAWN_DUP2, write_fd, 1), (os.POSIX_SPAWN_CLOSE, read_fd)])
        os.close(write_fd)
        self.out_fd = read_fd
        self.output = b""
        self.port = None
        deadline = time.monotonic() + 120
        while self.port is None:
            ready, _, _ = select.select([read_fd], [], [], max(0.0, deadline - time.monotonic()))
            chunk = os.read(read_fd, 65536) if ready else b""
            if not chunk:
                self.stop()
                raise CheckError("fgrd did not start: %r" % self.output[-500:])
            self.output += chunk
            for line in self.output.decode(errors="replace").splitlines():
                if "serving on " in line:
                    self.port = int(line.split("serving on ")[1].split()[0].rsplit(":", 1)[1])

    def stop(self):
        """SIGTERM, then wait for the exit; returns the daemon's stdout."""
        if self.pid is None:
            return self.output
        os.kill(self.pid, signal.SIGTERM)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        while True:
            chunk = os.read(self.out_fd, 65536)
            if not chunk:
                break
            self.output += chunk
        os.close(self.out_fd)
        if os.waitstatus_to_exitcode(status) != 0:
            raise CheckError("fgrd exited with %d" % os.waitstatus_to_exitcode(status))
        return self.output


def request(op, dataset=None):
    body = {"v": 2, "op": op}
    if dataset is not None:
        body["dataset"] = dataset
    return (json.dumps(body, separators=(",", ":")) + "\n").encode()


class ServeSession:
    """A cold start of fgrd, then a closed loop over persistent connections:
    SERVE_ESTIMATE_CONNS send only estimate, SERVE_LABEL_CONNS only label."""

    def __init__(self, inp, expected_labels):
        self.inp = inp
        self.expected_labels = checks.labels_array_bytes(expected_labels)
        self.ref_h = inp.ref["h"]
        self.est_req = request("estimate", inp.fgrbin)
        self.label_req = request("label", inp.fgrbin)
        self.sent = {"estimate": 0, "label": 0}
        self.failed = 0
        self.errors = []
        self.label_bytes = 0
        self.lock = threading.Lock()

    def check_estimate(self, line):
        response = json.loads(line)
        if response.get("ok") is not True or response.get("v") != 2:
            raise CheckError("estimate failed: %r" % line[:300])
        checks.check_h(response["h"], self.inp.planted, K)
        checks.check_equal(response["h"], self.ref_h, "served H")

    def check_label(self, line):
        head, labels = checks.split_label_response(line)
        if head.get("ok") is not True or head.get("v") != 2:
            raise CheckError("label failed: %r" % line[:300])
        checks.check_equal(head["h"], self.ref_h, "served H")
        checks.check_equal(labels, self.expected_labels, "served labels")

    def cold_start(self):
        """Starts fgrd and waits for its first answered estimate."""
        daemon = Daemon(self.inp, SERVE_WORKERS)
        try:
            conn = Conn(daemon.port)
            line = conn.exchange(self.est_req)
            conn.close()
            self.check_estimate(line)
        except BaseException:
            daemon.stop()
            raise
        return daemon

    def client(self, op, deadline, port):
        conn = Conn(port)
        req = self.est_req if op == "estimate" else self.label_req
        check = self.check_estimate if op == "estimate" else self.check_label
        try:
            while time.perf_counter() < deadline:
                with self.lock:
                    self.sent[op] += 1
                try:
                    line = conn.exchange(req)
                    check(line)
                except (CheckError, OSError, ValueError) as error:
                    with self.lock:
                        self.errors.append("%s: %s" % (op, error))
                        self.failed += 1
                    if isinstance(error, OSError):
                        break
                    continue
                if op == "label":
                    self.label_bytes = len(line)
        finally:
            conn.close()

    def loop(self, daemon, seconds):
        deadline = time.perf_counter() + seconds
        ops = ["estimate"] * SERVE_ESTIMATE_CONNS + ["label"] * SERVE_LABEL_CONNS
        threads = [threading.Thread(target=self.client, args=(op, deadline, daemon.port))
                   for op in ops]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        conn = Conn(daemon.port)
        self.metrics = json.loads(conn.exchange(request("metrics")))
        conn.close()
        if self.errors:
            raise CheckError(self.errors[0])
        requests = self.metrics["requests"]
        checks.check_request_counts(requests, self.sent)
        checks.check_summary_computed(self.metrics["summary"]["computed"])
        if requests["errors"] or requests["shed"] or requests["timed_out"]:
            raise CheckError("daemon reported failed requests: %r" % requests)


def run_serve(inp, seconds):
    # The offline label file the served labels must equal.
    out = os.path.join(inp.work, "offline.labels")
    run_checked([inp.tools["cli"], "label", inp.fgrbin, inp.seeds_path, out,
                 "--classes", str(K), "--threads", str(inp.cfg["threads"])],
                inp.work, "offline_label")
    data = open(out, "rb").read()
    inp.check_label_output(data, set())
    if inp.cfg["threads"] == 1:
        checks.check_equal(data, inp.ref_labels_bytes, "offline label file")
    session = ServeSession(inp, checks.read_labels(data, inp.n))
    daemon = session.cold_start()
    # The daemon's counts cover its own requests: the set-up estimate on.
    session.sent = {"estimate": 1, "label": 0}
    try:
        session.loop(daemon, seconds)
    finally:
        output = daemon.stop()
    if b"shutting down" not in output:
        raise CheckError("fgrd did not shut down cleanly")
    return session


# --- the two kinds of run -----------------------------------------------------

def end_to_end(tools, name, seed, seconds):
    inp = Inputs(tools, name, seed)
    cfg = inp.cfg
    setup = []
    for _ in range(cfg["setups"]):
        s, code = inp.convert()
        if code != 0:
            fail("convert exited with %d" % code)
        setup.append(s)
    inp.reference(cfg["threads"])
    checks.check_accuracy(inp.ref["acc_estimated"], inp.chance, inp.ref["acc_planted"])
    loop = CliLoop(inp)
    loop.run(seconds=seconds)
    if cfg["threads"] == 1 and not cfg["budget_mb"]:
        streamed_identity_check(inp, median(loop.label_rss))
    metrics = {
        "setup_s": (median(setup), "s"),
        "estimate_ms": (median(loop.estimate_s) * 1e3, "ms"),
        "label_ms": (median(loop.label_s) * 1e3, "ms"),
        "peak_rss_mb": (median(loop.label_rss), "MB"),
    }
    side = {"workload": name, "seed": seed, "estimate_samples": loop.estimate_s,
            "label_samples": loop.label_s, "setup_samples": setup,
            "metrics": {k: v[0] for k, v in metrics.items()}}
    with open(os.path.join(inp.work, "result.json"), "w") as f:
        json.dump(side, f, indent=1)
    return loop.attempted, loop.failed, metrics


def traced(tools, name, seed, seconds):
    inp = Inputs(tools, name, seed)
    cfg = inp.cfg
    _, code = inp.convert()
    if code != 0:
        fail("convert exited with %d" % code)
    budget = cfg["budget_mb"] or TRACE_STREAM_BUDGET_MB
    # Rounds of one traced layer run (a fresh process, like the CLI's) next
    # to one CLI estimate and label, so both see the same state of the host;
    # each figure is the median over the rounds.
    rounds, spans = [], []
    loop = CliLoop(inp)
    for r in range(cfg["trace_rounds"]):
        spans_path = os.path.join(inp.work, "spans-%d.json" % r)
        out, _, _ = run_checked(
            [tools["pb"], "trace", "--dir", inp.work, "--fgrbin", inp.fgrbin,
             "--threads", str(cfg["threads"]), "--budget-mb", str(budget),
             "--spans", spans_path], inp.work, "trace")
        rounds.append(json.loads(out.strip().splitlines()[-1]))
        with open(spans_path) as f:
            spans.append(json.load(f))
        if r == 0:
            inp.load_reference()
            checks.check_accuracy(inp.ref["acc_estimated"], inp.chance, inp.ref["acc_planted"])
        loop.run(rounds=1)
    layer = {key: median([one[key] for one in rounds]) for key in rounds[0]}
    attempted, failed = loop.attempted, loop.failed
    ops = {"estimate": median(loop.estimate_s) * 1e3, "label": median(loop.label_s) * 1e3}
    place(SERVE_WORKERS)  # the daemon gets one CPU per worker
    session = run_serve(inp, min(seconds, TRACE_SERVE_SECONDS))
    attempted += session.sent["estimate"] + session.sent["label"]
    failed += session.failed

    # Layers on each operation's blocking path; the rest is unattributed.
    if cfg["budget_mb"]:
        base = ["graph.read_labels_ms", "core.stream_summarize_ms", "opt.optimize_ms"]
        paths = {"estimate": base,
                 "label": base + ["prop.stream_linbp_ms", "graph.write_labels_ms"]}
    else:
        base = ["data.read_fgrbin_ms", "graph.read_labels_ms", "core.summarize_ms",
                "opt.optimize_ms"]
        paths = {"estimate": base,
                 "label": base + ["matrix.spectral_radius_ms", "prop.linbp_ms",
                                  "graph.write_labels_ms"]}
    for op, layers in paths.items():
        layer[op + ".unattributed_ms"] = ops[op] - sum(layer[x] for x in layers)

    stages = session.metrics["stages"]
    layer["serve.queue_wait_p50_ms"] = stages["queue_wait"]["p50_ms"]
    layer["serve.compute_p50_ms"] = stages["compute"]["p50_ms"]
    layer["serve.write_p50_ms"] = stages["write"]["p50_ms"]
    layer["serve.label_response_kb"] = session.label_bytes / 1024.0
    layer["serve.summary_computed"] = session.metrics["summary"]["computed"]

    with open(os.path.join(inp.work, "trace.json"), "w") as f:
        json.dump({"workload": name, "seed": seed, "spans": spans, "operations_ms": ops,
                   "layers": layer, "paths": paths}, f, indent=1)
    units = per_layer_units()
    missing = set(units) - set(layer)
    if missing:
        fail("traced run produced no " + ", ".join(sorted(missing)))
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    return attempted, failed, metrics


def per_layer_units():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tools = build()
    self_test()
    place(WORKLOADS[args.workload]["cpus"])
    correct = True
    try:
        run = traced if args.trace else end_to_end
        attempted, failed, metrics = run(tools, args.workload, args.seed, args.seconds)
    except CheckError as error:
        print("perfbench: check failed: %s" % error, file=sys.stderr)
        correct = False
        attempted, failed, metrics = 1, 0, {}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
