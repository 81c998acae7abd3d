#!/usr/bin/env python3
"""End-to-end benchmark of the halotis CLI and daemon.

One run:

    python3 perfbench/run.py --workload oneshot_cli --seed 1 --seconds 18 --trace 0

builds the Release `halotis` CLI and `perfbench_tool` from the sources one
directory up (into .bench_build, or $CARGO_TARGET_DIR), generates the
workload's inputs from the seed into a private run directory under
.bench_runs/, runs the untimed set-up and then the timed request list as a
closed loop (one CLI process at a time, started by `perfbench_tool spawn`,
or one connection to one `halotis serve --threads 1`), checks every response and prints the
end-to-end metrics.  With --trace 1 it then replays the same lists through
the in-process traced replayer (perfbench_tool trace) and prints the
per-layer metrics instead.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  PREDICTIONS.md maps every
metric to the layer and workload it belongs to.

A/A steadiness mode:

    python3 perfbench/run.py --aa --rounds 2 --seeds 1,2 [--workloads a,b]

runs the workloads repeatedly, alternating between them, prints each
metric's median, quartiles and spread against its bound in BENCHMARK.json,
and asserts the per-run constants (request count, total events, response
digests, timed cache misses) repeat exactly for each seed.

Correctness: a request fails on a non-zero exit, on a digest (stdout plus
artifacts) that differs from the committed digests/<workload>.json (default
seed), from another run of the same request, or -- for daemon workloads --
from the same request run locally by the CLI.
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
DEFAULT_SECONDS = 18

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "events_per_s": "1/s",
    "cpu_ms_per_request": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "setup_rss_mb": "MB",
}

PER_LAYER = [
    "tools.process_start_ms",
    "parsers.netlist_ms", "parsers.netlist_mb_per_s", "parsers.stimulus_ms",
    "timing.build_ms", "timing.arcs",
    "core.construct_ms", "core.apply_ms", "core.run_ms", "core.events",
    "core.ns_per_event", "core.event_arena_mb", "core.transition_arena_mb",
    "core.peak_live_transitions",
    "replay.hash_ms", "replay.variation_ms", "replay.replayed_ratio",
    "fault.campaign_ms", "fault.faults_per_s",
    "sta.analyze_ms", "lint.run_ms",
    "waveform.vcd_ms", "waveform.vcd_mb", "base.write_file_atomic_ms",
    "serve.codec_ms", "serve.frame_mb", "serve.elaboration_key_ms",
    "serve.cache_lookup_ms", "serve.cache_hit_ratio", "serve.execute_ms",
    "serve.transport_ms",
    "trace.overhead_pct",
]

# setups: how many times set-up runs in one measuring run (setup_s and
# setup_rss_mb report the median); cache_mb: the daemon's elaboration-cache
# budget, larger than the pool's footprint; round: requests per timed round
# (default: the whole pool).
WORKLOADS = {
    "oneshot_cli": {"daemon": False, "setups": 3},
    "daemon_mix": {"daemon": True, "setups": 3, "cache_mb": 512},
    "kernel_large": {"daemon": True, "setups": 3, "cache_mb": 2048, "round": 1},
}

SOCKET = "d.sock"
PROCESS_START_SAMPLES = 41
QUIET_ROUNDS = 3  # the end-to-end metrics come from the fastest rounds


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- build -------------------------------------------------------------------


def build():
    """Configures (once) and builds the Release tools; returns their paths."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    build_log = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)

    def run_step(step):
        with open(build_log, "ab") as out:
            code = subprocess.call(step, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        if code != 0:
            with open(build_log, "rb") as f:
                tail = f.read()[-3000:].decode(errors="replace")
            raise BenchError("build step failed (%s):\n%s" % (" ".join(step[:2]), tail))

    if not os.path.exists(cache):
        run_step(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
    if build_type != "Release":
        raise BenchError("refusing a non-Release halotis (CMAKE_BUILD_TYPE=%r in %s)"
                         % (build_type, cache))
    jobs = str(max(1, min(2, os.cpu_count() or 1)))
    run_step(["cmake", "--build", build_dir, "-j", jobs, "--target", "halotis", "perfbench_tool"])
    halotis = os.path.join(build_dir, "halotis", "src", "tools", "halotis")
    tool = os.path.join(build_dir, "perfbench_tool")
    for path in (halotis, tool):
        if not os.access(path, os.X_OK):
            raise BenchError("build produced no %s" % path)
    return halotis, tool


# ---- requests, digests --------------------------------------------------------


class Request:
    def __init__(self, line):
        fields = line.rstrip("\n").split("\t")
        self.id, self.kind, self.args = fields[0], fields[1], fields[2:]

    def flag(self, name):
        if "--" + name in self.args:
            i = self.args.index("--" + name)
            if i + 1 < len(self.args) and not self.args[i + 1].startswith("--"):
                return self.args[i + 1]
        return None

    def input_files(self):
        return [p for p in (self.flag("netlist"), self.flag("stim")) if p]


def read_list(path):
    with open(path) as f:
        return [Request(line) for line in f if line.strip()]


def normalize_stdout(out):
    """Cuts the wall-clock tail off the fault campaign line."""
    lines = []
    for line in out.splitlines(keepends=True):
        if line.startswith(b"campaign: ") and b" events" in line:
            line = line[:line.index(b" events") + 7] + b"\n"
        lines.append(line)
    return b"".join(lines)


def digest(out, artifacts):
    """CRC-32 and length over stdout and each (path, bytes) artifact.

    perfbench_tool computes the same digest for the traced run."""
    text = normalize_stdout(out)
    crc = zlib.crc32(text)
    length = len(text)
    for path, data in artifacts:
        p = path.encode()
        crc = zlib.crc32(data, zlib.crc32(p + b"\0", zlib.crc32(b"\0", crc)))
        length += len(p) + len(data) + 2
    return "%08x:%d" % (crc, length)


def count_events(out):
    """Simulated events named in a response: sim's `events: processed N`
    and the fault campaign's `N events`."""
    total = 0
    for line in out.decode(errors="replace").splitlines():
        if line.startswith("events: processed "):
            total += int(line.split()[2].rstrip(","))
        elif line.startswith("campaign: ") and " events" in line:
            total += int(line[:line.index(" events")].split()[-1])
    return total


class Result:
    def __init__(self, code, out, err, artifacts, latency_s):
        self.code, self.err = code, err
        self.latency_s = latency_s
        self.digest = digest(out, artifacts)
        self.events = count_events(out)


class Checker:
    """Counts attempts and failures; remembers each request's digest."""

    def __init__(self, workload, seed):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.seen = {}
        self.expected = {}
        path = os.path.join(HERE, "digests", workload + ".json")
        if seed == DEFAULT_SEED and os.path.exists(path):
            with open(path) as f:
                self.expected = json.load(f)["digests"]

    def check(self, request, result):
        self.attempted += 1
        why = None
        if result.code != 0:
            why = "exit %d: %s" % (result.code, result.err.decode(errors="replace")[:300])
        elif request.id in self.expected and self.expected[request.id] != result.digest:
            why = "digest %s, committed %s" % (result.digest, self.expected[request.id])
        elif self.seen.setdefault(request.id, result.digest) != result.digest:
            why = "digest %s, earlier %s" % (result.digest, self.seen[request.id])
        if why:
            self.fail("request %s (%s): %s" % (request.id, request.kind, why))

    def fail(self, message, requests=1):
        self.failed += requests
        self.problems.append(message)
        log("FAIL " + message)

    def problem(self, message):
        self.problems.append(message)
        log("FAIL " + message)


# ---- CLI processes ------------------------------------------------------------


class Child:
    """One finished helper process (generator, traced replayer)."""

    def __init__(self, argv):
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                stdin=subprocess.DEVNULL)
        try:
            # stderr is tiny on success; read stdout to EOF first.
            self.out = proc.stdout.read()
            self.err = proc.stderr.read()
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
            proc.stderr.close()
        self.code = proc.returncode


class Spawner:
    """`perfbench_tool spawn`: starts each CLI process and reports its exit
    code, wall time, CPU and peak RSS.  Spawned from this harness, a child's
    ru_maxrss would report the harness's own memory instead."""

    def __init__(self, tool):
        self.proc = subprocess.Popen([tool, "spawn"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv):
        self.proc.stdin.write("\t".join(["cli.out", "cli.err"] + argv) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 4:
            raise BenchError("spawner stopped (exit %s)" % self.proc.poll())
        code, wall_ns, cpu_us, rss_kb = map(int, reply)
        with open("cli.out", "rb") as f:
            out = f.read()
        with open("cli.err", "rb") as f:
            err = f.read()
        return code, out, err, wall_ns / 1e9, cpu_us / 1e6, rss_kb / 1024.0

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_local(spawner, halotis, request):
    """One CLI request; returns its Result and the child's (cpu_s, maxrss_mb)."""
    code, out, err, wall_s, cpu_s, maxrss_mb = spawner.run([halotis] + request.args)
    artifacts = []
    vcd = request.flag("vcd")
    if code == 0 and vcd:
        with open(vcd, "rb") as f:
            artifacts.append((vcd, f.read()))
    return Result(code, out, err, artifacts, wall_s), (cpu_s, maxrss_mb)


# ---- daemon ----------------------------------------------------------------------

MAGIC = 0x534C4148  # "HALS"
VERSION = 1
FRAME_REQUEST, FRAME_RESPONSE = 1, 2


def encode_request(args, files):
    parts = [struct.pack("<IHBB", MAGIC, VERSION, FRAME_REQUEST, 0),
             struct.pack("<I", len(args))]
    for arg in args:
        data = arg.encode()
        parts += [struct.pack("<I", len(data)), data]
    parts.append(struct.pack("<I", len(files)))
    for path, data in files:
        p = path.encode()
        parts += [struct.pack("<I", len(p)), p, struct.pack("<I", len(data)), data]
    return b"".join(parts)


def decode_response(payload):
    magic, version, kind, reserved = struct.unpack_from("<IHBB", payload, 0)
    if (magic, version, kind, reserved) != (MAGIC, VERSION, FRAME_RESPONSE, 0):
        raise BenchError("bad response header")
    pos = 8

    def u32():
        nonlocal pos
        (value,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        return value

    def string():
        nonlocal pos
        n = u32()
        if pos + n > len(payload):
            raise BenchError("response string overruns the frame")
        pos += n
        return payload[pos - n:pos]

    code = struct.unpack("<i", struct.pack("<I", u32()))[0]
    out, err = string(), string()
    artifacts = []
    for _ in range(u32()):
        path = string().decode()
        artifacts.append((path, string()))
    if pos != len(payload):
        raise BenchError("trailing bytes in response frame")
    return code, out, err, artifacts


def write_file_atomic(path, data):
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


class Connection:
    """One client connection speaking the daemon's wire protocol, as
    serve::run_connected does: ship argv plus input files by content, write
    the returned artifacts atomically."""

    def __init__(self, sock):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def call(self, request):
        start = time.perf_counter()
        files = []
        for path in request.input_files():
            with open(path, "rb") as f:
                files.append((path, f.read()))
        payload = encode_request(request.args, files)
        self.sock.sendall(struct.pack("<I", len(payload)) + payload)
        prefix = self.reader.read(4)
        if len(prefix) != 4:
            raise BenchError("daemon closed the connection")
        (length,) = struct.unpack("<I", prefix)
        reply = self.reader.read(length)
        if len(reply) != length:
            raise BenchError("daemon closed the connection mid-frame")
        code, out, err, artifacts = decode_response(reply)
        for path, data in artifacts:
            write_file_atomic(path, data)
        return Result(code, out, err, artifacts, time.perf_counter() - start)

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """`halotis serve --threads 1` in its own session (so Ctrl-C reaches only
    this harness, which then drains it)."""

    live = []

    def __init__(self, halotis, cache_mb):
        self.launched = time.perf_counter()
        self.stderr = open("daemon.err", "ab")
        self.proc = subprocess.Popen(
            [halotis, "serve", "--socket", SOCKET, "--threads", "1", "--cache-mb", str(cache_mb)],
            stdout=subprocess.PIPE, stderr=self.stderr, stdin=subprocess.DEVNULL,
            start_new_session=True)
        Daemon.live.append(self)

    def connect(self):
        deadline = time.monotonic() + 30
        while True:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited with %d before listening" % self.proc.returncode)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(SOCKET)
                sock.settimeout(150)
                return Connection(sock)
            except OSError:
                sock.close()
                if time.monotonic() > deadline:
                    raise BenchError("daemon never listened on " + SOCKET)
                time.sleep(0.002)

    def status_mb(self, key):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no %s in /proc status" % key)

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """SIGTERM, then wait for the `drained:` line and the exit."""
        if self in Daemon.live:
            Daemon.live.remove(self)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(60, self.proc.kill)
        timer.start()
        try:
            out = self.proc.stdout.read().decode(errors="replace")
            self.proc.wait()
        finally:
            timer.cancel()
            self.proc.stdout.close()
            self.stderr.close()
        drained = [line for line in out.splitlines() if line.startswith("drained: ")]
        return drained[-1] if drained else None

    DRAINED = re.compile(
        r"drained: (?P<requests>\d+) requests? over (?P<connections>\d+) connections?, "
        r"cache (?P<hits>\d+) hits? / (?P<misses>\d+) miss(?:es)?, "
        r"(?P<protocol_errors>\d+) protocol errors?, (?P<aborted>\d+) aborted connections?$")

    @classmethod
    def parse_drained(cls, line):
        match = cls.DRAINED.match(line)
        if not match:
            raise BenchError("unrecognised drain report: " + line)
        return {key: int(value) for key, value in match.groupdict().items()}

    @classmethod
    def stop_all(cls):
        """Drains every daemon still running (failure and interrupt paths)."""
        for daemon in list(cls.live):
            try:
                log("daemon %d stopped: %s" % (daemon.proc.pid, daemon.stop()))
            except Exception as e:  # noqa: BLE001 -- best effort on the way out
                log("could not stop daemon %d: %s" % (daemon.proc.pid, e))


def check_drained(daemon, conn, checker):
    conn.close()
    # Let the daemon see the clean close before the drain signal: a SIGTERM
    # that interrupts its wait for the next frame counts the connection as
    # aborted.
    time.sleep(0.25)
    line = daemon.stop()
    if line is None:
        checker.problem("daemon exited %s without a drained: line" % daemon.proc.returncode)
        return None
    stats = Daemon.parse_drained(line)
    if stats["protocol_errors"] or stats["aborted"]:
        checker.problem("daemon reports errors: " + line)
    if daemon.proc.returncode != 0:
        checker.problem("daemon exited %d" % daemon.proc.returncode)
    if os.path.exists(SOCKET):
        checker.problem("socket file %s survived the daemon" % SOCKET)
    return stats


# ---- one measuring run --------------------------------------------------------------


def percentile(values, q):
    ordered = sorted(values)
    k = (len(ordered) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


class Round:
    """One pass of identical work in the timed phase: the whole pool in a
    seeded order, or (kernel_large) one request."""

    def __init__(self):
        self.latencies = []
        self.events = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0


def first_cover(requests):
    """Length of the shortest prefix holding every distinct request id."""
    ids = {r.id for r in requests}
    seen = set()
    for i, request in enumerate(requests):
        seen.add(request.id)
        if seen == ids:
            return i + 1
    return len(requests)


def rounds_of(timed, size):
    return [timed[i:i + size] for i in range(0, len(timed), size)]


def run_oneshot(spawner, halotis, setup, timed, config, checker):
    setup_s, setup_rss = [], []
    for _ in range(config["setups"]):
        start = time.perf_counter()
        rss = 0.0
        for request in setup:
            result, (_, maxrss_mb) = run_local(spawner, halotis, request)
            checker.check(request, result)
            rss = max(rss, maxrss_mb)
        setup_s.append(time.perf_counter() - start)
        setup_rss.append(rss)
    rounds, peak_rss = [], 0.0
    for work in rounds_of(timed, config.get("round") or len(setup)):
        done = Round()
        results = []
        start = time.perf_counter()
        for request in work:
            result, (cpu_s, maxrss_mb) = run_local(spawner, halotis, request)
            results.append(result)
            done.cpu_s += cpu_s
            peak_rss = max(peak_rss, maxrss_mb)
        done.wall_s = time.perf_counter() - start
        for request, result in zip(work, results):
            done.latencies.append(result.latency_s)
            done.events += result.events
            checker.check(request, result)
        rounds.append(done)
    return setup_s, setup_rss, rounds, peak_rss, None


def run_daemon(spawner, halotis, setup, timed, config, checker):
    setup_s, setup_rss = [], []
    setup_misses = set()
    daemon_digests = {}
    daemon = None
    for i in range(config["setups"]):
        daemon = Daemon(halotis, config["cache_mb"])
        conn = daemon.connect()
        for request in setup:
            result = conn.call(request)
            checker.check(request, result)
            daemon_digests[request.id] = result.digest
        setup_s.append(time.perf_counter() - daemon.launched)
        setup_rss.append(daemon.status_mb("VmRSS"))
        if i + 1 < config["setups"]:
            stats = check_drained(daemon, conn, checker)
            if stats:
                setup_misses.add(stats["misses"])
    rounds = []
    for work in rounds_of(timed, config.get("round") or len(setup)):
        done = Round()
        results = []
        cpu_before = daemon.cpu_s()
        start = time.perf_counter()
        for request in work:
            results.append(conn.call(request))
        done.wall_s = time.perf_counter() - start
        done.cpu_s = daemon.cpu_s() - cpu_before
        for request, result in zip(work, results):
            done.latencies.append(result.latency_s)
            done.events += result.events
            checker.check(request, result)
            daemon_digests[request.id] = result.digest
        rounds.append(done)
    peak_rss = daemon.status_mb("VmHWM")
    stats = check_drained(daemon, conn, checker)
    timed_misses = None
    if stats:
        # Every set-up-only daemon missed exactly once per distinct
        # elaboration; the measuring daemon may miss no more than that.
        if len(setup_misses) > 1:
            checker.problem("set-up cache misses differ between daemons: %s" % setup_misses)
        if setup_misses:
            timed_misses = stats["misses"] - min(setup_misses)
            if timed_misses != 0:
                checker.problem("%d cache misses in the timed phase" % timed_misses)
    # The same requests run locally must answer byte-identically.
    by_id = {r.id: r for r in setup + timed}
    for request_id, request in by_id.items():
        local, _ = run_local(spawner, halotis, request)
        if local.code != 0 or local.digest != daemon_digests.get(request_id):
            uses = sum(1 for r in timed if r.id == request_id)
            checker.fail("request %s: daemon digest %s, local %s (exit %d)"
                         % (request_id, daemon_digests.get(request_id), local.digest, local.code),
                         max(1, uses))
    return setup_s, setup_rss, rounds, peak_rss, timed_misses


def quiet_rounds(rounds):
    """The QUIET_ROUNDS fastest rounds.  Every round repeats the same work,
    so its wall time ranks how much co-tenant load slowed it; on a shared
    host whole multi-second stretches run up to ~1.7x slower."""
    return sorted(rounds, key=lambda r: r.wall_s)[:QUIET_ROUNDS]


def end_to_end_metrics(setup_s, setup_rss, rounds, peak_rss):
    latencies = [x for r in rounds for x in r.latencies]
    wall_s = sum(r.wall_s for r in rounds)
    return {
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * percentile(latencies, 0.9),
        "throughput_rps": len(latencies) / wall_s,
        "events_per_s": sum(r.events for r in rounds) / wall_s,
        "cpu_ms_per_request": 1e3 * sum(r.cpu_s for r in rounds) / len(latencies),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setup_s),
        "setup_rss_mb": statistics.median(setup_rss),
    }


def process_start_ms(spawner, halotis):
    """Median wall time of a no-op `halotis help` process."""
    samples = []
    for _ in range(PROCESS_START_SAMPLES):
        code, _, _, wall_s, _, _ = spawner.run([halotis, "help"])
        if code != 0:
            raise BenchError("`halotis help` exited %d" % code)
        samples.append(wall_s)
    return 1e3 * statistics.median(samples)


def run_traced(tool, spawner, halotis, workload, config, digests, checker):
    argv = [tool, "trace", "--workload", workload, "--dir", ".", "--spans", "spans.json"]
    if config["daemon"]:
        argv += ["--cache-mb", str(config["cache_mb"])]
    child = Child(argv)
    if child.code != 0:
        raise BenchError("traced replayer exited %d: %s" % (child.code, child.err.decode()[-2000:]))
    report = json.loads(child.out.decode())
    if not report["untraced_digests_equal"]:
        checker.problem("traced replayer: spans-on and spans-off passes answer differently")
    for request_id, expected in digests.items():
        got = report["digests"].get(request_id)
        if got != expected:
            checker.problem("traced request %s: digest %s, untraced run %s"
                            % (request_id, got, expected))
    if config["daemon"] and report["timed_cache_misses"] != 0:
        checker.problem("traced replayer: %d cache misses in the timed phase"
                        % report["timed_cache_misses"])
    metrics = dict(report["metrics"])
    metrics["tools.process_start_ms"] = {"value": process_start_ms(spawner, halotis),
                                         "unit": "ms"}
    missing = [name for name in PER_LAYER if name not in metrics]
    if missing:
        raise BenchError("traced replayer did not report " + ", ".join(missing))
    return {name: metrics[name] for name in PER_LAYER}


def measure(workload, seed, seconds, trace, write_digests=False):
    config = dict(WORKLOADS[workload])
    if trace:
        config["setups"] = 1  # the traced run reports no set-up metric
    halotis, tool = build()
    run_dir = os.path.join(ROOT, ".bench_runs", "%s-s%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.chdir(run_dir)
    keep = True
    spawner = Spawner(tool)
    try:
        child = Child([tool, "gen", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--dir", "."])
        if child.code != 0:
            raise BenchError("input generator failed: " + child.err.decode())
        setup, timed = read_list("setup.tsv"), read_list("timed.tsv")
        if trace:
            # The traced replayer replays the whole lists; the untraced
            # reference for its digests needs each request once.
            timed = timed[:first_cover(timed)]
        checker = Checker(workload, seed)
        run = run_daemon if config["daemon"] else run_oneshot
        setup_s, setup_rss, rounds, peak_rss, timed_misses = run(
            spawner, halotis, setup, timed, config, checker)
        quiet = quiet_rounds(rounds)
        metrics = end_to_end_metrics(setup_s, setup_rss, quiet, peak_rss)
        every = end_to_end_metrics(setup_s, setup_rss, rounds, peak_rss)
        print("%s seed %d: %d failed / %d attempted requests"
              % (workload, seed, checker.failed, checker.attempted))
        print("timed: %d requests in %d rounds, %.3f s; metrics from the %d quiet rounds "
              "(%d latency samples); set-up x%d: %s s"
              % (len(timed), len(rounds), sum(r.wall_s for r in rounds), len(quiet),
                 sum(len(r.latencies) for r in quiet), len(setup_s),
                 " ".join("%.4f" % s for s in setup_s)))
        print("all rounds: latency_p50_ms %.4f, latency_p90_ms %.4f, throughput_rps %.4f"
              % (every["latency_p50_ms"], every["latency_p90_ms"], every["throughput_rps"]))
        constants = {
            "requests": len(setup) + len(timed),
            "timed_requests": len(timed),
            "timed_events": sum(r.events for r in rounds),
            "digests": "%08x" % zlib.crc32(json.dumps(checker.seen, sort_keys=True).encode()),
            "timed_cache_misses": timed_misses,
        }
        print("constants: " + json.dumps(constants, sort_keys=True))
        if trace:
            result_metrics = run_traced(tool, spawner, halotis, workload, config, checker.seen,
                                        checker)
            shutil.copyfile("spans.json", os.path.join(
                ROOT, ".bench_runs", "%s-s%d.spans.json" % (workload, seed)))
        else:
            result_metrics = {name: {"value": metrics[name], "unit": unit}
                              for name, unit in END_TO_END.items()}
        for name, m in result_metrics.items():
            print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
        correct = checker.failed == 0 and not checker.problems
        if write_digests and correct:
            os.makedirs(os.path.join(HERE, "digests"), exist_ok=True)
            with open(os.path.join(HERE, "digests", workload + ".json"), "w") as f:
                json.dump({"workload": workload, "seed": seed, "digests": checker.seen},
                          f, indent=1, sort_keys=True)
                f.write("\n")
        keep = not correct
        print(json.dumps({"correct": correct, "attempted": checker.attempted,
                          "failed": checker.failed, "metrics": result_metrics}), flush=True)
        return 0 if correct else 1
    finally:
        # A second Ctrl-C or SIGTERM must not cut the drain short.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        Daemon.stop_all()
        spawner.close()
        os.chdir(ROOT)
        if keep:
            log("run directory kept: " + run_dir)
        else:
            shutil.rmtree(run_dir, ignore_errors=True)


# ---- A/A steadiness mode ------------------------------------------------------------


def aa_mode(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or spec["run_seconds"]
    build()
    values = {}      # (workload, metric) -> [value]
    constants = {}   # (workload, seed) -> [constants]
    bad = []
    for round_index in range(args.rounds):
        for seed in seeds:
            for workload in workloads:
                argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, text=True)
                try:
                    stdout, stderr = proc.communicate()
                except BaseException:
                    proc.terminate()  # the run drains its daemon on SIGTERM
                    proc.communicate()
                    raise
                lines = stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
                if proc.returncode != 0 or result is None or not result["correct"]:
                    bad.append("round %d %s seed %d: exit %d, %s" % (
                        round_index, workload, seed, proc.returncode, stderr[-500:]))
                    continue
                for line in lines:
                    if line.startswith("constants: "):
                        constants.setdefault((workload, seed), []).append(
                            json.loads(line[len("constants: "):]))
                for name, m in result["metrics"].items():
                    values.setdefault((workload, name), []).append(m["value"])
                log("round %d %-12s seed %-3d ok  latency_p50 %.4f ms  setup %.4f s  events %d" % (
                    round_index, workload, seed, result["metrics"]["latency_p50_ms"]["value"],
                    result["metrics"]["setup_s"]["value"],
                    constants[(workload, seed)][-1]["timed_events"]))
    print("%-12s %-20s %4s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound"))
    for (workload, name), vals in sorted(values.items()):
        if len(vals) >= 2:
            q1, med, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = med = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag = "  OVER BOUND"
            bad.append("%s %s spread %.4f over bound %.2f" % (workload, name, spread, bound))
        elif bound is not None and spread > bound / 3:
            flag = "  over bound/3"
        print("%-12s %-20s %4d %12.6g %12.6g %12.6g %8.4f %6s%s" % (
            workload, name, len(vals), q1, med, q3, spread, bound, flag))
    for (workload, seed), runs in sorted(constants.items()):
        for other in runs[1:]:
            if other != runs[0]:
                bad.append("%s seed %d: constants differ: %s vs %s" % (workload, seed, runs[0], other))
        for run in runs:
            if WORKLOADS[workload]["daemon"] and run["timed_cache_misses"] != 0:
                bad.append("%s seed %d: timed cache misses %s" % (workload, seed,
                                                                   run["timed_cache_misses"]))
    for line in bad:
        print("A/A FAIL: " + line)
    print("A/A %s: %d runs" % ("FAIL" if bad else "ok",
                               sum(len(v) for v in constants.values())))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="store this run's digests as the committed ones (default seed)")
    parser.add_argument("--aa", action="store_true", help="A/A steadiness mode")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--seeds", default=str(DEFAULT_SEED))
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    def on_sigterm(signum, frame):
        raise KeyboardInterrupt("signal %d" % signum)

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        if args.aa:
            return aa_mode(args)
        if not args.workload:
            parser.error("--workload or --aa is required")
        if args.write_digests and args.seed != DEFAULT_SEED:
            parser.error("--write-digests stores the default seed's digests only")
        return measure(args.workload, args.seed, args.seconds or DEFAULT_SECONDS, args.trace,
                       args.write_digests)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 2
    except KeyboardInterrupt:
        log("perfbench: interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
