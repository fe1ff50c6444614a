#!/usr/bin/env python3
"""The repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the repository (Release, tools only)
and the probe under .bench_build (or $CARGO_TARGET_DIR), runs one workload
on the tools users run (stamp_sweep, stamp_fleet, stamp_serve), checks their
outputs and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. --trace 0 prints every
end-to-end metric of BENCHMARK.json, --trace 1 every per-layer one. Exit 0
when every check passed, 1 when an output check failed (the result is still
printed), 2 when the run could not be made (nothing printed).
Workload definitions and limits: perfbench/workloads.json.
"""

import argparse
import json
import math
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORK = os.path.join(BUILD, "work")
TOOLS = os.path.join(BUILD, "stamp", "tools")
PROBE = os.path.join(BUILD, "probe", "perfprobe")
JOBS = str(min(4, os.cpu_count() or 1))
RUN_LIMIT_S = 170  # a run (after the build) must end within 180 s

CANONICAL_POINTS = 576
LARGE_POINTS = 1_179_648
SETUP_REPEATS = 9  # set-up is repeated and its median reported
# Server defaults (queue 64, cache 4096/shard, cache admission on), except
# that admission waits up to 50 ms for queue space: the shared machine's
# scheduling stalls of 10-20 ms otherwise turn into sporadic 503s from 6,000
# req/s up.
SERVE_FLAGS = ("--grid", "canonical", "--workers", 2, "--admission-wait-ms", 50)

CHILDREN = []  # started and not yet reaped


class Fail(Exception):
    """The run could not be made: no result is printed."""


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


# -- build ---------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise Fail("no repository sources (CMakeLists.txt, src/) next to perfbench/")
    os.makedirs(WORK, exist_ok=True)
    # Compilers and tools keep their scratch files inside the build tree too.
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    stamp = os.path.join(BUILD, "stamp")
    probe_build = os.path.join(BUILD, "probe")
    steps = []
    if not os.path.isfile(os.path.join(stamp, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", stamp, "-DCMAKE_BUILD_TYPE=Release",
                      "-DSTAMP_BUILD_TESTS=OFF", "-DSTAMP_BUILD_BENCH=OFF",
                      "-DSTAMP_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", stamp, "-j", JOBS])
    if not os.path.isfile(os.path.join(probe_build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", probe_build, "-DCMAKE_BUILD_TYPE=Release",
                      f"-DSTAMP_ROOT={ROOT}", f"-DSTAMP_BUILD={stamp}"])
    steps.append(["cmake", "--build", probe_build, "-j", JOBS])
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise Fail(f"build failed: {' '.join(cmd)} (log: {out.name})")


# -- processes -----------------------------------------------------------------

def spawn(cmd, **kwargs):
    proc = subprocess.Popen([str(c) for c in cmd], **kwargs)
    CHILDREN.append(proc)
    return proc


def reap(proc):
    """Wait for `proc`; returns (exit code, peak RSS in MB from ru_maxrss)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.remove(proc)
    if proc.stdout:
        proc.stdout.close()
    return proc.returncode, usage.ru_maxrss * 1024 / 1e6


def stop_children():
    for proc in list(CHILDREN):
        try:
            proc.kill()
        except OSError:
            pass
        reap(proc)


def timed_run(cmd):
    """One tool run: (wall seconds, exit code, peak RSS MB)."""
    start = time.perf_counter()
    code, rss = reap(spawn(cmd, stdout=subprocess.DEVNULL))
    return time.perf_counter() - start, code, rss


def probe(*args):
    """Run a perfprobe subcommand; returns (exit code: 0 ok, 1 check failed,
    its metric dict)."""
    res = subprocess.run([PROBE, *[str(a) for a in args]], stdout=subprocess.PIPE,
                         timeout=RUN_LIMIT_S)
    lines = res.stdout.decode().strip().splitlines()
    if not lines or res.returncode not in (0, 1):
        raise Fail(f"perfprobe {args[0]} failed (exit {res.returncode})")
    return res.returncode, json.loads(lines[-1])


class Server:
    """A stamp_serve child on an ephemeral port (read from its stdout)."""

    def __init__(self, *flags):
        with open(os.path.join(WORK, "serve.log"), "a") as log_file:
            self.proc = spawn([os.path.join(TOOLS, "stamp_serve"), "--port", "0", *flags],
                              stdout=subprocess.PIPE, stderr=log_file)
        ready, _, _ = select.select([self.proc.stdout], [], [], 10)
        line = self.proc.stdout.readline().strip() if ready else b""
        if not line.isdigit():
            raise Fail("stamp_serve did not report its port")
        self.port = int(line)

    def call(self, lines):
        """Send request lines on one connection; returns the parsed responses."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as sock:
            sock.sendall(("\n".join(lines) + "\n").encode())
            with sock.makefile("rb") as f:
                return [json.loads(f.readline()) for _ in lines]

    def stats(self):
        return self.call(['{"id":1,"op":"stats"}'])[0]

    def proc_counts(self):
        fds = len(os.listdir(f"/proc/{self.proc.pid}/fd"))
        with open(f"/proc/{self.proc.pid}/status") as f:
            threads = next(int(l.split()[1]) for l in f if l.startswith("Threads:"))
        return fds, threads

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        return reap(self.proc)


# -- checks --------------------------------------------------------------------

def check_sweep(grid, path, seed):
    code, res = probe("check-sweep", "--grid", grid, "--file", path, "--seed", seed)
    if code != 0:
        log(f"{path}: check failed: {res}")
    return code == 0


def same_bytes(path, reference):
    """Byte-for-byte file comparison, a megabyte at a time."""
    with open(path, "rb") as a, open(reference, "rb") as b:
        while True:
            x, y = a.read(1 << 20), b.read(1 << 20)
            if x != y:
                return False
            if not x:
                return True


# -- workloads -----------------------------------------------------------------

class Result:
    def __init__(self):
        self.values = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def count(self, ok, n=1):
        self.attempted += n
        self.failed += 0 if ok else n

    def crosscheck(self, name, got, want):
        if got != want:
            self.mismatches += 1
            log(f"cross-check {name}: {got}, ROADMAP table says {want}")


def closed_loop_metrics(res, walls, rsses, points):
    res.values.update({
        "points_per_s": points * len(walls) / sum(walls),
        "p50_ms": statistics.median(walls) * 1e3,
        "p99_ms": nearest_rank(walls, 0.99) * 1e3,
        "max_rps": len(walls) / sum(walls),
        "peak_rss_mb": statistics.median(rsses),
    })


def sweep_canonical(args, res):
    tool = os.path.join(TOOLS, "stamp_sweep")
    reference = os.path.join(WORK, "sweep_reference.json")
    out = os.path.join(WORK, "sweep.json")

    # Set-up: a run whose artifact is checked against the grid and the
    # scalar reference; it is the reference every timed artifact must equal.
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _, code, _ = timed_run([tool, "--grid", "canonical", "--threads", 4, "--out", reference])
        if code != 0 or not check_sweep("canonical", reference, args.seed):
            raise Fail("set-up stamp_sweep --grid canonical failed its check")
        setups.append(time.perf_counter() - start)
    res.values["setup_s"] = statistics.median(setups)

    walls, rsses = [], []
    budget = args.seconds * (0.2 if args.trace else 1)
    while sum(walls) < budget:
        wall, code, rss = timed_run([tool, "--grid", "canonical", "--threads", 4, "--out", out])
        res.count(code == 0 and same_bytes(out, reference))
        walls.append(wall)
        rsses.append(rss)
    closed_loop_metrics(res, walls, rsses, CANONICAL_POINTS)
    if args.trace:
        sweep_large_layers(args, res, tool)


def sweep_large_layers(args, res, tool):
    """The traced run's large-grid split: one checked stamp_sweep --grid
    large --out run, then the same unit replayed in-process with spans."""
    out = os.path.join(WORK, "sweep_large.json")
    traced = os.path.join(WORK, "sweep_large_traced.json")
    wall, code, _ = timed_run([tool, "--grid", "large", "--threads", 4, "--out", out])
    res.count(code == 0 and check_sweep("large", out, args.seed))
    _, layers = probe("trace-sweep", "--out", traced)
    res.count(same_bytes(traced, out))
    os.remove(out)
    os.remove(traced)
    res.values.update(layers)
    res.values["trace.overhead_pct"] = (layers["unit_s"] / wall - 1) * 100
    res.values["report.format_share_pct"] = layers["report.format_s"] / layers["unit_s"] * 100
    res.crosscheck("sweep.cache.hits", layers["sweep.cache.hits"], 0)
    res.crosscheck("sweep.cache.misses", layers["sweep.cache.misses"], LARGE_POINTS)
    res.crosscheck("sweep.cache.evictions", layers["sweep.cache.evictions"], 1_048_576)


def fleet_canonical(args, res):
    ref_path = os.path.join(WORK, "fleet_reference.json")
    out = os.path.join(WORK, "fleet.json")
    journal = os.path.join(WORK, "fleet.journal")
    fleet = os.path.join(TOOLS, "stamp_fleet")

    setup_start = time.perf_counter()
    _, code, _ = timed_run([os.path.join(TOOLS, "stamp_sweep"), "--grid", "canonical",
                            "--threads", 4, "--out", ref_path])
    if code != 0 or not check_sweep("canonical", ref_path, args.seed):
        raise Fail("reference stamp_sweep --grid canonical failed its check")
    reference_s = time.perf_counter() - setup_start

    def unit(ports):
        cmd = [fleet, "--grid", "canonical", "--journal", journal, "--out", out]
        for port in ports:
            cmd += ["--connect", port]
        wall, code, rss = timed_run(cmd)
        res.count(code == 0 and same_bytes(out, ref_path))
        return wall, rss

    setups = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        servers = [Server("--grid", "canonical", "--workers", 1) for _ in range(2)]
        ports = [s.port for s in servers]
        for _ in range(2):
            unit(ports)
        setups.append(time.perf_counter() - start)
        if rep < SETUP_REPEATS - 1:
            for s in servers:
                s.stop()
    res.values["setup_s"] = reference_s + statistics.median(setups)

    before = [s.stats()["cache"] for s in servers]
    walls, rsses = [], []
    budget = args.seconds / 2 if args.trace else args.seconds
    while sum(walls) < budget:
        wall, rss = unit(ports)
        walls.append(wall)
        rsses.append(rss)
    after = [s.stats()["cache"] for s in servers]
    closed_loop_metrics(res, walls, rsses, CANONICAL_POINTS)

    if args.trace:
        code, layers = probe("trace-fleet", "--ports", ",".join(map(str, ports)),
                             "--dir", WORK, "--expect", ref_path)
        res.count(code == 0)
        hits = sum(a["hits"] - b["hits"] for a, b in zip(after, before))
        misses = sum(a["misses"] - b["misses"] for a, b in zip(after, before))
        res.values.update(layers)
        res.values["serve.worker.cache_probes"] = hits + misses
        res.values["serve.worker.cache_hit_ratio"] = hits / max(1, hits + misses)
        res.values["trace.overhead_pct"] = (layers["unit_ms"] / res.values["p50_ms"] - 1) * 100
        res.crosscheck("units with dist.dispatched != dist.shards",
                       layers["dist.dispatch_mismatch_units"], 0)
        res.crosscheck("dist.reconnects", layers["dist.reconnects"], 0)
    for s in servers:
        s.stop()


def serve_mix(args, res):
    limits = CONFIG["serve_rates"]
    warm = [json.dumps({"id": i + 1, "op": "sweep_chunk", "begin": b, "end": b + 64})
            for i, b in enumerate(range(0, CANONICAL_POINTS, 64))]
    setups = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        server = Server(*SERVE_FLAGS)
        replies = server.call(warm)
        res.count(all(r["status"] == 200 for r in replies), len(replies))
        setups.append(time.perf_counter() - start)
        if rep < SETUP_REPEATS - 1:
            server.stop()
    res.values["setup_s"] = statistics.median(setups)

    def phase(tag, rate, share, window=0, counted=True):
        """One loadgen phase. A counted phase has every 200 response checked
        and adds its requests to attempted/failed; ladder steps are neither."""
        _, r = probe("loadgen", "--port", server.port, "--seed", args.seed * 100 + tag,
                     "--rate", rate, "--seconds", max(0.5, share * args.seconds),
                     "--verify", int(counted), "--window", window)
        if window == 0:
            judge(rate, r)
        if counted:
            res.attempted += int(r["sent"])
            res.failed += int(r["non_ok"] + r["unanswered"] + r["verify_failed"])
        return r

    def measured(tag, rate, share):
        for _ in range(3):  # retries: an invalid phase is a generator hiccup
            r = phase(tag, rate, share)
            if r["valid"]:
                return r
        raise Fail(f"load generator could not keep {rate} req/s")

    stats0 = server.stats()
    low = measured(1, limits["low"], 0.3) if args.trace else None
    high = measured(2, limits["high"], 0.4)
    stats1 = server.stats()
    res.values.update({"p50_ms": high["p50_ms"], "p99_ms": high["p99_1s_median_ms"]})

    if not args.trace:
        # Capacity: closed loop with saturation_window requests in flight per
        # connection (below the queue depth, so nothing is refused).
        sat = phase(3, 50_000, 0.3, window=limits["saturation_window"])
        res.values["max_rps"] = sat["closed_rps"]
        res.values["points_per_s"] = sat["closed_points_per_s"]
    else:
        fds, threads = server.proc_counts()
        _, layers = probe("serve-layers", "--seed", args.seed * 100 + 2)
        cache0, cache1 = stats0["cache"], stats1["cache"]
        probes = (cache1["hits"] + cache1["misses"]) - (cache0["hits"] + cache0["misses"])
        for op in ("evaluate", "best_placement", "sweep_chunk", "search"):
            res.values[f"serve.{op}.p50_ms"] = high[f"{op}.p50_ms"]
            res.values[f"serve.{op}.p99_ms"] = high[f"{op}.p99_ms"]
        res.values.update(layers)
        res.values.update({
            "serve.low.p50_ms": low["p50_ms"],
            "serve.low.p99_ms": low["p99_ms"],
            "serve.cache.probes": probes,
            "serve.cache.hit_ratio": (cache1["hits"] - cache0["hits"]) / max(1, probes),
            "serve.queue_depth.max": max(low["queue_depth_max"], high["queue_depth_max"]),
            "serve.rejected_overload": stats1["rejected_overload"] - stats0["rejected_overload"],
            "serve.deadline_hits": stats1["deadline_hits"] - stats0["deadline_hits"],
            "serve.write_errors": stats1["write_errors"] - stats0["write_errors"],
            "serve.connections": stats1["connections"],
            "serve.fds_after": fds,
            "serve.threads_after": threads,
            "loadgen.late_p99_ms": high["late_p99_ms"],
            "loadgen.sent": low["sent"] + high["sent"],
            "trace.overhead_pct": (layers["loop_traced_s"] / layers["loop_untraced_s"] - 1) * 100,
        })
        if fds < stats1["connections"]:
            res.mismatches += 1
            log(f"cross-check serve.fds_after: {fds} fds after "
                f"{stats1['connections']} connections; the ROADMAP reports one leaked fd each")
        res.values["serve.max_rps_at_limit"] = ladder(
            lambda tag, rate: phase(tag, rate, 0.1, counted=False), high, limits)
    code, rss = server.stop()
    res.count(code == 0)
    res.values["peak_rss_mb"] = rss


def judge(rate, r):
    """Mark a load phase valid only if the generator kept its schedule: a
    late generator measured itself, so its latencies are not reported."""
    r["valid"] = r["late_p99_ms"] <= CONFIG["loadgen_late_limit_ms"]
    if not r["valid"]:
        log(f"rate {rate}: invalid, generator late p99 {r['late_p99_ms']:.3f} ms")
    return r["valid"]


def ladder(phase, high, limits):
    """Highest rate that passes: step from the high rate by ladder_step until
    the outcome flips, then bisect between the last pass and the first fail."""

    def passes(rate, r=None):
        r = r or phase(10 + len(tried), rate)
        ok = (r["valid"] and r["non_ok"] == 0 and r["unanswered"] == 0
              and r["p99_ms"] <= CONFIG["serve_p99_limit_ms"])
        tried[rate] = ok
        log(f"ladder {rate} req/s: p99 {r['p99_ms']:.2f} ms, {int(r['non_ok'])} non-200, "
            f"{'pass' if ok else 'fail'}")
        return ok

    tried = {}
    step = limits["ladder_step"]
    rate = limits["high"]
    up = passes(rate, high)
    while step <= rate + (step if up else -step) <= limits["ladder_max"]:
        rate += step if up else -step
        if passes(rate) != up:
            break
    for _ in range(limits["ladder_bisections"]):
        lo = max((r for r, ok in tried.items() if ok), default=0)
        hi = min((r for r, ok in tried.items() if not ok and r > lo), default=None)
        if hi is None or hi - lo <= 100:
            break
        passes(round((lo + hi) / 200) * 100)
    return max((r for r, ok in tried.items() if ok), default=0)


WORKLOADS = {"sweep_canonical": sweep_canonical, "fleet_canonical": fleet_canonical,
             "serve_mix": serve_mix}

with open(os.path.join(HERE, "workloads.json")) as _f:
    CONFIG = json.load(_f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def on_signal(signum, _frame):
        raise Fail(f"stopped by signal {signum}")

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(sig, on_signal)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        build()
        signal.alarm(RUN_LIMIT_S)
        res = Result()
        WORKLOADS[args.workload](args, res)
    except Fail as e:
        log(str(e))
        return 2
    finally:
        signal.alarm(0)
        stop_children()

    # Only the declared metrics are printed; helper values (unit_s, ...) stay here.
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        res.values["failed_ratio"] = res.failed / max(1, res.attempted)
        res.values["crosscheck.mismatches"] = res.mismatches
    metrics = {m["name"]: {"value": res.values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    correct = res.failed == 0
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
