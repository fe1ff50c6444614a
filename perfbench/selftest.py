#!/usr/bin/env python3
"""Self-test of the benchmark's load generator and rate judging.

    python3 perfbench/selftest.py

Run from the repository root (builds like run.py). Exit 0 when every check
holds. Checks:
  1. No coordinated omission: against a fake server that stalls once for
     50 ms, every request due during the stall shows the stall in its
     latency (it completes no earlier than the stall's end), and requests
     due well after it are fast again.
  2. A phase whose generator ran late is invalid: the ladder never reports
     a rate judged invalid, whatever its latencies.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

STALL_AFTER_S = 0.5
STALL_S = 0.050


class StallingServer:
    """Answers each request line at once with status 200, except that the
    first request handled STALL_AFTER_S after start begins a STALL_S pause
    of every reply, on every connection."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.lock = threading.Lock()
        self.armed_at = time.monotonic() + STALL_AFTER_S
        self.stall = None  # (start, end) in monotonic seconds once begun
        self.stopping = False
        self.threads = [threading.Thread(target=self.accept_loop)]
        self.threads[0].start()

    def hold(self):
        with self.lock:
            now = time.monotonic()
            if self.stall is None and now >= self.armed_at:
                self.stall = (now, now + STALL_S)
            until = self.stall[1] if self.stall and now < self.stall[1] else None
        if until is not None:
            time.sleep(max(0.0, until - time.monotonic()))

    def accept_loop(self):
        self.listener.settimeout(0.1)
        while not self.stopping:
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # no Nagle/delayed-ACK waits
            t = threading.Thread(target=self.serve, args=(conn,))
            self.threads.append(t)
            t.start()

    def serve(self, conn):
        with conn, conn.makefile("rb") as lines:
            for line in lines:
                self.hold()
                req = json.loads(line)
                conn.sendall(b'{"id":%d,"status":200,"queue_depth":0}\n' % req["id"])

    def close(self):
        self.stopping = True
        for t in self.threads:
            t.join()
        self.listener.close()


def check_stall_is_visible():
    server = StallingServer()
    dump = os.path.join(run.WORK, "selftest_dump.txt")
    try:
        res = subprocess.run([run.PROBE, "loadgen", "--port", str(server.port), "--seed", "1",
                              "--rate", "2000", "--seconds", "1.5", "--verify", "0",
                              "--dump", dump],
                             stdout=subprocess.PIPE, timeout=60, check=True)
    finally:
        server.close()
    summary = json.loads(res.stdout.decode().strip().splitlines()[-1])
    start, end = server.stall
    rows = []
    with open(dump) as f:
        for line in f:
            due, done, late, status = line.split()
            rows.append((float(due), float(done), float(late), int(status)))
    during = [r for r in rows if start <= r[0] < end]
    after = [r for r in rows if r[0] > end + 0.200]
    problems = []
    if summary["unanswered"] != 0 or any(r[3] != 200 for r in rows):
        problems.append(f"{summary['unanswered']} unanswered or non-200 responses")
    if len(during) < 50:
        problems.append(f"only {len(during)} requests due during the stall")
    hidden = [r for r in during if r[1] < end - 1e-4]
    if hidden:
        problems.append(f"{len(hidden)} requests due during the stall finished before it ended")
    slow_after = [r for r in after if r[1] - r[0] > 0.010]
    if len(slow_after) > len(after) // 100:
        problems.append(f"{len(slow_after)} of {len(after)} later requests still slow")
    if not run.judge(2000, summary):
        problems.append(f"generator late p99 {summary['late_p99_ms']} ms at 2000 req/s")
    worst = max(r[1] - r[0] for r in during) * 1e3 if during else 0
    return problems, f"{len(during)} requests due during a {STALL_S * 1e3:.0f} ms stall, " \
                     f"worst latency {worst:.1f} ms"


def check_late_rate_is_invalid():
    def fake_phase(_tag, rate):
        r = {"p99_ms": 2.0, "non_ok": 0, "unanswered": 0, "late_p99_ms": 0.1}
        if rate >= 10000:
            r["late_p99_ms"] = run.CONFIG["loadgen_late_limit_ms"] * 5
        run.judge(rate, r)
        return r

    limits = dict(run.CONFIG["serve_rates"], high=8000, ladder_step=2000)
    high = fake_phase(0, 8000)
    best = run.ladder(fake_phase, high, limits)
    problems = [] if 8000 <= best < 10000 else [f"ladder reported {best} req/s"]
    return problems, f"ladder stops below the first late rate: {best} req/s"


def main():
    try:
        run.build()
    except run.Fail as e:
        print(f"selftest: {e}", file=sys.stderr)
        return 2
    failed = False
    for check in (check_stall_is_visible, check_late_rate_is_invalid):
        problems, detail = check()
        print(f"{'FAIL' if problems else 'ok'}: {check.__name__}: {detail}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
