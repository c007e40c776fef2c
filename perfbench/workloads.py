"""The end-to-end workloads.  Each drives the real redf binary over its
public interfaces (Unix socket, CLI) from this one process, in one
thread and over at most two connections, checks every output, and
returns an Outcome.  Servers run with -j 1.

Latency classes, per workload: latency_* and read_latency_* are every
request (serve-hot: a roundtrip; sweep: one invocation, spawn to exit),
since every request of both workloads is a read; heavy_latency_* is the
GN2 requests on serve-hot and every invocation on the sweep.
"""

import os
import select
import subprocess
import time

import gen
import harness
from harness import BenchError, Daemon, LineConn
from stats import median, tail

SERVE_SETUP_REPS = 11

HOT_LINES = 10000  # pre-generated hot requests, cycled when a run needs more
# about twice the p99 roundtrip, so a server that slows down misses it
HOT_SLO_US = 600.0
SWEEP_SAMPLES = 8
SWEEP_ROUND = 6
# about twice the median invocation time
SWEEP_SLO_US = 0.8e6

# extra arguments for every server process (the traced run adds --metrics)
SERVER_EXTRA = []


class Outcome:
    """Checked, timed samples of one run, and the metrics they give.

    A serve run is cut into windows of [window_s] seconds, each figure
    is computed per window, and the run reports the median over all its
    windows.  On a shared host, other tenants change the speed by
    20-40% in phases of a second or more.  A slow phase that covers
    less than half the windows then moves the figures less than it
    would move a figure pooled over the run.  The SLO share is pooled:
    every sample counts once.  The sweep has no windows (one window
    holds all its invocations) and sets [throughput] itself."""

    def __init__(self, window_s):
        self.window_s = window_s
        self.windows = 1
        self.attempted = 0
        self.failed = 0
        # (done_s from the start of the run, latency_us, met_slo, heavy)
        self.samples = []
        self.setups = []
        self.elapsed = 0.0
        self.throughput = None  # set directly where windows do not apply
        self.rss_mb = 0.0
        # for the traced run: the warm pass, and request lines in send
        # order with their client latency
        self.warm = []
        self.sent = []
        # the generator's own delay before each send: from the reply (or
        # the sweep's exit) that freed it
        self.late_us = []

    def check(self, ok):
        """An output check that is not a timed sample (warm pass, reference)."""
        self.attempted += 1
        self.failed += 0 if ok else 1

    def timed(self, done_s, us, met_slo, heavy):
        self.samples.append((done_s, us, met_slo, heavy))

    def counts(self):
        """Sample counts of the run (after metrics(), which cuts windows)."""
        return {"all": len(self.samples), "heavy": sum(1 for s in self.samples if s[3]),
                "setup": len(self.setups), "windows": self.windows}

    def _windows(self):
        """The run's samples cut into windows of equal width, and the width."""
        w = max(2, round(self.elapsed / self.window_s))
        width = self.elapsed / w
        wins = [[] for _ in range(w)]
        for smp in self.samples:
            wins[min(w - 1, int(smp[0] / width))].append(smp)
        if any(len(win) < 2 for win in wins):
            raise BenchError("a window with fewer than two samples")
        self.windows = w
        return wins, width

    def metrics(self):
        if not self.samples or not self.setups:
            raise BenchError("a run without samples")
        if self.window_s:
            wins, width = self._windows()
            rate = median([len(win) / width for win in wins])
        else:
            wins, rate = [self.samples], self.throughput

        def per_window(stat, heavy_only=False):
            per = []
            for win in wins:
                xs = [smp[1] for smp in win if smp[3] or not heavy_only]
                if not xs:
                    raise BenchError("a window without heavy requests")
                per.append(stat(xs))
            return median(per)

        p50, p99 = per_window(median), per_window(tail)
        return {
            "throughput_ops_s": (rate, "ops/s"),
            "latency_p50_us": (p50, "us"),
            "latency_p99_us": (p99, "us"),
            "read_latency_p50_us": (p50, "us"),
            "read_latency_p99_us": (p99, "us"),
            "heavy_latency_p50_us": (per_window(median, heavy_only=True), "us"),
            "slo_met_share": (sum(1 for smp in self.samples if smp[2]) / len(self.samples),
                              "ratio"),
            "setup_s": (median(self.setups), "s"),
            "peak_rss_mb": (self.rss_mb, "MB"),
        }


def _us(ns):
    return ns / 1000.0


# --- serve-hot -----------------------------------------------------------

def _closed_loop(socks, lines, ref, seconds, out):
    """One thread, several connections, one request outstanding on each:
    a reply is timed as it arrives and the connection's next request
    (the next line in order, cycling) goes out at once.  Returns
    [(i, latency_ns, correct, gap_ns, done_s)], where gap is the time
    from the connection's previous reply to this send (the generator's
    own delay) and done_s the reply's arrival from the start."""
    enc = [line.encode() + b"\n" for line in lines]
    refb = [r.encode() for r in ref]
    n = len(lines)
    clock = time.perf_counter_ns
    results = []
    state = {}
    bufs = {s: b"" for s in socks}
    nxt = [0]

    def send(s, prev):
        i = nxt[0]
        nxt[0] += 1
        t = clock()
        s.sendall(enc[i % n])
        state[s] = (i, t, t - prev)

    t0 = time.perf_counter()
    t0_ns = clock()
    deadline = t0 + seconds
    for s in socks:
        send(s, clock())
    active = list(socks)
    while active:
        ready, _, _ = select.select(active, [], [])
        for s in ready:
            data = s.recv(1 << 20)
            if not data:
                raise BenchError("server closed a connection")
            bufs[s] += data
            if b"\n" not in bufs[s]:
                continue
            end = clock()
            line, bufs[s] = bufs[s].split(b"\n", 1)
            i, t, gap = state[s]
            results.append((i, end - t, line == refb[i % n], gap, (end - t0_ns) / 1e9))
            if time.perf_counter() < deadline:
                send(s, end)
            else:
                active.remove(s)
    out.elapsed = seconds
    for s in socks:
        s.close()
    results.sort()
    return results


def serve_hot(seed, seconds, wd):
    warm, lines = gen.serve_hot(seed, HOT_LINES)
    ref_warm = harness.batch(warm, os.path.join(wd, "warm.jsonl"))
    ref = harness.batch(lines, os.path.join(wd, "hot.jsonl"))
    heavy = [('"analyzer":"GN2"' in line) for line in lines]
    out = Outcome(window_s=1.0)
    sock = os.path.join(wd, "s")
    server = None
    for rep in range(SERVE_SETUP_REPS):
        if server is not None:
            server.stop()
        server = Daemon(["serve", "-j", "1"] + SERVER_EXTRA, sock, os.path.join(wd, "serve.log"))
        conn = LineConn(server.connect())
        got = conn.pipeline(warm)
        out.setups.append(time.perf_counter() - server.t_spawn)
        conn.close()
        for g, w in zip(got, ref_warm):
            out.check(g == w)
    try:
        results = _closed_loop([server.connect() for _ in range(2)], lines, ref, seconds, out)
        out.rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    for i, lat_ns, ok, gap_ns, done in results:
        us = _us(lat_ns)
        out.late_us.append(_us(gap_ns))
        out.check(ok)
        out.timed(done, us, ok and us <= HOT_SLO_US, heavy[i % len(lines)])
        out.sent.append((lines[i % len(lines)], us))
    out.warm = warm
    return out


# --- sweep-fig3b ---------------------------------------------------------

def _sweep_args(seed, jobs, extra=()):
    return [harness.REDF, "sweep", "fig3b", "--csv", "-j", str(jobs), "--samples",
            str(SWEEP_SAMPLES), "--seed", str(seed)] + list(extra)


def _judged(csv_text):
    """Tasksets judged by a sweep: the sum of its 'generated' column."""
    rows = csv_text.strip().split("\n")
    head = rows[1].split(",")
    col = head.index("generated")
    return sum(int(r.split(",")[col]) for r in rows[2:])


def sweep_invocation(seed, jobs, out_path, extra=()):
    """Run one sweep; returns (stdout, wall_s, setup_s, maxrss_mb).  The
    set-up time is spawn to the first progress bytes on stderr."""
    with open(out_path, "wb") as f:
        t0 = time.perf_counter()
        p = subprocess.Popen(_sweep_args(seed, jobs, extra), stdin=subprocess.DEVNULL,
                             stdout=f, stderr=subprocess.PIPE)
        fd = p.stderr.fileno()
        first = None
        err = b""
        while True:
            chunk = os.read(fd, 65536)
            if first is None:
                first = time.perf_counter()
            if not chunk:
                break
            err += chunk
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stderr.close()
    if p.returncode != 0:
        raise BenchError("sweep exited %d: %s" % (p.returncode, err[-2000:].decode()))
    with open(out_path) as f:
        text = f.read()
    return text, wall, first - t0, ru.ru_maxrss / 1024.0


def sweep_fig3b(seed, seconds, wd):
    """Rounds of SWEEP_ROUND invocations, one per seed derived from the run
    seed, until --seconds have passed (a started round is finished), so a
    run's figures average over several sweeps' inputs.  Each CSV is then
    checked against a -j 1 reference for its seed."""
    seeds = [seed * 1000 + j for j in range(SWEEP_ROUND)]
    out = Outcome(window_s=None)
    runs = []
    t0 = time.perf_counter()
    prev = t0
    while time.perf_counter() - t0 < seconds:
        for s in seeds:
            out.late_us.append((time.perf_counter() - prev) * 1e6)
            runs.append((s,) + sweep_invocation(s, 2, os.path.join(wd, "sweep.csv"), SERVER_EXTRA))
            prev = time.perf_counter()
    out.elapsed = time.perf_counter() - t0
    ref = {s: sweep_invocation(s, 1, os.path.join(wd, "ref.csv"))[0] for s in seeds}
    judged = {s: _judged(ref[s]) for s in seeds}
    rates = []
    for s, text, wall, setup, rss in runs:
        out.check(text == ref[s])
        out.timed(0.0, wall * 1e6, text == ref[s] and wall * 1e6 <= SWEEP_SLO_US, True)
        rates.append(judged[s] / wall)
        out.setups.append(setup)
        out.rss_mb = max(out.rss_mb, rss)
    out.throughput = median(rates)
    return out


WORKLOADS = {
    "serve-hot": serve_hot,
    "sweep-fig3b": sweep_fig3b,
}
