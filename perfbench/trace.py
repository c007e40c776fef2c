"""The traced run (--trace 1): per-layer metrics.

1. The workload runs end to end as with --trace 0 (servers with
   --metrics, for the program's own counters), recording every request
   line it sent and each one's client latency.
2. replay.exe replays those lines in-process through each layer's public
   functions, recording spans (name, start, end, parent, request id) in
   memory and writing them out at the end; a second replay without spans
   gives the tracing overhead.
3. Spans become per-layer numbers: p50 durations, self times (a span
   minus what its children cover), and queue wait (client latency minus
   in-process service time of the same request).
"""

import json
import os
import shutil
import subprocess
import time
from collections import defaultdict

import harness
import workloads
from harness import BenchError, Daemon, LineConn
from stats import median, self_time, tail

REPLAY_LINES = 5000  # serve requests replayed per run


def _spans(path):
    spans, values = [], {}
    with open(path) as f:
        for line in f:
            rec = line.rstrip("\n").split("\t")
            if rec[0] == "S":
                spans.append((rec[1], int(rec[2]), int(rec[3]), int(rec[4]), int(rec[5])))
            else:
                values[rec[1]] = float(rec[2])
    return spans, values


def _counter(path, name):
    """Last value of a counter in a --metrics JSON-lines file."""
    value = None
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("name") == name:
                value = rec["value"]
    if value is None:
        raise BenchError("counter %s not in %s" % (name, path))
    return value


def _replay(workload, seed, rd, spans):
    # the admit state the previous replay left behind
    admit = os.path.join(rd, "admit")
    for d in (admit, admit + "-journal", admit + "-commit"):
        shutil.rmtree(d, ignore_errors=True)
    # the sweep's first invocation seed (see workloads.sweep_fig3b)
    seed = seed * 1000 if workload == "sweep-fig3b" else seed
    r = subprocess.run([harness.REPLAY, "--workload", workload, "--dir", rd, "--seed", str(seed),
                        "--samples", str(workloads.SWEEP_SAMPLES if workload == "sweep-fig3b" else 2),
                        "--spans", str(spans)],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=170)
    if r.returncode != 0:
        raise BenchError("replay failed: " + r.stdout.decode()[-2000:])
    return _spans(os.path.join(rd, "spans.tsv" if spans else "plain.tsv"))


def _serve_pass(lines, wd):
    """Client latencies of [lines] sent in a closed loop to a fresh
    redf serve -j 1 (the sweep has no server of its own)."""
    server = Daemon(["serve", "-j", "1"], os.path.join(wd, "s2"), os.path.join(wd, "serve2.log"))
    try:
        conn = LineConn(server.connect())
        lat = []
        for line in lines:
            t = time.perf_counter_ns()
            conn.roundtrip(line)
            lat.append((time.perf_counter_ns() - t) / 1000.0)
        conn.close()
    finally:
        server.stop()
    return lat


def run(workload, seed, seconds, wd):
    metrics_file = os.path.abspath(os.path.join(wd, "metrics.jsonl"))
    workloads.SERVER_EXTRA[:] = ["--metrics", metrics_file]
    out = workloads.WORKLOADS[workload](seed, seconds, wd)
    lambda_evals = _counter(metrics_file, "core.gn2.lambda_evals")

    rd = os.path.join(wd, "replay")
    os.makedirs(rd)
    lines = [line for line, _ in out.sent[:REPLAY_LINES]]
    clients = [us for _, us in out.sent[:REPLAY_LINES]]
    harness.write_lines(os.path.join(rd, "warm.jsonl"), out.warm)
    harness.write_lines(os.path.join(rd, "lines.jsonl"), lines)

    spans, values = _replay(workload, seed, rd, 1)
    _, plain = _replay(workload, seed, rd, 0)
    if workload == "sweep-fig3b":
        with open(os.path.join(rd, "replayed.jsonl")) as f:
            lines = f.read().split("\n")[:-1]
        clients = _serve_pass(lines, wd)

    by_name = defaultdict(list)
    children = defaultdict(list)
    for idx, (name, s, e, parent, req) in enumerate(spans):
        by_name[name].append(idx)
        if parent >= 0:
            children[parent].append((s, e))

    def durs_us(name):
        return [(spans[i][2] - spans[i][1]) / 1000.0 for i in by_name[name]]

    def p50(name):
        d = durs_us(name)
        if not d:
            raise BenchError("replay recorded no %s spans" % name)
        return median(d)

    m = {}
    for key in ("server.framing.feed", "server.protocol.parse", "server.protocol.response",
                "server.engine.service", "cache.canonical.key", "cache.delta.key",
                "model.generator.draw", "admit.journal.append"):
        m[key + "_us"] = (p50(key), "us")
    # queue wait: what a client waited beyond the in-process service time
    service = {spans[i][4]: (spans[i][2] - spans[i][1]) / 1000.0
               for i in by_name["server.engine.service"]}
    wait = [clients[i] - service[i] for i in range(len(clients)) if i in service]
    m["server.queue_wait_us.p50"] = (median(wait), "us")
    m["server.queue_wait_us.p99"] = (tail(wait), "us")
    vspans = by_name["cache.verdicts.decide_all"]
    m["cache.verdicts.self_us"] = (median([
        (self_time((spans[i][1], spans[i][2]), children[i])) / 1000.0 for i in vspans]), "us")
    m["cache.verdicts.hit_ratio"] = (values["cache.verdicts.hit_ratio"], "ratio")
    vset = set(vspans)
    for layer in ("core.dp", "core.gn1", "core.gn2", "exact.approx"):
        m[layer + ".decide_us"] = (p50(layer + ".decide"), "us")
        # calls on the request path (children of the verdict cache)
        m[layer + ".calls"] = (sum(1 for i in by_name[layer + ".decide"] if spans[i][3] in vset),
                               "count")
    m["core.gn2.lambda_evals"] = (lambda_evals, "count")
    for key in ("rat.add_ns", "rat.mul_ns", "rat.compare_ns", "bignum.mul_ns", "bignum.gcd_ns"):
        m[key] = (values[key], "ns")
    m["rat.operand_digits_p50"] = (values["rat.operand_digits_p50"], "digits")
    m["rat.operand_digits_p99"] = (values["rat.operand_digits_p99"], "digits")
    for pol in ("edf_nf", "edf_fkf"):
        m["sim.engine.run_us." + pol] = (p50("sim.engine.run." + pol), "us")
    m["parallel.pool.busy_share"] = (values["parallel.pool.busy_share"], "ratio")
    commits = durs_us("admit.store.commit")
    m["admit.store.commit_us.p50"] = (median(commits), "us")
    m["admit.store.commit_us.p99"] = (tail(commits), "us")
    for kind in ("add-task", "remove-task", "query", "what-if"):
        m["admit.daemon.handle_us." + kind] = (p50("admit.daemon.handle." + kind), "us")
    m["admit.store.open_us_per_record"] = (values["admit.store.open_us_per_record"], "us")
    m["loadgen.late_p99_us"] = (tail(out.late_us), "us")
    def fixed_work(vals):
        return sum(v for k, v in vals.items() if k.startswith("replay.stage_us."))
    m["trace.overhead_share"] = (fixed_work(values) / fixed_work(plain) - 1.0, "ratio")
    mismatches = int(values["replay.mismatches"])
    return {
        "attempted": out.attempted + len(lines),
        "failed": out.failed + mismatches,
        "metrics": m,
        "samples": {"spans": len(spans), "replayed_lines": len(lines), "queue_wait": len(wait)},
    }
