"""Collect sets of benchmark runs and compare two sets.

    python3 perfbench/compare.py collect --out A.jsonl [--workloads W,..] [--seeds 1-10]
    python3 perfbench/compare.py compare A.jsonl B.jsonl

collect runs perfbench/run.py once per (workload, seed) from the current
directory (a checkout), for BENCHMARK.json's run_seconds and without
tracing, and appends {"workload", "seed", "result"} lines.
compare prints, per (workload, metric), each set's median and quartiles,
the spread (interquartile distance over the median) and a verdict:

  better      B's median beats A's by more than A's own spread, and B
              wins at least 9 in 10 of the seed-paired runs
  worse       B's median is worse than A's by more than the bound
  unresolved  a set's spread exceeds the bound (unless every B run beats
              every A run)
  same        none of the above

It also shows the acceptance criterion "B's median is not worse than A's
by more than the bound" (ok / FAIL), and exits 1 when any metric fails
it.  Bounds and directions come from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import quartiles, spread  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    return spec, metrics


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def collect(args):
    spec, _ = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for w in names:
            for seed in parse_seeds(args.seeds):
                r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                    "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                    "--trace", "0"],
                                   stdout=subprocess.PIPE, text=True)
                if r.returncode != 0:
                    print("%s seed %d: exit %d" % (w, seed, r.returncode), file=sys.stderr)
                    continue
                result = json.loads(r.stdout.strip().split("\n")[-1])
                out.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
                out.flush()
                print("%s seed %d: %s" % (w, seed, "correct" if result["correct"] else "INCORRECT"),
                      file=sys.stderr)
    return 0


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def verdict(a, b, better_higher, bound):
    """(verdict, accepted) for metric values a (base set) and b."""
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    sign = 1.0 if better_higher else -1.0
    gain = sign * (mb - ma) / ma if ma else 0.0
    accepted = gain >= -bound
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if max(spread(a), spread(b)) > bound and not all_better:
        v = "unresolved"
    elif gain * ma > (qa[2] - qa[0]) and wins >= 0.9 * len(pairs) and gain > 0:
        v = "better"
    elif gain < -bound:
        v = "worse"
    else:
        v = "same"
    return v, accepted


def compare(args):
    _, metrics = load_spec()
    sa, sb = load_set(args.a), load_set(args.b)
    failed = False
    fmt = "%-12s %-34s %12s %12s %12s %7s | %12s %12s %12s %7s | %-10s %s"
    print(fmt % ("workload", "metric", "A q1", "A median", "A q3", "A sprd", "B q1", "B median",
                 "B q3", "B sprd", "verdict", "accept"))
    for w in sorted(set(sa) & set(sb)):
        ra = sorted(sa[w], key=lambda r: r["seed"])
        rb = sorted(sb[w], key=lambda r: r["seed"])
        names = sorted(set(metrics) & set(ra[0]["result"]["metrics"]) & set(rb[0]["result"]["metrics"]))
        for name in names:
            a = [r["result"]["metrics"][name]["value"] for r in ra]
            b = [r["result"]["metrics"][name]["value"] for r in rb]
            bound = metrics[name]["bound"]
            v, ok = verdict(a, b, metrics[name]["better"] == "higher", bound)
            failed |= not ok
            qa, qb = quartiles(a), quartiles(b)
            print(fmt % (w, name, "%.4g" % qa[0], "%.4g" % qa[1], "%.4g" % qa[2],
                         "%.3f" % spread(a), "%.4g" % qb[0], "%.4g" % qb[1], "%.4g" % qb[2],
                         "%.3f" % spread(b), v, "ok" if ok else "FAIL"))
        bad = sum(1 for r in ra + rb if not r["result"]["correct"])
        if bad:
            failed = True
            print("%s: %d incorrect runs" % (w, bad))
    return 1 if failed else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    k = sub.add_parser("compare")
    k.add_argument("a")
    k.add_argument("b")
    args = ap.parse_args(argv)
    return collect(args) if args.cmd == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
