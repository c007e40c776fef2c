"""The repo benchmark: one named workload, one seed, one JSON result.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  It builds redf (and, for --trace 1,
the in-process replay) from source into .bench_build/, generates the
workload's inputs from --seed, runs it for --seconds, checks every
output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured without
tracing; with --trace 1 they are the per-layer ones from a traced
in-process replay of the same inputs (see perfbench/README.md).  A run
record (nproc, OCaml version, commit, sample counts) goes to stderr.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import workloads  # noqa: E402
from harness import BenchError  # noqa: E402


def environment():
    def out(cmd):
        try:
            return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"
    return {
        "nproc": os.cpu_count(),
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
        "commit": os.environ.get("BENCH_COMMIT") or out(["git", "rev-parse", "HEAD"]),
        "python": platform.python_version(),
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        harness.check_sources()
        # the build and the program keep their temporary files in the checkout
        tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
        targets = [harness.REDF] + ([harness.REPLAY] if args.trace else [])
        harness.build([os.path.relpath(t, harness.BUILD_DIR).split(os.sep, 1)[1]
                       for t in targets])
        wd = harness.workdir(args.workload)
        try:
            if args.trace:
                import trace
                result = trace.run(args.workload, args.seed, args.seconds, wd)
            else:
                out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, wd)
                metrics = out.metrics()
                result = {"attempted": out.attempted, "failed": out.failed, "metrics": metrics,
                          "samples": out.counts()}
        finally:
            shutil.rmtree(wd, ignore_errors=True)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    record = dict(environment(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, samples=result.get("samples"),
                  failed_share=result["failed"] / max(1, result["attempted"]))
    print("perfbench run: " + json.dumps(record, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
