"""Seeded input generation for every workload.

Everything the program under test receives is built here from the
workload seed alone, with Python's own Mersenne Twister, so the same seed
gives byte-identical inputs on every machine and a different seed gives
different inputs.  Times are decimal strings with at most three
fractional digits (the program's tick resolution); areas are integer
columns.
"""

import json
import random

FPGA_AREA = 100


def _dec(ticks):
    """Ticks (1/1000 time unit) as the protocol's exact decimal string."""
    whole, frac = divmod(ticks, 1000)
    return str(whole) if frac == 0 else "%d.%03d" % (whole, frac)


def task(rng, name, util_lo, util_hi, area_hi, constrained=False):
    """One task: an integer period in [5, 20], an execution time that is a
    utilization fraction of it on a 0.01-unit grid, and an integer area in
    [1, area_hi].  The coarse grids bound the digits of the exact
    rationals the analyzers compute, so the cost of a request depends on
    its size (N, analyzer), not on an unlucky least common multiple."""
    period = rng.randint(5, 20) * 1000
    exec_ = max(10, round(period * rng.uniform(util_lo, util_hi) / 10) * 10)
    deadline = rng.randrange(exec_, period + 1, 10) if constrained else period
    return {"name": name, "C": _dec(exec_), "D": _dec(deadline), "T": _dec(period),
            "A": rng.randint(1, area_hi)}


def taskset(rng, n, util_lo, util_hi, area_hi, constrained=False):
    return [task(rng, "t%d" % i, util_lo, util_hi, area_hi, constrained) for i in range(n)]


def request_line(analyzer, tasks, rid, fpga_area=FPGA_AREA):
    return json.dumps({"analyzer": analyzer, "fpga_area": fpga_area, "tasks": tasks, "id": rid},
                      separators=(",", ":"), sort_keys=True)


def disguise(rng, tasks):
    """The same taskset as another client would spell it: tasks permuted
    and renamed.  The canonical cache key is unchanged."""
    out = [dict(t, name="x%x" % rng.getrandbits(24)) for t in tasks]
    rng.shuffle(out)
    return out


def zipf_weights(n, s=1.1):
    return [1.0 / (k + 1) ** s for k in range(n)]


# --- serve-hot ---------------------------------------------------------

HOT_TASKSETS = 300
HOT_ANALYZERS = ["DP", "GN1", "GN2", "approx[0.1]"]
HOT_ZIPF = 1.1


def hot_shape(rank):
    """(N, analyzer, constrained) of the working-set entry at popularity
    [rank]: a fixed function of the rank, so the head of the Zipf draw,
    which carries most requests, has the same shape under every seed."""
    return 4 + (rank * 4) % 9, HOT_ANALYZERS[rank % 4], rank % 3 == 1


def serve_hot(seed, count):
    """A working set of HOT_TASKSETS small tasksets (N 4-12), each bound to
    one analyzer, and [count] requests drawn from it by a Zipf draw over
    popularity ranks, each disguised.  Returns (warm lines, measured
    lines)."""
    rng = random.Random("serve-hot/%d" % seed)
    sets = []
    for rank in range(HOT_TASKSETS):
        n, analyzer, constrained = hot_shape(rank)
        sets.append((analyzer, taskset(rng, n, 0.02, 0.3, 60, constrained=constrained)))
    warm = [request_line(a, ts, "w%d" % k) for k, (a, ts) in enumerate(sets)]
    picks = rng.choices(range(HOT_TASKSETS), weights=zipf_weights(HOT_TASKSETS, HOT_ZIPF), k=count)
    lines = [request_line(sets[k][0], disguise(rng, sets[k][1]), i) for i, k in enumerate(picks)]
    return warm, lines
