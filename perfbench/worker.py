"""One workload in a fresh interpreter: set-up, timed passes, checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--scratch DIR]

Run from the root of a flagcalc checkout; run.py starts it.  It imports
flagcalc from ./src, builds the seeded plan and the first pass (that is the
set-up), then runs passes until the next one would end after ``--seconds``
(always at least one) and checks every operation after its pass.  Then it
runs the workload's once-per-run operations (timed and checked, but outside
the pass metrics) and its known-defect probes (reported, not counted), and
prints one JSON line.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# Best time of calibrate() on the machine the bounds were set on (2 cores,
# Python 3.11.7).  Timings are scaled by CALIBRATION_S / (best time of the
# same loop during the run): see measure().
CALIBRATION_S = 0.0042


def calibrate(reps: int = 5) -> float:
    """Best of ``reps`` timings of a fixed pure-Python loop: the speed the
    machine gives this process right now."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        x = 0
        for i in range(60000):
            x += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def run_op(op):
    """Time one operation; an exception of any type is a failed operation."""
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # the benchmark records every failure and goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, error


def judge(op, result, error):
    """None if the operation's answer is right, else why it is not."""
    if error is not None:
        return error
    try:
        ok = op.check(result)
    except Exception as exc:  # a malformed output fails its check
        return f"check raised {type(exc).__name__}: {exc}"
    return None if ok else f"wrong answer: {str(result)[:200]}"


def measure(wl, plan, first: list, seconds: float, tracer=None, totals=None) -> dict:
    """Run passes of ``wl``; ``first`` holds the first pass's operations.

    The caller hands the first pass over in a list, so that no reference to
    its tables outlives the pass (they hold the memos that peak_rss_mb sees).
    """
    ops = first.pop()
    latencies, pass_times, failures = [], [], []  # latencies[pass][position]
    attempted = 0
    begin = time.perf_counter()
    longest = 0.0
    calibration = [calibrate()]
    while True:
        p0 = time.perf_counter()
        records = [(op, *run_op(op)) for op in ops]
        longest = max(longest, time.perf_counter() - p0)
        calibration.append(calibrate())
        if tracer is not None:
            tracer.active = False
        pass_times.append(sum(r[1] for r in records))
        latencies.append([r[1] for r in records])
        for op, dt, result, error in records:
            attempted += 1
            why = judge(op, result, error)
            if why is not None:
                failures.append(f"{op.label}: {why}")
            if totals is not None and result is not None:
                tracing.merge(totals, wl.layer_totals(result))
        del records, ops
        if time.perf_counter() - begin + longest > seconds:
            break
        if tracer is not None:
            tracer.active = True
        ops = wl.prepare(plan)
    # Every pass runs the same operations in the same order.  Each
    # operation's best time over the passes drops the bursts of contention a
    # shared machine adds; the metrics are taken over those best times.  A
    # slow phase of the machine can outlast a run, so the times are also
    # scaled to the calibration loop's speed: its best time in this run
    # against CALIBRATION_S.  The unscaled figures are reported alongside.
    best = [min(xs) for xs in zip(*latencies)]
    tail_q = max(0.5, 1.0 - 10.0 / len(best))
    raw = {
        "solve_s": sum(best),
        "op_p50_ms": quantile(best, 0.5) * 1000.0,
        "op_tail_ms": quantile(best, tail_q) * 1000.0,
    }
    scale = CALIBRATION_S / min(calibration)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "passes": len(pass_times),
        "ops_per_pass": len(best),
        "tail_q": tail_q,
        "pass_median_s": statistics.median(pass_times),
        "pass_total_s": sum(pass_times),
        "speed_scale": scale,
        "unscaled": raw,
        **{key: value * scale for key, value in raw.items()},
    }


def run_once(wl, plan) -> dict:
    """The workload's once-per-run operations, timed and checked after the passes."""
    out = {"attempted": 0, "failures": [], "once_ms": {}}
    for op in wl.once(plan):
        dt, result, error = run_op(op)
        out["attempted"] += 1
        out["once_ms"][op.label] = dt * 1000.0
        why = judge(op, result, error)
        if why is not None:
            out["failures"].append(f"{op.label}: {why}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", default=None)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import flagcalc
    if not os.path.abspath(flagcalc.__file__).startswith(src + os.sep):
        print(f"flagcalc imported from {flagcalc.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace and args.workload != "cli-cold":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl = workloads.WORKLOADS[args.workload](root=root, trace=bool(args.trace),
                                            scratch=args.scratch)
    plan = wl.plan(args.seed)
    if tracer is not None:
        tracer.active = True
    first = [wl.prepare(plan)]
    setup_s = time.perf_counter() - T_START
    digest = hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "inputs_sha256": digest}))
        return 0

    totals = {} if args.trace else None
    out = measure(wl, plan, first, args.seconds, tracer, totals)
    who = resource.RUSAGE_CHILDREN if wl.children_rss else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    out["setup_s"] = setup_s
    out["inputs_sha256"] = digest

    once = run_once(wl, plan)
    out["attempted"] += once["attempted"]
    out["failed"] += len(once["failures"])
    out["failures"] = (out["failures"] + once["failures"])[:10]
    out["once_ms"] = once["once_ms"]

    known = {}
    for op in wl.probes(plan):
        _, result, error = run_op(op)
        why = judge(op, result, error)
        known[op.label] = "ok" if why is None else why.splitlines()[0][:160]
    out["known_defects"] = known

    if args.trace:
        if tracer is not None:
            tracing.merge(totals, tracer.summary())
            out["missing_targets"] = sorted(tracer.missing)
        out["layer_totals"] = totals
        out["layers"] = tracing.layer_metrics(totals, out["passes"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
