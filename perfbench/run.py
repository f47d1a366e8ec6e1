"""flagcalc benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flagcalc checkout (source in ./src, golden tables in
./tests/data).  Workloads: characteristics, present, cli-cold (see
perfbench/README.md).

A run repeats one pass of the workload's operations.  --trace 0 prints the
end-to-end metrics, taken over each operation's best time in the run's
passes: solve_s (their sum, the time of one pass), op_p50_ms and op_tail_ms
(the median, and the highest percentile with at least ten operations beyond
it), plus peak_rss_mb and setup_s (median of several set-ups, each in a
fresh interpreter).  Timings are scaled to the speed of a calibration loop
timed during the run (worker.calibrate); the unscaled figures are in the
record line.  --trace 1 runs the workload once untraced and once with the
layer wrappers of tracing.py, and prints the per-layer metrics (per pass,
unscaled) and trace.overhead_frac.

Each measurement runs in a fresh single-threaded interpreter (worker.py),
one process at a time, with FLAGCALC_CACHE_DIR removed from the
environment.  The second-to-last line of output is a JSON record of the run
(interpreter, cores, commit, sample counts, failures, known defects); the
last line is the result.  Exit status is non-zero, with no result line, if
the checkout has no flagcalc source or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("characteristics", "present", "cli-cold")
SETUP_RUNS = 5
DEADLINE_S = 170.0
END_TO_END = {
    "solve_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class WorkerFailed(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("FLAGCALC_CACHE_DIR", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_worker(root: str, args, deadline: float, *, trace: int, setup_only=False,
               scratch=None) -> dict:
    """Start worker.py, wait for it, and return its JSON line."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    if scratch:
        argv += ["--scratch", scratch]
    proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{args.workload} worker passed the {DEADLINE_S:.0f}s deadline")
    finally:
        if proc.poll() is None:  # interrupted: take the whole process group down
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{args.workload} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def commit_of(root: str) -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def dominant_layers(totals: dict, timed_s: float) -> dict:
    """Each layer's self time as a share of all timed pass time, largest first."""
    shares = {}
    for key, value in totals.items():
        if key.endswith(".self_s") or key in ("cli.start_s", "cli.import_s"):
            layer = key.rsplit(".", 1)[0] if key.endswith(".self_s") else key[:-2]
            shares[layer] = value / timed_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1])[:6])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src", "flagcalc")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"no flagcalc source under {root}/src: run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_of(root),
        "source_sha256": source_digest(src),
    }
    try:
        if args.trace == 0:
            setups = [run_worker(root, args, deadline, trace=0, setup_only=True)
                      for _ in range(SETUP_RUNS)]
            res = run_worker(root, args, deadline, trace=0)
            res["unscaled"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            res["setup_s"] = res["unscaled"]["setup_s"] * res["speed_scale"]
            metrics = {name: {"value": res[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            runs = [res]
        else:
            base = run_worker(root, args, deadline, trace=0)
            scratch = os.path.join(root, f".perfbench_tmp-{os.getpid()}")
            os.makedirs(scratch, exist_ok=True)
            try:
                res = run_worker(root, args, deadline, trace=1, scratch=scratch)
            finally:
                for name in os.listdir(scratch):
                    os.remove(os.path.join(scratch, name))
                os.rmdir(scratch)
            metrics = {name: {"value": res["layers"][name], "unit": unit}
                       for name, unit in tracing.LAYER_METRICS.items()}
            metrics["trace.overhead_frac"] = {
                "value": res["solve_s"] / base["solve_s"] - 1.0, "unit": "ratio"}
            meta["untraced_solve_s"] = base["solve_s"]
            meta["traced_solve_s"] = res["solve_s"]
            meta["dominant_layers"] = dominant_layers(res["layer_totals"], res["pass_total_s"])
            meta["missing_targets"] = res.get("missing_targets", [])
            runs = [base, res]
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for key in ("passes", "ops_per_pass", "tail_q", "speed_scale", "unscaled",
                "pass_median_s", "once_ms", "inputs_sha256", "known_defects"):
        meta[key] = res[key]
    meta["failures"] = [f for r in runs for f in r["failures"]][:10]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"perfbench": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
