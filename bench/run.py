"""k0lab benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1                       # all four workloads

Each workload runs in a child process (``worker.py``) with
``K0LAB_CROSSCHECK_LIMIT`` removed, so ``auto`` keeps its default, and
without ``-O``, because the library's own checks are asserts.  With
``--trace 0`` the last line of stdout is one JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
The lines before it name every metric with its unit and record the
environment.  The exit code is 0 only if every op passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOAD_NAMES = ("sweep", "cyclic_large", "general", "dense_snf")
SETUP_RUNS = 9  # set-up is timed this many times per run; the median is reported


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("K0LAB_CROSSCHECK_LIMIT", "PYTHONOPTIMIZE", "PYTHONPATH"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], seconds: float) -> tuple[dict, float]:
    """Run worker.py; returns its last stdout line as JSON and its start time."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, WORKER, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=2 * seconds + 120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), start


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, trace: int,
            min_ops: int | None = None) -> dict:
    """Run one workload; returns metrics {name: (value, unit)} plus the run record."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if min_ops is not None:
        args += ["--min-ops", str(min_ops)]
    probe_args = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-only"]
    setups = []

    def setup_time(child: dict, start: float) -> float:
        """Process start to first timed op, at reference speed."""
        return (child["setup_end"] - start) * child["setup_factor"]

    def probe_setups(count: int):
        for _ in range(count):
            setups.append(setup_time(*run_child(probe_args, 0)))

    # Set-up is timed before and after the measured child as well as in it,
    # so that its median spans the run rather than one moment of it.
    if not trace:
        probe_setups(SETUP_RUNS // 2)
    result, start = run_child(args, seconds)
    setups.append(setup_time(result, start))
    if not trace:
        probe_setups(SETUP_RUNS - len(setups))
    record = {k: result[k] for k in ("attempted", "failed", "failures", "result_digest",
                                     "digest_ops", "python", "nproc")}
    record.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  commit=git_commit())
    if trace:
        metrics = {name: (value, unit) for name, (value, unit) in result["trace"].items()}
        record["absent_spans"] = result["absent_spans"]
    else:
        record["setup_runs_s"] = setups
        record["wall"] = result["wall"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_ops_s": (result["throughput_ops_s"], "ops/s"),
            "latency_p50_ms": (result["latency_p50_ms"], "ms"),
            "latency_p90_ms": (result["latency_p90_ms"], "ms"),
        }
    # Printed with the metrics but not in the JSON result line: failed_frac
    # is 0 on a correct run, and peak RSS is set by the single largest
    # transform of a run, so it spreads too widely across seeds to gate on.
    record["failed_frac"] = result["failed"] / result["attempted"]
    record["peak_rss_mb"] = result["peak_rss_mb"]
    return {"metrics": metrics, "record": record}


def print_report(run: dict) -> None:
    rec = run["record"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"ops {rec['attempted']}  failed {rec['failed']}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, value in rec.get("wall", {}).items():
        print(f"  {'wall ' + name:40s} {value:14.6g}")
    print(f"  {'failed_frac':40s} {rec['failed_frac']:14.6g} ratio")
    if "peak_rss_mb" not in run["metrics"]:
        print(f"  {'peak_rss_mb':40s} {rec['peak_rss_mb']:14.6g} MB")
    print(f"  result_digest {rec['result_digest']} (first {rec['digest_ops']} ops)")
    for failure in rec["failures"]:
        print(f"  FAILED {failure['instance']}: {'; '.join(failure['errors'])}")
    print("record " + json.dumps(rec, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "k0lab")):
        print(f"bench: no k0lab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for name in names:
            runs.append(measure(name, args.seed, args.seconds, args.trace))
            print_report(runs[-1])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["record"]["attempted"] for r in runs)
    failed = sum(r["record"]["failed"] for r in runs)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['record']['workload']}.{name}": value
                   for r in runs for name, value in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
