"""One workload in one process: set up, run the closed loop, check, report.

``run.py`` starts this file as a child process with a pinned environment and
reads the JSON object it prints as its last line.  Run by hand:

    python3 bench/worker.py --workload sweep --seed 1 --seconds 5 --trace 0

The timed phase sends one op at a time and starts the next only when the
previous one has finished.  The checks of an op run right after it, outside
its timer.  Between ops, also outside their timers, the reference kernel of
``refspeed.py`` is timed; the end-to-end times are scaled by it to one
reference machine speed, and the wall times are reported beside them.  With
``--trace 1`` each op runs untraced, then again under the tracer; the two
runs must give identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

import refspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
MAX_REPORTED_FAILURES = 20


def monotonic() -> float:
    """System-wide clock, comparable with the parent's reading."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Phase:
    """Accumulates one pass over the op stream."""

    def __init__(self, keep_digests: int, scale: bool = False):
        self.keep_digests = keep_digests
        self.latencies: list[float] = []  # wall seconds per op
        self.scaler = refspeed.Scaler() if scale else None
        self.op_digests: list[bytes] = []
        self.prefix = hashlib.sha256()
        self.failures: list[dict] = []
        self.failed = 0

    def record(self, index: int, output: str):
        digest = hashlib.sha256(output.encode()).digest()
        self.op_digests.append(digest)
        if index < self.keep_digests:
            self.prefix.update(digest)

    def fail(self, label: str, messages: list[str]):
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append({"instance": label, "errors": messages})


def run_op(workload, params, op_input, phase, index, *, check=True, tracer=None):
    """Run op number ``index`` once into ``phase``."""
    t1 = time.perf_counter()
    try:
        if tracer is None:
            result, output = workload.run(op_input)
        else:
            result, output = tracer.run_op(workload.run, op_input, index < workload.min_ops)
        error = None
    except Exception as exc:  # a failed op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    t2 = time.perf_counter()
    phase.latencies.append(t2 - t1)
    if phase.scaler is not None:
        phase.scaler.add(t2 - t1)
    if error is not None:
        phase.record(index, error)
        phase.fail(workload.label(params), [error])
    else:
        phase.record(index, output)
        if check:
            errors = workload.check(params, result, output)
            if errors:
                phase.fail(workload.label(params), errors)


def run_phase(workload, seed, workdir, seconds, tracer=None):
    """Run whole rounds of the seeded op stream until ``seconds`` have passed
    and ``workload.min_ops`` ops are done.

    With a tracer each op runs twice: untraced and checked, then at once
    again under the tracer, so that both runs see the same machine speed.
    Returns the untraced phase and the traced one (None without a tracer).
    """
    plain = Phase(workload.min_ops, scale=tracer is None)
    traced = Phase(workload.min_ops) if tracer is not None else None
    rounds = workload.rounds(seed)
    started = time.perf_counter()
    index = 0
    while index < workload.min_ops or time.perf_counter() - started < seconds:
        for params in next(rounds):
            op_input = workload.prepare(params, workdir)
            run_op(workload, params, op_input, plain, index)
            if tracer is not None:
                tracer.install()
                try:
                    run_op(workload, params, op_input, traced, index, check=False, tracer=tracer)
                finally:
                    tracer.uninstall()
            index += 1
    if plain.scaler is not None:
        plain.scaler.close()
    return plain, traced


def _timings(latencies: list[float]) -> dict:
    lat = sorted(latencies)
    return {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * _percentile(lat, 0.9),
    }


def summarize(phase: Phase) -> dict:
    """Timings at reference speed, and as measured under ``wall``."""
    return {**_timings(phase.scaler.scaled), "wall": _timings(phase.latencies)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--min-ops", type=int, help="override the workload's minimum op count")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report when it ended")
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("worker: run without -O; the library's internal checks are asserts",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    workloads.load_library()
    workload = workloads.WORKLOADS[args.workload]
    if args.min_ops is not None:
        workload.min_ops = args.min_ops

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        for params in workload.warmup():
            result, output = workload.run(workload.prepare(params, workdir))
            errors = workload.check(params, result, output)
            if errors:
                raise AssertionError(f"warm-up op {workload.label(params)} failed: {errors}")
        setup_end = monotonic()
        out = {"setup_end": setup_end, "setup_factor": refspeed.factor()}
        if args.setup_only:
            print(json.dumps(out))
            return 0

        if args.trace == 0:
            phase, _ = run_phase(workload, args.seed, workdir, args.seconds)
            out.update(summarize(phase))
            attempted, failed, failures = len(phase.latencies), phase.failed, phase.failures
            digest = phase.prefix.hexdigest()
        else:
            from tracer import Tracer

            tracer = Tracer()
            phase, traced = run_phase(workload, args.seed, workdir, args.seconds, tracer)
            mismatched = sum(a != b for a, b in zip(phase.op_digests, traced.op_digests))
            attempted = len(phase.latencies)
            # An op that fails only when traced shows up as a mismatch.
            failed = phase.failed + mismatched
            failures = phase.failures + traced.failures
            if mismatched:
                failures.append({"instance": "traced pass",
                                 "errors": [f"{mismatched} ops gave other output than untraced"]})
            out["trace"] = {name: [value, unit] for name, (value, unit) in tracer.metrics().items()}
            # The tracer's clock leaves out the time spent taking counts, so
            # this is the cost of the wrappers alone.
            out["trace"]["trace_overhead_frac"] = [
                tracer.op_s / sum(phase.latencies) - 1.0, "ratio"]
            out["absent_spans"] = tracer.absent
            digest = traced.prefix.hexdigest()

    out.update({
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "result_digest": digest,
        "digest_ops": min(workload.min_ops, attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    })
    if args.trace:
        out["trace"]["peak_rss_mb"] = [out["peak_rss_mb"], "MB"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
