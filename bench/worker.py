"""One workload in one single-threaded process; started by ``bench/run.py``.

Untraced mode runs iterations 0, 1, 2, ... of the workload until the time is
up, each call at the same time as its twin in the frozen reference copy
(``bench/reference.py``), with ``SETUP_PROBES`` fresh-interpreter set-up
probes spread between them, and reports the end-to-end metrics at reference
speed.  Traced mode runs
iteration 0 again and again, alternating an untraced and a traced copy, and
reports the per-layer metrics derived from the spans.  Outputs of every call
are checked after the timed loop.  The last line of standard output is one
JSON object with the metrics and the run's bookkeeping.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from locclab import cli
from tracer import LAYERS, OUTPUT_LAYER, SpanRecorder, Tracing
from workloads import WORKLOADS, Call, Checker, Result, digest

WORK = Path("bench") / "_work"
SETUP_PROBES = 9
READY = "import locclab.cli; print('ready', flush=True)"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference"
# What the frozen reference copy measures on the reference machine (2-vCPU
# Xeon VM, Python 3.11.7, numpy 2.4.6) in a quiet period: median iteration
# seconds per workload, the 50th and 90th percentile call latency in ms
# where an iteration holds many calls, and the median set-up seconds.
# Untraced times are reported at that speed.
REFERENCE = {
    "tables_sweep": {"wall_s": 2.3},
    "bounds_survey": {"wall_s": 1.25},
    "state_calls": {"wall_s": 0.95, "call_p50_ms": 2.6, "call_p90_ms": 58.0},
}
REFERENCE_SETUP_S = 0.18


def run_call(call) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(call.argv)
    except Exception:  # a crash is a failed operation, not a failed benchmark
        code = -1
        err.write(traceback.format_exc())
    return Result(call, code, out.getvalue(), err.getvalue(), time.process_time() - start)


def run_calls(calls) -> tuple[float, list[Result]]:
    start = time.perf_counter()
    results = [run_call(c) for c in calls]
    return time.perf_counter() - start, results


def run_untimed(argv) -> None:
    run_call(Call("input", argv, Path()))


def run_paired(calls, twins, reference) -> tuple[list[Result], list[float]]:
    """Each call at the same time as its twin in the reference copy, on the
    same CPU; returns the results and the twins' CPU seconds."""
    results: list[Result] = []
    twin_s: list[float] = []
    for call, twin in zip(calls, twins):
        reference.start(twin.argv)
        results.append(run_call(call))
        twin_s.append(reference.finish())
    return results, twin_s


def setup_probe(env: dict[str, str]) -> float:
    """Seconds from starting an interpreter until ``locclab.cli`` is imported
    from the ``PYTHONPATH`` of ``env``."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], env=env,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"importing locclab.cli failed (exit {proc.returncode})")
    return elapsed


def setup_pair(flip: int) -> tuple[float, float]:
    """(program, reference) set-up seconds, probed back to back."""
    program_env = dict(os.environ)
    reference_env = dict(os.environ, PYTHONPATH=str(REFERENCE_PATH))
    if flip % 2:
        reference = setup_probe(reference_env)
        return setup_probe(program_env), reference
    program = setup_probe(program_env)
    return program, setup_probe(reference_env)


class Reference:
    """The frozen reference copy of locclab, timed in its own process so that
    the program's peak memory stays its own (``bench/reference.py``)."""

    def __enter__(self) -> "Reference":
        server = Path(__file__).resolve().parent / "reference.py"
        self.proc = subprocess.Popen([sys.executable, str(server)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=dict(os.environ, PYTHONPATH=str(REFERENCE_PATH)))
        return self

    def start(self, argv) -> None:
        """Starts one command line in the reference copy."""
        self.argv = argv
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()

    def finish(self) -> float:
        """Waits for the command line started last; returns its CPU seconds."""
        reply = json.loads(self.proc.stdout.readline())
        if reply["code"]:
            raise RuntimeError(f"reference copy failed on {self.argv[:2]}: exit {reply['code']}")
        return reply["cpu_seconds"]

    def run(self, argv) -> float:
        self.start(argv)
        return self.finish()

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def check_all(results: list[Result]) -> tuple[int, list[str], dict]:
    checker = Checker()
    failed = 0
    errors: list[str] = []
    for r in results:
        problems = checker.check(r)
        if problems:
            failed += 1
            errors += [f"{' '.join(r.call.argv[:2])}: {p}" for p in problems[:3]]
    return failed, errors, checker.counts


def combined_digest(results: list[Result]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(digest(r).encode())
    return h.hexdigest()


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def environment() -> dict:
    nproc = os.cpu_count() or 1
    blas = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": min(blas, nproc),
    }


def untraced(workload, seconds: float, work: Path) -> dict:
    start = time.perf_counter()
    probe_every = seconds / SETUP_PROBES
    measured: list[float] = []
    reference_walls: list[float] = []
    walls: list[float] = []
    rates: list[float] = []
    calls: list[float] = []
    twin_calls: list[float] = []
    reference = REFERENCE[workload.name]
    setups: list[tuple[float, float]] = []
    results: list[Result] = []
    first: list[Result] = []
    iteration = 0
    last = 0.0
    with Reference() as frozen:
        # Untimed, so that neither side's first timed call runs cold.
        run_paired(workload.warmup(work / "wi"), workload.warmup(work / "wr"), frozen)
        # Stop when one more iteration like the last would overrun the time.
        while iteration == 0 or time.perf_counter() - start + last < seconds:
            began = time.perf_counter()
            batch, twin_s = run_paired(
                workload.calls(iteration, work / f"i{iteration}", run_untimed),
                workload.calls(iteration, work / f"r{iteration}", frozen.run),
                frozen,
            )
            wall = sum(r.cpu_seconds for r in batch)
            reference_wall = sum(twin_s)
            scaled = wall * reference["wall_s"] / reference_wall
            measured.append(wall)
            reference_walls.append(reference_wall)
            walls.append(scaled)
            rates.append(sum(workload.items(r) for r in batch) / scaled)
            calls += [r.cpu_seconds for r in batch]
            twin_calls += twin_s
            results += batch
            first = first or batch
            iteration += 1
            while len(setups) < min(SETUP_PROBES, (time.perf_counter() - start) / probe_every):
                setups.append(setup_pair(len(setups)))
            last = time.perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_PROBES:
        setups.append(setup_pair(len(setups)))
    failed, errors, _ = check_all(results)
    if workload.single_call:  # a call is an iteration, scaled by its own twin
        p50, p90 = (1000.0 * nearest_rank(walls, pct) for pct in (50, 90))
    else:  # a percentile is scaled by the same percentile of the twins, so
        # that it is compared with calls of its own kind
        p50, p90 = (reference[f"call_p{pct}_ms"] * nearest_rank(calls, pct)
                    / nearest_rank(twin_calls, pct) for pct in (50, 90))
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(rates),
            "call_p50_ms": p50,
            "call_p90_ms": p90,
            "setup_s": statistics.median(p * REFERENCE_SETUP_S / r for p, r in setups),
            "peak_rss_mb": peak_rss_mb,
        },
        "measured_wall_s": statistics.median(measured),
        "reference_wall_s": statistics.median(reference_walls),
        "measured_call_p50_ms": 1000.0 * nearest_rank(calls, 50),
        "reference_call_p50_ms": 1000.0 * nearest_rank(twin_calls, 50),
        "measured_call_p90_ms": 1000.0 * nearest_rank(calls, 90),
        "reference_call_p90_ms": 1000.0 * nearest_rank(twin_calls, 90),
        "measured_setup_s": statistics.median(p for p, _ in setups),
        "reference_setup_s": statistics.median(r for _, r in setups),
        "iterations": iteration,
        "calls": len(calls),
        "attempted": len(results),
        "failed": failed,
        "errors": errors[:20],
        "outputs_sha256": combined_digest(results),
        "first_iteration_sha256": combined_digest(first),
    }


def traced(workload, seconds: float, work: Path) -> dict:
    start = time.perf_counter()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    layer_reps: list[dict[str, tuple[int, float]]] = []
    results: list[Result] = []
    plain_digests: set[str] = set()
    traced_digests: set[str] = set()
    first_traced: list[Result] = []
    rep = 0
    last = 0.0
    while rep == 0 or time.perf_counter() - start + last < seconds:
        began = time.perf_counter()
        for with_trace in ((False, True) if rep % 2 == 0 else (True, False)):
            calls = workload.calls(0, work / f"{'t' if with_trace else 'u'}{rep}", run_untimed)
            if not with_trace:
                wall, batch = run_calls(calls)
                plain_walls.append(wall)
                plain_digests.add(combined_digest(batch))
                results += batch
                continue
            recorder = SpanRecorder()
            with Tracing(recorder) as tracing:
                wall, batch = run_calls(calls)
            traced_walls.append(wall)
            layer_reps.append(recorder.layer_totals())
            traced_digests.add(combined_digest(batch))
            if first_traced:
                results += batch
            else:  # counts come from the first traced repetition
                first_traced, counters, missing = batch, recorder.counters, tracing.missing
        rep += 1
        last = time.perf_counter() - began
    recorder.save(work.parent / f"spans-{workload.name}.npz")
    failed, errors, counts = check_all(first_traced)
    more_failed, more_errors, _ = check_all(results)

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        if layer != OUTPUT_LAYER:  # its spans nest file writes in batches
            metrics[f"{layer}.calls"] = layer_reps[0].get(layer, (0, 0.0))[0]
        metrics[f"{layer}.self_s"] = statistics.median(
            totals.get(layer, (0, 0.0))[1] for totals in layer_reps
        )
    for key in ("statefile.parse.bytes", "cli.output.files", "cli.output.bytes"):
        metrics[key] = counters.get(key, 0)
    attempted = counts["attempted_samples"]
    metrics["scenarios.satisfied_ratio"] = counts["satisfied"] / attempted if attempted else 0.0
    metrics["scenarios.certificates"] = counts["table_certificates"]
    metrics["bounds.certificates"] = counts["bound_certificates"]
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(
        plain_walls
    )
    call_counts = [{k: v[0] for k, v in totals.items()} for totals in layer_reps]
    return {
        "metrics": metrics,
        "repetitions": rep,
        "missing_boundaries": missing,
        "counts_repeat": all(c == call_counts[0] for c in call_counts),
        "untraced_sha256": sorted(plain_digests),
        "traced_sha256": sorted(traced_digests),
        "attempted": len(results) + len(first_traced),
        "failed": failed + more_failed,
        "errors": (errors + more_errors)[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        measure = traced if args.trace else untraced
        record = measure(workload, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
