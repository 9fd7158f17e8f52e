"""Benchmark entry point: runs one locclab workload and prints its metrics.

    python3 bench/run.py --workload tables_sweep --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The workload runs in its own
single-threaded process (``bench/worker.py``).  With ``--trace 0`` it prints
the end-to-end metrics of an untraced run; with ``--trace 1`` the per-layer
metrics of a traced run.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

# Every run must end within 180 s.
TIMEOUT_S = 170.0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def main(argv=None) -> int:
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "locclab" / "cli.py").is_file() or not spec_path.is_file():
        print("bench: run from the repository root (needs src/locclab and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    worker = [sys.executable, str(Path("bench") / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    # The worker, the reference copy and the set-up probes share one CPU, so
    # that paired timings see the same contention.  The worker leads its own
    # process group, so a timeout also stops the processes it started.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with subprocess.Popen(worker, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"bench: worker did not finish within {TIMEOUT_S} s", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        print(f"bench: worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(stdout.strip().splitlines()[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = record["metrics"]
    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        print(f"bench: metrics {sorted(set(metrics) ^ set(names))} are computed but not "
              "declared in BENCHMARK.json, or declared but not computed", file=sys.stderr)
        return 1
    correct = record["failed"] == 0
    if args.trace:
        digests = record["traced_sha256"]
        correct = correct and len(digests) == 1 and record["untraced_sha256"] == digests

    print(f"workload = {args.workload}  seed = {args.seed}  seconds = {args.seconds}  "
          f"trace = {args.trace}")
    print("environment = " + ", ".join(f"{k} {v}" for k, v in record["environment"].items()))
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")
    print(f"error_rate = {record['failed'] / record['attempted']!r} ratio "
          f"({record['failed']} of {record['attempted']} operations failed)")
    if args.trace:
        print(f"repetitions = {record['repetitions']}")
        print(f"untraced_sha256 = {' '.join(record['untraced_sha256'])}")
        print(f"traced_sha256 = {' '.join(record['traced_sha256'])}")
        print(f"counts_repeat = {record['counts_repeat']}")
        print(f"missing_boundaries = {' '.join(record['missing_boundaries']) or '-'}")
    else:
        print(f"iterations = {record['iterations']}  calls = {record['calls']}")
        for key, value in record.items():
            if key.startswith(("measured_", "reference_")):
                print(f"{key} = {value!r}")
        print(f"outputs_sha256 = {record['outputs_sha256']}")
        print(f"first_iteration_sha256 = {record['first_iteration_sha256']}")
    for err in record["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in declared}
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
