"""Self-tests of the benchmark; run from the repository root:

    python3 bench/selftest.py [--seed N]

For every workload it checks that

* a traced and an untraced run give identical output digests, so tracing
  changes no output;
* every metric name printed is declared in ``BENCHMARK.json``, and every
  declared metric is printed;
* counts (``.calls``, ``.bytes``, ``.files``, certificates, the satisfied
  ratio) repeat exactly across two traced runs with the same seed.

Runs are one second long, so the whole test takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

COUNT_SUFFIXES = (".calls", ".bytes", ".files", ".certificates", ".satisfied_ratio")


def bench(workload: str, seed: int, trace: int) -> tuple[dict[str, str], dict]:
    proc = subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    report = {}
    for line in lines[:-1]:
        key, sep, value = line.partition(" = ")
        if sep:
            report[key] = value
    return report, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        plain_report, plain = bench(workload, args.seed, 0)
        traced_report, first = bench(workload, args.seed, 1)
        _, second = bench(workload, args.seed, 1)
        expect(plain["correct"] and first["correct"] and second["correct"],
               f"{workload}: every output check passes")
        expect(traced_report["traced_sha256"] == traced_report["untraced_sha256"]
               == plain_report["first_iteration_sha256"],
               f"{workload}: traced and untraced outputs are byte-identical")
        expect(set(plain["metrics"]) == end_to_end,
               f"{workload}: untraced metrics are exactly the declared end-to-end metrics")
        expect(set(first["metrics"]) == per_layer,
               f"{workload}: traced metrics are exactly the declared per-layer metrics")
        counts = [n for n in per_layer if n.endswith(COUNT_SUFFIXES)]
        differing = [n for n in counts
                     if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        expect(not differing, f"{workload}: counts repeat across runs with one seed "
               f"{differing or ''}")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
