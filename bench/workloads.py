"""The benchmark's workloads: generated inputs, CLI calls and output checks.

A workload turns (seed, iteration) into a list of ``locclab`` command lines
plus the input files they read.  The same seed always gives the same calls
and the same input bytes.  Every call's output is checked after the timed
region by properties that hold whatever random-number scheme the program
uses: CSV invariants, exact certificate replay, and Schmidt vectors and
verdicts against references computed here with ``numpy.linalg.svd``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from locclab.bounds import replay_certificate
from locclab.scenarios import load_default_rows, replay_table_certificate

# Sizes: one sweep iteration is one large call with long rows, so per-sample
# cost dominates and a batched kernel shows its full effect.  At these sizes
# a call takes about 1 s on the reference machine.
TABLE_SAMPLES = 500
SURVEY_SAMPLES = 2500
WARMUP_SAMPLES = 4
CATALOG_ROWS = 38
THEOREMS = 10
SMALL_SAMPLES = 16
REPLAYS = 10
CERT_POOL_SAMPLES = 64

# One state_calls sequence of 45 calls.  The mix is fixed so that every seed
# does the same kind of work, and each percentile falls inside a group of
# calls of like cost, not on the gap between two groups: the median among
# the sixteen 4x4 state-file calls (ranks 11-26; per-call fixed cost), the
# 90th percentile among the five 24x24 classify calls (the SVD).
CLASSIFY_DIMS = (4, 4, 4, 4, 4, 4, 12, 16, 24, 24, 24, 24, 24, 32, 48)
MEASURE_DIMS = (4, 4, 4, 4, 4, 12, 16)
SUPERPOSE_DIMS = (4, 4, 4, 4, 4, 12, 16)
SMALL_BOUNDS = (False, False, True, True)  # --orthogonal-only per call
SMALL_TABLES = 2

SCHMIDT_TOL = 1e-10
VALUE_TOL = 1e-9
GAP_TOL = 1e-9
TABLE_CERT_FIELDS = (
    "observed_verdict",
    "order",
    "c2_gamma",
    "c2_gamma_prime",
    "overlap_gamma",
    "overlap_gamma_prime",
)


@dataclass
class Call:
    """One CLI invocation with what its checks need to know."""

    kind: str
    argv: list[str]
    root: Path
    ref: dict = field(default_factory=dict)


@dataclass
class Result:
    call: Call
    code: int
    stdout: str
    stderr: str
    cpu_seconds: float


# ---------------------------------------------------------------------------
# Input generation


def _seeds(workload: str, seed: int, iteration: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{iteration}")


def _sorted_simplex(gen: np.random.Generator, d: int) -> np.ndarray:
    p = gen.dirichlet(np.ones(d))
    return np.sort(p)[::-1]


def _orthogonal(gen: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(gen.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _matrix_with_spectrum(gen: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Coefficient matrix whose squared singular values are ``probs``."""
    d = len(probs)
    m = _orthogonal(gen, d) @ np.diag(np.sqrt(probs)) @ _orthogonal(gen, d).T
    return m / np.linalg.norm(m)


def _random_matrix(gen: np.random.Generator, d: int) -> np.ndarray:
    m = gen.standard_normal((d, d))
    return m / np.linalg.norm(m)


def _write_state(path: Path, matrix: np.ndarray) -> list[list[float]]:
    rows = matrix.tolist()
    path.write_text(json.dumps({"version": 1, "form": "matrix", "amplitudes": rows}))
    return rows


def reference_schmidt(rows) -> np.ndarray:
    s = np.linalg.svd(np.asarray(rows, dtype=float), compute_uv=False)
    p = np.sort(s * s)[::-1]
    return p / p.sum()


def reference_verdict(a: np.ndarray, b: np.ndarray) -> str | None:
    """Prefix-sum verdict for classify(a, b), or None when a gap is too small."""
    d = max(len(a), len(b))
    pa = np.cumsum(np.pad(a, (0, d - len(a))))[:-1]
    pb = np.cumsum(np.pad(b, (0, d - len(b))))[:-1]
    gaps = pa - pb
    if len(gaps) and np.min(np.abs(gaps)) <= GAP_TOL:
        return None
    a_to_b = bool(np.all(gaps < 0))
    b_to_a = bool(np.all(gaps > 0))
    if a_to_b and b_to_a:
        return "Equivalent"
    if a_to_b:
        return "ConvertibleAtoB"
    if b_to_a:
        return "ConvertibleBtoA"
    return "Incomparable"


def reference_measures(p: np.ndarray) -> dict[str, float]:
    q = p[p > 0]
    root_sum = float(np.sum(np.sqrt(p)))
    return {
        "e": float(-np.sum(q * np.log2(q))),
        "c2": float(2.0 * (1.0 - np.sum(p * p))),
        "n": (root_sum * root_sum - 1.0) / 2.0,
        "ln": math.log2(root_sum * root_sum),
        "renyi": float(-math.log(np.sum(q * q))),
    }


def _tables_call(root: Path, samples: int, seed: int) -> Call:
    root.mkdir(parents=True, exist_ok=True)  # the CLI creates --certs, not --out's directory
    argv = ["tables", "--case", "all", "--samples", str(samples), "--seed", str(seed),
            "--out", str(root / "report.csv"), "--certs", str(root / "certs")]
    return Call("tables", argv, root, {"samples": samples})


def _bounds_call(root: Path, samples: int, seed: int, orthogonal: bool = False) -> Call:
    argv = ["bounds", "--random", str(samples), "--seed", str(seed)]
    if orthogonal:
        argv.append("--orthogonal-only")
    argv += ["--certs", str(root / "certs")]
    return Call("bounds", argv, root, {"samples": samples})


class Workload:
    name = ""
    single_call = False  # True when every iteration is one call

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def calls(self, iteration: int, root: Path, run) -> list[Call]:
        """The iteration's calls, with inputs written under ``root``.

        ``run(argv)`` runs a command line untimed; inputs that only the CLI
        can make (certificates) are made with it.
        """
        raise NotImplementedError

    def warmup(self, root: Path) -> list[Call]:
        """Small calls run untimed before the first iteration."""
        return []

    def items(self, result: Result) -> int:
        return 1


class TablesSweep(Workload):
    name = "tables_sweep"
    single_call = True

    def calls(self, iteration, root, run):
        seed = _seeds(self.name, self.seed, iteration).getrandbits(32)
        return [_tables_call(root / "c0", TABLE_SAMPLES, seed)]

    def warmup(self, root):
        return [_tables_call(root, WARMUP_SAMPLES, 0)]

    def items(self, result):
        return CATALOG_ROWS * result.call.ref["samples"]


class BoundsSurvey(Workload):
    name = "bounds_survey"
    single_call = True

    def calls(self, iteration, root, run):
        seed = _seeds(self.name, self.seed, iteration).getrandbits(32)
        return [_bounds_call(root / "c0", SURVEY_SAMPLES, seed)]

    def warmup(self, root):
        return [_bounds_call(root, WARMUP_SAMPLES, 0)]

    def items(self, result):
        return result.call.ref["samples"]


class StateCalls(Workload):
    name = "state_calls"

    def calls(self, iteration, root, run):
        rng = _seeds(self.name, self.seed, iteration)
        gen = np.random.default_rng(rng.getrandbits(64))
        root.mkdir(parents=True, exist_ok=True)
        calls: list[Call] = []

        def state_path(tag: str) -> Path:
            return root / f"{tag}.json"

        for j, d in enumerate(CLASSIFY_DIMS):
            pa = _sorted_simplex(gen, d)
            if rng.random() < 0.5:
                mix = rng.uniform(0.2, 0.8)
                pb = mix * pa + (1.0 - mix) / d  # majorized by pa: comparable
            else:
                pb = _sorted_simplex(gen, d)
            if rng.random() < 0.5:
                pa, pb = pb, pa
            a = _write_state(state_path(f"cls{j}a"), _matrix_with_spectrum(gen, pa))
            b = _write_state(state_path(f"cls{j}b"), _matrix_with_spectrum(gen, pb))
            sa, sb = reference_schmidt(a), reference_schmidt(b)
            calls.append(Call(
                "classify",
                ["classify", str(state_path(f"cls{j}a")), str(state_path(f"cls{j}b"))],
                root,
                {"schmidt_a": sa, "schmidt_b": sb, "verdict": reference_verdict(sa, sb)},
            ))
        for j, d in enumerate(MEASURE_DIMS):
            rows = _write_state(state_path(f"msr{j}"), _random_matrix(gen, d))
            calls.append(Call("measure", ["measure", str(state_path(f"msr{j}"))], root,
                              {"schmidt": reference_schmidt(rows)}))
        for j, d in enumerate(SUPERPOSE_DIMS):
            psi = _write_state(state_path(f"sup{j}a"), _random_matrix(gen, d))
            phi = _write_state(state_path(f"sup{j}b"), _random_matrix(gen, d))
            alpha = rng.uniform(0.3, 0.95)
            beta = math.sqrt(1.0 - alpha * alpha)
            ov = float(np.sum(np.asarray(psi) * np.asarray(phi)))
            k = alpha * alpha + beta * beta + 2.0 * alpha * beta * ov
            combined = (alpha * np.asarray(psi) + beta * np.asarray(phi)) / math.sqrt(k)
            calls.append(Call(
                "superpose",
                ["superpose", str(state_path(f"sup{j}a")), str(state_path(f"sup{j}b")),
                 "--alpha", repr(alpha), "--beta", repr(beta)],
                root,
                {"overlap": ov, "norm_factor": k, "schmidt": reference_schmidt(combined)},
            ))
        for cert_path in self._certificate_pool(rng, root, run):
            cert = json.loads(cert_path.read_text())
            calls.append(Call(
                "replay",
                ["bounds", "--instance", str(cert_path), "--theorems", cert["snapshot"]["theorem"]],
                root,
                {"margins": cert["margins"]},
            ))
        for j in range(SMALL_TABLES):
            calls.append(_tables_call(root / f"tab{j}", SMALL_SAMPLES, rng.getrandbits(32)))
        for j, orthogonal in enumerate(SMALL_BOUNDS):
            calls.append(_bounds_call(root / f"bnd{j}", SMALL_SAMPLES, rng.getrandbits(32),
                                      orthogonal))
        rng.shuffle(calls)
        return calls

    def _certificate_pool(self, rng: random.Random, root: Path, run) -> list[Path]:
        """Certificates to replay, emitted by an untimed survey of CERT_POOL_SAMPLES.

        The picks are drawn before the survey runs, so the rest of the
        sequence does not depend on how many certificates it writes.
        """
        pool = root / "pool"
        seed = rng.getrandbits(32)
        picks = [rng.random() for _ in range(REPLAYS)]
        run(["bounds", "--random", str(CERT_POOL_SAMPLES), "--seed", str(seed),
             "--certs", str(pool)])
        files = sorted(pool.glob("*.json"))
        if not files:
            raise RuntimeError("the certificate pool survey wrote no certificates")
        return [files[int(u * len(files))] for u in picks]


WORKLOADS = {w.name: w for w in (TablesSweep, BoundsSurvey, StateCalls)}


# ---------------------------------------------------------------------------
# Output parsing and checks


def parse_blocks(text: str) -> list[dict[str, str]]:
    """``key = value`` reports, one dict per blank-line separated block."""
    blocks: list[dict[str, str]] = [{}]
    for line in text.splitlines():
        if not line.strip():
            if blocks[-1]:
                blocks.append({})
            continue
        key, sep, value = line.partition(" = ")
        if sep:
            blocks[-1][key] = value
    return [b for b in blocks if b]


def _floats(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split()])


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _close(name: str, got: np.ndarray, want: np.ndarray, tol: float, errors: list[str]) -> None:
    if got.shape != want.shape:
        errors.append(f"{name}: length {got.shape} != reference {want.shape}")
    elif not np.all(np.abs(got - want) <= tol):
        errors.append(f"{name}: max deviation {np.max(np.abs(got - want)):.3e} > {tol:.0e}")


class Checker:
    """Checks outputs and counts what they contain (rows satisfied, certificates)."""

    def __init__(self) -> None:
        self.rows = load_default_rows()
        self.counts = {"attempted_samples": 0, "satisfied": 0,
                       "table_certificates": 0, "bound_certificates": 0}

    def check(self, result: Result) -> list[str]:
        if result.code != 0:
            return [f"exit code {result.code}: {result.stderr.strip()[-300:]}"]
        errors: list[str] = []
        try:
            getattr(self, f"_check_{result.call.kind}")(result, errors)
        except Exception as exc:  # e.g. a replay that raises: a failed operation
            errors.append(f"unreadable output or failed replay: {exc!r}")
        return errors

    def _check_tables(self, result: Result, errors: list[str]) -> None:
        call = result.call
        samples = call.ref["samples"]
        out = parse_blocks(result.stdout)[0]
        table = list(csv.DictReader(io.StringIO((call.root / "report.csv").read_text())))
        if len(table) != CATALOG_ROWS or int(out["rows"]) != CATALOG_ROWS:
            errors.append(f"expected {CATALOG_ROWS} rows, got {len(table)}")
        csv_ids: list[str] = []
        for r in table:
            where = f"row {r['table']}.{r['row']}"
            n, sat = int(r["samples"]), int(r["satisfied"])
            agree, disagree = int(r["verdict_agree"]), int(r["verdict_disagree"])
            checked = int(r["order_checked"])
            order_sum = int(r["order_agree"]) + int(r["order_disagree"]) + int(r["order_tie"])
            if n != samples or sat > n:
                errors.append(f"{where}: samples {n}, satisfied {sat}")
            if r["predicted_pair"] and agree + disagree != sat:
                errors.append(f"{where}: agree + disagree != satisfied")
            if r["predicted_order"] and order_sum != checked:
                errors.append(f"{where}: order agree + disagree + tie != order_checked")
            self.counts["attempted_samples"] += n
            self.counts["satisfied"] += sat
            csv_ids += [i for i in r["certificate_ids"].split(";") if i]
        files = sorted((call.root / "certs").glob("*.json")) if csv_ids else []
        if sorted(csv_ids) != [f.stem for f in files]:
            errors.append("certificate ids in the CSV differ from the files written")
        if int(out["certificates_written"]) != len(files):
            errors.append("certificates_written differs from the files written")
        self.counts["table_certificates"] += len(files)
        for f in files:
            cert = json.loads(f.read_text())
            replay = replay_table_certificate(cert, self.rows)
            if not replay["row_conditions_pass"] or any(
                replay[k] != cert[k] for k in TABLE_CERT_FIELDS
            ):
                errors.append(f"certificate {f.stem} does not replay exactly")

    def _check_bounds(self, result: Result, errors: list[str]) -> None:
        call = result.call
        blocks = parse_blocks(result.stdout)
        if len(blocks) != THEOREMS:
            errors.append(f"expected {THEOREMS} theorem blocks, got {len(blocks)}")
        expected_certs = 0
        for b in blocks:
            if int(b["n"]) != call.ref["samples"]:
                errors.append(f"{b['theorem']}: n = {b['n']}, expected {call.ref['samples']}")
            expected_certs += int(b["certificates"])
        files = sorted((call.root / "certs").glob("*.json")) if expected_certs else []
        if len(files) != expected_certs:
            errors.append(f"{len(files)} certificate files, report says {expected_certs}")
        self.counts["bound_certificates"] += len(files)
        for f in files:
            cert = json.loads(f.read_text())
            report = replay_certificate(cert)
            margins = report.margins()
            if len(margins) != len(cert["margins"]) or not all(
                _same_float(a, b) for a, b in zip(margins, cert["margins"])
            ):
                errors.append(f"certificate {f.stem} does not replay to identical margins")

    def _check_replay(self, result: Result, errors: list[str]) -> None:
        out = parse_blocks(result.stdout)
        if len(out) != 1:
            errors.append(f"expected one report block, got {len(out)}")
            return
        got: list[float] = []
        for key in ("margin_lower", "margin_upper"):
            if key in out[0]:
                got.append(float(out[0][key]))
        if "chain_margins" in out[0]:
            got += [float(x) for x in out[0]["chain_margins"].split()]
        want = result.call.ref["margins"]
        if len(got) != len(want) or not all(_same_float(a, b) for a, b in zip(got, want)):
            errors.append("replayed margins differ from the certificate's")

    def _check_classify(self, result: Result, errors: list[str]) -> None:
        out = parse_blocks(result.stdout)[0]
        ref = result.call.ref
        _close("schmidt_a", _floats(out["schmidt_a"]), ref["schmidt_a"], SCHMIDT_TOL, errors)
        _close("schmidt_b", _floats(out["schmidt_b"]), ref["schmidt_b"], SCHMIDT_TOL, errors)
        if ref["verdict"] is not None and out["verdict"] != ref["verdict"]:
            errors.append(f"verdict {out['verdict']}, prefix-sum reference {ref['verdict']}")

    def _check_measure(self, result: Result, errors: list[str]) -> None:
        out = parse_blocks(result.stdout)[0]
        ref = result.call.ref["schmidt"]
        _close("schmidt", _floats(out["schmidt"]), ref, SCHMIDT_TOL, errors)
        for key, want in reference_measures(ref).items():
            _close(key, np.array([float(out[key])]), np.array([want]), VALUE_TOL, errors)

    def _check_superpose(self, result: Result, errors: list[str]) -> None:
        out = parse_blocks(result.stdout)[0]
        ref = result.call.ref
        for key in ("overlap", "norm_factor"):
            _close(key, np.array([float(out[key])]), np.array([ref[key]]), VALUE_TOL, errors)
        _close("schmidt", _floats(out["schmidt"]), ref["schmidt"], SCHMIDT_TOL, errors)
        for key, want in reference_measures(ref["schmidt"]).items():
            if key in out:
                _close(key, np.array([float(out[key])]), np.array([want]), VALUE_TOL, errors)


def digest(result: Result) -> str:
    """SHA-256 of a call's exit code, streams and files, with its directory masked."""
    h = hashlib.sha256()
    root = str(result.call.root)
    for part in (result.call.kind, " ".join(result.call.argv), str(result.code),
                 result.stdout, result.stderr):
        h.update(part.replace(root, "<root>").encode())
        h.update(b"\0")
    for base in (result.call.root / "report.csv", result.call.root / "certs"):
        paths = sorted(base.glob("*.json")) if base.is_dir() else [base] if base.is_file() else []
        for p in paths:
            h.update(p.name.encode())
            h.update(b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()
