"""Command-line surface.

Subcommands: ``classify``, ``measure``, ``superpose``, ``bounds``,
``tables``.  Results go to standard output as a ``key = value`` report
(``--format csv`` for CSV, ``--format human`` for rounded values); every
randomized subcommand requires an explicit ``--seed`` so that each number is
replayable.  Exit codes: 0 success, 2 input error, 3 internal numerical
failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from .bounds import (
    THEOREM_ORDER,
    BoundReport,
    evaluate,
    instance_from_snapshot,
    second_instance_from_snapshot,
    survey_bounds,
)
from .majorization import classify_pair
from .measures import MEASURE_KINDS, RENYI, compute_measure
from .scenarios import (
    CASES,
    load_default_rows,
    load_scenario_rows,
    rows_for_case,
    validate_tables,
)
from .statefile import parse_state_file
from .states import (
    NumericalError,
    PreconditionError,
    RandomSource,
    schmidt_of_state,
)
from .superpose import SuperpositionSpec, superpose

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

KV, CSV, HUMAN = "kv", "csv", "human"


def _fmt_float(x: float, fmt: str) -> str:
    return f"{x:.6g}" if fmt == HUMAN else repr(x)


def _fmt_value(value, fmt: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value, fmt)
    if isinstance(value, (tuple, list)):
        return " ".join(_fmt_value(v, fmt) for v in value)
    if value is None:
        return ""
    return str(value)


def _print_pairs(pairs, fmt: str) -> None:
    if fmt == CSV:
        print("key,value")
        for key, value in pairs:
            print(f"{key},{_fmt_value(value, fmt)}")
    else:
        for key, value in pairs:
            print(f"{key} = {_fmt_value(value, fmt)}")


def _print_blocks(blocks, fmt: str) -> None:
    """Print several reports; a blank line separates them except in CSV."""
    for i, pairs in enumerate(blocks):
        if i and fmt != CSV:
            print()
        _print_pairs(pairs, fmt)


def _read_state(path: str, renormalize: bool):
    return parse_state_file(Path(path).read_text(), renormalize=renormalize)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_classify(args) -> int:
    state_a = _read_state(args.state_a, args.renormalize)
    state_b = _read_state(args.state_b, args.renormalize)
    sa = schmidt_of_state(state_a)
    sb = schmidt_of_state(state_b)
    verdict = classify_pair(sa, sb)
    _print_pairs(
        [
            ("schmidt_a", sa.probs),
            ("schmidt_b", sb.probs),
            ("verdict", verdict.value),
        ],
        args.format,
    )
    return EXIT_OK


def _cmd_measure(args) -> int:
    state = _read_state(args.state, args.renormalize)
    schmidt = schmidt_of_state(state)
    kinds = [k.strip() for k in args.measures.split(",") if k.strip()]
    if not kinds:
        raise ValueError(f"--measures names no measure (choose from {','.join(MEASURE_KINDS)})")
    pairs = [("schmidt", schmidt.probs)]
    for kind in kinds:
        pairs.append((kind, compute_measure(kind, schmidt, delta=args.delta, base=args.base)))
        if kind == RENYI:
            pairs.append(("renyi_delta", args.delta))
    _print_pairs(pairs, args.format)
    return EXIT_OK


def _cmd_superpose(args) -> int:
    psi = _read_state(args.psi, args.renormalize)
    phi = _read_state(args.phi, args.renormalize)
    result = superpose(SuperpositionSpec(args.alpha, args.beta, psi, phi))
    schmidt = result.schmidt
    pairs = [
        ("overlap", result.overlap),
        ("orthogonal_components", result.orthogonal_components),
        ("norm_factor", result.norm_factor),
        ("schmidt", schmidt.probs),
        ("e", compute_measure("e", schmidt)),
        ("c2", compute_measure("c2", schmidt)),
        ("n", compute_measure("n", schmidt)),
        ("ln", compute_measure("ln", schmidt, base=args.base)),
    ]
    _print_pairs(pairs, args.format)
    return EXIT_OK


def _parse_theorems(spec: str | None) -> list[str] | None:
    """The named theorems, or None when ``spec`` is absent or selects all."""
    tokens = [t.strip() for t in (spec or "").split(",") if t.strip()]
    if not tokens or any(t.lower() == "all" for t in tokens):
        return None
    by_lower = {t.lower(): t for t in THEOREM_ORDER}
    chosen = []
    for token in tokens:
        name = by_lower.get(token.lower())
        if name is None:
            raise ValueError(f"unknown theorem {token!r} (choose from {','.join(THEOREM_ORDER)})")
        chosen.append(name)
    return chosen


def _report_pairs(report: BoundReport) -> list[tuple]:
    pairs = [("theorem", report.theorem)]
    for field in ("lower_lhs", "lower_rhs", "upper_lhs", "upper_rhs", "margin_lower", "margin_upper"):
        value = getattr(report, field)
        if value is not None:
            pairs.append((field, value))
    if report.chain_terms is not None:
        pairs.append(("chain_terms", report.chain_terms))
        pairs.append(("chain_margins", report.chain_margins))
    pairs.append(("holds", report.holds))
    pairs.append(("orthogonal", report.orthogonal))
    for i, note in enumerate(report.notes):
        pairs.append((f"note_{i}", note))
    return pairs


def _bounds_instance(args, theorems: list[str] | None) -> int:
    snap = json.loads(Path(args.instance).read_text())
    if isinstance(snap, dict):
        snap = snap.get("snapshot", snap)
    if not isinstance(snap, dict):
        raise ValueError("instance file must contain a JSON object")
    snap = {**snap, "log_base": args.base if args.base is not None else snap.get("log_base", 2.0)}
    if args.delta is not None:
        snap["delta"] = args.delta
    inst = instance_from_snapshot(snap)
    second = second_instance_from_snapshot(snap)
    scan_excludes_zero = args.scan_exclude_zeros or bool(snap.get("scan_excludes_zero", False))
    blocks = []
    for theorem in theorems or THEOREM_ORDER:
        try:
            report = evaluate(theorem, inst, second, scan_excludes_zero)
        except PreconditionError:
            if theorems is not None:
                raise
            continue  # "all": silently skip bounds the instance cannot feed
        blocks.append(_report_pairs(report))
    _print_blocks(blocks, args.format)
    return EXIT_OK


def _write_certificates(certificates, directory: str) -> int:
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    for cert in certificates:
        (target / f"{cert['id']}.json").write_text(json.dumps(cert, indent=2) + "\n")
    return len(certificates)


def _bounds_survey(args, theorems: list[str] | None) -> int:
    survey = survey_bounds(
        RandomSource(args.seed, args.stream),
        args.random,
        theorems=theorems or THEOREM_ORDER,
        orthogonal_only=args.orthogonal_only,
        delta=args.delta if args.delta is not None else 2.0,
        log_base=args.base if args.base is not None else 2.0,
        scan_excludes_zero=args.scan_exclude_zeros,
    )
    if args.format == CSV:
        print(survey.to_csv(), end="")
    else:
        _print_blocks(
            [
                [
                    ("theorem", tally.theorem),
                    ("n", tally.evaluated),
                    ("hold_rate", tally.hold_rate),
                    ("worst_margin", tally.worst_margin),
                    ("certificates", len(tally.certificates)),
                ]
                for tally in survey.tallies
            ],
            args.format,
        )
    if args.certs:
        written = _write_certificates(survey.certificates(), args.certs)
        print(f"certificates_written = {written}", file=sys.stderr)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    theorems = _parse_theorems(args.theorems)
    if (args.instance is None) == (args.random is None):
        raise ValueError("choose exactly one of --instance FILE or --random N")
    if args.instance is not None:
        return _bounds_instance(args, theorems)
    if args.seed is None:
        raise ValueError("randomized runs require an explicit --seed")
    return _bounds_survey(args, theorems)


def _require_output_paths(out: Path, certs: str | None) -> None:
    """Raise before any sampling the error writing the CSV or certificates would end in."""
    if not out.parent.is_dir():
        code = errno.ENOTDIR if out.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(out))
    if out.is_dir():
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
    if certs and Path(certs).exists() and not Path(certs).is_dir():
        raise OSError(errno.EEXIST, os.strerror(errno.EEXIST), certs)


def _cmd_tables(args) -> int:
    if args.seed is None:
        raise ValueError("randomized runs require an explicit --seed")
    if args.max_certs is not None and args.max_certs < 0:
        raise ValueError("--max-certs must be non-negative")
    _require_output_paths(Path(args.out), args.certs)
    if args.rows is not None:
        rows = load_scenario_rows(Path(args.rows).read_text())
    else:
        rows = load_default_rows()
    if args.case != "all":
        rows = rows_for_case(rows, args.case)
    if not rows:
        raise ValueError(f"no rows selected for case {args.case!r}")
    report = validate_tables(
        rows,
        args.samples,
        RandomSource(args.seed, args.stream),
        max_certificates=args.max_certs,
    )
    csv_text = report.to_csv()
    Path(args.out).write_text(csv_text)
    certificates = report.certificates()
    written = 0
    if args.certs:
        written = _write_certificates(certificates, args.certs)
    _print_pairs(
        [
            ("case", args.case),
            ("rows", len(rows)),
            ("samples_per_row", args.samples),
            ("satisfied_total", sum(r.satisfied for r in report.rows)),
            ("disagreement_certificates", len(certificates)),
            ("certificates_written", written),
            ("out", args.out),
        ],
        args.format,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locclab",
        description=(
            "Comparability classification, superposition and entanglement-bound "
            "reports for pure bipartite states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, reads_state_files=False):
        p.add_argument("--format", choices=(KV, CSV, HUMAN), default=KV)
        if reads_state_files:
            p.add_argument(
                "--renormalize",
                action="store_true",
                help="accept state files whose norm deviates by more than 1e-9",
            )

    p = sub.add_parser("classify", help="comparability verdict for two states")
    p.add_argument("state_a")
    p.add_argument("state_b")
    add_common(p, reads_state_files=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("measure", help="entanglement measures of one state")
    p.add_argument("state")
    p.add_argument("--measures", default=",".join(MEASURE_KINDS))
    p.add_argument("--delta", type=float, default=2.0, help="Renyi order")
    p.add_argument("--base", type=float, default=2.0, help="log base for ln")
    add_common(p, reads_state_files=True)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("superpose", help="superpose two states and report")
    p.add_argument("psi")
    p.add_argument("phi")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--base", type=float, default=2.0)
    add_common(p, reads_state_files=True)
    p.set_defaults(func=_cmd_superpose)

    p = sub.add_parser("bounds", help="evaluate entanglement bounds")
    p.add_argument("--theorems", default=None, help="comma list of T1..T9, Chain11, or all")
    p.add_argument("--instance", default=None, help="instance or certificate JSON file")
    p.add_argument("--random", type=int, default=None, help="survey over N sampled instances")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--orthogonal-only", action="store_true")
    p.add_argument("--delta", type=float, default=None, help="Renyi order (default 2)")
    p.add_argument("--base", type=float, default=None, help="log base (default 2)")
    p.add_argument(
        "--scan-exclude-zeros",
        action="store_true",
        help="drop zero amplitudes from the min/max coefficient scans",
    )
    p.add_argument("--certs", default=None, help="directory for counterexample certificates")
    add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("tables", help="validate scenario rows by Monte-Carlo search")
    p.add_argument("--case", choices=CASES + ("all",), required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--rows", default=None, help="row-definition document (default: built-in catalog)")
    p.add_argument("--out", required=True, help="CSV report path")
    p.add_argument("--certs", default=None, help="directory for disagreement certificates")
    p.add_argument("--max-certs", type=int, default=None, help="cap certificates per row")
    add_common(p)
    p.set_defaults(func=_cmd_tables)

    return parser


def run(argv=None) -> int:
    """Parse and dispatch one command line; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
