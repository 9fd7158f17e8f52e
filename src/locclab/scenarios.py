"""Scenario rows: declarative comparability predictions and their validation.

The shipped catalog (``data/table_rows.txt``) encodes, one line per row, the
weight relation, coefficient conditions and predicted verdicts for the five
superposition cases.  Each row is validated by rejection sampling on the
strict 3-coefficient simplex; predicted-versus-observed statistics are
aggregated per row, and every disagreement ships as a replayable certificate.

Component states are sampled with strictly ordered full-support coefficients,
so their mutual overlaps cannot vanish; the mean absolute overlap is reported
per row so agreement rates can be read against the orthogonal-component
idealization the predictions assume.
"""

from __future__ import annotations

import math
import re
import zlib
from dataclasses import dataclass
from importlib import resources

from .majorization import ComparabilityVerdict, _classify_probs, classify_pair
from .measures import concurrence_squared
from .states import (
    MAX_DRAW_ATTEMPTS,
    PreconditionError,
    PureState,
    RandomSource,
    draw_sorted_simplex,
    draw_weight,
)
from .superpose import SuperpositionSpec, superpose

CASES = ("I", "II", "III", "IV", "V")
TABLES = ("1", "1A", "2", "2A", "3", "3A", "IV", "V")
_SHARED_PHI_CASES = ("III", "IV")

WEIGHT_EQUAL = "equal"
WEIGHT_ALPHA_GT = "alpha>alphap"
WEIGHT_ALPHA_LT = "alpha<alphap"
_WEIGHT_RELATIONS = (WEIGHT_EQUAL, WEIGHT_ALPHA_GT, WEIGHT_ALPHA_LT)

INCOMPARABLE = "INCOMPARABLE"
COMPARABLE = "COMPARABLE"
GAMMA_GT = "GAMMA_GT"
GAMMA_LT = "GAMMA_LT"
TIE = "TIE"

# Strict comparisons in conditions and weight relations need this much gap.
CONDITION_GAP = 1e-12

_WEIGHT_NAMES = ("alpha", "beta", "alphap", "betap")
_COEF_NAMES = tuple(
    f"{family}{i}" for family in ("a", "b", "ap", "bp") for i in range(3)
)
# Operand index of each condition name in ScenarioInstance.values.
_NAMES = _WEIGHT_NAMES + _COEF_NAMES

_HALF_RE = re.compile(
    r"^\(\s*(\w+)\s*\*\s*sqrt\(\s*(\w+)\s*\)\s*\+\s*(\w+)\s*\*\s*sqrt\(\s*(\w+)\s*\)\s*\)\s*"
    r"\^2\s*(<>|<|>)\s*(?:0\.5|1/2)$"
)


class RowFormatError(ValueError):
    """A scenario row document does not parse against the row grammar."""


@dataclass(frozen=True)
class ProductCompare:
    """PRODUCT OP PRODUCT over weight powers and named coefficients.

    Each factor is ``(index, squared)``: an index into
    :attr:`ScenarioInstance.values` and whether the value enters squared.
    """

    lhs: tuple[tuple[int, bool], ...]
    op: str
    rhs: tuple[tuple[int, bool], ...]


@dataclass(frozen=True)
class AmplitudeHalf:
    """(u sqrt(x) + v sqrt(y))^2 compared against one half.

    ``u``, ``x``, ``v`` and ``y`` are indices into :attr:`ScenarioInstance.values`.
    """

    u: int
    x: int
    v: int
    y: int
    op: str


@dataclass(frozen=True)
class ScenarioRow:
    case: str
    table: str
    row_id: str
    weight_relation: str
    alternatives: tuple[tuple[object, ...], ...]  # OR of AND-groups
    conditions_unspecified: bool
    predicted_pair: str | None
    predicted_order: str | None
    note: str | None

    @property
    def shared_phi(self) -> bool:
        return self.case in _SHARED_PHI_CASES

    @property
    def key(self) -> str:
        return f"{self.table}.{self.row_id}"


@dataclass(frozen=True)
class ScenarioInstance:
    """Concrete weights plus Schmidt coefficient triples for one sample.

    Coefficient tuples are in decreasing order (basis order and sorted order
    coincide for components).  ``phip`` equals ``phi`` in shared-phi cases.
    """

    alpha: float
    beta: float
    alphap: float
    betap: float
    psi: tuple[float, ...]
    phi: tuple[float, ...]
    psip: tuple[float, ...]
    phip: tuple[float, ...]
    shared_phi: bool

    @property
    def values(self) -> tuple[float, ...]:
        """The operands that conditions index: the weights, then psi, phi, psip, phip."""
        weights = (self.alpha, self.beta, self.alphap, self.betap)
        return weights + self.psi + self.phi + self.psip + self.phip

    def to_doc(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "alphap": self.alphap,
            "betap": self.betap,
            "psi": list(self.psi),
            "phi": list(self.phi),
            "psip": list(self.psip),
            "phip": list(self.phip),
            "shared_phi": self.shared_phi,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ScenarioInstance":
        return cls(
            float(doc["alpha"]),
            float(doc["beta"]),
            float(doc["alphap"]),
            float(doc["betap"]),
            tuple(float(x) for x in doc["psi"]),
            tuple(float(x) for x in doc["phi"]),
            tuple(float(x) for x in doc["psip"]),
            tuple(float(x) for x in doc["phip"]),
            bool(doc["shared_phi"]),
        )


@dataclass(frozen=True)
class ObservedOutcome:
    """What actually happened for one satisfying instance."""

    verdict: ComparabilityVerdict
    c2_gamma: float
    c2_gamma_prime: float
    order: str
    overlap_gamma: float
    overlap_gamma_prime: float


def _observed_doc(outcome: ObservedOutcome) -> dict:
    """The observed fields a certificate records and a replay re-derives."""
    return {
        "observed_verdict": outcome.verdict.value,
        "order": outcome.order,
        "c2_gamma": outcome.c2_gamma,
        "c2_gamma_prime": outcome.c2_gamma_prime,
        "overlap_gamma": outcome.overlap_gamma,
        "overlap_gamma_prime": outcome.overlap_gamma_prime,
    }


# ---------------------------------------------------------------------------
# Row document parsing


def _parse_factor(token: str, line_no: int) -> tuple[int, bool]:
    token = token.strip()
    squared = token.endswith("^2")
    name = token[:-2] if squared else token
    if squared and name not in _WEIGHT_NAMES:
        raise RowFormatError(f"line {line_no}: only weights may be squared, got {token!r}")
    if name not in _NAMES:
        raise RowFormatError(f"line {line_no}: unknown factor {token!r}")
    return _NAMES.index(name), squared


def _parse_condition(text: str, line_no: int):
    text = text.strip()
    m = _HALF_RE.match(text)
    if m:
        u, x, v, y, op = m.groups()
        for w in (u, v):
            if w not in _WEIGHT_NAMES:
                raise RowFormatError(f"line {line_no}: {w!r} is not a weight")
        for c in (x, y):
            if c not in _COEF_NAMES:
                raise RowFormatError(f"line {line_no}: {c!r} is not a coefficient")
        return AmplitudeHalf(*(_NAMES.index(name) for name in (u, x, v, y)), op)
    for op in ("<>", "<", ">"):
        if op in text:
            lhs_text, rhs_text = text.split(op, 1)
            lhs = tuple(_parse_factor(t, line_no) for t in lhs_text.split("*"))
            rhs = tuple(_parse_factor(t, line_no) for t in rhs_text.split("*"))
            if not lhs or not rhs:
                raise RowFormatError(f"line {line_no}: empty product in {text!r}")
            return ProductCompare(lhs, op, rhs)
    raise RowFormatError(f"line {line_no}: cannot parse condition {text!r}")


def _parse_conditions(field: str, line_no: int) -> tuple[tuple, bool]:
    field = field.strip()
    if field == "-":
        return ((),), False
    if field == "unspecified":
        return ((),), True
    alternatives = []
    for group in field.split(" OR "):
        conds = tuple(
            _parse_condition(part, line_no) for part in group.split(";") if part.strip()
        )
        if not conds:
            raise RowFormatError(f"line {line_no}: empty OR-group")
        alternatives.append(conds)
    return tuple(alternatives), False


def load_scenario_rows(text: str) -> list[ScenarioRow]:
    """Parse a row-definition document; diagnostics carry line numbers."""
    rows: list[ScenarioRow] = []
    seen: set[str] = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 8:
            raise RowFormatError(
                f"line {line_no}: expected 8 pipe-separated fields, got {len(fields)}"
            )
        case, table, row_id, weights, cond_field, pair, order, note = fields
        if case not in CASES:
            raise RowFormatError(f"line {line_no}: unknown case {case!r}")
        if table not in TABLES:
            raise RowFormatError(f"line {line_no}: unknown table {table!r}")
        if weights not in _WEIGHT_RELATIONS:
            raise RowFormatError(f"line {line_no}: unknown weight relation {weights!r}")
        if pair not in ("-", INCOMPARABLE, COMPARABLE):
            raise RowFormatError(f"line {line_no}: unknown pair prediction {pair!r}")
        if order not in ("-", GAMMA_GT):
            raise RowFormatError(f"line {line_no}: unknown order prediction {order!r}")
        alternatives, unspecified = _parse_conditions(cond_field, line_no)
        row = ScenarioRow(
            case=case,
            table=table,
            row_id=row_id,
            weight_relation=weights,
            alternatives=alternatives,
            conditions_unspecified=unspecified,
            predicted_pair=None if pair == "-" else pair,
            predicted_order=None if order == "-" else order,
            note=None if note == "-" else note,
        )
        if row.key in seen:
            raise RowFormatError(f"line {line_no}: duplicate row {row.key}")
        seen.add(row.key)
        rows.append(row)
    return rows


def load_default_rows() -> list[ScenarioRow]:
    """The catalog shipped with the package."""
    text = resources.files("locclab.data").joinpath("table_rows.txt").read_text()
    return load_scenario_rows(text)


def rows_for_case(rows, case: str) -> list[ScenarioRow]:
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    return [r for r in rows if r.case == case]


# ---------------------------------------------------------------------------
# Condition evaluation


def _compare(lhs: float, op: str, rhs: float) -> bool:
    if op == ">":
        return lhs - rhs > CONDITION_GAP
    if op == "<":
        return rhs - lhs > CONDITION_GAP
    return True  # "<>": recorded but never binding


def _product(values: tuple[float, ...], factors) -> float:
    # Left to right in the written factor order, a squared weight as w * w:
    # the products stay bit-identical to the formula text.
    result = 1.0
    for index, squared in factors:
        v = values[index]
        result *= v * v if squared else v
    return result


def _condition_holds(cond, values: tuple[float, ...]) -> bool:
    if isinstance(cond, ProductCompare):
        return _compare(_product(values, cond.lhs), cond.op, _product(values, cond.rhs))
    amp = values[cond.u] * math.sqrt(values[cond.x]) + values[cond.v] * math.sqrt(values[cond.y])
    return _compare(amp * amp, cond.op, 0.5)


def _relation_holds(relation: str, da: float, db: float) -> bool:
    """The relation on ``da = alpha - alphap`` and ``db = beta - betap``."""
    if relation == WEIGHT_EQUAL:
        return abs(da) <= CONDITION_GAP and abs(db) <= CONDITION_GAP
    if relation == WEIGHT_ALPHA_GT:
        return da > CONDITION_GAP and -db > CONDITION_GAP
    return -da > CONDITION_GAP and db > CONDITION_GAP


def _case_preconditions_hold(case: str, inst: ScenarioInstance) -> bool:
    psi_pair = _classify_probs(inst.psi, inst.psip)
    if case == "III":
        return psi_pair is ComparabilityVerdict.INCOMPARABLE
    if case == "IV":
        return psi_pair.comparable
    phi_pair = _classify_probs(inst.phi, inst.phip)
    if case == "I":
        return (
            psi_pair is ComparabilityVerdict.INCOMPARABLE
            and phi_pair is ComparabilityVerdict.INCOMPARABLE
        )
    if case == "II":
        return psi_pair.comparable and phi_pair is ComparabilityVerdict.INCOMPARABLE
    return psi_pair.comparable and phi_pair.comparable  # case V


def check_row_conditions(row: ScenarioRow, inst: ScenarioInstance) -> bool:
    """True iff the instance sits in the row's regime.

    Checks, in order: structural consistency (raises on mismatch), the weight
    relation, the case's component-pair comparability preconditions (always
    via the full partial-sum classification, never the sufficient-only
    shortcut), then the row's condition groups.
    """
    if inst.shared_phi != row.shared_phi:
        raise ValueError(
            f"instance {'shares' if inst.shared_phi else 'does not share'} phi "
            f"but row {row.key} {'requires' if row.shared_phi else 'forbids'} sharing"
        )
    for triple in (inst.psi, inst.phi, inst.psip, inst.phip):
        if len(triple) != 3:
            raise ValueError(f"row {row.key} needs 3-coefficient components")
    if not _relation_holds(row.weight_relation, inst.alpha - inst.alphap, inst.beta - inst.betap):
        return False
    if not _case_preconditions_hold(row.case, inst):
        return False
    values = inst.values
    return any(
        all(_condition_holds(c, values) for c in group) for group in row.alternatives
    )


# ---------------------------------------------------------------------------
# Sampling and observation


def _draw_weight_pair(gen, relation: str) -> tuple[float, float, float, float]:
    for _ in range(MAX_DRAW_ATTEMPTS):
        u1 = draw_weight(gen)
        u2 = u1 if relation == WEIGHT_EQUAL else draw_weight(gen)
        b1 = math.sqrt(1.0 - u1 * u1)
        b2 = math.sqrt(1.0 - u2 * u2)
        if _relation_holds(relation, u1 - u2, b1 - b2):
            return u1, b1, u2, b2
    raise PreconditionError(
        f"no weights with relation {relation!r} in {MAX_DRAW_ATTEMPTS} attempts"
    )


def _sample_instance(row: ScenarioRow, gen) -> ScenarioInstance:
    alpha, beta, alphap, betap = _draw_weight_pair(gen, row.weight_relation)
    psi = draw_sorted_simplex(gen, 3, strict=True)
    psip = draw_sorted_simplex(gen, 3, strict=True)
    phi = draw_sorted_simplex(gen, 3, strict=True)
    phip = phi if row.shared_phi else draw_sorted_simplex(gen, 3, strict=True)
    return ScenarioInstance(alpha, beta, alphap, betap, psi, phi, psip, phip, row.shared_phi)


def _vector_state(probs: tuple[float, ...]) -> PureState:
    return PureState.vector([math.sqrt(p) for p in probs])


def observe_instance(inst: ScenarioInstance) -> ObservedOutcome:
    """Superpose both sides, classify the pair, compare squared concurrences."""
    phi_state = _vector_state(inst.phi)
    phip_state = phi_state if inst.shared_phi else _vector_state(inst.phip)
    gamma = superpose(
        SuperpositionSpec(inst.alpha, inst.beta, _vector_state(inst.psi), phi_state)
    )
    gamma_p = superpose(
        SuperpositionSpec(inst.alphap, inst.betap, _vector_state(inst.psip), phip_state)
    )
    verdict = classify_pair(gamma.schmidt, gamma_p.schmidt)
    c2 = concurrence_squared(gamma.schmidt)
    c2p = concurrence_squared(gamma_p.schmidt)
    if c2 - c2p > CONDITION_GAP:
        order = GAMMA_GT
    elif c2p - c2 > CONDITION_GAP:
        order = GAMMA_LT
    else:
        order = TIE
    return ObservedOutcome(
        verdict=verdict,
        c2_gamma=c2,
        c2_gamma_prime=c2p,
        order=order,
        overlap_gamma=gamma.overlap,
        overlap_gamma_prime=gamma_p.overlap,
    )


def _row_source(rng: RandomSource, row: ScenarioRow) -> RandomSource:
    # Stable per-row derivation: identical draws whether the row is validated
    # alone or as part of a catalog sweep.
    return rng.derive(zlib.crc32(row.key.encode()))


# ---------------------------------------------------------------------------
# Catalog validation


@dataclass(frozen=True)
class RowTally:
    row: ScenarioRow
    samples: int
    satisfied: int
    verdict_agree: int
    verdict_disagree: int
    order_checked: int
    order_agree: int
    order_disagree: int
    order_tie: int
    mean_abs_overlap: float | None
    mean_abs_overlap_prime: float | None
    certificates: tuple[dict, ...]


@dataclass(frozen=True)
class TableReport:
    rows: tuple[RowTally, ...]

    def certificates(self) -> list[dict]:
        return [c for r in self.rows for c in r.certificates]

    def to_csv(self) -> str:
        header = (
            "case,table,row,samples,satisfied,predicted_pair,verdict_agree,"
            "verdict_disagree,predicted_order,order_checked,order_agree,"
            "order_disagree,order_tie,mean_abs_overlap,mean_abs_overlap_prime,"
            "certificate_ids"
        )
        lines = [header]
        for r in self.rows:
            row = r.row
            mean1 = "" if r.mean_abs_overlap is None else repr(r.mean_abs_overlap)
            mean2 = "" if r.mean_abs_overlap_prime is None else repr(r.mean_abs_overlap_prime)
            ids = ";".join(c["id"] for c in r.certificates)
            lines.append(
                f"{row.case},{row.table},{row.row_id},{r.samples},{r.satisfied},"
                f"{row.predicted_pair or ''},{r.verdict_agree},{r.verdict_disagree},"
                f"{row.predicted_order or ''},{r.order_checked},{r.order_agree},"
                f"{r.order_disagree},{r.order_tie},{mean1},{mean2},{ids}"
            )
        return "\n".join(lines) + "\n"


def _verdict_matches(predicted: str, verdict: ComparabilityVerdict) -> bool:
    if predicted == INCOMPARABLE:
        return verdict is ComparabilityVerdict.INCOMPARABLE
    return verdict.comparable


def validate_tables(
    rows,
    samples_per_row: int,
    rng: RandomSource,
    *,
    max_certificates: int | None = None,
) -> TableReport:
    """Aggregate per-row witness sampling into predicted-vs-observed tallies.

    For rows with an order prediction, the stated pair nature (when present)
    acts as the regime filter: order statistics run over satisfying samples
    whose observed verdict matches it.  Strict order reversals ship
    certificates; ties are counted as their own category, never coerced.
    Deterministic in the random source regardless of any parallel split,
    because sample i of a row always uses the same derived sub-stream.
    """
    if samples_per_row < 1:
        raise ValueError("samples_per_row must be at least 1")
    tallies = []
    for row in rows:
        source = _row_source(rng, row)
        satisfied = 0
        verdict_agree = verdict_disagree = 0
        order_checked = order_agree = order_disagree = order_tie = 0
        overlap_sum = overlap_prime_sum = 0.0
        certs: list[dict] = []
        for i in range(samples_per_row):
            inst = _sample_instance(row, source.derive(i).generator())
            if not check_row_conditions(row, inst):
                continue
            satisfied += 1
            outcome = observe_instance(inst)
            overlap_sum += abs(outcome.overlap_gamma)
            overlap_prime_sum += abs(outcome.overlap_gamma_prime)
            kind = None
            in_regime = True
            if row.predicted_pair is not None:
                if _verdict_matches(row.predicted_pair, outcome.verdict):
                    verdict_agree += 1
                else:
                    verdict_disagree += 1
                    in_regime = False
                    if row.predicted_order is None:
                        kind = "verdict"
            if row.predicted_order is not None and in_regime:
                order_checked += 1
                if outcome.order == row.predicted_order:
                    order_agree += 1
                elif outcome.order == TIE:
                    order_tie += 1
                else:
                    order_disagree += 1
                    kind = "order"
            if kind is not None and (max_certificates is None or len(certs) < max_certificates):
                certs.append(
                    {
                        "id": f"{row.key}-{i:06d}",
                        "kind": kind,
                        "case": row.case,
                        "table": row.table,
                        "row": row.row_id,
                        "sample_index": i,
                        "instance": inst.to_doc(),
                        "predicted_pair": row.predicted_pair,
                        "predicted_order": row.predicted_order,
                        **_observed_doc(outcome),
                    }
                )
        tallies.append(
            RowTally(
                row=row,
                samples=samples_per_row,
                satisfied=satisfied,
                verdict_agree=verdict_agree,
                verdict_disagree=verdict_disagree,
                order_checked=order_checked,
                order_agree=order_agree,
                order_disagree=order_disagree,
                order_tie=order_tie,
                mean_abs_overlap=overlap_sum / satisfied if satisfied else None,
                mean_abs_overlap_prime=overlap_prime_sum / satisfied if satisfied else None,
                certificates=tuple(certs),
            )
        )
    return TableReport(tuple(tallies))


def replay_table_certificate(cert: dict, rows=None) -> dict:
    """Re-run a shipped certificate; the observed fields must reproduce.

    Looks the row up in the given (or default) catalog, re-checks the row
    conditions from the serialized instance, and recomputes the observation.
    """
    if rows is None:
        rows = load_default_rows()
    key = f"{cert['table']}.{cert['row']}"
    matches = [r for r in rows if r.key == key]
    if not matches:
        raise ValueError(f"certificate row {key} not in catalog")
    row = matches[0]
    inst = ScenarioInstance.from_doc(cert["instance"])
    return {
        "row_conditions_pass": check_row_conditions(row, inst),
        **_observed_doc(observe_instance(inst)),
    }
