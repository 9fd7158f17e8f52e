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

import re
import zlib
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from .majorization import ComparabilityVerdict, classify_rows
from .measures import concurrence_rows
from .statefile import _require_number
from .states import (
    MAX_DRAW_ATTEMPTS,
    InvalidStateError,
    PreconditionError,
    RandomSource,
    SchmidtVector,
    draw_sorted_simplex,
    draw_weights,
    left_sum,
    sample_chunks,
    schmidt_rows,
)
from .superpose import require_weights, superpose_rows

CASES = ("I", "II", "III", "IV", "V")
TABLES = ("1", "1A", "2", "2A", "3", "3A", "IV", "V")
_SHARED_PHI_CASES = ("III", "IV")
# Per case, whether the (psi, psi') and (phi, phi') component pairs must be
# comparable; None leaves the phi pair free.
_CASE_PAIRS = dict(
    zip(CASES, [(False, False), (True, False), (False, None), (True, None), (True, True)])
)

WEIGHT_EQUAL = "equal"
WEIGHT_ALPHA_GT = "alpha>alphap"
WEIGHT_ALPHA_LT = "alpha<alphap"
_WEIGHT_RELATIONS = (WEIGHT_EQUAL, WEIGHT_ALPHA_GT, WEIGHT_ALPHA_LT)

INCOMPARABLE = "INCOMPARABLE"
COMPARABLE = "COMPARABLE"
GAMMA_GT = "GAMMA_GT"
GAMMA_LT = "GAMMA_LT"
TIE = "TIE"
# The sample counts of a RowTally, in its field order.
_COUNTS = ("satisfied", "verdict_agree", "verdict_disagree", "order_checked", "order_agree",
           "order_disagree", "order_tie")

# Strict comparisons in conditions and weight relations need this much gap.
CONDITION_GAP = 1e-12

_WEIGHT_NAMES = ("alpha", "beta", "alphap", "betap")
_TRIPLES = ("psi", "phi", "psip", "phip")
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

    def __post_init__(self) -> None:
        for name in _TRIPLES:
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))

    @property
    def values(self) -> tuple[float, ...]:
        """The operands that conditions index: the weights, then psi, phi, psip, phip."""
        weights = (self.alpha, self.beta, self.alphap, self.betap)
        return weights + self.psi + self.phi + self.psip + self.phip

    def to_doc(self) -> dict:
        doc = {name: getattr(self, name) for name in _WEIGHT_NAMES + _TRIPLES + ("shared_phi",)}
        return doc | {name: list(doc[name]) for name in _TRIPLES}

    @classmethod
    def from_values(cls, v: tuple, shared_phi: bool) -> "ScenarioInstance":
        """The instance whose :attr:`values` are the tuple ``v``."""
        return cls(*v[:4], v[4:7], v[7:10], v[10:13], v[13:16], shared_phi)

    @classmethod
    def from_doc(cls, doc: dict) -> "ScenarioInstance":
        """Read a serialized instance; a missing key, a wrongly typed field or an
        instance :meth:`validate` rejects raises ``ValueError``."""
        try:
            weights = [_require_number(doc[name], name) for name in _WEIGHT_NAMES]
            triples = [tuple(_require_number(x, name) for x in doc[name]) for name in _TRIPLES]
            shared_phi = doc["shared_phi"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed scenario instance: {type(exc).__name__} {exc}") from None
        if not isinstance(shared_phi, bool):
            raise ValueError(f"shared_phi must be true or false, got {shared_phi!r}")
        return cls(*weights, *triples, shared_phi).validate()

    def validate(self) -> "ScenarioInstance":
        """Return the instance, or reject one the observation cannot superpose:
        weights off the unit circle, a triple that is not a sorted 3-entry
        probability vector, or a shared phi whose two copies differ."""
        require_weights(self.alpha, self.beta)
        require_weights(self.alphap, self.betap)
        for name in _TRIPLES:
            try:
                if SchmidtVector(getattr(self, name)).dim != 3:
                    raise InvalidStateError("needs 3 coefficients")
            except InvalidStateError as exc:
                raise InvalidStateError(f"{name}: {exc}") from None
        if self.shared_phi and self.phip != self.phi:
            raise ValueError("a shared-phi instance needs phip equal to phi")
        return self


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


def _compare(lhs: np.ndarray, op: str, rhs: np.ndarray):
    if op == ">":
        return lhs - rhs > CONDITION_GAP
    if op == "<":
        return rhs - lhs > CONDITION_GAP
    return True  # "<>": recorded but never binding


def _product(values: np.ndarray, factors) -> np.ndarray:
    # Left to right in the written factor order, a squared weight as w * w:
    # the products stay bit-identical to the formula text.
    result = 1.0
    for index, squared in factors:
        v = values[:, index]
        result = result * (v * v if squared else v)
    return result


def _condition_holds(cond, values: np.ndarray):
    if isinstance(cond, ProductCompare):
        return _compare(_product(values, cond.lhs), cond.op, _product(values, cond.rhs))
    x, y = np.sqrt(values[:, cond.x]), np.sqrt(values[:, cond.y])
    amp = values[:, cond.u] * x + values[:, cond.v] * y
    return _compare(amp * amp, cond.op, 0.5)


def _relation_holds(relation: str, da, db):
    """The relation on ``da = alpha - alphap`` and ``db = beta - betap`` (floats or arrays)."""
    if relation == WEIGHT_EQUAL:
        return (abs(da) <= CONDITION_GAP) & (abs(db) <= CONDITION_GAP)
    if relation == WEIGHT_ALPHA_GT:
        return (da > CONDITION_GAP) & (-db > CONDITION_GAP)
    return (-da > CONDITION_GAP) & (db > CONDITION_GAP)


def _comparable(verdicts: np.ndarray) -> np.ndarray:
    return verdicts != ComparabilityVerdict.INCOMPARABLE.value


def _in_regime(row: ScenarioRow, values: np.ndarray) -> np.ndarray:
    """Which samples of an ``(m, 16)`` batch in ``ScenarioInstance.values`` order
    meet the row's weight relation, one of its condition groups and the case's
    component-pair comparability (always the full partial-sum classification,
    never the sufficient-only shortcut)."""
    conditions = np.zeros(len(values), dtype=bool)
    for group in row.alternatives:
        holds = np.ones(len(values), dtype=bool)
        for cond in group:
            holds &= _condition_holds(cond, values)
        conditions |= holds
    mask = conditions & _relation_holds(
        row.weight_relation, values[:, 0] - values[:, 2], values[:, 1] - values[:, 3]
    )
    psi_needed, phi_needed = _CASE_PAIRS[row.case]
    mask &= _comparable(classify_rows(values[:, 4:7], values[:, 10:13])) == psi_needed
    if phi_needed is not None:
        mask &= _comparable(classify_rows(values[:, 7:10], values[:, 13:16])) == phi_needed
    return mask


def check_row_conditions(row: ScenarioRow, inst: ScenarioInstance) -> bool:
    """True iff the instance sits in the row's regime, by the sweep's batch
    check on the instance alone; raises on a structural mismatch."""
    if inst.shared_phi != row.shared_phi:
        raise ValueError(
            f"instance {'shares' if inst.shared_phi else 'does not share'} phi "
            f"but row {row.key} {'requires' if row.shared_phi else 'forbids'} sharing"
        )
    inst.validate()
    return bool(_in_regime(row, np.array([inst.values]))[0])


# ---------------------------------------------------------------------------
# Sampling and observation


def _draw_weight_pair(gen, relation: str) -> tuple[float, float, float, float]:
    for _ in range(MAX_DRAW_ATTEMPTS):
        u1, b1 = draw_weights(gen)
        u2, b2 = (u1, b1) if relation == WEIGHT_EQUAL else draw_weights(gen)
        if _relation_holds(relation, u1 - u2, b1 - b2):
            return u1, b1, u2, b2
    raise PreconditionError(
        f"no weights with relation {relation!r} in {MAX_DRAW_ATTEMPTS} attempts"
    )


def _draw_values(row: ScenarioRow, gen) -> tuple[float, ...]:
    """One sample of the row, in ``ScenarioInstance.values`` order."""
    weights = _draw_weight_pair(gen, row.weight_relation)
    psi, psip, phi = (draw_sorted_simplex(gen, 3, strict=True) for _ in range(3))
    phip = phi if row.shared_phi else draw_sorted_simplex(gen, 3, strict=True)
    return weights + psi + phi + psip + phip


def _observe(values: np.ndarray) -> dict[str, np.ndarray]:
    """Superpose both sides of each sample of an ``(m, 16)`` batch, classify the
    pair and compare squared concurrences: the observed fields a certificate
    records and a replay re-derives, one column each."""
    amps = np.sqrt(values[:, 4:])
    gamma, overlap, _ = superpose_rows(values[:, 0], values[:, 1], amps[:, 0:3], amps[:, 3:6])
    gamma_p, overlap_p, _ = superpose_rows(values[:, 2], values[:, 3], amps[:, 6:9], amps[:, 9:12])
    p, p_prime = schmidt_rows(gamma), schmidt_rows(gamma_p)
    c2, c2p = concurrence_rows(p), concurrence_rows(p_prime)
    return {
        "observed_verdict": classify_rows(p, p_prime),
        "order": np.select(
            [c2 - c2p > CONDITION_GAP, c2p - c2 > CONDITION_GAP], [GAMMA_GT, GAMMA_LT], TIE
        ),
        "c2_gamma": c2,
        "c2_gamma_prime": c2p,
        "overlap_gamma": overlap,
        "overlap_gamma_prime": overlap_p,
    }


def _observed_at(columns: dict[str, np.ndarray], j: int) -> dict:
    """Sample ``j``'s fields of :func:`_observe`'s columns, as Python values."""
    return {name: column[j].item() for name, column in columns.items()}


def observe_instance(inst: ScenarioInstance) -> dict:
    """The observed fields of one instance, by the sweep's batch code."""
    inst.validate()
    return _observed_at(_observe(np.array([inst.values])), 0)


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
    if max_certificates is not None and max_certificates < 0:
        raise ValueError(f"max_certificates must be non-negative, got {max_certificates!r}")
    tallies = []
    for row in rows:
        counts = np.zeros(len(_COUNTS), dtype=np.int64)
        overlap_sum = overlap_prime_sum = 0.0
        certs: list[dict] = []
        kind = "verdict" if row.predicted_order is None else "order"
        draw = partial(_draw_values, row)
        for start, values in sample_chunks(_row_source(rng, row), samples_per_row, 16, draw):
            hits = np.flatnonzero(_in_regime(row, values))
            kept = values[hits]
            observed = _observe(kept)
            # Left to right in sample order, whatever the chunking.
            overlap_sum = left_sum([overlap_sum, *np.abs(observed["overlap_gamma"]).tolist()])
            overlap_prime_sum = left_sum(
                [overlap_prime_sum, *np.abs(observed["overlap_gamma_prime"]).tolist()]
            )
            # Which samples each count takes in; none for a count the row does not predict.
            in_regime = np.ones(len(hits), dtype=bool)
            masks = dict.fromkeys(_COUNTS, ~in_regime) | {"satisfied": in_regime}
            if row.predicted_pair is not None:
                in_regime = _comparable(observed["observed_verdict"]) == (
                    row.predicted_pair == COMPARABLE
                )
                masks |= {"verdict_agree": in_regime, "verdict_disagree": ~in_regime}
            if row.predicted_order is not None:
                agree = in_regime & (observed["order"] == row.predicted_order)
                tie = in_regime & ~agree & (observed["order"] == TIE)
                masks |= {"order_checked": in_regime, "order_agree": agree, "order_tie": tie}
                masks["order_disagree"] = in_regime & ~agree & ~tie
            counts += np.count_nonzero(list(masks.values()), axis=1)
            room = None if max_certificates is None else max_certificates - len(certs)
            for j in np.flatnonzero(masks[f"{kind}_disagree"])[:room].tolist():
                i = start + int(hits[j])
                instance = ScenarioInstance.from_values(kept[j].tolist(), row.shared_phi)
                certs.append(
                    {
                        "id": f"{row.key}-{i:06d}",
                        "kind": kind,
                        "case": row.case,
                        "table": row.table,
                        "row": row.row_id,
                        "sample_index": i,
                        "instance": instance.to_doc(),
                        "predicted_pair": row.predicted_pair,
                        "predicted_order": row.predicted_order,
                        **_observed_at(observed, j),
                    }
                )
        n = int(counts[0])
        means = [total / n if n else None for total in (overlap_sum, overlap_prime_sum)]
        tallies.append(RowTally(row, samples_per_row, *counts.tolist(), *means, tuple(certs)))
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
        **observe_instance(inst),
    }
