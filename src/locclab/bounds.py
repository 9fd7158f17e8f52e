"""Numerical evaluation of the superposition entanglement bounds T1-T9 and
the six-term negativity chain.

Every inequality is treated as a claim under test, never as an axiom: both
sides are evaluated on a concrete instance, signed margins are reported
(non-negative margin means the inequality held), and violating instances are
emitted as replayable certificates.  Ambiguities in the bound statements
(log parses, min/max labels, zero coefficients in scans) are transcribed
literally and flagged in the report notes rather than silently corrected.

Each bound is written once, as array code over a batch of instances
(``eval_t1`` .. ``eval_t9`` and ``eval_chain_inequality``): :func:`evaluate`
runs it on a batch of one, and :func:`survey_bounds` on chunks of sampled
instances, so a sample gives the same bits alone and inside a survey.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .measures import (
    entropy_rows,
    log_negativity_rows,
    negativity_rows,
    renyi_rows,
    require_log_base,
    require_renyi_order,
    xlog2x,
)
from .statefile import _require_number, state_document, state_from_document
from .states import (
    VECTOR_FORM,
    PreconditionError,
    PureState,
    RandomSource,
    draw_sorted_simplex,
    draw_weight,
    schmidt_of_state,
    simplex_masses,
)
from .superpose import SuperpositionResult, SuperpositionSpec, schmidt_rows, superpose, superpose_rows

# A bound "holds" when every evaluated margin clears this floor.
MARGIN_TOL = 1e-9

THEOREM_ORDER = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "Chain11")
# A survey keeps at most this many certificates per theorem.
MAX_SURVEY_CERTIFICATES = 10

_NEGATIVITY_NOTE = "negativity convention: (partial-transpose trace norm - 1)/2"


@dataclass(frozen=True)
class BoundInstance:
    """One concrete superposition with the evaluation knobs.

    ``gamma`` is the cached superposition of ``spec`` (always recomputable
    from it); ``delta_param`` is the Renyi order, ``log_base`` the base used
    where a bound writes a bare log.
    """

    spec: SuperpositionSpec
    gamma: SuperpositionResult
    delta_param: float | None
    log_base: float

    @classmethod
    def build(
        cls,
        spec: SuperpositionSpec,
        delta_param: float | None = None,
        log_base: float = 2.0,
    ) -> "BoundInstance":
        require_log_base(log_base)
        return cls(spec, superpose(spec), delta_param, log_base)

    @property
    def alpha(self) -> float:
        return self.spec.alpha

    @property
    def beta(self) -> float:
        return self.spec.beta

    @cached_property
    def rows(self) -> _Rows:
        """The instance, of any form, as a one-row batch from its Schmidt vectors."""
        vector = self.spec.psi.is_vector
        return _Rows(
            np.array([self.alpha]),
            np.array([self.beta]),
            np.array([self.gamma.schmidt.probs]),
            np.array([schmidt_of_state(self.spec.psi).probs]),
            np.array([schmidt_of_state(self.spec.phi).probs]),
            np.array([self.spec.psi.amplitudes]) if vector else None,
            np.array([self.spec.phi.amplitudes]) if vector else None,
        )


@dataclass(frozen=True)
class BoundReport:
    """Evaluated sides and signed margins of one bound on one instance.

    For an inequality written ``lhs <= rhs`` the margin is ``rhs - lhs``;
    ``holds`` requires every present margin to be at least ``-MARGIN_TOL``.
    The snapshot carries the full inputs, so any report can be re-derived; it
    is built from the evaluated instances on first access.
    """

    theorem: str
    lower_lhs: float | None
    lower_rhs: float | None
    upper_lhs: float | None
    upper_rhs: float | None
    margin_lower: float | None
    margin_upper: float | None
    holds: bool
    instance: BoundInstance
    notes: tuple[str, ...] = ()
    chain_terms: tuple[float, ...] | None = None
    chain_margins: tuple[float, ...] | None = None
    second: BoundInstance | None = None
    scan_excludes_zero: bool = False

    @property
    def orthogonal(self) -> bool:
        parts = (self.instance,) if self.second is None else (self.instance, self.second)
        return all(inst.gamma.orthogonal_components for inst in parts)

    @cached_property
    def snapshot(self) -> dict:
        return snapshot_of_instance(
            self.instance, self.theorem, self.second, self.scan_excludes_zero
        )

    def margins(self) -> tuple[float, ...]:
        present = [m for m in (self.margin_lower, self.margin_upper) if m is not None]
        if self.chain_margins is not None:
            present.extend(self.chain_margins)
        return tuple(present)

    def worst_margin(self) -> float:
        return min(self.margins())


def snapshot_of_instance(
    inst: BoundInstance,
    theorem: str,
    second: BoundInstance | None = None,
    scan_excludes_zero: bool = False,
) -> dict:
    snap = {
        "theorem": theorem,
        "alpha": inst.alpha,
        "beta": inst.beta,
        "psi": state_document(inst.spec.psi),
        "phi": state_document(inst.spec.phi),
        "delta": inst.delta_param,
        "log_base": inst.log_base,
        "scan_excludes_zero": scan_excludes_zero,
    }
    if second is not None:
        snap["psi_prime"] = state_document(second.spec.psi)
        snap["phi_prime"] = state_document(second.spec.phi)
    return snap


def _instance_from_blocks(snap: dict, psi_key: str, phi_key: str) -> BoundInstance:
    missing = [k for k in ("alpha", "beta", psi_key, phi_key) if k not in snap]
    if missing:
        raise ValueError(f"instance document lacks {', '.join(missing)}")
    spec = SuperpositionSpec(
        _require_number(snap["alpha"], "alpha"),
        _require_number(snap["beta"], "beta"),
        state_from_document(snap[psi_key]),
        state_from_document(snap[phi_key]),
    )
    delta = snap.get("delta")
    return BoundInstance.build(
        spec,
        None if delta is None else _require_number(delta, "delta"),
        _require_number(snap.get("log_base", 2.0), "log_base"),
    )


def instance_from_snapshot(snap: dict) -> BoundInstance:
    return _instance_from_blocks(snap, "psi", "phi")


def second_instance_from_snapshot(snap: dict) -> BoundInstance | None:
    """The chain's second instance, or None when the snapshot has no primed blocks."""
    if "psi_prime" not in snap and "phi_prime" not in snap:
        return None
    return _instance_from_blocks(snap, "psi_prime", "phi_prime")


def replay_certificate(certificate: dict) -> BoundReport:
    """Re-evaluate a certificate's snapshot; margins must reproduce exactly."""
    snap = certificate["snapshot"] if "snapshot" in certificate else certificate
    return evaluate(
        snap["theorem"],
        instance_from_snapshot(snap),
        second_instance_from_snapshot(snap),
        bool(snap.get("scan_excludes_zero", False)),
    )


def _check_parameters(
    theorems: Collection[str], delta: float | None, log_base: float
) -> None:
    """Reject a selection's bad parameters before anything is evaluated: an
    unknown theorem, then the log base, then the Renyi order of T5 and T6."""
    unknown = sorted(set(theorems).difference(THEOREM_ORDER))
    if unknown:
        raise ValueError(f"unknown theorem {unknown[0]!r} (choose from {','.join(THEOREM_ORDER)})")
    require_log_base(log_base)
    for theorem in ("T5", "T6"):
        if theorem not in theorems:
            continue
        if delta is None:
            raise PreconditionError(f"{theorem} needs a Renyi order parameter")
        require_renyi_order(delta)
        if delta == 1.0:
            raise PreconditionError(f"{theorem} excludes Renyi order 1")


# ---------------------------------------------------------------------------
# The bounds over arrays


@dataclass(frozen=True)
class _Rows:
    """A batch of ``m`` superpositions: ``(m,)`` weights, ``(m, d)`` Schmidt
    probabilities of gamma, psi and phi, the ``(m, d)`` amplitudes of
    vector-form components (None for matrix form), and the chain's second
    batch with the same weights."""

    alpha: np.ndarray
    beta: np.ndarray
    p_gamma: np.ndarray
    p_psi: np.ndarray
    p_phi: np.ndarray
    psi: np.ndarray | None
    phi: np.ndarray | None
    second: _Rows | None = None


def _amplitude_rows(alpha, beta, psi, phi, second: _Rows | None = None) -> _Rows:
    """Rows of vector-form pairs with their superpositions."""
    gamma, _ = superpose_rows(alpha, beta, psi, phi)
    return _Rows(
        alpha, beta, schmidt_rows(gamma), schmidt_rows(psi), schmidt_rows(phi), psi, phi, second
    )


@dataclass(frozen=True)
class _Sides:
    """One bound over a batch: ``lower <= value <= upper`` (a side may be
    absent) or the chain ``terms[0] <= terms[1] <= ...``; ``notes(j)`` are
    row ``j``'s notes."""

    lower: np.ndarray | None = None
    value: np.ndarray | None = None
    upper: np.ndarray | None = None
    terms: tuple[np.ndarray, ...] | None = None
    notes: Callable[[int], tuple[str, ...]] = lambda j: ()

    @cached_property
    def margins(self) -> np.ndarray:
        """``(m, k)`` margins ``rhs - lhs`` in ``BoundReport.margins()`` order."""
        pairs = []
        if self.lower is not None:
            pairs.append((self.lower, self.value))
        if self.upper is not None:
            pairs.append((self.value, self.upper))
        if self.terms is not None:
            pairs.extend(zip(self.terms, self.terms[1:]))
        return np.column_stack([rhs - lhs for lhs, rhs in pairs])

    @cached_property
    def holds(self) -> np.ndarray:
        return np.all(self.margins >= -MARGIN_TOL, axis=1)


def _scan(rows: _Rows, scan_excludes_zero: bool) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest pooled component amplitude (root coefficient) of
    each row; the smallest skips zeros when ``scan_excludes_zero`` is set."""
    pool = np.concatenate([rows.psi, rows.phi], axis=1)
    scanned = np.where(pool > 0.0, pool, np.inf) if scan_excludes_zero else pool
    return scanned.min(axis=1), pool.max(axis=1)


def _coefficient_term(rows: _Rows, x: np.ndarray) -> np.ndarray:
    """(9 (alpha+beta)^2 x^2 - 1)/2, negativity's shape at a scanned amplitude."""
    return 0.5 * (9.0 * (rows.alpha + rows.beta) ** 2 * x**2 - 1.0)


# One function per bound, each over a whole batch of rows.  T2, T4, T9 and
# the chain need 3x3 vector-form rows, T6 vector-form rows; the others take
# any form and dimension.  bench/tracer.py times these names as the
# ``bounds.evaluators`` layer.


def eval_t1(rows: _Rows, delta: float, log_base: float, scan_excludes_zero: bool) -> _Sides:
    """Weighted component negativities bound the combined negativity both ways."""
    n_psi, n_phi = negativity_rows(rows.p_psi), negativity_rows(rows.p_phi)
    combo = rows.alpha**2 * n_psi + rows.beta**2 * n_phi
    return _Sides(
        combo, negativity_rows(rows.p_gamma), combo + rows.alpha * rows.beta,
        notes=lambda j: (_NEGATIVITY_NOTE,),
    )


def eval_t2(rows: _Rows, delta: float, log_base: float, scan_excludes_zero: bool) -> _Sides:
    """Negativity bracketed at the extreme amplitudes."""
    lo, hi = _scan(rows, scan_excludes_zero)
    return _Sides(
        _coefficient_term(rows, lo), negativity_rows(rows.p_gamma), _coefficient_term(rows, hi),
        notes=lambda j: (_NEGATIVITY_NOTE,),
    )


def eval_t3(rows: _Rows, delta: float, log_base: float, scan_excludes_zero: bool) -> _Sides:
    """Mean component log-negativity plus 2 + log(alpha beta) as a floor."""
    ab = rows.alpha * rows.beta
    ln_psi, ln_phi = (log_negativity_rows(p, log_base) for p in (rows.p_psi, rows.p_phi))
    lower = 0.5 * (ln_psi + ln_phi) + 2.0 + np.log(ab) / math.log(log_base)
    return _Sides(lower, log_negativity_rows(rows.p_gamma, log_base))


def eval_t4(rows: _Rows, delta: float, log_base: float, scan_excludes_zero: bool) -> _Sides:
    """Log-negativity bracket 2 log(3 (alpha+beta) amp) at the extreme amplitudes."""
    lo, hi = _scan(rows, scan_excludes_zero)
    spread = 3.0 * (rows.alpha + rows.beta)
    lower = np.where(
        lo > 0.0,
        2.0 * np.log(spread * np.where(lo > 0.0, lo, 1.0)) / math.log(log_base),
        -np.inf,
    )
    vacuous = ("lower bound -inf (zero amplitude in scan): vacuously holds",)
    return _Sides(
        lower,
        log_negativity_rows(rows.p_gamma, log_base),
        2.0 * np.log(spread * hi) / math.log(log_base),
        notes=lambda j: () if lo[j] > 0.0 else vacuous,
    )


def eval_t5(rows: _Rows, delta: float, log_base: float, scan_excludes_zero: bool) -> _Sides:
    """Component Renyi entropies plus ln(3 (alpha beta)^(2 delta))/(1-delta), the
    log expanded for numerical stability at small alpha beta."""
    ab = rows.alpha * rows.beta
    r_psi, r_phi = renyi_rows(rows.p_psi, delta), renyi_rows(rows.p_phi, delta)
    lower = (math.log(3.0) + 2.0 * delta * np.log(ab)) / (1.0 - delta) + r_psi + r_phi
    return _Sides(lower, renyi_rows(rows.p_gamma, delta))


def eval_t6(rows: _Rows, delta: float, log_base: float, scan_excludes_zero: bool) -> _Sides:
    """Renyi entropy against (2 delta/(1-delta)) ln of the extreme unnormalized
    joint amplitudes alpha*sqrt(a_i) + beta*sqrt(b_i).  For delta > 1 the
    prefactor is negative, so the written lower side can exceed the upper
    side; the crossing is flagged, not corrected."""
    eta = rows.alpha[:, None] * rows.psi + rows.beta[:, None] * rows.phi
    eta_lo = (np.where(eta > 0.0, eta, np.inf) if scan_excludes_zero else eta).min(axis=1)
    coef = 2.0 * delta / (1.0 - delta)

    def side(amp: np.ndarray) -> np.ndarray:
        at_zero = -np.inf if coef > 0.0 else np.inf
        return np.where(amp > 0.0, coef * np.log(np.where(amp > 0.0, amp, 1.0)), at_zero)

    lower, upper = side(eta_lo), side(eta.max(axis=1))

    def notes(j: int) -> tuple[str, ...]:
        found = []
        if eta_lo[j] <= 0.0:
            found.append("zero joint amplitude in scan: bound side is infinite")
        if lower[j] > upper[j]:
            found.append("bound sides cross: prefactor 2*delta/(1-delta) is negative")
        return tuple(found)

    return _Sides(lower, renyi_rows(rows.p_gamma, delta), upper, notes=notes)


def eval_t7(rows: _Rows, delta: float, log_base: float, scan_excludes_zero: bool) -> _Sides:
    """Entropy bounded by the squared weighted root-entropies-plus-one."""
    e_psi, e_phi = entropy_rows(rows.p_psi), entropy_rows(rows.p_phi)
    upper = (rows.alpha * np.sqrt(e_psi + 1.0) + rows.beta * np.sqrt(e_phi + 1.0)) ** 2
    return _Sides(value=entropy_rows(rows.p_gamma), upper=upper)


def eval_t8(rows: _Rows, delta: float, log_base: float, scan_excludes_zero: bool) -> _Sides:
    """Weighted component entropies minus the weight log terms, the weights
    linear exactly as written; the squared-weight reading (a binary entropy)
    goes into the notes for comparison."""
    alpha, beta = rows.alpha, rows.beta
    e_psi, e_phi = entropy_rows(rows.p_psi), entropy_rows(rows.p_phi)
    upper = alpha * e_psi + beta * e_phi - xlog2x(alpha) - xlog2x(beta)
    a2, b2 = alpha * alpha, beta * beta
    alt = a2 * e_psi + b2 * e_phi - xlog2x(a2) - xlog2x(b2)
    return _Sides(
        value=entropy_rows(rows.p_gamma),
        upper=upper,
        notes=lambda j: (f"alternative squared-weight reading gives upper {float(alt[j])!r}",),
    )


def eval_t9(rows: _Rows, delta: float, log_base: float, scan_excludes_zero: bool) -> _Sides:
    """Entropy against 2 log2(3 (alpha+beta)) times the largest amplitude: log2
    of the full product, the parse (log2 3)*(alpha+beta) in the notes."""
    _, hi = _scan(rows, scan_excludes_zero)
    weight_sum = rows.alpha + rows.beta
    alt = 2.0 * math.log2(3.0) * weight_sum * hi
    return _Sides(
        value=entropy_rows(rows.p_gamma),
        upper=2.0 * np.log2(3.0 * weight_sum) * hi,
        notes=lambda j: (
            f"alternative parse (log2 3)*(alpha+beta) gives upper {float(alt[j])!r}",
        ),
    )


def eval_chain_inequality(
    rows: _Rows, delta: float, log_base: float, scan_excludes_zero: bool
) -> _Sides:
    """The six-term chain over ``rows`` and ``rows.second``, transcribed
    literally: the coefficient terms square the named squared Schmidt
    coefficients, the middle terms are min/max of the two negativities, and
    the last link compares a max against a min of first coefficients.  Links
    that fail are flagged, not repaired."""
    second = rows.second
    a, b = rows.psi * rows.psi, rows.phi * rows.phi
    ap, bp = second.psi * second.psi, second.phi * second.phi
    n_a, n_b = negativity_rows(rows.p_gamma), negativity_rows(second.p_gamma)
    terms = (
        _coefficient_term(rows, np.minimum(ap[:, 2], bp[:, 2])),
        _coefficient_term(rows, np.minimum(a[:, 2], b[:, 2])),
        np.minimum(n_a, n_b),
        np.maximum(n_a, n_b),
        _coefficient_term(rows, np.maximum(ap[:, 0], bp[:, 0])),
        _coefficient_term(rows, np.minimum(a[:, 0], b[:, 0])),
    )
    notes = (
        _NEGATIVITY_NOTE,
        "literal transcription: coefficient terms square the squared Schmidt "
        "coefficients; the reading consistent with the amplitude-scan bound "
        "would drop the outer square",
        "middle terms read as min/max of the two negativities",
        "final link compares max(primed first coefficients) against "
        "min(unprimed first coefficients), as written",
    )
    return _Sides(terms=terms, notes=lambda j: notes)


# ``_BOUNDS[theorem](rows, delta, log_base, scan_excludes_zero)`` gives both
# sides of ``theorem`` on every row.
_BOUNDS = {
    "T1": eval_t1,
    "T2": eval_t2,
    "T3": eval_t3,
    "T4": eval_t4,
    "T5": eval_t5,
    "T6": eval_t6,
    "T7": eval_t7,
    "T8": eval_t8,
    "T9": eval_t9,
    "Chain11": eval_chain_inequality,
}


def _report(
    theorem: str,
    sides: _Sides,
    j: int,
    inst: BoundInstance,
    second: BoundInstance | None,
    scan_excludes_zero: bool,
) -> BoundReport:
    """Row ``j`` of ``sides`` as the report on ``inst``; failing chain links
    are flagged in the notes."""

    def at(side: np.ndarray | None) -> float | None:
        return None if side is None else float(side[j])

    margins = iter(sides.margins[j].tolist())
    margin_lower = None if sides.lower is None else next(margins)
    margin_upper = None if sides.upper is None else next(margins)
    notes = sides.notes(j)
    chain_terms = chain_margins = None
    if sides.terms is not None:
        chain_terms = tuple(float(t[j]) for t in sides.terms)
        chain_margins = tuple(margins)
        notes += tuple(
            f"link {i + 1} fails under the literal reading"
            for i, m in enumerate(chain_margins)
            if m < -MARGIN_TOL
        )
    return BoundReport(
        theorem,
        lower_lhs=at(sides.lower),
        lower_rhs=None if sides.lower is None else at(sides.value),
        upper_lhs=None if sides.upper is None else at(sides.value),
        upper_rhs=at(sides.upper),
        margin_lower=margin_lower,
        margin_upper=margin_upper,
        holds=bool(sides.holds[j]),
        instance=inst,
        notes=notes,
        chain_terms=chain_terms,
        chain_margins=chain_margins,
        second=second,
        scan_excludes_zero=scan_excludes_zero and theorem in ("T2", "T4", "T6", "T9"),
    )


def _require_vector3_components(inst: BoundInstance, theorem: str) -> None:
    if inst.spec.psi.layout != (VECTOR_FORM, 3):
        raise PreconditionError(
            f"{theorem} is stated for 3x3 vector-form components, got {inst.spec.psi.layout}"
        )


def evaluate(
    theorem: str,
    inst: BoundInstance,
    second: BoundInstance | None = None,
    scan_excludes_zero: bool = False,
) -> BoundReport:
    """Evaluate one bound of ``THEOREM_ORDER`` on ``inst``.

    Only the amplitude-scan bounds (T2, T4, T6, T9) take the zero-exclusion
    flag; the chain needs the second instance (the snapshot's primed blocks)
    with equal weights.
    """
    _check_parameters((theorem,), inst.delta_param, inst.log_base)
    if theorem == "Chain11":
        if second is None:
            raise PreconditionError("chain evaluation needs psi_prime/phi_prime blocks")
        if abs(inst.alpha - second.alpha) > 1e-12 or abs(inst.beta - second.beta) > 1e-12:
            raise PreconditionError(
                f"chain needs equal weights, got ({inst.alpha!r}, {inst.beta!r}) "
                f"vs ({second.alpha!r}, {second.beta!r})"
            )
        _require_vector3_components(inst, theorem)
        _require_vector3_components(second, theorem)
    else:
        second = None
        if theorem in ("T2", "T4", "T9"):
            _require_vector3_components(inst, theorem)
        if theorem == "T6" and not inst.spec.psi.is_vector:
            raise PreconditionError("T6 is stated for vector-form components")
        if theorem in ("T3", "T5") and not inst.alpha * inst.beta > 0.0:
            raise PreconditionError(f"{theorem} needs alpha*beta > 0 (log of the product is taken)")
    rows = inst.rows if second is None else replace(inst.rows, second=second.rows)
    sides = _BOUNDS[theorem](rows, inst.delta_param, inst.log_base, scan_excludes_zero)
    return _report(theorem, sides, 0, inst, second, scan_excludes_zero)


@dataclass(frozen=True)
class TheoremTally:
    theorem: str
    evaluated: int
    held: int
    worst_margin: float | None
    certificates: tuple[dict, ...]

    @property
    def hold_rate(self) -> float | None:
        return self.held / self.evaluated if self.evaluated else None


@dataclass(frozen=True)
class BoundSurvey:
    """Per-theorem hold rates over sampled instances, with certificates.

    Deterministic in the random source; certificates replay through
    :func:`replay_certificate`.
    """

    tallies: tuple[TheoremTally, ...]

    def certificates(self) -> list[dict]:
        return [c for t in self.tallies for c in t.certificates]

    def to_csv(self) -> str:
        lines = ["theorem,n,hold_rate,worst_margin,certificate_ids"]
        for t in self.tallies:
            rate = "" if t.hold_rate is None else repr(t.hold_rate)
            worst = "" if t.worst_margin is None else repr(t.worst_margin)
            ids = ";".join(c["id"] for c in t.certificates)
            lines.append(f"{t.theorem},{t.evaluated},{rate},{worst},{ids}")
        return "\n".join(lines) + "\n"


# The survey draws and evaluates samples in chunks of this many, so its
# memory stays bounded whatever the sample count.  The kernel's temporaries
# take about 0.6 kB a sample, and larger chunks gain almost no time.
SURVEY_CHUNK = 512


def _draw_vector3(gen, orthogonal: bool) -> tuple[list[float], list[float]]:
    """Amplitudes of one component pair: sorted full-support triples, or
    disjoint supports.

    Disjoint supports (the only way two shared-basis non-negative vectors can
    be orthogonal) force zeros, so those amplitudes stay in physical basis
    order instead of sorted order.
    """
    if not orthogonal:
        a = draw_sorted_simplex(gen, 3)
        b = draw_sorted_simplex(gen, 3)
        return [math.sqrt(x) for x in a], [math.sqrt(x) for x in b]
    k = int(gen.integers(1, 3))
    order = [int(i) for i in gen.permutation(3)]
    psi_amp = [0.0, 0.0, 0.0]
    phi_amp = [0.0, 0.0, 0.0]
    for idx, mass in zip(order[:k], simplex_masses(gen, k)):
        psi_amp[idx] = math.sqrt(mass)
    for idx, mass in zip(order[k:], simplex_masses(gen, 3 - k)):
        phi_amp[idx] = math.sqrt(mass)
    return psi_amp, phi_amp


def _draw_chunk(rng: RandomSource, indices: range, orthogonal: bool):
    """Weights and component triples of samples ``indices``, each drawn from its
    own sub-stream: ``(m,)`` alpha and beta, ``(m, 4, 3)`` psi, phi, psi', phi'."""
    weights = np.empty((len(indices), 2))
    amps = np.empty((len(indices), 12))
    for j, i in enumerate(indices):
        gen = rng.derive(i).generator()
        alpha = draw_weight(gen)
        weights[j] = alpha, math.sqrt(1.0 - alpha * alpha)
        psi, phi = _draw_vector3(gen, orthogonal)
        psi2, phi2 = _draw_vector3(gen, orthogonal)
        amps[j] = psi + phi + psi2 + phi2
    return weights[:, 0], weights[:, 1], amps.reshape(-1, 4, 3)


def _row_instance(rows: _Rows, j: int, delta: float, log_base: float) -> BoundInstance:
    """Row ``j`` of a vector-form batch as an instance, from the same floats."""
    spec = SuperpositionSpec(
        float(rows.alpha[j]),
        float(rows.beta[j]),
        PureState.vector(rows.psi[j].tolist()),
        PureState.vector(rows.phi[j].tolist()),
    )
    return BoundInstance.build(spec, delta, log_base)


def survey_bounds(
    rng: RandomSource,
    n: int,
    *,
    theorems: Iterable[str] = THEOREM_ORDER,
    orthogonal_only: bool = False,
    delta: float = 2.0,
    log_base: float = 2.0,
    scan_excludes_zero: bool = False,
) -> BoundSurvey:
    """Evaluate the selected bounds on ``n`` sampled 3x3 instances and tally
    hold rates, in ``THEOREM_ORDER`` whatever the order of ``theorems``.

    Each sample draws both component pairs from its own sub-stream, so a
    theorem's tally depends neither on chunking nor on the selection.  The
    chain uses the second pair, superposed only when the chain is selected.
    Samples are evaluated in chunks by the same array code as
    :func:`evaluate`, so the survey equals a per-sample loop over it bit for
    bit; a certificate's report is row ``j`` of its chunk.
    """
    if n < 1:
        raise ValueError("survey needs at least one sample")
    wanted = set(theorems)
    if not wanted:
        raise ValueError("survey needs at least one theorem")
    _check_parameters(wanted, delta, log_base)
    selected = [t for t in THEOREM_ORDER if t in wanted]
    held = dict.fromkeys(selected, 0)
    worst_margin: dict[str, float | None] = dict.fromkeys(selected)
    certs: dict[str, list[dict]] = {t: [] for t in selected}
    for start in range(0, n, SURVEY_CHUNK):
        alpha, beta, amps = _draw_chunk(
            rng, range(start, min(n, start + SURVEY_CHUNK)), orthogonal_only
        )
        second = None
        if "Chain11" in wanted:
            second = _amplitude_rows(alpha, beta, amps[:, 2], amps[:, 3])
        rows = _amplitude_rows(alpha, beta, amps[:, 0], amps[:, 1], second)

        for theorem in selected:
            sides = _BOUNDS[theorem](rows, delta, log_base, scan_excludes_zero)
            held[theorem] += int(sides.holds.sum())
            lowest = float(sides.margins.min())
            if worst_margin[theorem] is None or lowest < worst_margin[theorem]:
                worst_margin[theorem] = lowest
            room = MAX_SURVEY_CERTIFICATES - len(certs[theorem])
            for j in np.flatnonzero(~sides.holds)[:room].tolist():
                inst = _row_instance(rows, j, delta, log_base)
                pair = _row_instance(second, j, delta, log_base) if theorem == "Chain11" else None
                report = _report(theorem, sides, j, inst, pair, scan_excludes_zero)
                certs[theorem].append(
                    {
                        "id": f"{theorem}-{start + j:06d}",
                        "sample_index": start + j,
                        "snapshot": report.snapshot,
                        "margins": list(report.margins()),
                        "holds": report.holds,
                        "notes": list(report.notes),
                    }
                )
    tallies = tuple(
        TheoremTally(t, n, held[t], worst_margin[t], tuple(certs[t])) for t in selected
    )
    return BoundSurvey(tallies)
