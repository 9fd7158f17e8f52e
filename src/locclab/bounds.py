"""Numerical evaluation of the superposition entanglement bounds T1-T9 and
the six-term negativity chain.

Every inequality is treated as a claim under test, never as an axiom: both
sides are evaluated on a concrete instance, signed margins are reported
(non-negative margin means the inequality held), and violating instances are
emitted as replayable certificates.  Ambiguities in the bound statements
(log parses, min/max labels, zero coefficients in scans) are transcribed
literally and flagged in the report notes rather than silently corrected.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .measures import (
    entropy_of_entanglement,
    log_negativity,
    negativity,
    renyi_entropy,
)
from .statefile import _require_number, state_document, state_from_document
from .states import (
    VECTOR_FORM,
    PreconditionError,
    PureState,
    RandomSource,
    SchmidtVector,
    draw_sorted_simplex,
    draw_weight,
    schmidt_of_state,
    simplex_masses,
)
from .superpose import SuperpositionResult, SuperpositionSpec, superpose

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
        if not log_base > 1.0:
            raise ValueError(f"log base must exceed 1, got {log_base!r}")
        return cls(spec, superpose(spec), delta_param, log_base)

    @property
    def alpha(self) -> float:
        return self.spec.alpha

    @property
    def beta(self) -> float:
        return self.spec.beta

    @cached_property
    def psi_schmidt(self) -> SchmidtVector:
        return schmidt_of_state(self.spec.psi)

    @cached_property
    def phi_schmidt(self) -> SchmidtVector:
        return schmidt_of_state(self.spec.phi)


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


def _report(
    theorem: str,
    inst: BoundInstance,
    value: float | None = None,
    lower: float | None = None,
    upper: float | None = None,
    notes=(),
    *,
    scan_excludes_zero: bool = False,
    second: BoundInstance | None = None,
    chain_terms: tuple[float, ...] | None = None,
) -> BoundReport:
    """Margins and verdict of ``lower <= value <= upper`` (a side may be absent),
    or of the chain ``chain_terms[0] <= chain_terms[1] <= ...``.

    Every margin is ``rhs - lhs``; chain links that fail are flagged in the
    notes.
    """
    margin_lower = None if lower is None else value - lower
    margin_upper = None if upper is None else upper - value
    margins = [m for m in (margin_lower, margin_upper) if m is not None]
    chain_margins = None
    if chain_terms is not None:
        chain_margins = tuple(rhs - lhs for lhs, rhs in zip(chain_terms, chain_terms[1:]))
        margins.extend(chain_margins)
        notes = tuple(notes) + tuple(
            f"link {i + 1} fails under the literal reading"
            for i, m in enumerate(chain_margins)
            if m < -MARGIN_TOL
        )
    return BoundReport(
        theorem,
        lower_lhs=lower,
        lower_rhs=None if lower is None else value,
        upper_lhs=None if upper is None else value,
        upper_rhs=upper,
        margin_lower=margin_lower,
        margin_upper=margin_upper,
        holds=all(not math.isnan(m) and m >= -MARGIN_TOL for m in margins),
        instance=inst,
        notes=tuple(notes),
        chain_terms=chain_terms,
        chain_margins=chain_margins,
        second=second,
        scan_excludes_zero=scan_excludes_zero,
    )


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


def _require_vector3_components(inst: BoundInstance, theorem: str) -> None:
    if inst.spec.psi.layout != (VECTOR_FORM, 3):
        raise PreconditionError(
            f"{theorem} is stated for 3x3 vector-form components, got {inst.spec.psi.layout}"
        )


def _amplitude_scan(inst: BoundInstance, exclude_zero: bool) -> tuple[float, float]:
    """Min and max over the pooled component amplitudes (the root coefficients)."""
    pool = inst.spec.psi.amplitudes + inst.spec.phi.amplitudes
    if exclude_zero:
        pool = tuple(x for x in pool if x > 0.0)
    return min(pool), max(pool)


def eval_t1(inst: BoundInstance) -> BoundReport:
    """Weighted component negativities bound the combined negativity both ways."""
    n_gamma = negativity(inst.gamma.schmidt)
    combo = inst.alpha**2 * negativity(inst.psi_schmidt) + inst.beta**2 * negativity(
        inst.phi_schmidt
    )
    upper = combo + inst.alpha * inst.beta
    return _report("T1", inst, n_gamma, combo, upper, (_NEGATIVITY_NOTE,))


def eval_t2(inst: BoundInstance, scan_excludes_zero: bool = False) -> BoundReport:
    """Negativity bracketed by 9(alpha+beta)^2 times the extreme squared amplitudes."""
    _require_vector3_components(inst, "T2")
    lo_amp, hi_amp = _amplitude_scan(inst, scan_excludes_zero)
    pref = 9.0 * (inst.alpha + inst.beta) ** 2
    lower = 0.5 * (pref * lo_amp**2 - 1.0)
    upper = 0.5 * (pref * hi_amp**2 - 1.0)
    n_gamma = negativity(inst.gamma.schmidt)
    notes = (_NEGATIVITY_NOTE,)
    return _report("T2", inst, n_gamma, lower, upper, notes, scan_excludes_zero=scan_excludes_zero)


def eval_t3(inst: BoundInstance) -> BoundReport:
    """Mean component log-negativity plus 2 + log(alpha beta) as a lower bound."""
    ab = inst.alpha * inst.beta
    if ab <= 0.0:
        raise PreconditionError("T3 needs alpha*beta > 0 (log of the product is taken)")
    base = inst.log_base
    lower = (
        0.5 * (log_negativity(inst.psi_schmidt, base) + log_negativity(inst.phi_schmidt, base))
        + 2.0
        + math.log(ab, base)
    )
    return _report("T3", inst, log_negativity(inst.gamma.schmidt, base), lower)


def eval_t4(inst: BoundInstance, scan_excludes_zero: bool = False) -> BoundReport:
    """Log-negativity bracket 2 log(3 (alpha+beta) amp) at the extreme amplitudes."""
    _require_vector3_components(inst, "T4")
    lo_amp, hi_amp = _amplitude_scan(inst, scan_excludes_zero)
    base = inst.log_base
    spread = 3.0 * (inst.alpha + inst.beta)
    notes: list[str] = []
    if lo_amp > 0.0:
        lower = 2.0 * math.log(spread * lo_amp, base)
    else:
        lower = -math.inf
        notes.append("lower bound -inf (zero amplitude in scan): vacuously holds")
    upper = 2.0 * math.log(spread * hi_amp, base)
    ln_gamma = log_negativity(inst.gamma.schmidt, base)
    return _report(
        "T4", inst, ln_gamma, lower, upper, notes, scan_excludes_zero=scan_excludes_zero
    )


def _require_renyi_order(inst: BoundInstance, theorem: str) -> float:
    delta = inst.delta_param
    if delta is None:
        raise PreconditionError(f"{theorem} needs a Renyi order parameter")
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise PreconditionError(f"Renyi order must be finite and non-negative, got {delta!r}")
    if delta == 1.0:
        raise PreconditionError(f"{theorem} excludes Renyi order 1")
    return delta


def eval_t5(inst: BoundInstance) -> BoundReport:
    """Component Renyi entropies plus ln(3 (alpha beta)^(2 delta))/(1-delta) as a floor."""
    delta = _require_renyi_order(inst, "T5")
    ab = inst.alpha * inst.beta
    if ab <= 0.0:
        raise PreconditionError("T5 needs alpha*beta > 0")
    # ln(3 (ab)^(2 delta)) expanded for numerical stability at small ab.
    lower = (math.log(3.0) + 2.0 * delta * math.log(ab)) / (1.0 - delta) + renyi_entropy(
        inst.psi_schmidt, delta
    ) + renyi_entropy(inst.phi_schmidt, delta)
    return _report("T5", inst, renyi_entropy(inst.gamma.schmidt, delta), lower)


def eval_t6(inst: BoundInstance, scan_excludes_zero: bool = False) -> BoundReport:
    """Renyi entropy against (2 delta/(1-delta)) ln of the extreme joint amplitudes.

    The scan runs over the unnormalized combined amplitudes
    alpha*sqrt(a_i) + beta*sqrt(b_i); the zero-exclusion flag applies to it
    like to the other scans.  For delta > 1 the prefactor is negative, so the
    written lower side can exceed the upper side; the crossing is flagged,
    not corrected.
    """
    delta = _require_renyi_order(inst, "T6")
    if not inst.spec.psi.is_vector:
        raise PreconditionError("T6 is stated for vector-form components")
    eta = [
        inst.alpha * a + inst.beta * b
        for a, b in zip(inst.spec.psi.amplitudes, inst.spec.phi.amplitudes)
    ]
    if scan_excludes_zero:
        eta = [x for x in eta if x > 0.0]
    coef = 2.0 * delta / (1.0 - delta)
    notes: list[str] = []

    def side(amp: float) -> float:
        if amp > 0.0:
            return coef * math.log(amp)
        return -math.inf if coef > 0.0 else math.inf

    lower = side(min(eta))
    upper = side(max(eta))
    if min(eta) <= 0.0:
        notes.append("zero joint amplitude in scan: bound side is infinite")
    if lower > upper:
        notes.append("bound sides cross: prefactor 2*delta/(1-delta) is negative")
    s_gamma = renyi_entropy(inst.gamma.schmidt, delta)
    return _report(
        "T6", inst, s_gamma, lower, upper, notes, scan_excludes_zero=scan_excludes_zero
    )


def eval_t7(inst: BoundInstance) -> BoundReport:
    """Entropy bounded by the squared weighted root-entropies-plus-one."""
    e_gamma = entropy_of_entanglement(inst.gamma.schmidt)
    upper = (
        inst.alpha * math.sqrt(entropy_of_entanglement(inst.psi_schmidt) + 1.0)
        + inst.beta * math.sqrt(entropy_of_entanglement(inst.phi_schmidt) + 1.0)
    ) ** 2
    return _report("T7", inst, e_gamma, upper=upper)


def _xlog2(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def eval_t8(inst: BoundInstance) -> BoundReport:
    """Weighted component entropies minus the weight log terms, weights linear.

    The weights enter linearly, exactly as the bound is written; the
    squared-weight reading (which turns the log terms into a binary entropy)
    is recorded in the notes for comparison.
    """
    e_gamma = entropy_of_entanglement(inst.gamma.schmidt)
    e_psi = entropy_of_entanglement(inst.psi_schmidt)
    e_phi = entropy_of_entanglement(inst.phi_schmidt)
    a, b = inst.alpha, inst.beta
    upper = a * e_psi + b * e_phi - _xlog2(a) - _xlog2(b)
    alt = a * a * e_psi + b * b * e_phi - _xlog2(a * a) - _xlog2(b * b)
    notes = (f"alternative squared-weight reading gives upper {alt!r}",)
    return _report("T8", inst, e_gamma, upper=upper, notes=notes)


def eval_t9(inst: BoundInstance, scan_excludes_zero: bool = False) -> BoundReport:
    """Entropy against 2 log2(3 (alpha+beta)) times the largest amplitude.

    Parsed as log2 applied to the full product 3(alpha+beta); the alternative
    parse (log2 3)*(alpha+beta) is evaluated into the notes.
    """
    _require_vector3_components(inst, "T9")
    _, hi_amp = _amplitude_scan(inst, scan_excludes_zero)
    e_gamma = entropy_of_entanglement(inst.gamma.schmidt)
    upper = 2.0 * math.log2(3.0 * (inst.alpha + inst.beta)) * hi_amp
    alt = 2.0 * math.log2(3.0) * (inst.alpha + inst.beta) * hi_amp
    notes = (f"alternative parse (log2 3)*(alpha+beta) gives upper {alt!r}",)
    return _report(
        "T9", inst, e_gamma, upper=upper, notes=notes, scan_excludes_zero=scan_excludes_zero
    )


def eval_chain_inequality(inst_a: BoundInstance, inst_b: BoundInstance) -> BoundReport:
    """Six-term negativity chain for two superpositions with equal weights.

    Transcribed literally: the coefficient terms square the named squared
    Schmidt coefficients, the two middle terms are read as min/max of the two
    negativities, and the last link compares a max against a min of
    first coefficients.  Links that fail under this literal reading are
    flagged, not repaired.
    """
    if abs(inst_a.alpha - inst_b.alpha) > 1e-12 or abs(inst_a.beta - inst_b.beta) > 1e-12:
        raise PreconditionError(
            f"chain needs equal weights, got ({inst_a.alpha!r}, {inst_a.beta!r}) "
            f"vs ({inst_b.alpha!r}, {inst_b.beta!r})"
        )
    _require_vector3_components(inst_a, "Chain11")
    _require_vector3_components(inst_b, "Chain11")
    a = [x * x for x in inst_a.spec.psi.amplitudes]
    b = [x * x for x in inst_a.spec.phi.amplitudes]
    ap = [x * x for x in inst_b.spec.psi.amplitudes]
    bp = [x * x for x in inst_b.spec.phi.amplitudes]
    pref = 9.0 * (inst_a.alpha + inst_a.beta) ** 2
    n_a = negativity(inst_a.gamma.schmidt)
    n_b = negativity(inst_b.gamma.schmidt)
    terms = (
        0.5 * (pref * min(ap[2], bp[2]) ** 2 - 1.0),
        0.5 * (pref * min(a[2], b[2]) ** 2 - 1.0),
        min(n_a, n_b),
        max(n_a, n_b),
        0.5 * (pref * max(ap[0], bp[0]) ** 2 - 1.0),
        0.5 * (pref * min(a[0], b[0]) ** 2 - 1.0),
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
    return _report("Chain11", inst_a, notes=notes, second=inst_b, chain_terms=terms)


def replay_certificate(certificate: dict) -> BoundReport:
    """Re-evaluate a certificate's snapshot; margins must reproduce exactly."""
    snap = certificate["snapshot"] if "snapshot" in certificate else certificate
    return evaluate(
        snap["theorem"],
        instance_from_snapshot(snap),
        second_instance_from_snapshot(snap),
        bool(snap.get("scan_excludes_zero", False)),
    )


_EVALUATORS = {
    "T1": eval_t1,
    "T2": eval_t2,
    "T3": eval_t3,
    "T4": eval_t4,
    "T5": eval_t5,
    "T6": eval_t6,
    "T7": eval_t7,
    "T8": eval_t8,
    "T9": eval_t9,
}


def evaluate(
    theorem: str,
    inst: BoundInstance,
    second: BoundInstance | None = None,
    scan_excludes_zero: bool = False,
) -> BoundReport:
    """Evaluate one bound of ``THEOREM_ORDER`` on ``inst``.

    Only the amplitude-scan bounds take the zero-exclusion flag; the chain
    needs the second instance (the snapshot's primed blocks).
    """
    if theorem == "Chain11":
        if second is None:
            raise PreconditionError("chain evaluation needs psi_prime/phi_prime blocks")
        return eval_chain_inequality(inst, second)
    if theorem in ("T2", "T4", "T6", "T9"):
        return _EVALUATORS[theorem](inst, scan_excludes_zero)
    return _EVALUATORS[theorem](inst)


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


def _draw_vector3(gen, orthogonal: bool) -> tuple[PureState, PureState]:
    """One component pair: sorted full-support triples, or disjoint supports.

    Disjoint supports (the only way two shared-basis non-negative vectors can
    be orthogonal) force zeros, so those amplitudes stay in physical basis
    order instead of sorted order.
    """
    if not orthogonal:
        a = draw_sorted_simplex(gen, 3)
        b = draw_sorted_simplex(gen, 3)
        return (
            PureState.vector([math.sqrt(x) for x in a]),
            PureState.vector([math.sqrt(x) for x in b]),
        )
    k = int(gen.integers(1, 3))
    order = [int(i) for i in gen.permutation(3)]
    psi_amp = [0.0, 0.0, 0.0]
    phi_amp = [0.0, 0.0, 0.0]
    for idx, mass in zip(order[:k], simplex_masses(gen, k)):
        psi_amp[idx] = math.sqrt(mass)
    for idx, mass in zip(order[k:], simplex_masses(gen, 3 - k)):
        phi_amp[idx] = math.sqrt(mass)
    return PureState.vector(psi_amp), PureState.vector(phi_amp)


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
    theorem's tally depends neither on loop scheduling nor on the selection.
    The chain uses the second pair, superposed only when the chain is selected.
    """
    if n < 1:
        raise ValueError("survey needs at least one sample")
    wanted = set(theorems)
    unknown = sorted(wanted.difference(THEOREM_ORDER))
    if unknown:
        raise ValueError(f"unknown theorem {unknown[0]!r} (choose from {','.join(THEOREM_ORDER)})")
    if not wanted:
        raise ValueError("survey needs at least one theorem")
    selected = [t for t in THEOREM_ORDER if t in wanted]
    held = dict.fromkeys(selected, 0)
    worst: dict[str, float | None] = dict.fromkeys(selected)
    certs: dict[str, list[dict]] = {t: [] for t in selected}
    for i in range(n):
        gen = rng.derive(i).generator()
        alpha = draw_weight(gen)
        beta = math.sqrt(1.0 - alpha * alpha)
        psi, phi = _draw_vector3(gen, orthogonal_only)
        psi2, phi2 = _draw_vector3(gen, orthogonal_only)
        inst = BoundInstance.build(SuperpositionSpec(alpha, beta, psi, phi), delta, log_base)
        inst2 = None
        if "Chain11" in wanted:
            inst2 = BoundInstance.build(SuperpositionSpec(alpha, beta, psi2, phi2), delta, log_base)
        for theorem in selected:
            report = evaluate(theorem, inst, inst2, scan_excludes_zero)
            held[theorem] += int(report.holds)
            margin = report.worst_margin()
            if worst[theorem] is None or margin < worst[theorem]:
                worst[theorem] = margin
            if not report.holds and len(certs[theorem]) < MAX_SURVEY_CERTIFICATES:
                certs[theorem].append(
                    {
                        "id": f"{theorem}-{i:06d}",
                        "sample_index": i,
                        "snapshot": report.snapshot,
                        "margins": list(report.margins()),
                        "holds": report.holds,
                        "notes": list(report.notes),
                    }
                )
    tallies = tuple(
        TheoremTally(t, n, held[t], worst[t], tuple(certs[t])) for t in selected
    )
    return BoundSurvey(tallies)
