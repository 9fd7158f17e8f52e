"""Deterministic-LOCC comparability of pure bipartite states.

A state converts to another with certainty exactly when its Schmidt vector is
majorized by the target's, so every verdict here reduces to partial-sum
dominance checks on sorted probability vectors.
"""

from __future__ import annotations

from enum import Enum

from .states import PreconditionError, SchmidtVector

# Partial-sum comparisons tolerate this much absolute slack, so numerically
# identical vectors classify as Equivalent.
PARTIAL_SUM_TOL = 1e-12
# Strict inequalities in the three-coefficient shortcut need at least this gap.
STRICT_CMP_GAP = 1e-12


class ComparabilityVerdict(Enum):
    EQUIVALENT = "Equivalent"
    CONVERTIBLE_A_TO_B = "ConvertibleAtoB"
    CONVERTIBLE_B_TO_A = "ConvertibleBtoA"
    INCOMPARABLE = "Incomparable"

    @property
    def comparable(self) -> bool:
        """True unless the pair converts in neither direction."""
        return self is not ComparabilityVerdict.INCOMPARABLE


def _dominance(x: tuple[float, ...], y: tuple[float, ...]) -> tuple[bool, bool]:
    """(x majorized by y, y majorized by x) via one pass of prefix sums."""
    sx = sy = 0.0
    fwd = bwd = True
    for xi, yi in zip(x, y):
        sx += xi
        sy += yi
        if sx > sy + PARTIAL_SUM_TOL:
            fwd = False
            if not bwd:
                break
        if sy > sx + PARTIAL_SUM_TOL:
            bwd = False
            if not fwd:
                break
    return fwd, bwd


def _padded_pair(x: SchmidtVector, y: SchmidtVector) -> tuple[tuple[float, ...], tuple[float, ...]]:
    d = max(x.dim, y.dim)
    return x.padded(d), y.padded(d)


def majorizes(y: SchmidtVector, x: SchmidtVector) -> bool:
    """True iff ``x`` is majorized by ``y`` (every prefix sum of x is <= y's).

    Vectors of different length are compared after zero-padding the shorter.
    """
    px, py = _padded_pair(x, y)
    return _dominance(px, py)[0]


def _classify_probs(x: tuple[float, ...], y: tuple[float, ...]) -> ComparabilityVerdict:
    """Verdict on equal-length, sorted probability tuples (no validation)."""
    fwd, bwd = _dominance(x, y)
    if fwd and bwd:
        return ComparabilityVerdict.EQUIVALENT
    if fwd:
        return ComparabilityVerdict.CONVERTIBLE_A_TO_B
    if bwd:
        return ComparabilityVerdict.CONVERTIBLE_B_TO_A
    return ComparabilityVerdict.INCOMPARABLE


def classify_pair(chi: SchmidtVector, eta: SchmidtVector) -> ComparabilityVerdict:
    """Four-way comparability verdict for the ordered pair (chi, eta).

    ``CONVERTIBLE_A_TO_B`` means chi converts to eta with certainty, i.e. chi
    is majorized by eta; ``EQUIVALENT`` when both directions pass,
    ``INCOMPARABLE`` when neither does.
    """
    return _classify_probs(*_padded_pair(chi, eta))


def _require_strict_triple(name: str, v: SchmidtVector) -> None:
    if v.dim != 3:
        raise PreconditionError(f"{name} must have exactly 3 entries, got {v.dim}")
    p0, p1, p2 = v.probs
    if not (p0 - p1 > STRICT_CMP_GAP and p1 - p2 > STRICT_CMP_GAP and p2 > STRICT_CMP_GAP):
        raise PreconditionError(
            f"{name} must be strictly ordered and strictly positive, got {v.probs}"
        )


def incomparable_3x3_shortcut(gamma: SchmidtVector, delta: SchmidtVector) -> bool:
    """Sufficient test for incomparability of two strictly ordered triples.

    True when the largest and smallest entries are both strictly larger on
    the same side (either side).  Sufficient only: a False here does not
    imply the pair is comparable, so callers needing the full verdict use
    :func:`classify_pair`.
    """
    _require_strict_triple("gamma", gamma)
    _require_strict_triple("delta", delta)
    g0, _, g2 = gamma.probs
    d0, _, d2 = delta.probs
    if g0 - d0 > STRICT_CMP_GAP and g2 - d2 > STRICT_CMP_GAP:
        return True
    if d0 - g0 > STRICT_CMP_GAP and d2 - g2 > STRICT_CMP_GAP:
        return True
    return False
