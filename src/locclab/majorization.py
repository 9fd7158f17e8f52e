"""Deterministic-LOCC comparability of pure bipartite states.

A state converts to another with certainty exactly when its Schmidt vector is
majorized by the target's, so every verdict here reduces to partial-sum
dominance checks on sorted probability vectors.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

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
    return _dominance(*_padded_pair(x, y))[0]


def classify_pair(chi: SchmidtVector, eta: SchmidtVector) -> ComparabilityVerdict:
    """Four-way comparability verdict for the ordered pair (chi, eta).

    ``CONVERTIBLE_A_TO_B`` means chi converts to eta with certainty, i.e. chi
    is majorized by eta; ``EQUIVALENT`` when both directions pass,
    ``INCOMPARABLE`` when neither does.
    """
    fwd, bwd = _dominance(*_padded_pair(chi, eta))
    if fwd and bwd:
        return ComparabilityVerdict.EQUIVALENT
    if fwd:
        return ComparabilityVerdict.CONVERTIBLE_A_TO_B
    if bwd:
        return ComparabilityVerdict.CONVERTIBLE_B_TO_A
    return ComparabilityVerdict.INCOMPARABLE


def classify_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`classify_pair`'s verdict value for each row pair of two ``(m, d)``
    batches of sorted probabilities; prefix sums add left to right, as in :func:`_dominance`."""
    sx, sy = np.cumsum(x, axis=1), np.cumsum(y, axis=1)
    fwd = ~np.any(sx > sy + PARTIAL_SUM_TOL, axis=1)
    bwd = ~np.any(sy > sx + PARTIAL_SUM_TOL, axis=1)
    v = ComparabilityVerdict
    choices = [v.EQUIVALENT.value, v.CONVERTIBLE_A_TO_B.value, v.CONVERTIBLE_B_TO_A.value]
    return np.select([fwd & bwd, fwd, bwd], choices, v.INCOMPARABLE.value)


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
