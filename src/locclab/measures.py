"""Entanglement measures on Schmidt vectors.

All five quantities are Schur-concave functions of the Schmidt probability
vector, so none of them can increase along a deterministic LOCC conversion.
Entropy of entanglement is reported in bits, Renyi entropy in nats, the rest
are dimensionless; logarithmic negativity takes its base as a parameter.

Every measure has one implementation, the array form over an ``(m, d)`` batch
of probability rows that the bounds and the tables sweep also run; the scalar
functions run it on a one-row batch.
"""

from __future__ import annotations

import math

import numpy as np

from .states import SchmidtVector, row_sum

ENTROPY = "e"
CONCURRENCE_SQUARED = "c2"
NEGATIVITY = "n"
LOG_NEGATIVITY = "ln"
RENYI = "renyi"

MEASURE_KINDS = (ENTROPY, CONCURRENCE_SQUARED, NEGATIVITY, LOG_NEGATIVITY, RENYI)


def require_log_base(base: float) -> None:
    """Reject a log base that is not a finite number above 1."""
    if not (math.isfinite(base) and base > 1.0):
        raise ValueError(f"log base must be finite and exceed 1, got {base!r}")


def require_renyi_order(delta: float) -> None:
    """Reject a Renyi order that is not a finite non-negative number."""
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"Renyi order must be finite and non-negative, got {float(delta)!r}")


def xlog2x(x: np.ndarray) -> np.ndarray:
    """``x log2 x`` elementwise, 0 at ``x = 0``."""
    return x * np.log2(np.where(x > 0.0, x, 1.0))


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row, in bits (0 log 0 = 0)."""
    return 0.0 - row_sum(xlog2x(p))


def concurrence_rows(p: np.ndarray) -> np.ndarray:
    """2(1 - sum of squared probabilities); 0 at a point mass, 2(d-1)/d at uniform."""
    return 2.0 * (1.0 - row_sum(p * p))


def negativity_rows(p: np.ndarray) -> np.ndarray:
    """((sum of root probabilities)^2 - 1) / 2, the partial-transpose convention."""
    root_sum = row_sum(np.sqrt(p))
    return (root_sum * root_sum - 1.0) / 2.0


def log_negativity_rows(p: np.ndarray, base: float) -> np.ndarray:
    """log of the squared root-probability sum, equal to log(2 negativity + 1)."""
    require_log_base(base)
    root_sum = row_sum(np.sqrt(p))
    # log2 directly, not log(x)/log(2): keeps the composition with negativity
    # bit-exact in the default base.
    if base == 2.0:
        return np.log2(root_sum * root_sum)
    return np.log(root_sum * root_sum) / math.log(base)


def renyi_rows(p: np.ndarray, delta: float) -> np.ndarray:
    """Order-delta Renyi entropy of each row in nats, von Neumann at order 1;
    zero probabilities are dropped, so order 0 counts the support."""
    require_renyi_order(delta)
    if delta == 1.0:
        return -row_sum(p * np.log(np.where(p > 0.0, p, 1.0)))
    power_sum = row_sum(np.where(p > 0.0, p**delta, 0.0))
    if not power_sum.all():  # the log would be -inf
        raise ValueError(f"Renyi power sum of p**delta underflows to 0 at order delta = {delta!r}")
    return np.log(power_sum) / (1.0 - delta)


def entropy_of_entanglement(v: SchmidtVector) -> float:
    """Shannon entropy of the Schmidt probabilities, in bits (0 log 0 = 0)."""
    return float(entropy_rows(np.array([v.probs]))[0])


def concurrence_squared(v: SchmidtVector) -> float:
    """2(1 - sum of squared probabilities); 0 at a point mass, 2(d-1)/d at uniform."""
    return float(concurrence_rows(np.array([v.probs]))[0])


def negativity(v: SchmidtVector) -> float:
    """((sum of root probabilities)^2 - 1) / 2, the partial-transpose convention."""
    return float(negativity_rows(np.array([v.probs]))[0])


def log_negativity(v: SchmidtVector, base: float = 2.0) -> float:
    """log of the squared root-probability sum, equal to log(2 negativity + 1)."""
    return 0.0 + float(log_negativity_rows(np.array([v.probs]), base)[0])


def renyi_entropy(v: SchmidtVector, delta: float) -> float:
    """Order-delta Renyi entropy in nats; order 1 falls back to von Neumann."""
    return 0.0 + float(renyi_rows(np.array([v.probs]), float(delta))[0])


def compute_measure(
    kind: str,
    v: SchmidtVector,
    *,
    delta: float | None = None,
    base: float = 2.0,
) -> float:
    """Uniform dispatch used by reporting code; ``delta`` only applies to Renyi."""
    if kind == ENTROPY:
        return entropy_of_entanglement(v)
    if kind == CONCURRENCE_SQUARED:
        return concurrence_squared(v)
    if kind == NEGATIVITY:
        return negativity(v)
    if kind == LOG_NEGATIVITY:
        return log_negativity(v, base)
    if kind == RENYI:
        if delta is None:
            raise ValueError("Renyi entropy needs an order parameter")
        return renyi_entropy(v, delta)
    raise ValueError(f"unknown measure {kind!r} (choose from {','.join(MEASURE_KINDS)})")
