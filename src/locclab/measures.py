"""Entanglement measures on Schmidt vectors.

All five quantities are Schur-concave functions of the Schmidt probability
vector, so none of them can increase along a deterministic LOCC conversion.
Entropy of entanglement is reported in bits, Renyi entropy in nats, the rest
are dimensionless; logarithmic negativity takes its base as a parameter.
"""

from __future__ import annotations

import math

from .states import SchmidtVector

ENTROPY = "e"
CONCURRENCE_SQUARED = "c2"
NEGATIVITY = "n"
LOG_NEGATIVITY = "ln"
RENYI = "renyi"

MEASURE_KINDS = (ENTROPY, CONCURRENCE_SQUARED, NEGATIVITY, LOG_NEGATIVITY, RENYI)


def entropy_of_entanglement(v: SchmidtVector) -> float:
    """Shannon entropy of the Schmidt probabilities, in bits (0 log 0 = 0)."""
    return 0.0 + -sum(p * math.log2(p) for p in v.probs if p > 0.0)


def concurrence_squared(v: SchmidtVector) -> float:
    """2(1 - sum of squared probabilities); 0 at a point mass, 2(d-1)/d at uniform."""
    return 2.0 * (1.0 - sum(p * p for p in v.probs))


def negativity(v: SchmidtVector) -> float:
    """((sum of root probabilities)^2 - 1) / 2, the partial-transpose convention."""
    root_sum = sum(math.sqrt(p) for p in v.probs)
    return (root_sum * root_sum - 1.0) / 2.0


def require_log_base(base: float) -> None:
    """Reject a log base that is not a finite number above 1."""
    if not (math.isfinite(base) and base > 1.0):
        raise ValueError(f"log base must be finite and exceed 1, got {base!r}")


def renyi_underflow(delta: float) -> ValueError:
    """The error for a Renyi power sum that underflows to zero: its log is -inf."""
    return ValueError(f"Renyi power sum of p**delta underflows to 0 at order delta = {delta!r}")


def log_negativity(v: SchmidtVector, base: float = 2.0) -> float:
    """log of the squared root-probability sum, equal to log(2 negativity + 1)."""
    require_log_base(base)
    root_sum = sum(math.sqrt(p) for p in v.probs)
    # log2 directly, not log(x)/log(2): keeps the composition with negativity
    # bit-exact in the default base.
    if base == 2.0:
        return 0.0 + math.log2(root_sum * root_sum)
    return 0.0 + math.log(root_sum * root_sum, base)


def renyi_entropy(v: SchmidtVector, delta: float) -> float:
    """Order-delta Renyi entropy in nats; order 1 falls back to von Neumann.

    Zero probabilities are dropped, which also makes order 0 count the
    support size.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"Renyi order must be finite and non-negative, got {delta!r}")
    if delta == 1.0:
        return 0.0 + -sum(p * math.log(p) for p in v.probs if p > 0.0)
    power_sum = sum(p**delta for p in v.probs if p > 0.0)
    if power_sum == 0.0:
        raise renyi_underflow(delta)
    return 0.0 + math.log(power_sum) / (1.0 - delta)


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
