"""Weighted superposition of two pure bipartite states.

Two evaluation paths give the same physics: shared-basis amplitude algebra
for vector-form states (components combine index by index, never after
sorting) and matrix addition plus singular values for coefficient matrices.
The combined state is always renormalized; the pre-normalization squared norm
K and the component overlap are reported so that the orthogonal-component
idealization (overlap 0, K 1) can be checked rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import (
    SUM_TOL,
    PureState,
    SchmidtVector,
    schmidt_of_state,
)

# Below this pre-normalization squared norm the superposition is degenerate.
VANISHING_K = 1e-12


class VanishingSuperpositionError(ValueError):
    """The two components cancel: the combined state has (near-)zero norm."""


@dataclass(frozen=True)
class SuperpositionSpec:
    """Weights and components of one superposition.

    Weights are finite and non-negative with squares summing to one; the
    components must share a storage form and dimensions.
    """

    alpha: float
    beta: float
    psi: PureState
    phi: PureState

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        beta = float(self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if not (math.isfinite(alpha) and math.isfinite(beta) and min(alpha, beta) >= 0.0):
            raise ValueError(
                f"superposition weights must be finite and non-negative, got {alpha!r}, {beta!r}"
            )
        if abs(alpha * alpha + beta * beta - 1.0) > SUM_TOL:
            raise ValueError(
                f"weights must satisfy alpha^2 + beta^2 = 1, got {alpha!r}, {beta!r}"
            )
        if self.psi.layout != self.phi.layout:
            raise ValueError(
                f"component layouts differ: {self.psi.layout} vs {self.phi.layout}"
            )


@dataclass(frozen=True)
class SuperpositionResult:
    """Normalized combined state with its bookkeeping.

    ``norm_factor`` is K = alpha^2 + beta^2 + 2 alpha beta <psi|phi>, the
    squared norm before renormalization.
    """

    state: PureState
    schmidt: SchmidtVector
    overlap: float
    norm_factor: float

    @property
    def orthogonal_components(self) -> bool:
        return abs(self.overlap) <= 1e-9


def overlap(psi: PureState, phi: PureState) -> float:
    """Inner product of two same-layout states.

    Vector form: sum of products of amplitudes at matching basis labels.
    Matrix form: entrywise inner product of the coefficient matrices.
    """
    if psi.layout != phi.layout:
        raise ValueError(f"layouts differ: {psi.layout} vs {phi.layout}")
    if psi.is_vector:
        return sum(a * b for a, b in zip(psi.amplitudes, phi.amplitudes))
    return sum(
        x * y
        for row_a, row_b in zip(psi.amplitudes, phi.amplitudes)
        for x, y in zip(row_a, row_b)
    )


def superpose(spec: SuperpositionSpec) -> SuperpositionResult:
    """Build the normalized superposition alpha psi + beta phi.

    Raises :class:`VanishingSuperpositionError` when the components cancel
    (possible only with signed matrix entries).
    """
    ov = overlap(spec.psi, spec.phi)
    alpha, beta = spec.alpha, spec.beta
    k = alpha * alpha + beta * beta + 2.0 * alpha * beta * ov
    if k <= VANISHING_K:
        raise VanishingSuperpositionError(
            f"superposition norm factor {k!r} vanishes; components cancel"
        )
    scale = 1.0 / math.sqrt(k)
    if spec.psi.is_vector:
        amps = tuple(
            (alpha * a + beta * b) * scale
            for a, b in zip(spec.psi.amplitudes, spec.phi.amplitudes)
        )
        state = PureState.vector(amps)
    else:
        rows = tuple(
            tuple((alpha * x + beta * y) * scale for x, y in zip(row_a, row_b))
            for row_a, row_b in zip(spec.psi.amplitudes, spec.phi.amplitudes)
        )
        state = PureState.matrix(rows)
    return SuperpositionResult(state, schmidt_of_state(state), ov, k)
