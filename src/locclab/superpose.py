"""Weighted superposition of two pure bipartite states.

One formula serves both storage forms and every caller: :func:`superpose_rows`
combines ``(m, n)`` batches of amplitude rows index by index, never after
sorting.  The bounds survey and the tables sweep run it on vector-form
batches; :func:`superpose` and :func:`overlap` run it on one row, the
flattened amplitudes of a vector or of a coefficient matrix read row by row,
and the Schmidt vector of a matrix-form result comes from its singular values.
The combined state is always renormalized; the pre-normalization squared norm
K and the component overlap are reported so that the orthogonal-component
idealization (overlap 0, K 1) can be checked rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import SUM_TOL, PureState, SchmidtVector, row_sum, schmidt_of_state

# Below this pre-normalization squared norm the superposition is degenerate.
VANISHING_K = 1e-12


class VanishingSuperpositionError(ValueError):
    """The two components cancel: the combined state has (near-)zero norm."""


def require_weights(alpha: float, beta: float) -> None:
    """Reject weights that are not finite and non-negative with squares summing to one."""
    if not (math.isfinite(alpha) and math.isfinite(beta) and min(alpha, beta) >= 0.0):
        raise ValueError(
            f"superposition weights must be finite and non-negative, got {alpha!r}, {beta!r}"
        )
    if abs(alpha * alpha + beta * beta - 1.0) > SUM_TOL:
        raise ValueError(f"weights must satisfy alpha^2 + beta^2 = 1, got {alpha!r}, {beta!r}")


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
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        require_weights(self.alpha, self.beta)
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


def _flat_row(state: PureState) -> np.ndarray:
    """The amplitudes as one ``(1, n)`` row; a matrix is read row by row."""
    return np.array([state.amplitudes]).reshape(1, -1)


def overlap(psi: PureState, phi: PureState) -> float:
    """Inner product of two same-layout states: products of amplitudes at
    matching basis labels (vector form) or of matrix entries (matrix form),
    summed as :func:`superpose_rows` sums them, here at weights (1, 0)."""
    if psi.layout != phi.layout:
        raise ValueError(f"layouts differ: {psi.layout} vs {phi.layout}")
    return float(superpose_rows(np.ones(1), np.zeros(1), _flat_row(psi), _flat_row(phi))[1][0])


def superpose(spec: SuperpositionSpec) -> SuperpositionResult:
    """Build the normalized superposition alpha psi + beta phi.

    Raises :class:`VanishingSuperpositionError` when the components cancel
    (possible only with signed matrix entries).
    """
    alpha, beta, psi = np.array([spec.alpha]), np.array([spec.beta]), spec.psi
    gamma, ov, k = superpose_rows(alpha, beta, _flat_row(psi), _flat_row(spec.phi))
    state = PureState(psi.form, gamma.reshape(np.shape(psi.amplitudes)).tolist())
    return SuperpositionResult(state, schmidt_of_state(state), float(ov[0]), float(k[0]))


def superpose_rows(alpha, beta, psi, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized superpositions of ``(m, n)`` amplitude rows, their ``(m,)``
    overlaps (added from the left, starting at ``0.0`` so that ``-0.0``
    products sum to ``0.0``) and norm factors K.  A K at most ``VANISHING_K``
    raises; with non-negative amplitudes it cannot occur."""
    ov = 0.0 + row_sum(psi * phi)
    k = alpha * alpha + beta * beta + 2.0 * alpha * beta * ov
    vanishing = k <= VANISHING_K
    if vanishing.any():
        raise VanishingSuperpositionError(
            f"superposition norm factor {float(k[vanishing][0])!r} vanishes; components cancel"
        )
    return (alpha[:, None] * psi + beta[:, None] * phi) * (1.0 / np.sqrt(k))[:, None], ov, k
