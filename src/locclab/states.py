"""Core domain types: Schmidt vectors, pure bipartite states, seeded sampling.

Everything downstream (comparability checks, measures, superposition, bound
surveys) works on the two value types defined here.  All types are immutable
after construction and all operations are pure functions, so they are safe to
share across threads; randomness is always routed through an explicit
:class:`RandomSource`, and every simplex and weight draw is made here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for "sums to one" style checks.
SUM_TOL = 1e-12
# Minimum entry / minimum pairwise gap for strict simplex samples.
STRICT_GAP = 1e-6

VECTOR_FORM = "vector"
MATRIX_FORM = "matrix"

# Cap on the redraws of every rejection loop in the package; reaching it
# raises PreconditionError instead of hanging.
MAX_DRAW_ATTEMPTS = 10_000

# Off-diagonal convergence threshold for the one-sided Jacobi sweep.
_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 60


class InvalidStateError(ValueError):
    """Raised when input data does not describe a valid state or Schmidt vector."""


class PreconditionError(ValueError):
    """Raised when an operation's stated precondition is violated."""


class NumericalError(RuntimeError):
    """Raised when an internal numerical routine fails to converge."""


def left_sum(values) -> float:
    """Sum from the left on every Python; ``sum()`` compensates from 3.12 on."""
    total = 0.0
    for x in values:
        total += x
    return total


@dataclass(frozen=True)
class SchmidtVector:
    """Sorted, normalized vector of squared Schmidt coefficients.

    Entries are non-negative, non-increasing, and sum to one within
    ``SUM_TOL``.  Use :func:`make_schmidt_vector` to build one from raw
    (unsorted, unnormalized) weights.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if not probs:
            raise InvalidStateError("Schmidt vector needs at least one entry")
        total = 0.0
        prev = math.inf
        for p in probs:
            if not math.isfinite(p):
                raise InvalidStateError(f"non-finite entry {p!r}")
            if p < 0.0:
                raise InvalidStateError(f"negative entry {p!r}")
            if p > prev:
                raise InvalidStateError("entries must be non-increasing")
            prev = p
            total += p
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidStateError(f"entries sum to {total!r}, not 1")

    @property
    def dim(self) -> int:
        return len(self.probs)

    def padded(self, dim: int) -> tuple[float, ...]:
        """Entries zero-padded on the right to length ``dim``."""
        if dim < len(self.probs):
            raise ValueError(f"cannot pad dimension {len(self.probs)} down to {dim}")
        return self.probs + (0.0,) * (dim - len(self.probs))


def make_schmidt_vector(raw) -> SchmidtVector:
    """Normalize and sort raw non-negative weights into a :class:`SchmidtVector`.

    Empty input, a negative entry, and all-zero input are each rejected
    separately.
    """
    values = [float(x) for x in raw]
    if not values:
        raise InvalidStateError("empty input")
    total = 0.0
    for x in values:
        if not math.isfinite(x):
            raise InvalidStateError(f"non-finite entry {x!r}")
        if x < 0.0:
            raise InvalidStateError(f"negative entry {x!r}")
        total += x
    if total <= 0.0:
        raise InvalidStateError("all entries are zero")
    values.sort(reverse=True)
    return SchmidtVector(tuple(x / total for x in values))


@dataclass(frozen=True)
class PureState:
    """Pure bipartite state in a fixed product basis.

    Two storage forms:

    * ``vector`` -- non-negative amplitudes at shared Schmidt-basis labels
      ``|ii>``.  Basis order is physical and is *not* sorted; sorting happens
      only when a :class:`SchmidtVector` is extracted.
    * ``matrix`` -- full real coefficient matrix on ``|i>|j>``.  Matrix
      entries may be signed (needed to express relative phases between
      superposition components).

    The squared amplitudes must sum to one within ``SUM_TOL``.
    """

    form: str
    amplitudes: tuple

    def __post_init__(self) -> None:
        if self.form == VECTOR_FORM:
            amps = tuple(float(a) for a in self.amplitudes)
            if not amps:
                raise InvalidStateError("vector state needs at least one amplitude")
            sumsq = 0.0
            for a in amps:
                if not math.isfinite(a):
                    raise InvalidStateError(f"non-finite amplitude {a!r}")
                if a < 0.0:
                    raise InvalidStateError(
                        f"vector amplitudes must be non-negative, got {a!r}"
                    )
                sumsq += a * a
        elif self.form == MATRIX_FORM:
            rows = tuple(tuple(float(x) for x in row) for row in self.amplitudes)
            if not rows or not rows[0]:
                raise InvalidStateError("matrix state must be non-empty")
            width = len(rows[0])
            sumsq = 0.0
            for row in rows:
                if len(row) != width:
                    raise InvalidStateError("matrix rows must have equal length")
                for x in row:
                    if not math.isfinite(x):
                        raise InvalidStateError(f"non-finite entry {x!r}")
                    sumsq += x * x
            amps = rows
        else:
            raise InvalidStateError(f"unknown state form {self.form!r}")
        if abs(sumsq - 1.0) > SUM_TOL:
            raise InvalidStateError(f"squared amplitudes sum to {sumsq!r}, not 1")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def vector(cls, amplitudes) -> "PureState":
        return cls(VECTOR_FORM, tuple(amplitudes))

    @classmethod
    def matrix(cls, rows) -> "PureState":
        return cls(MATRIX_FORM, tuple(tuple(row) for row in rows))

    @property
    def is_vector(self) -> bool:
        return self.form == VECTOR_FORM

    @property
    def layout(self) -> tuple:
        """Form plus dimensions; two states interoperate iff layouts match."""
        if self.is_vector:
            return (VECTOR_FORM, len(self.amplitudes))
        return (MATRIX_FORM, len(self.amplitudes), len(self.amplitudes[0]))

    @property
    def norm(self) -> float:
        flat = self.amplitudes if self.is_vector else (x for row in self.amplitudes for x in row)
        return math.sqrt(left_sum(x * x for x in flat))

    def diagonal_matrix(self) -> "PureState":
        """Embed a vector-form state as the equivalent diagonal coefficient matrix."""
        if not self.is_vector:
            raise ValueError("state is already in matrix form")
        d = len(self.amplitudes)
        rows = [[0.0] * d for _ in range(d)]
        for i, a in enumerate(self.amplitudes):
            rows[i][i] = a
        return PureState.matrix(rows)


@dataclass(frozen=True)
class RandomSource:
    """Reproducible randomness handle: a seed, a stream id, a derivation path.

    The same ``(seed, stream, path)`` always reproduces the same draw
    sequence.  Parallel sweeps must partition ``stream`` ids (never share
    one); per-sample sub-streams are derived with :meth:`derive` so that
    results merged by sample index do not depend on scheduling.
    """

    seed: int
    stream: int = 0
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if int(self.stream) < 0:
            raise ValueError("stream id must be non-negative")
        object.__setattr__(self, "path", tuple(int(i) for i in self.path))

    def derive(self, *indices: int) -> "RandomSource":
        """Child source for a sub-task (for example one Monte-Carlo sample)."""
        return RandomSource(self.seed, self.stream, self.path + indices)

    def generator(self) -> np.random.Generator:
        """Fresh generator for this source; same source, same sequence."""
        key = (self.stream,) + self.path
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))


def simplex_masses(gen: np.random.Generator, d: int) -> list[float]:
    """One uniform draw from the d-simplex, in draw order (flat Dirichlet law).

    Normalized standard exponentials; an all-zero draw is redrawn.
    """
    for _ in range(MAX_DRAW_ATTEMPTS):
        draws = gen.standard_exponential(d).tolist()
        total = left_sum(draws)
        if total > 0.0:
            return [x / total for x in draws]
    raise PreconditionError(f"no positive {d}-simplex draw in {MAX_DRAW_ATTEMPTS} attempts")


def draw_sorted_simplex(
    gen: np.random.Generator, d: int, strict: bool = False
) -> tuple[float, ...]:
    """One uniform draw from the d-simplex, sorted non-increasing.

    With ``strict`` the draw is rejected until all entries are at least
    ``STRICT_GAP`` and pairwise gaps are at least ``STRICT_GAP``, the regime
    in which the three-coefficient incomparability shortcut is stated.  Large
    ``d`` makes strict draws rare (none at ``d = 300``), so the redraws are
    capped.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    for _ in range(MAX_DRAW_ATTEMPTS):
        p = simplex_masses(gen, d)
        p.sort(reverse=True)
        if not strict or (
            p[-1] >= STRICT_GAP and all(a - b >= STRICT_GAP for a, b in zip(p, p[1:]))
        ):
            return tuple(p)
    raise PreconditionError(
        f"no strict {d}-simplex draw with gap {STRICT_GAP} in {MAX_DRAW_ATTEMPTS} attempts"
    )


def draw_weight(gen: np.random.Generator) -> float:
    """One uniform weight in the open interval (0, 1)."""
    for _ in range(MAX_DRAW_ATTEMPTS):
        u = float(gen.random())
        if 0.0 < u < 1.0:
            return u
    raise PreconditionError(f"no weight in (0, 1) in {MAX_DRAW_ATTEMPTS} attempts")


def _one_sided_jacobi(work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonalize the columns of ``work`` in place by Jacobi rotations.

    Returns ``(column_norms, v)`` where ``v`` accumulates the rotations:
    ``original @ v`` has mutually orthogonal columns whose norms are the
    singular values (unsorted).  Converges when every normalized off-diagonal
    inner product falls below ``_JACOBI_TOL``.
    """
    n = work.shape[1]
    v = np.eye(n)
    for _ in range(_JACOBI_MAX_SWEEPS):
        worst = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                col_p = work[:, p]
                col_q = work[:, q]
                gpq = float(col_p @ col_q)
                gpp = float(col_p @ col_p)
                gqq = float(col_q @ col_q)
                scale = math.sqrt(gpp * gqq)
                if scale == 0.0 or abs(gpq) <= _JACOBI_TOL * scale:
                    continue
                worst = max(worst, abs(gpq) / scale)
                tau = (gqq - gpp) / (2.0 * gpq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                work[:, [p, q]] = work[:, [p, q]] @ rot
                v[:, [p, q]] = v[:, [p, q]] @ rot
        if worst <= _JACOBI_TOL:
            return np.sqrt(np.einsum("ij,ij->j", work, work)), v
    raise NumericalError("Jacobi sweep did not converge")


def singular_values(matrix) -> tuple[float, ...]:
    """Singular values of a real matrix, non-increasing.

    One-sided Jacobi on the orientation with fewer columns (the smaller Gram
    factor); matrices here are tiny, so robustness wins over speed.
    """
    arr = np.array(matrix, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidStateError("expected a non-empty two-dimensional matrix")
    if not np.all(np.isfinite(arr)):
        raise InvalidStateError("matrix has a non-finite entry")
    if arr.shape[1] > arr.shape[0]:
        arr = arr.T
    norms, _ = _one_sided_jacobi(arr.copy())
    return tuple(sorted((float(x) for x in norms), reverse=True))


def schmidt_of_state(state: PureState) -> SchmidtVector:
    """Schmidt probability vector of a pure state.

    Vector form: squared amplitudes, sorted and normalized.  Matrix form:
    squared singular values of the coefficient matrix, sorted and normalized.
    """
    if not isinstance(state, PureState):
        raise InvalidStateError("expected a PureState")
    if state.is_vector:
        return make_schmidt_vector([a * a for a in state.amplitudes])
    values = singular_values(state.amplitudes)
    return make_schmidt_vector([s * s for s in values])
