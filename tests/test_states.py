import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locclab.states import (
    InvalidStateError,
    PreconditionError,
    PureState,
    RandomSource,
    SchmidtVector,
    _one_sided_jacobi,
    draw_sorted_simplex,
    make_schmidt_vector,
    schmidt_of_state,
    simplex_masses,
    singular_values,
)


class TestMakeSchmidtVector:
    def test_sorts_already_normalized_input(self):
        assert make_schmidt_vector([0.2, 0.5, 0.3]).probs == (0.5, 0.3, 0.2)

    def test_normalizes_uniform_weights(self):
        assert make_schmidt_vector([2, 2, 2]).probs == pytest.approx((1 / 3,) * 3, abs=1e-15)

    def test_product_state_vector(self):
        assert make_schmidt_vector([0.0, 1.0]).probs == (1.0, 0.0)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidStateError, match="empty"):
            make_schmidt_vector([])

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidStateError, match="negative"):
            make_schmidt_vector([0.5, -0.1, 0.6])

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidStateError, match="zero"):
            make_schmidt_vector([0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidStateError, match="non-finite"):
            make_schmidt_vector([0.5, math.nan])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=8)
        .filter(lambda xs: sum(xs) > 1e-9)
    )
    @settings(max_examples=300)
    def test_always_sorted_normalized(self, raw):
        v = make_schmidt_vector(raw)
        assert all(a >= b for a, b in zip(v.probs, v.probs[1:]))
        assert all(p >= 0 for p in v.probs)
        assert abs(sum(v.probs) - 1.0) <= 1e-12

    @given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=6))
    @settings(max_examples=200)
    def test_scale_invariant(self, raw):
        a = make_schmidt_vector(raw)
        b = make_schmidt_vector([7.5 * x for x in raw])
        assert a.probs == pytest.approx(b.probs, abs=1e-13)


class TestSchmidtVectorType:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidStateError, match="non-increasing"):
            SchmidtVector((0.3, 0.7))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidStateError, match="sum"):
            SchmidtVector((0.6, 0.3))

    def test_padding(self):
        v = SchmidtVector((0.5, 0.5))
        assert v.padded(4) == (0.5, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            v.padded(1)


class TestSchmidtOfState:
    def test_vector_form_squares(self):
        s = PureState.vector([math.sqrt(0.6), math.sqrt(0.4), 0.0])
        assert schmidt_of_state(s).probs == pytest.approx((0.6, 0.4, 0.0), abs=1e-15)

    def test_vector_form_matches_make_schmidt_vector_exactly(self, np_gen):
        for _ in range(50):
            d = int(np_gen.integers(1, 7))
            amps = np_gen.dirichlet(np.ones(d)) ** 0.5
            state = PureState.vector(amps)
            direct = make_schmidt_vector([a * a for a in state.amplitudes])
            assert schmidt_of_state(state) == direct

    def test_diagonal_matrix(self):
        m = PureState.matrix([[1 / math.sqrt(2), 0.0], [0.0, 1 / math.sqrt(2)]])
        assert schmidt_of_state(m).probs == pytest.approx((0.5, 0.5), abs=1e-14)

    def test_rank_one_matrix(self):
        # Explicit 2x2 singular values: (1, 0) for the constant-half matrix.
        m = PureState.matrix([[0.5, 0.5], [0.5, 0.5]])
        assert schmidt_of_state(m).probs == pytest.approx((1.0, 0.0), abs=1e-13)


class TestSingularValues:
    def test_identity(self):
        assert singular_values(np.eye(3)) == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)

    def test_diagonal(self):
        assert singular_values(np.diag([3.0, 2.0, 1.0])) == pytest.approx((3, 2, 1), abs=1e-13)

    def test_permutation_matrix(self):
        # m^T m is the identity, so both singular values are 1.
        assert singular_values([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx((1.0, 1.0), abs=1e-14)

    def test_against_reference_svd(self, np_gen):
        worst = 0.0
        for _ in range(200):
            r, c = np_gen.integers(1, 7, size=2)
            m = np_gen.normal(size=(int(r), int(c))) * np_gen.uniform(0.05, 4.0)
            mine = np.asarray(singular_values(m))
            ref = np.sort(np.linalg.svd(m, compute_uv=False))[::-1]
            worst = max(worst, float(np.max(np.abs(mine - ref))))
        assert worst < 1e-11

    def test_transpose_invariance(self, np_gen):
        for _ in range(100):
            r, c = np_gen.integers(1, 7, size=2)
            m = np_gen.normal(size=(int(r), int(c)))
            a = singular_values(m)
            b = singular_values(m.T)
            assert a == pytest.approx(b, abs=1e-12)

    def test_gram_reconstruction_residual(self, np_gen):
        for _ in range(100):
            r, c = np_gen.integers(1, 7, size=2)
            m = np_gen.normal(size=(int(r), int(c)))
            m /= np.linalg.norm(m)
            work = m.T if m.shape[1] > m.shape[0] else m
            norms, v = _one_sided_jacobi(work.copy())
            gram = work.T @ work
            recon = v @ np.diag(norms**2) @ v.T
            rel = np.linalg.norm(gram - recon) / max(np.linalg.norm(gram), 1e-300)
            assert rel < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidStateError, match="non-finite"):
            singular_values([[1.0, math.inf], [0.0, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidStateError):
            singular_values(np.zeros((0, 2)))


class TestPureState:
    def test_vector_rejects_negative_amplitude(self):
        with pytest.raises(InvalidStateError, match="non-negative"):
            PureState.vector([0.8, -0.6])

    def test_vector_rejects_bad_norm(self):
        with pytest.raises(InvalidStateError, match="sum"):
            PureState.vector([0.5, 0.5])

    def test_matrix_allows_signed_entries(self):
        s = 1 / math.sqrt(2)
        state = PureState.matrix([[s, 0.0], [0.0, -s]])
        assert not state.is_vector
        assert state.norm == pytest.approx(1.0, abs=1e-15)

    def test_matrix_rejects_ragged_rows(self):
        with pytest.raises(InvalidStateError, match="equal length"):
            PureState.matrix([[1.0, 0.0], [0.0]])

    def test_layouts(self):
        assert PureState.vector([1.0, 0.0]).layout == ("vector", 2)
        assert PureState.matrix([[1.0], [0.0]]).layout == ("matrix", 2, 1)

    def test_diagonal_embedding(self):
        v = PureState.vector([math.sqrt(0.3), math.sqrt(0.7)])
        m = v.diagonal_matrix()
        assert m.layout == ("matrix", 2, 2)
        assert schmidt_of_state(m).probs == pytest.approx(schmidt_of_state(v).probs, abs=1e-13)


def draw(d, rng, strict=False):
    return draw_sorted_simplex(rng.generator(), d, strict)


class TestSampling:
    def test_same_seed_same_vector(self):
        assert draw(3, RandomSource(7)) == draw(3, RandomSource(7))

    def test_streams_are_independent(self):
        assert draw(3, RandomSource(7, 0)) != draw(3, RandomSource(7, 1))

    def test_derivation_path_changes_draws(self):
        base = RandomSource(7)
        assert draw(3, base.derive(0)) != draw(3, base.derive(1))

    def test_dimension_one_is_a_point(self):
        assert draw(1, RandomSource(0)) == (1.0,)
        assert draw(1, RandomSource(0), strict=True) == (1.0,)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            draw(0, RandomSource(0))

    def test_strict_gaps(self):
        base = RandomSource(99)
        for i in range(300):
            v = draw(3, base.derive(i), strict=True)
            assert v[2] >= 1e-6
            assert v[0] - v[1] >= 1e-6 and v[1] - v[2] >= 1e-6

    def test_sorted_and_normalized(self):
        base = RandomSource(5)
        for i in range(200):
            v = SchmidtVector(draw(int(1 + i % 6), base.derive(i)))
            assert abs(sum(v.probs) - 1.0) <= 1e-12

    def test_masses_normalize_by_a_left_to_right_sum(self):
        # 1 + 1e-16 rounds back to 1 at each step, so the masses keep their
        # draws; a compensated sum (math.fsum, sum() from Python 3.12) does not.
        class Stub:
            def standard_exponential(self, d):
                return np.array([1.0, 1e-16, 1e-16])

        assert math.fsum([1.0, 1e-16, 1e-16]) != 1.0
        assert simplex_masses(Stub(), 3) == [1.0, 1e-16, 1e-16]

    def test_strict_draw_cap_raises_instead_of_hanging(self):
        # Strict draws at d = 300 are far rarer than one per MAX_DRAW_ATTEMPTS
        # tries, so the draw must give up; the alarm turns a hang into a
        # failure.
        def hang(signum, frame):
            raise AssertionError("strict draw at d = 300 still running after 30 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(30)
        try:
            with pytest.raises(PreconditionError, match="attempts"):
                draw(300, RandomSource(1), strict=True)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_mean_of_largest_entry_matches_flat_dirichlet(self):
        # Analytic mean of the maximum at d=3 is 11/18 (checked against an
        # independent Monte-Carlo oracle before this suite was written).
        gen = RandomSource(2026).generator()
        total = 0.0
        n = 100_000
        for _ in range(n):
            total += draw_sorted_simplex(gen, 3)[0]
        assert abs(total / n - 11.0 / 18.0) < 0.01

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(2**64)
        with pytest.raises(ValueError):
            RandomSource(1, -2)
