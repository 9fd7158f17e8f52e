import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import sorted_simplex
from locclab.measures import entropy_of_entanglement
from locclab.states import PureState, schmidt_of_state
from locclab.superpose import (
    VANISHING_K,
    SuperpositionSpec,
    VanishingSuperpositionError,
    overlap,
    superpose,
    superpose_rows,
)

S2 = 1 / math.sqrt(2)


def vec(probs):
    return PureState.vector([math.sqrt(p) for p in probs])


class TestOverlap:
    def test_disjoint_support(self):
        assert overlap(vec((1, 0, 0)), vec((0, 1, 0))) == 0.0

    def test_state_with_itself(self):
        v = vec((0.5, 0.3, 0.2))
        assert overlap(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_partial_support(self):
        assert overlap(vec((0.5, 0.5, 0)), vec((0.5, 0, 0.5))) == pytest.approx(0.5, abs=1e-12)

    def test_matrix_entrywise(self):
        a = PureState.matrix([[S2, 0], [0, S2]])
        b = PureState.matrix([[S2, 0], [0, -S2]])
        assert overlap(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_layout_mismatch(self):
        with pytest.raises(ValueError, match="layouts differ"):
            overlap(vec((1, 0)), vec((1, 0, 0)))
        with pytest.raises(ValueError, match="layouts differ"):
            overlap(vec((1, 0)), PureState.matrix([[1.0, 0.0], [0.0, 0.0]]))


class TestSpecValidation:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError, match="alpha\\^2 \\+ beta\\^2"):
            SuperpositionSpec(0.9, 0.9, vec((1, 0)), vec((0, 1)))

    def test_weights_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            SuperpositionSpec(-S2, S2, vec((1, 0)), vec((0, 1)))

    @pytest.mark.parametrize(
        "alpha, beta", [(math.nan, 0.8), (0.6, math.nan), (math.inf, 0.8), (0.6, -math.inf)]
    )
    def test_weights_must_be_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="weights must be finite"):
            SuperpositionSpec(alpha, beta, vec((1, 0)), vec((0, 1)))

    def test_component_layouts_must_match(self):
        with pytest.raises(ValueError, match="layouts"):
            SuperpositionSpec(S2, S2, vec((1, 0)), vec((0, 1, 0)))


class TestSuperpose:
    def test_separable_components_make_maximal_entanglement(self):
        result = superpose(SuperpositionSpec(S2, S2, vec((1, 0)), vec((0, 1))))
        assert result.schmidt.probs == pytest.approx((0.5, 0.5), abs=1e-12)
        assert entropy_of_entanglement(result.schmidt) == pytest.approx(1.0, abs=1e-12)
        assert result.overlap == 0.0
        assert result.norm_factor == pytest.approx(1.0, abs=1e-12)

    def test_maximally_entangled_components_make_product(self):
        plus = PureState.matrix([[S2, 0], [0, S2]])
        minus = PureState.matrix([[S2, 0], [0, -S2]])
        result = superpose(SuperpositionSpec(S2, S2, plus, minus))
        assert result.schmidt.probs == pytest.approx((1.0, 0.0), abs=1e-12)
        assert entropy_of_entanglement(result.schmidt) == pytest.approx(0.0, abs=1e-12)

    def test_state_with_itself(self):
        psi = vec((0.5, 0.3, 0.2))
        result = superpose(SuperpositionSpec(S2, S2, psi, psi))
        assert result.overlap == pytest.approx(1.0, abs=1e-12)
        assert result.norm_factor == pytest.approx(2.0, abs=1e-12)
        assert result.schmidt.probs == pytest.approx((0.5, 0.3, 0.2), abs=1e-12)

    def test_degenerate_weight_reproduces_component(self):
        psi = vec((0.5, 0.3, 0.2))
        result = superpose(SuperpositionSpec(1.0, 0.0, psi, vec((0.2, 0.2, 0.6))))
        assert result.schmidt == schmidt_of_state(psi)

    def test_orthogonal_components_have_unit_norm_factor(self, np_gen):
        for _ in range(200):
            split = int(np_gen.integers(1, 3))
            masses_a = np_gen.dirichlet(np.ones(split))
            masses_b = np_gen.dirichlet(np.ones(3 - split))
            amp_a = [0.0] * 3
            amp_b = [0.0] * 3
            for i, m in enumerate(masses_a):
                amp_a[i] = math.sqrt(m)
            for i, m in enumerate(masses_b):
                amp_b[split + i] = math.sqrt(m)
            alpha = float(np_gen.uniform(0.05, 0.95))
            spec = SuperpositionSpec(
                alpha, math.sqrt(1 - alpha * alpha), PureState.vector(amp_a), PureState.vector(amp_b)
            )
            result = superpose(spec)
            assert result.overlap == 0.0
            assert result.norm_factor == pytest.approx(1.0, abs=1e-12)

    def test_norm_factor_bookkeeping(self, np_gen):
        for _ in range(300):
            a = sorted_simplex(np_gen, 3)
            b = sorted_simplex(np_gen, 3)
            alpha = float(np_gen.uniform(0.05, 0.95))
            beta = math.sqrt(1 - alpha * alpha)
            spec = SuperpositionSpec(alpha, beta, vec(a), vec(b))
            result = superpose(spec)
            expected_k = alpha**2 + beta**2 + 2 * alpha * beta * result.overlap
            assert result.norm_factor == pytest.approx(expected_k, abs=1e-12)
            assert result.state.norm == pytest.approx(1.0, abs=1e-12)
            assert result.schmidt == schmidt_of_state(result.state)

    def test_vanishing_superposition_rejected(self):
        plus = PureState.matrix([[S2, 0], [0, S2]])
        minus = PureState.matrix([[-S2, 0], [0, -S2]])
        with pytest.raises(VanishingSuperpositionError):
            superpose(SuperpositionSpec(S2, S2, plus, minus))

    def test_path_consistency_on_diagonal_embeddings(self, np_gen):
        # shared-basis algebra vs matrix singular values; full scale in acceptance
        for _ in range(500):
            d = int(np_gen.integers(2, 5))
            a = sorted_simplex(np_gen, d)
            b = sorted_simplex(np_gen, d)
            alpha = float(np_gen.uniform(0.05, 0.95))
            beta = math.sqrt(1 - alpha * alpha)
            via_vector = superpose(SuperpositionSpec(alpha, beta, vec(a), vec(b)))
            via_matrix = superpose(
                SuperpositionSpec(alpha, beta, vec(a).diagonal_matrix(), vec(b).diagonal_matrix())
            )
            assert via_vector.schmidt.probs == pytest.approx(via_matrix.schmidt.probs, abs=1e-10)
            assert via_vector.overlap == pytest.approx(via_matrix.overlap, abs=1e-12)


class TestSuperposePair:
    def test_identical_specs_identical_results(self):
        spec = SuperpositionSpec(S2, S2, vec((0.6, 0.4, 0)), vec((0, 0, 1)))
        first, second = superpose(spec), superpose(spec)
        assert first == second

    def test_shared_component_structure(self):
        shared_phi = vec((0.5, 0.3, 0.2))
        spec_a = SuperpositionSpec(S2, S2, vec((0.7, 0.2, 0.1)), shared_phi)
        spec_b = SuperpositionSpec(0.6, 0.8, vec((0.8, 0.15, 0.05)), shared_phi)
        assert spec_a.phi is spec_b.phi
        first, second = superpose(spec_a), superpose(spec_b)
        assert first != second

    def test_mixed_dimension_pair(self):
        spec_a = SuperpositionSpec(S2, S2, vec((1, 0)), vec((0, 1)))
        spec_b = SuperpositionSpec(S2, S2, vec((0.6, 0.4, 0)), vec((0, 0, 1)))
        first, second = superpose(spec_a), superpose(spec_b)
        assert first.schmidt.probs == pytest.approx((0.5, 0.5), abs=1e-12)
        # amplitudes square to (0.3, 0.2, 0.5); sorting gives the Schmidt order
        assert second.schmidt.probs == pytest.approx((0.5, 0.3, 0.2), abs=1e-12)
        assert second.norm_factor == pytest.approx(1.0, abs=1e-12)


@given(
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=2, max_size=6
    ),
    st.floats(0.0, 1.0),
)
@settings(max_examples=300)
def test_sorted_components_give_non_increasing_amplitudes(masses, alpha):
    # Rounding is monotone, so non-increasing non-negative component amplitudes
    # under non-negative weights give non-increasing superposed amplitudes:
    # the scenario sampler's superpositions never reorder basis labels.
    raw_psi = sorted((m for m, _ in masses), reverse=True)
    raw_phi = sorted((m for _, m in masses), reverse=True)
    psi_total, phi_total = sum(raw_psi), sum(raw_phi)
    assume(psi_total > 0.0 and phi_total > 0.0)
    psi = vec([m / psi_total for m in raw_psi])
    phi = vec([m / phi_total for m in raw_phi])
    beta = math.sqrt(1.0 - alpha * alpha)
    amps = superpose(SuperpositionSpec(alpha, beta, psi, phi)).state.amplitudes
    assert all(a >= b for a, b in zip(amps, amps[1:]))


@st.composite
def vector_pairs(draw):
    """Weights and two vector-form components of one dimension from 1 to 16."""
    d = draw(st.integers(1, 16))
    masses = [draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)) for _ in range(2)]
    assume(all(sum(m) > 0.0 for m in masses))
    psi, phi = (vec([x / sum(m) for x in m]) for m in masses)
    alpha = draw(st.floats(0.0, 1.0))
    return alpha, math.sqrt(1.0 - alpha * alpha), psi, phi


@given(vector_pairs())
@settings(max_examples=300)
def test_norm_factor_and_overlap_bookkeeping(pair):
    alpha, beta, psi, phi = pair
    result = superpose(SuperpositionSpec(alpha, beta, psi, phi))
    ov = 0.0
    for a, b in zip(psi.amplitudes, phi.amplitudes):
        ov += a * b
    assert result.overlap == ov
    assert result.norm_factor == alpha * alpha + beta * beta + 2.0 * alpha * beta * ov


@st.composite
def matrix_pairs(draw):
    """Weights and two signed matrix-form components of one shape, up to 5 x 5;
    entries may be signed zeros, and the components may cancel."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.lists(st.floats(-1.0, 1.0), min_size=r * c, max_size=r * c)
    pair = []
    for raw in (draw(entries), draw(entries)):
        total = math.sqrt(sum(x * x for x in raw))
        assume(total > 1e-3)
        pair.append(PureState.matrix((np.array(raw).reshape(r, c) / total).tolist()))
    alpha = draw(st.floats(0.0, 1.0))
    return alpha, math.sqrt(1.0 - alpha * alpha), pair[0], pair[1]


def flat(state):
    """Amplitudes as one list; a matrix is read row by row."""
    return list(state.amplitudes) if state.is_vector else [x for r in state.amplitudes for x in r]


def reference_superpose(alpha, beta, psi, phi):
    """Overlap, K and flat amplitudes by a plain left-to-right Python loop."""
    a, b = flat(psi), flat(phi)
    ov = 0.0
    for x, y in zip(a, b):
        ov += x * y
    k = alpha * alpha + beta * beta + 2.0 * alpha * beta * ov
    if k <= VANISHING_K:
        return ov, k, None
    scale = 1.0 / math.sqrt(k)
    return ov, k, [(alpha * x + beta * y) * scale for x, y in zip(a, b)]


def hexes(values):
    return [float(x).hex() for x in values]


@given(st.one_of(vector_pairs(), matrix_pairs()))
@settings(max_examples=400)
def test_superpose_matches_reference_loop_bit_for_bit(pair):
    alpha, beta, psi, phi = pair
    ov, k, amps = reference_superpose(alpha, beta, psi, phi)
    assert overlap(psi, phi).hex() == ov.hex()
    spec = SuperpositionSpec(alpha, beta, psi, phi)
    if amps is None:
        with pytest.raises(VanishingSuperpositionError, match=f"factor {re.escape(repr(k))} "):
            superpose(spec)
        return
    result = superpose(spec)
    assert result.overlap.hex() == ov.hex()
    assert result.norm_factor.hex() == k.hex()
    assert hexes(flat(result.state)) == hexes(amps)
    assert result.state.layout == psi.layout


@pytest.mark.parametrize(
    "form", [PureState.vector, lambda a: PureState.matrix([a])], ids=["vector", "matrix"]
)
def test_negative_zero_products_give_positive_zero_overlap(form):
    # Every product is -0.0; a sum from the left starting at 0.0 gives +0.0.
    psi, phi = form([1.0, -0.0]), form([-0.0, 1.0])
    assert overlap(psi, phi).hex() == (0.0).hex()
    result = superpose(SuperpositionSpec(0.6, 0.8, psi, phi))
    assert result.overlap.hex() == (0.0).hex()


def test_batch_kernel_reports_vanishing_norm_factor():
    # Row 1 cancels exactly: K = 2 s^2 - 2 s^2 = 0.0 at alpha = beta = s.
    psi = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    phi = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, 1.0]])
    weights = np.full(3, S2)
    with pytest.raises(VanishingSuperpositionError) as info:
        superpose_rows(weights, weights, psi, phi)
    assert str(info.value) == "superposition norm factor 0.0 vanishes; components cancel"
