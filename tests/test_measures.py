import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_sv, mixed_from, sorted_simplex
from formula_oracle import _entropy_bits, _log_negativity, _negativity, _renyi
from locclab.majorization import ComparabilityVerdict, classify_pair
from locclab.measures import (
    MEASURE_KINDS,
    compute_measure,
    concurrence_rows,
    concurrence_squared,
    entropy_of_entanglement,
    entropy_rows,
    log_negativity,
    log_negativity_rows,
    negativity,
    negativity_rows,
    renyi_entropy,
    renyi_rows,
)
from locclab.states import make_schmidt_vector

LOG2_3 = 1.584962500721156
LN_3 = 1.0986122886681098
LN_2 = 0.6931471805599453


class TestEntropy:
    def test_one_bit(self):
        assert entropy_of_entanglement(as_sv((0.5, 0.5, 0.0))) == pytest.approx(1.0, abs=1e-15)

    def test_product_state(self):
        assert entropy_of_entanglement(as_sv((1.0, 0.0, 0.0))) == 0.0

    def test_uniform_three(self):
        assert entropy_of_entanglement(as_sv((1 / 3,) * 3)) == pytest.approx(LOG2_3, abs=1e-12)


class TestConcurrenceSquared:
    def test_product_state(self):
        assert concurrence_squared(as_sv((1.0, 0.0, 0.0))) == 0.0

    def test_maximally_entangled_three(self):
        assert concurrence_squared(as_sv((1 / 3,) * 3)) == pytest.approx(4 / 3, abs=1e-12)

    def test_direct_formula(self):
        assert concurrence_squared(as_sv((0.5, 0.3, 0.2))) == pytest.approx(1.24, abs=1e-12)

    def test_pairwise_product_form_agrees(self, np_gen):
        # 2(1 - sum mu^2) must match 4 sum_{i<j} mu_i mu_j
        for _ in range(300):
            v = sorted_simplex(np_gen, int(np_gen.integers(2, 7)))
            pairwise = 4.0 * sum(
                v[i] * v[j] for i in range(len(v)) for j in range(i + 1, len(v))
            )
            assert concurrence_squared(as_sv(v)) == pytest.approx(pairwise, abs=1e-12)

    def test_range_endpoints(self):
        for d in (2, 3, 4, 5):
            top = as_sv((1.0,) + (0.0,) * (d - 1))
            uniform = as_sv((1.0 / d,) * d)
            assert concurrence_squared(top) == pytest.approx(0.0, abs=1e-12)
            assert concurrence_squared(uniform) == pytest.approx(2 * (d - 1) / d, abs=1e-12)


class TestNegativity:
    def test_product_state(self):
        assert negativity(as_sv((1.0, 0.0, 0.0))) == 0.0

    def test_half_half(self):
        assert negativity(as_sv((0.5, 0.5, 0.0))) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_three(self):
        assert negativity(as_sv((1 / 3,) * 3)) == pytest.approx(1.0, abs=1e-12)


class TestLogNegativity:
    def test_product_state(self):
        assert log_negativity(as_sv((1.0, 0.0))) == 0.0

    def test_half_half(self):
        assert log_negativity(as_sv((0.5, 0.5, 0.0)), 2) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_three(self):
        assert log_negativity(as_sv((1 / 3,) * 3), 2) == pytest.approx(LOG2_3, abs=1e-12)

    def test_equals_composition_with_negativity_exactly(self, np_gen):
        for _ in range(300):
            v = as_sv(sorted_simplex(np_gen, int(np_gen.integers(1, 7))))
            assert log_negativity(v, 2) == math.log2(2.0 * negativity(v) + 1.0)

    def test_invalid_base(self):
        with pytest.raises(ValueError, match="base"):
            log_negativity(as_sv((1.0,)), base=1.0)


class TestRenyi:
    def test_point_mass_any_order(self):
        for delta in (0.0, 0.5, 2.0, 5.0):
            value = renyi_entropy(as_sv((1.0, 0.0, 0.0)), delta)
            assert value == 0.0 and math.copysign(1.0, value) > 0

    def test_uniform_three_order_two(self):
        assert renyi_entropy(as_sv((1 / 3,) * 3), 2.0) == pytest.approx(LN_3, abs=1e-12)

    def test_half_half_order_half(self):
        assert renyi_entropy(as_sv((0.5, 0.5, 0.0)), 0.5) == pytest.approx(LN_2, abs=1e-12)

    def test_order_one_is_von_neumann_nats(self, np_gen):
        for _ in range(100):
            v = as_sv(sorted_simplex(np_gen, 4))
            assert renyi_entropy(v, 1.0) == pytest.approx(
                entropy_of_entanglement(v) * math.log(2.0), abs=1e-12
            )

    def test_order_zero_counts_support(self):
        assert renyi_entropy(as_sv((0.7, 0.3, 0.0)), 0.0) == pytest.approx(LN_2, abs=1e-12)

    def test_continuity_at_one(self, np_gen):
        for _ in range(200):
            v = as_sv(sorted_simplex(np_gen, int(np_gen.integers(2, 7))))
            target = entropy_of_entanglement(v) * math.log(2.0)
            assert abs(renyi_entropy(v, 1.0 + 1e-4) - target) <= 1e-3
            assert abs(renyi_entropy(v, 1.0 - 1e-4) - target) <= 1e-3

    def test_negative_order_rejected(self):
        for delta in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative"):
                renyi_entropy(as_sv((1.0,)), delta)


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=200)
def test_measures_invariant_under_input_permutation(raw, seed):
    import random

    shuffled = raw[:]
    random.Random(seed).shuffle(shuffled)
    a = make_schmidt_vector(raw)
    b = make_schmidt_vector(shuffled)
    assert entropy_of_entanglement(a) == pytest.approx(entropy_of_entanglement(b), abs=1e-12)
    assert concurrence_squared(a) == pytest.approx(concurrence_squared(b), abs=1e-12)
    assert negativity(a) == pytest.approx(negativity(b), abs=1e-12)
    assert renyi_entropy(a, 2.0) == pytest.approx(renyi_entropy(b, 2.0), abs=1e-12)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16).filter(lambda xs: sum(xs) > 1e-9))
@settings(max_examples=300)
def test_all_measures_non_negative(raw):
    v = make_schmidt_vector(raw)
    assert entropy_of_entanglement(v) >= 0.0
    assert concurrence_squared(v) >= -1e-15
    assert negativity(v) >= 0.0
    assert log_negativity(v) >= 0.0
    for delta in (0.0, 0.5, 2.0, 5.0):
        assert renyi_entropy(v, delta) >= 0.0
    # ... and each equals the oracle's straight-from-the-formula value.
    mu = v.probs
    assert abs(entropy_of_entanglement(v) - _entropy_bits(mu)) <= 1e-12
    assert abs(negativity(v) - _negativity(mu)) <= 1e-12
    for base in (2.0, 10.0):
        assert abs(log_negativity(v, base) - _log_negativity(mu, base)) <= 1e-12
    for delta in (0.0, 0.5, 2.0, 5.0):
        assert abs(renyi_entropy(v, delta) - _renyi(mu, delta)) <= 1e-12


def test_row_gives_same_bits_alone_and_in_a_batch():
    # Each array measure's row j equals the scalar call on that row exactly
    # (the scalar wrappers only turn a -0.0 into 0.0, which == ignores).
    gen = np.random.default_rng(20261018)
    for d in range(1, 17):
        raw = gen.dirichlet(np.ones(d), size=40)
        raw[:, gen.integers(0, d, size=d // 3)] = 0.0  # zero columns
        raw[0] = 0.0
        raw[0, 0] = 1.0  # a point mass
        vectors = [make_schmidt_vector(row) for row in raw]
        batch = np.array([v.probs for v in vectors])
        cases = [
            (entropy_rows(batch), entropy_of_entanglement, ()),
            (concurrence_rows(batch), concurrence_squared, ()),
            (negativity_rows(batch), negativity, ()),
        ]
        cases += [(log_negativity_rows(batch, b), log_negativity, (b,)) for b in (2.0, 10.0)]
        cases += [
            (renyi_rows(batch, delta), renyi_entropy, (delta,))
            for delta in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        for column, scalar, args in cases:
            assert column.shape == (len(vectors),)
            for j, v in enumerate(vectors):
                assert scalar(v, *args) == float(column[j]), (d, j, scalar.__name__, args)


def test_schur_monotone_along_conversions(np_gen):
    # A deterministically convertible source is never less entangled than the
    # target, for every implemented measure; full scale runs in acceptance.
    checked = 0
    while checked < 500:
        d = int(np_gen.integers(2, 7))
        target = sorted_simplex(np_gen, d)
        source = mixed_from(np_gen, target)
        chi, eta = as_sv(source), as_sv(target)
        if classify_pair(chi, eta) is not ComparabilityVerdict.CONVERTIBLE_A_TO_B:
            continue
        checked += 1
        assert entropy_of_entanglement(chi) >= entropy_of_entanglement(eta) - 1e-9
        assert concurrence_squared(chi) >= concurrence_squared(eta) - 1e-9
        assert negativity(chi) >= negativity(eta) - 1e-9
        assert log_negativity(chi) >= log_negativity(eta) - 1e-9
        for delta in (0.5, 2.0, 5.0):
            assert renyi_entropy(chi, delta) >= renyi_entropy(eta, delta) - 1e-9


class TestComputeMeasure:
    def test_dispatch_and_units(self):
        v = as_sv((0.5, 0.3, 0.2))
        direct = {
            "e": entropy_of_entanglement(v),
            "c2": concurrence_squared(v),
            "n": negativity(v),
            "ln": log_negativity(v, 3.0),
            "renyi": renyi_entropy(v, 0.5),
        }
        assert set(direct) == set(MEASURE_KINDS)
        for kind, value in direct.items():
            result = compute_measure(kind, v, delta=0.5, base=3.0)
            assert type(result) is float and result == value

    def test_every_kind_covered(self):
        v = as_sv((0.6, 0.4))
        for kind in MEASURE_KINDS:
            assert compute_measure(kind, v, delta=2.0) >= 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown measure"):
            compute_measure("purity", as_sv((1.0,)))

    def test_renyi_requires_order(self):
        with pytest.raises(ValueError, match="order"):
            compute_measure("renyi", as_sv((1.0,)))
