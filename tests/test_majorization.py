import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import as_sv, mixed_from, sorted_simplex
from locclab.majorization import (
    ComparabilityVerdict,
    classify_pair,
    classify_rows,
    incomparable_3x3_shortcut,
    majorizes,
)
from locclab.states import PreconditionError, make_schmidt_vector

A_TO_B = ComparabilityVerdict.CONVERTIBLE_A_TO_B
B_TO_A = ComparabilityVerdict.CONVERTIBLE_B_TO_A
INC = ComparabilityVerdict.INCOMPARABLE
EQ = ComparabilityVerdict.EQUIVALENT

_SWAP = {A_TO_B: B_TO_A, B_TO_A: A_TO_B, INC: INC, EQ: EQ}


class TestMajorizes:
    def test_partial_sum_example(self):
        # prefix sums 0.5<=0.6, 0.8<=0.9, 1<=1
        assert majorizes(as_sv((0.6, 0.3, 0.1)), as_sv((0.5, 0.3, 0.2)))

    def test_fails_at_first_prefix(self):
        assert not majorizes(as_sv((0.5, 0.3, 0.2)), as_sv((0.6, 0.3, 0.1)))

    def test_reflexive(self, np_gen):
        for _ in range(50):
            v = as_sv(sorted_simplex(np_gen, int(np_gen.integers(1, 7))))
            assert majorizes(v, v)

    def test_zero_padding_across_dimensions(self):
        assert majorizes(as_sv((0.5, 0.5)), as_sv((0.5, 0.3, 0.2)))
        assert not majorizes(as_sv((0.5, 0.3, 0.2)), as_sv((0.5, 0.5)))

    def test_uniform_is_bottom_point_mass_is_top(self, np_gen):
        for _ in range(200):
            d = int(np_gen.integers(2, 7))
            v = as_sv(sorted_simplex(np_gen, d))
            uniform = as_sv((1.0 / d,) * d)
            top = as_sv((1.0,) + (0.0,) * (d - 1))
            assert majorizes(v, uniform)
            assert majorizes(top, v)

    def test_transitive_on_mixed_chains(self, np_gen):
        # x = D'y, y = Dz with doubly-stochastic mixes, so x < y < z holds by
        # construction; the classifier must agree and close the chain.
        for _ in range(10_000):
            d = int(np_gen.integers(2, 7))
            z = sorted_simplex(np_gen, d)
            y = mixed_from(np_gen, z)
            x = mixed_from(np_gen, y)
            assert majorizes(as_sv(z), as_sv(y))
            assert majorizes(as_sv(y), as_sv(x))
            assert majorizes(as_sv(z), as_sv(x))


class TestClassifyPair:
    def test_convertible_example(self):
        assert classify_pair(as_sv((0.5, 0.3, 0.2)), as_sv((0.6, 0.3, 0.1))) is A_TO_B

    def test_incomparable_example(self):
        # one direction fails at the first prefix, the other at the second
        assert classify_pair(as_sv((0.6, 0.25, 0.15)), as_sv((0.55, 0.38, 0.07))) is INC

    def test_equivalent_example(self):
        v = as_sv((0.5, 0.5, 0.0))
        assert classify_pair(v, v) is EQ

    def test_swap_symmetry(self, np_gen):
        for _ in range(2000):
            d = int(np_gen.integers(2, 7))
            x = as_sv(sorted_simplex(np_gen, d))
            y = as_sv(sorted_simplex(np_gen, d))
            assert classify_pair(y, x) is _SWAP[classify_pair(x, y)]

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
    )
    @settings(max_examples=300)
    def test_swap_antisymmetry_property(self, raw_x, raw_y):
        # Any dimensions (the shorter vector is zero-padded), ties and zeros.
        assume(sum(raw_x) > 0.0 and sum(raw_y) > 0.0)
        x, y = make_schmidt_vector(raw_x), make_schmidt_vector(raw_y)
        assert classify_pair(y, x) is _SWAP[classify_pair(x, y)]
        d = max(x.dim, y.dim)
        rows = classify_rows(np.array([x.padded(d)]), np.array([y.padded(d)]))
        assert rows.tolist() == [classify_pair(x, y).value]

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_classify_rows_matches_classify_pair(self, d):
        gen = np.random.default_rng(1000 + d)
        x = [sorted_simplex(gen, d) for _ in range(400)]
        y = [sorted_simplex(gen, d) for _ in range(400)]
        # A quarter of the rows are near-ties: x with PARTIAL_SUM_TOL, give or
        # take a few rounding steps, moved between two neighbouring entries,
        # so the verdict turns on how the prefix sums round.
        for i in range(0, 400, 4):
            row, j = list(x[i]), int(gen.integers(d - 1))
            eps = float(gen.choice([-1.0, 1.0]) * gen.uniform(1.0 - 1e-3, 1.0 + 1e-3) * 1e-12)
            row[j], row[j + 1] = row[j] + eps, row[j + 1] - eps
            y[i] = tuple(sorted(row, reverse=True))
        verdicts = classify_rows(np.array(x), np.array(y)).tolist()
        assert verdicts == [classify_pair(as_sv(a), as_sv(b)).value for a, b in zip(x, y)]
        assert "Equivalent" in verdicts and len(set(verdicts)) >= 3

    def test_equivalent_iff_both_directions(self, np_gen):
        for _ in range(500):
            x = as_sv(sorted_simplex(np_gen, 4))
            y = as_sv(mixed_from(np_gen, x.probs))
            verdict = classify_pair(x, y)
            fwd = majorizes(y, x)
            bwd = majorizes(x, y)
            assert (verdict is EQ) == (fwd and bwd)
            assert (verdict is INC) == (not fwd and not bwd)


class TestShortcut:
    def test_condition_one_true_case(self):
        # largest and smallest entries both larger on the left side
        assert incomparable_3x3_shortcut(as_sv((0.6, 0.25, 0.15)), as_sv((0.55, 0.38, 0.07)))

    def test_neither_branch_matches(self):
        assert not incomparable_3x3_shortcut(as_sv((0.5, 0.3, 0.2)), as_sv((0.6, 0.3, 0.1)))

    def test_symmetric_branch(self):
        assert incomparable_3x3_shortcut(as_sv((0.55, 0.38, 0.07)), as_sv((0.6, 0.25, 0.15)))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(PreconditionError, match="3 entries"):
            incomparable_3x3_shortcut(as_sv((0.5, 0.5)), as_sv((0.6, 0.25, 0.15)))

    def test_non_strict_ordering_rejected(self):
        with pytest.raises(PreconditionError, match="strictly"):
            incomparable_3x3_shortcut(as_sv((0.4, 0.4, 0.2)), as_sv((0.6, 0.25, 0.15)))
        with pytest.raises(PreconditionError, match="strictly"):
            incomparable_3x3_shortcut(as_sv((0.6, 0.4, 0.0)), as_sv((0.6, 0.25, 0.15)))

    def test_shortcut_true_implies_incomparable(self, np_gen):
        # sufficiency spot-check; the full-scale version runs in acceptance
        hits = 0
        for _ in range(3000):
            x = as_sv(sorted_simplex(np_gen, 3))
            y = as_sv(sorted_simplex(np_gen, 3))
            try:
                short = incomparable_3x3_shortcut(x, y)
            except PreconditionError:
                continue
            if short:
                hits += 1
                assert classify_pair(x, y) is INC
        assert hits > 100
