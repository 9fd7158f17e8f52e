import functools
import itertools
import json
import math
import re

import numpy as np
import pytest

from conftest import sorted_simplex
from formula_oracle import (
    _entropy_bits,
    _log_negativity,
    _negativity,
    _renyi,
    compare_report,
    oracle_sides,
)
from locclab import bounds, cli, states
from locclab.bounds import (
    MAX_SURVEY_CERTIFICATES,
    THEOREM_ORDER,
    BoundInstance,
    BoundSurvey,
    TheoremTally,
    evaluate,
    instance_from_snapshot,
    replay_certificate,
    second_instance_from_snapshot,
    survey_bounds,
)
from locclab.states import (
    PreconditionError,
    PureState,
    RandomSource,
    draw_weights,
    sample_chunks,
    schmidt_of_state,
)
from locclab.superpose import SuperpositionSpec

S2 = 1 / math.sqrt(2)


def vec(probs):
    return PureState.vector([math.sqrt(p) for p in probs])


def instance(alpha, psi_probs, phi_probs, delta=None, base=2.0):
    beta = math.sqrt(1.0 - alpha * alpha)
    return BoundInstance.build(
        SuperpositionSpec(alpha, beta, vec(psi_probs), vec(phi_probs)), delta, base
    )


@pytest.fixture(scope="module")
def intro_instance():
    # separable components, maximally entangled superposition
    return BoundInstance.build(SuperpositionSpec(S2, S2, vec((1, 0)), vec((0, 1))))


@pytest.fixture(scope="module")
def split_instance():
    # third coefficient lives only in phi: disjoint supports, overlap 0
    return instance(S2, (0.6, 0.4, 0.0), (0.0, 0.0, 1.0), delta=2.0)


class TestNegativityBounds:
    def test_t1_intro_holds_with_equality_at_upper(self, intro_instance):
        report = evaluate("T1", intro_instance)
        assert report.lower_lhs == pytest.approx(0.0, abs=1e-12)
        assert report.lower_rhs == pytest.approx(0.5, abs=1e-12)
        assert report.upper_rhs == pytest.approx(0.5, abs=1e-12)
        assert abs(report.margin_upper) <= 1e-12
        assert report.holds and report.orthogonal

    def test_t1_lower_margin_exactly_zero_at_degenerate_weight(self):
        inst = instance(1.0, (0.5, 0.3, 0.2), (0.2, 0.2, 0.6))
        assert evaluate("T1", inst).margin_lower == 0.0

    def test_t2_amplitude_scan_brackets(self, split_instance):
        t2 = evaluate("T2", split_instance)
        # min over pooled amplitudes is 0, max is 1, prefactor 9*2
        assert t2.lower_lhs == pytest.approx(-0.5, abs=1e-12)
        assert t2.upper_rhs == pytest.approx(8.5, abs=1e-12)
        assert t2.holds

    def test_t2_needs_three_by_three(self, intro_instance):
        with pytest.raises(PreconditionError, match="3x3"):
            evaluate("T2", intro_instance)

    def test_t2_zero_exclusion_flag(self, split_instance):
        default = evaluate("T2", split_instance)
        trimmed = evaluate("T2", split_instance, scan_excludes_zero=True)
        assert default.lower_lhs == pytest.approx(-0.5, abs=1e-12)
        assert trimmed.lower_lhs > default.lower_lhs


class TestLogNegativityBounds:
    def test_t3_violated_for_fully_overlapping_components(self):
        psi = vec((0.5, 0.3, 0.2))
        inst = BoundInstance.build(SuperpositionSpec(S2, S2, psi, psi))
        report = evaluate("T3", inst)
        # combined state equals the component, but the bound adds 2 + log(1/2)
        assert report.margin_lower == pytest.approx(-1.0, abs=1e-9)
        assert not report.holds
        assert not report.orthogonal

    def test_t3_needs_two_weights(self):
        inst = instance(1.0, (0.5, 0.3, 0.2), (0.2, 0.2, 0.6))
        with pytest.raises(PreconditionError, match="alpha\\*beta"):
            evaluate("T3", inst)

    def test_t4_vacuous_lower_and_finite_upper(self, split_instance):
        t4 = evaluate("T4", split_instance)
        assert t4.lower_lhs == -math.inf
        assert t4.margin_lower == math.inf
        assert t4.upper_rhs == pytest.approx(4.169925001442312, abs=1e-12)
        assert t4.lower_rhs == pytest.approx(1.5345348591995365, abs=1e-12)
        assert t4.holds
        assert any("vacuously" in note for note in t4.notes)


class TestRenyiBounds:
    def test_t5_direct_evaluation(self, split_instance):
        t5 = evaluate("T5", split_instance)
        expected_lower = (
            math.log(3.0 * 0.5**4) / (1.0 - 2.0)
            + math.log(0.36 + 0.16) / (1.0 - 2.0)
            + 0.0
        )
        assert t5.lower_lhs == pytest.approx(expected_lower, abs=1e-12)
        assert t5.lower_rhs == pytest.approx(0.967584026261706, abs=1e-12)

    def test_t6_crossed_interval_above_order_one(self, split_instance):
        t6 = evaluate("T6", split_instance)
        assert t6.lower_lhs == pytest.approx(3.218875824868201, abs=1e-12)
        assert t6.upper_rhs == pytest.approx(1.386294361119891, abs=1e-12)
        assert t6.lower_rhs == pytest.approx(0.967584026261706, abs=1e-12)
        assert not t6.holds
        assert any("cross" in note for note in t6.notes)

    def test_t6_point_mass_components_with_zero_exclusion(self):
        inst = instance(S2, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), delta=0.5)
        report = evaluate("T6", inst, scan_excludes_zero=True)
        # single joint amplitude alpha+beta = sqrt(2): both sides are ln 2
        assert report.lower_lhs == pytest.approx(math.log(2.0), abs=1e-12)
        assert report.upper_rhs == pytest.approx(math.log(2.0), abs=1e-12)
        assert report.lower_rhs == pytest.approx(0.0, abs=1e-12)
        assert report.margin_lower == pytest.approx(-math.log(2.0), abs=1e-12)
        assert report.margin_upper == pytest.approx(math.log(2.0), abs=1e-12)

    def test_t6_zero_joint_amplitude_included_by_default(self):
        inst = instance(S2, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), delta=2.0)
        report = evaluate("T6", inst)
        assert report.lower_lhs == math.inf  # negative prefactor at ln(0)
        assert not report.holds
        assert any("infinite" in note for note in report.notes)

    def test_order_one_rejected(self, split_instance):
        inst = instance(S2, (0.6, 0.4, 0.0), (0.0, 0.0, 1.0), delta=1.0)
        for theorem in ("T5", "T6"):
            with pytest.raises(PreconditionError, match="order 1"):
                evaluate(theorem, inst)

    def test_missing_order_rejected(self):
        inst = instance(S2, (0.6, 0.4, 0.0), (0.0, 0.0, 1.0))
        for theorem in ("T5", "T6"):
            with pytest.raises(PreconditionError, match="order"):
                evaluate(theorem, inst)


class TestEntropyBounds:
    def test_t7_intro(self, intro_instance):
        t7 = evaluate("T7", intro_instance)
        assert t7.upper_lhs == pytest.approx(1.0, abs=1e-12)
        assert t7.upper_rhs == pytest.approx(2.0, abs=1e-12)
        assert t7.holds

    def test_t7_upper_expression_monotone_in_component_entropies(self, np_gen):
        # sharper components (lower entropy) can only lower the bound value
        alpha = 0.6
        levels = [
            (1.0, 0.0, 0.0),
            (0.8, 0.15, 0.05),
            (0.5, 0.3, 0.2),
            (1 / 3, 1 / 3, 1 / 3),
        ]
        fixed_phi = (0.7, 0.2, 0.1)
        uppers = [
            evaluate("T7", instance(alpha, level, fixed_phi)).upper_rhs for level in levels
        ]
        assert all(a <= b + 1e-12 for a, b in zip(uppers, uppers[1:]))
        uppers_phi = [
            evaluate("T7", instance(alpha, fixed_phi, level)).upper_rhs for level in levels
        ]
        assert all(a <= b + 1e-12 for a, b in zip(uppers_phi, uppers_phi[1:]))

    def test_t8_intro_literal_weights(self, intro_instance):
        t8 = evaluate("T8", intro_instance)
        # bare weights, exactly as the bound is written: the combined state's
        # one bit exceeds the bound, so this instance is a violation
        assert t8.upper_rhs == pytest.approx(0.7071067811865476, abs=1e-12)
        assert t8.margin_upper == pytest.approx(0.7071067811865476 - 1.0, abs=1e-12)
        assert not t8.holds
        assert any("1.0" in note for note in t8.notes)

    def test_t8_degenerate_weight_reduces_to_component_entropy(self):
        inst = instance(1.0, (0.5, 0.3, 0.2), (0.2, 0.2, 0.6))
        t8 = evaluate("T8", inst)
        assert t8.upper_rhs == t8.upper_lhs  # E(psi) on both sides, exactly
        assert t8.holds

    def test_t9_parse_and_alternative(self, split_instance):
        t9 = evaluate("T9", split_instance)
        assert t9.upper_rhs == pytest.approx(4.169925001442312, abs=1e-12)
        assert any("4.482950928745271" in note for note in t9.notes)


class TestChain:
    def test_symmetric_coefficients_give_zero_first_link(self, split_instance):
        other = instance(S2, (0.6, 0.4, 0.0), (0.0, 0.0, 1.0), delta=2.0)
        report = evaluate("Chain11", split_instance, other)
        assert report.chain_terms is not None and len(report.chain_terms) == 6
        assert report.chain_margins[0] == pytest.approx(0.0, abs=1e-15)
        assert report.chain_margins[2] == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_needs_both_superpositions_orthogonal(self, split_instance):
        overlapping = instance(S2, (0.6, 0.4, 0.0), (0.5, 0.3, 0.2), delta=2.0)
        assert evaluate("Chain11", split_instance, split_instance).orthogonal
        assert not evaluate("Chain11", split_instance, overlapping).orthogonal
        assert not evaluate("Chain11", overlapping, split_instance).orthogonal

    def test_weight_mismatch_rejected(self, split_instance):
        other = instance(0.5, (0.6, 0.4, 0.0), (0.0, 0.0, 1.0))
        with pytest.raises(PreconditionError, match="equal weights"):
            evaluate("Chain11", split_instance, other)

    def test_missing_second_instance_rejected(self, split_instance):
        with pytest.raises(PreconditionError, match="psi_prime"):
            evaluate("Chain11", split_instance)

    def test_failing_links_are_flagged(self, np_gen):
        flagged = 0
        for i in range(40):
            gen = RandomSource(77).derive(i).generator()
            alpha = 0.3 + 0.4 * float(gen.random())
            a = instance(alpha, sorted_simplex(np_gen, 3), sorted_simplex(np_gen, 3))
            b = instance(alpha, sorted_simplex(np_gen, 3), sorted_simplex(np_gen, 3))
            report = evaluate("Chain11", a, b)
            bad = [i for i, m in enumerate(report.chain_margins) if m < -1e-9]
            if bad:
                flagged += 1
                for link in bad:
                    assert any(f"link {link + 1} fails" in n for n in report.notes)
        assert flagged > 0


class TestEvaluatorOracle:
    def test_sides_match_formula_text_reimplementation(self):
        rng = RandomSource(424242)
        worst = 0.0
        for i in range(300):
            gen = rng.derive(i).generator()
            alpha = 0.05 + 0.9 * float(gen.random())
            triples = [
                tuple(sorted(gen.dirichlet(np.ones(3)), reverse=True)) for _ in range(4)
            ]
            inst = instance(alpha, triples[0], triples[1], delta=2.0)
            inst2 = instance(alpha, triples[2], triples[3], delta=2.0)
            for theorem in THEOREM_ORDER:
                report = evaluate(theorem, inst, inst2)
                sides = oracle_sides(report.snapshot)
                worst = max(worst, compare_report(report, sides))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "psi, phi",
        [
            ([[0.6, -0.2, 0.1], [0.3, 0.5, -0.4]], [[-0.1, 0.7, 0.2], [0.4, 0.1, 0.3]]),
            ([0.8, 0.6], [0.28, 0.96]),
        ],
        ids=["matrix-2x3", "vector-2"],
    )
    def test_any_form_and_dimension_match_measures(self, psi, phi):
        def state(amps):
            amps = np.array(amps) / np.linalg.norm(amps)
            return PureState.vector(amps) if amps.ndim == 1 else PureState.matrix(amps)

        alpha, delta, base = 0.6, 0.5, 10.0
        spec = SuperpositionSpec(alpha, 0.8, state(psi), state(phi))
        inst = BoundInstance.build(spec, delta, base)
        beta, ab = inst.beta, alpha * inst.beta
        # The expected sides come from the oracle's own measure formulas, not
        # from measures.py, whose array code the bounds share.
        g, p, q = (
            v.probs
            for v in (inst.gamma.schmidt, schmidt_of_state(spec.psi), schmidt_of_state(spec.phi))
        )
        n_combo = alpha**2 * _negativity(p) + beta**2 * _negativity(q)
        e_g, e_p, e_q = (_entropy_bits(v) for v in (g, p, q))
        expected = {
            "T1": (n_combo, _negativity(g), n_combo + ab),
            "T3": (
                0.5 * (_log_negativity(p, base) + _log_negativity(q, base))
                + 2.0
                + math.log(ab, base),
                _log_negativity(g, base),
                None,
            ),
            "T5": (
                math.log(3.0 * ab ** (2.0 * delta)) / (1.0 - delta)
                + _renyi(p, delta)
                + _renyi(q, delta),
                _renyi(g, delta),
                None,
            ),
            "T7": (
                None,
                e_g,
                (alpha * math.sqrt(e_p + 1.0) + beta * math.sqrt(e_q + 1.0)) ** 2,
            ),
            "T8": (
                None,
                e_g,
                alpha * e_p + beta * e_q - alpha * math.log2(alpha) - beta * math.log2(beta),
            ),
        }
        for theorem, (lower, value, upper) in expected.items():
            report = evaluate(theorem, inst)
            value_side = report.upper_lhs if report.lower_lhs is None else report.lower_rhs
            got = (report.lower_lhs, value_side, report.upper_rhs)
            assert (got[0] is None, got[2] is None) == (lower is None, upper is None), theorem
            for mine, ref in zip(got, (lower, value, upper)):
                if ref is not None:
                    assert abs(mine - ref) <= 1e-12, theorem
        for theorem in ("T2", "T4", "T9"):
            with pytest.raises(PreconditionError, match="3x3 vector-form"):
                evaluate(theorem, inst)

    def test_snapshot_round_trips_through_json(self, split_instance):
        report = evaluate("T1", split_instance)
        snap = json.loads(json.dumps(report.snapshot))
        rebuilt = instance_from_snapshot(snap)
        again = evaluate("T1", rebuilt)
        assert again.margin_lower == report.margin_lower
        assert again.margin_upper == report.margin_upper


MATRIX_PSI = {"form": "matrix", "amplitudes": [[0.6, 0.0], [0.0, 0.8]]}
MATRIX_PHI = {"form": "matrix", "amplitudes": [[0.0, 0.8], [0.6, 0.0]]}
VECTOR_PSI = {"form": "vector", "amplitudes": [0.8, 0.6, 0.0]}
VECTOR_PHI = {"form": "vector", "amplitudes": [0.0, 0.6, 0.8]}
ALL_THEOREMS = "T1,T2,T3,T4,T5,T6,T7,T8,T9,Chain11"


def instance_doc(psi, phi, alpha=0.6, beta=0.8, **extra):
    return {"alpha": alpha, "beta": beta, "psi": psi, "phi": phi, **extra}


MATRIX_DOC = instance_doc(MATRIX_PSI, MATRIX_PHI, delta=2.0)
VECTOR_DOC = instance_doc(VECTOR_PSI, VECTOR_PHI, delta=2.0)


def run_instance(tmp_path, capsys, doc, *argv):
    """Exit code, stdout and stderr of ``bounds --instance`` on ``doc``."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code = cli.run(["bounds", "--instance", str(path), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPreconditions:
    """Each bound's needs, pinned by message: parameters first, then the
    chain's pair and weights, then the layouts (first instance, then
    second), then alpha*beta."""

    CASES = [
        ("T6", MATRIX_DOC, "T6 is stated for vector-form components"),
        ("T2", MATRIX_DOC, "T2 is stated for 3x3 vector-form components, got ('matrix', 2, 2)"),
        (
            "T3",
            instance_doc(VECTOR_PSI, VECTOR_PHI, alpha=1.0, beta=0.0),
            "T3 needs alpha*beta > 0 (log of the product is taken)",
        ),
        ("Chain11", VECTOR_DOC, "chain evaluation needs psi_prime/phi_prime blocks"),
        ("Chain11", MATRIX_DOC, "chain evaluation needs psi_prime/phi_prime blocks"),
        (
            "Chain11",
            {**MATRIX_DOC, "psi_prime": VECTOR_PSI, "phi_prime": VECTOR_PHI},
            "Chain11 is stated for 3x3 vector-form components, got ('matrix', 2, 2)",
        ),
        (
            "Chain11",
            {**VECTOR_DOC, "psi_prime": MATRIX_PSI, "phi_prime": MATRIX_PHI},
            "Chain11 is stated for 3x3 vector-form components, got ('matrix', 2, 2)",
        ),
        ("T5", instance_doc(VECTOR_PSI, VECTOR_PHI), "T5 needs a Renyi order parameter"),
        (
            "T5",
            instance_doc(VECTOR_PSI, VECTOR_PHI, alpha=1.0, beta=0.0),
            "T5 needs a Renyi order parameter",
        ),
        ("T5", {**VECTOR_DOC, "delta": 1.0}, "T5 excludes Renyi order 1"),
        ("T6", {**MATRIX_DOC, "delta": 1.0}, "T6 excludes Renyi order 1"),
    ]
    IDS = [
        "t6-matrix", "t2-matrix", "t3-zero-product", "chain-unprimed", "chain-unprimed-matrix",
        "chain-first-matrix", "chain-second-matrix", "t5-no-order", "t5-no-order-zero-product",
        "t5-order-1", "t6-order-1-matrix",
    ]

    @pytest.mark.parametrize("theorem, doc, message", CASES, ids=IDS)
    def test_evaluate_message(self, theorem, doc, message):
        inst, second = instance_from_snapshot(doc), second_instance_from_snapshot(doc)
        with pytest.raises(PreconditionError) as caught:
            evaluate(theorem, inst, second)
        assert str(caught.value) == message

    @pytest.mark.parametrize("theorem, doc, message", CASES, ids=IDS)
    def test_cli_message_and_exit_2(self, tmp_path, capsys, theorem, doc, message):
        code, out, err = run_instance(tmp_path, capsys, doc, "--theorems", theorem.lower())
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unequal_chain_weights(self):
        # A snapshot shares one weight pair, so only a library call gets here.
        inst = instance_from_snapshot(VECTOR_DOC)
        second = instance_from_snapshot(instance_doc(MATRIX_PSI, MATRIX_PHI, 0.8, 0.6))
        with pytest.raises(PreconditionError) as caught:
            evaluate("Chain11", inst, second)
        assert str(caught.value) == "chain needs equal weights, got (0.6, 0.8) vs (0.8, 0.6)"

    def test_unknown_theorem(self, tmp_path, capsys):
        with pytest.raises(ValueError) as caught:
            evaluate("T42", instance_from_snapshot(VECTOR_DOC))
        assert str(caught.value) == f"unknown theorem 'T42' (choose from {ALL_THEOREMS})"
        code, out, err = run_instance(tmp_path, capsys, VECTOR_DOC, "--theorems", "t42")
        assert (code, out) == (2, "")
        assert err == f"error: unknown theorem 't42' (choose from {ALL_THEOREMS})\n"

    def test_matrix_instance_prints_only_the_bounds_it_feeds(self, tmp_path, capsys):
        code, out, err = run_instance(tmp_path, capsys, MATRIX_DOC)
        assert (code, err) == (0, "")
        printed = [line for line in out.splitlines() if line.startswith("theorem = ")]
        assert printed == [f"theorem = {t}" for t in ("T1", "T3", "T5", "T7", "T8")]


class TestSurvey:
    def test_deterministic_given_seed(self):
        a = survey_bounds(RandomSource(9), 150, delta=2.0)
        b = survey_bounds(RandomSource(9), 150, delta=2.0)
        assert a.to_csv() == b.to_csv()
        assert a == b

    def test_different_streams_differ(self):
        a = survey_bounds(RandomSource(9, 0), 150)
        b = survey_bounds(RandomSource(9, 1), 150)
        assert a.to_csv() != b.to_csv()

    def test_needs_samples(self):
        with pytest.raises(ValueError, match="at least one"):
            survey_bounds(RandomSource(1), 0)

    def test_orthogonal_filter_forces_zero_overlap(self):
        survey = survey_bounds(RandomSource(5), 120, orthogonal_only=True)
        for cert in survey.certificates():
            inst = instance_from_snapshot(cert["snapshot"])
            assert abs(inst.gamma.overlap) <= 1e-9
            if "psi_prime" in cert["snapshot"]:
                second = second_instance_from_snapshot(cert["snapshot"])
                assert abs(second.gamma.overlap) <= 1e-9

    def test_selection_matches_full_survey(self):
        full = {t.theorem: t for t in survey_bounds(RandomSource(9), 150).tallies}
        part = survey_bounds(RandomSource(9), 150, theorems=("Chain11", "T1"))
        assert part.tallies == (full["T1"], full["Chain11"])
        assert full["T1"].certificates and full["Chain11"].certificates
        assert part.certificates() == [*full["T1"].certificates, *full["Chain11"].certificates]

    @pytest.mark.parametrize(
        "theorems", [("T1", "T42"), ("t1",), ()], ids=["unknown", "case", "empty"]
    )
    def test_bad_selection_rejected(self, theorems):
        with pytest.raises(ValueError, match="theorem"):
            survey_bounds(RandomSource(1), 5, theorems=theorems)

    def test_covers_every_theorem(self):
        survey = survey_bounds(RandomSource(5), 50)
        assert [t.theorem for t in survey.tallies] == [
            "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "Chain11",
        ]
        assert all(t.evaluated == 50 for t in survey.tallies)

    @pytest.mark.parametrize(
        "options",
        [
            {"delta": 2.0},
            {"delta": 0.5, "scan_excludes_zero": True, "orthogonal_only": True},
            {"delta": 2.0, "orthogonal_only": True},
        ],
        ids=["default", "scan_excludes_zero", "orthogonal_only"],
    )
    def test_certificates_replay_to_identical_margins(self, options):
        survey = survey_bounds(RandomSource(31), 200, **options)
        certs = survey.certificates()
        assert certs, "expected at least one violation at this sample size"
        for cert in certs:
            replayed = replay_certificate(cert)
            assert list(replayed.margins()) == cert["margins"]
            assert replayed.holds == cert["holds"]

    def test_certificates_replay_after_json_round_trip(self):
        survey = survey_bounds(RandomSource(31), 100, delta=2.0)
        cert = survey.certificates()[0]
        wire = json.loads(json.dumps(cert))
        replayed = replay_certificate(wire)
        assert list(replayed.margins()) == cert["margins"]

    def test_csv_shape(self):
        survey = survey_bounds(RandomSource(2), 30)
        lines = survey.to_csv().strip().splitlines()
        assert lines[0] == "theorem,n,hold_rate,worst_margin,certificate_ids"
        assert len(lines) == 11


def amplitude_instance(alpha, beta, psi, phi, delta, log_base):
    spec = SuperpositionSpec(alpha, beta, PureState.vector(psi), PureState.vector(phi))
    return BoundInstance.build(spec, delta, log_base)


def scalar_survey(
    rng, n, *, theorems=THEOREM_ORDER, orthogonal_only=False, delta=2.0, log_base=2.0,
    scan_excludes_zero=False,
):
    """The per-sample survey loop: every sample through `evaluate` alone."""
    selected = [t for t in THEOREM_ORDER if t in set(theorems)]
    held = dict.fromkeys(selected, 0)
    worst = dict.fromkeys(selected)
    certs = {t: [] for t in selected}
    for i in range(n):
        gen = rng.derive(i).generator()
        alpha, beta = draw_weights(gen)
        inst, inst2 = (
            amplitude_instance(alpha, beta, psi, phi, delta, log_base)
            for psi, phi in [bounds._draw_vector3(gen, orthogonal_only) for _ in range(2)]
        )
        for theorem in selected:
            report = evaluate(theorem, inst, inst2, scan_excludes_zero)
            held[theorem] += int(report.holds)
            margin = report.worst_margin()
            if worst[theorem] is None or margin < worst[theorem]:
                worst[theorem] = margin
            if not report.holds and len(certs[theorem]) < MAX_SURVEY_CERTIFICATES:
                certs[theorem].append(
                    {
                        "id": f"{theorem}-{i:06d}",
                        "sample_index": i,
                        "snapshot": report.snapshot,
                        "margins": list(report.margins()),
                        "holds": report.holds,
                        "notes": list(report.notes),
                    }
                )
    return BoundSurvey(
        tuple(TheoremTally(t, n, held[t], worst[t], tuple(certs[t])) for t in selected)
    )


SURVEY_CONFIGS = [
    {"orthogonal_only": o, "delta": d, "log_base": b, "scan_excludes_zero": s}
    for o, d, b, s in itertools.product((False, True), (0.5, 2.0), (2.0, 10.0), (False, True))
]
SURVEY_IDS = [
    f"{'ortho' if c['orthogonal_only'] else 'full'}-d{c['delta']}-b{c['log_base']:g}"
    f"{'-scan' if c['scan_excludes_zero'] else ''}"
    for c in SURVEY_CONFIGS
]


def kernel_and_scalar_margins(rng, n, config):
    """Margins of one n-row chunk and of ``evaluate`` on each row alone, per
    theorem, and the largest gap between those reports and the formula oracle."""
    draw = functools.partial(bounds._draw_sample, config["orthogonal_only"])
    drawn = np.concatenate([rows for _, rows in sample_chunks(rng, n, 14, draw)])
    alpha, beta, amps = drawn[:, 0], drawn[:, 1], drawn[:, 2:].reshape(-1, 4, 3)
    # Two rows the sampler never draws: components that share a zero
    # amplitude, so T6 meets a zero joint amplitude.
    shared_zero = [[[1.0, 0.0, 0.0]] * 4, [[0.8, 0.6, 0.0], [0.6, 0.8, 0.0]] * 2]
    alpha, beta = np.append(alpha, [0.6, 0.6]), np.append(beta, [0.8, 0.8])
    amps = np.concatenate([amps, shared_zero])
    args = (config["delta"], config["log_base"], config["scan_excludes_zero"])
    second = bounds._amplitude_rows(alpha, beta, amps[:, 2], amps[:, 3])
    chunk = bounds._amplitude_rows(alpha, beta, amps[:, 0], amps[:, 1], second)
    kernel = {t: bounds._BOUNDS[t](chunk, *args).margins for t in THEOREM_ORDER}
    scalar = {t: [] for t in THEOREM_ORDER}
    oracle_gap = 0.0
    for j in range(len(alpha)):
        rows = amps[j].tolist()
        inst, inst2 = (
            amplitude_instance(
                float(alpha[j]), float(beta[j]), psi, phi, config["delta"], config["log_base"]
            )
            for psi, phi in (rows[:2], rows[2:])
        )
        for theorem in THEOREM_ORDER:
            report = evaluate(theorem, inst, inst2, config["scan_excludes_zero"])
            scalar[theorem].append(report.margins())
            oracle_gap = max(oracle_gap, compare_report(report, oracle_sides(report.snapshot)))
    return kernel, {t: np.array(m) for t, m in scalar.items()}, oracle_gap


class TestSurveyKernel:
    @pytest.mark.parametrize("config", SURVEY_CONFIGS, ids=SURVEY_IDS)
    def test_kernel_margins_match_scalar(self, config):
        kernel, scalar, oracle_gap = kernel_and_scalar_margins(RandomSource(77), 200, config)
        assert oracle_gap <= 1e-12
        for theorem in THEOREM_ORDER:
            k, s = kernel[theorem], scalar[theorem]
            assert not np.isnan(s).any()
            assert np.array_equal(k, s), theorem
        if config["orthogonal_only"] and not config["scan_excludes_zero"]:
            assert np.isinf(scalar["T4"]).any()  # zero amplitude: vacuous lower side

    @pytest.mark.parametrize("config", SURVEY_CONFIGS, ids=SURVEY_IDS)
    def test_survey_equals_scalar_loop(self, config):
        survey = survey_bounds(RandomSource(9), 300, **config)
        reference = scalar_survey(RandomSource(9), 300, **config)
        assert survey.certificates()
        assert survey.to_csv() == reference.to_csv()
        assert json.dumps(survey.certificates()) == json.dumps(reference.certificates())

    def test_selection_and_chunking_change_nothing(self, monkeypatch):
        reference = scalar_survey(RandomSource(79), 300, theorems=("T1", "Chain11"))
        survey = survey_bounds(RandomSource(79), 300, theorems=("T1", "Chain11"))
        assert survey == reference
        full = scalar_survey(RandomSource(79), 300)
        for chunk in (7, 1):
            monkeypatch.setattr(states, "SAMPLE_CHUNK", chunk)
            assert survey_bounds(RandomSource(79), 300) == full

    @pytest.mark.parametrize(
        "options",
        [
            {"delta": 1.0},
            {"delta": 1.0, "theorems": ("T6",)},
            {"delta": None},
            {"delta": -1.0, "theorems": ("T6", "T7")},
            {"delta": 1.0, "log_base": 0.5},
        ],
        ids=["order-1", "t6-order-1", "no-order", "negative-order", "bad-base"],
    )
    def test_precondition_errors_match_scalar_loop(self, options):
        with pytest.raises(ValueError) as expected:
            scalar_survey(RandomSource(20), 50, **options)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            survey_bounds(RandomSource(20), 50, **options)
