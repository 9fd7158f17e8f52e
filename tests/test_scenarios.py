import json
import math
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from conftest import sorted_simplex
from locclab.majorization import ComparabilityVerdict
from locclab.scenarios import (
    AmplitudeHalf,
    ProductCompare,
    RowFormatError,
    ScenarioInstance,
    TableReport,
    check_row_conditions,
    load_default_rows,
    load_scenario_rows,
    observe_instance,
    replay_table_certificate,
    rows_for_case,
    validate_tables,
)
from locclab.states import RandomSource


@pytest.fixture(scope="module")
def catalog():
    return load_default_rows()


def row(catalog, key):
    return next(r for r in catalog if r.key == key)


# Constructed by rejection sampling against row 3.2 and pinned; the values
# satisfy the weight relation, the incomparable component precondition, and
# both product conditions.
ROW32_INSTANCE = ScenarioInstance(
    alpha=0.8506843146258467,
    beta=0.5256768939658214,
    alphap=0.851553764602344,
    betap=0.5242672848763078,
    psi=(0.7046209658114134, 0.17665034061909934, 0.11872869356948734),
    phi=(0.6142088798978842, 0.24340717314190988, 0.14238394696020593),
    psip=(0.5002985403728064, 0.4663213223308513, 0.03338013729634233),
    phip=(0.6142088798978842, 0.24340717314190988, 0.14238394696020593),
    shared_phi=True,
)


class TestCatalog:
    def test_row_counts_per_table(self, catalog):
        counts = Counter(r.table for r in catalog)
        assert counts == {"1": 5, "1A": 5, "2": 6, "2A": 6, "3": 5, "3A": 5, "IV": 3, "V": 3}

    def test_first_row_shape(self, catalog):
        r = row(catalog, "1.1")
        assert r.case == "I"
        assert r.weight_relation == "equal"
        assert r.alternatives == ((),)
        assert not r.conditions_unspecified
        assert r.predicted_pair == "INCOMPARABLE"
        assert r.predicted_order is None

    def test_comparable_row_has_three_conditions(self, catalog):
        r = row(catalog, "1.4")
        assert r.predicted_pair == "COMPARABLE"
        assert len(r.alternatives) == 1 and len(r.alternatives[0]) == 3
        assert all(isinstance(c, ProductCompare) for c in r.alternatives[0])

    def test_or_blocks_parse(self, catalog):
        r = row(catalog, "2.3")
        assert len(r.alternatives) == 2
        assert all(len(group) == 4 for group in r.alternatives)

    def test_amplitude_half_conditions_parse(self, catalog):
        r = row(catalog, "1A.1")
        (group,) = r.alternatives
        assert isinstance(group[0], AmplitudeHalf)
        assert r.predicted_order == "GAMMA_GT"

    def test_either_way_operator(self, catalog):
        r = row(catalog, "1A.4")
        half = [c for c in r.alternatives[0] if isinstance(c, AmplitudeHalf)]
        assert half and half[0].op == "<>"

    def test_preset_rows_unspecified(self, catalog):
        assert row(catalog, "IV.2").conditions_unspecified
        assert row(catalog, "V.1").predicted_pair is None
        assert not row(catalog, "IV.1").conditions_unspecified

    def test_shared_phi_cases(self, catalog):
        assert row(catalog, "3.1").shared_phi
        assert row(catalog, "IV.1").shared_phi
        assert not row(catalog, "1.1").shared_phi

    def test_case_filter(self, catalog):
        case_one = rows_for_case(catalog, "I")
        assert len(case_one) == 10
        assert {r.table for r in case_one} == {"1", "1A"}
        with pytest.raises(ValueError, match="unknown case"):
            rows_for_case(catalog, "VI")


class TestRowParsing:
    def test_empty_document(self):
        assert load_scenario_rows("") == []
        assert load_scenario_rows("# only a comment\n\n") == []

    def test_field_count_diagnostic(self):
        with pytest.raises(RowFormatError, match="line 1"):
            load_scenario_rows("I | 1 | 1 | equal\n")

    def test_unknown_weight_relation(self):
        with pytest.raises(RowFormatError, match="weight relation"):
            load_scenario_rows("I | 1 | 1 | alpha>>alphap | - | - | - | -\n")

    def test_bad_condition_reports_line(self):
        doc = "# header\nI | 1 | 1 | equal | a0 >> b0 | - | - | -\n"
        with pytest.raises(RowFormatError, match="line 2"):
            load_scenario_rows(doc)

    def test_unknown_factor(self):
        with pytest.raises(RowFormatError, match="unknown factor"):
            load_scenario_rows("I | 1 | 1 | equal | c0 > a0 | - | - | -\n")

    def test_duplicate_rows_rejected(self):
        line = "I | 1 | 1 | equal | - | - | - | -\n"
        with pytest.raises(RowFormatError, match="duplicate"):
            load_scenario_rows(line + line)

    def test_squared_coefficient_rejected(self):
        with pytest.raises(RowFormatError, match="weights may be squared"):
            load_scenario_rows("I | 1 | 1 | equal | a0^2 > b0 | - | - | -\n")


class TestCheckRowConditions:
    def _case_one_instance(self, alpha=0.6, alphap=0.6):
        # hand-built incomparable pairs: largest and smallest both bigger on one side
        import math

        return ScenarioInstance(
            alpha=alpha,
            beta=math.sqrt(1 - alpha * alpha),
            alphap=alphap,
            betap=math.sqrt(1 - alphap * alphap),
            psi=(0.6, 0.25, 0.15),
            psip=(0.55, 0.38, 0.07),
            phi=(0.6, 0.25, 0.15),
            phip=(0.55, 0.38, 0.07),
            shared_phi=False,
        )

    def test_no_condition_row_passes_on_preconditions(self, catalog):
        assert check_row_conditions(row(catalog, "1.1"), self._case_one_instance())

    def test_weight_relation_gates(self, catalog):
        assert not check_row_conditions(
            row(catalog, "1.1"), self._case_one_instance(alpha=0.7, alphap=0.6)
        )

    def test_single_violated_condition_fails(self, catalog):
        # row 1.2 requires beta^2*b0 > betap^2*bp0; equal phi-pairs with
        # beta < betap make that impossible alongside its second condition
        inst = self._case_one_instance(alpha=0.7, alphap=0.6)
        r = row(catalog, "1.2")
        assert not check_row_conditions(r, inst)

    def test_pinned_row32_instance(self, catalog):
        assert check_row_conditions(row(catalog, "3.2"), ROW32_INSTANCE)

    def test_row32_conditions_are_what_they_claim(self):
        # alpha^2 a0 > alphap^2 ap0 and alpha^2 a2 > alphap^2 ap2
        i = ROW32_INSTANCE
        assert i.alpha**2 * i.psi[0] > i.alphap**2 * i.psip[0]
        assert i.alpha**2 * i.psi[2] > i.alphap**2 * i.psip[2]

    def test_structural_mismatch_raises(self, catalog):
        import dataclasses

        bad = dataclasses.replace(ROW32_INSTANCE, shared_phi=False)
        with pytest.raises(ValueError, match="share"):
            check_row_conditions(row(catalog, "3.2"), bad)

    def test_serialized_round_trip_still_passes(self, catalog):
        doc = json.loads(json.dumps(ROW32_INSTANCE.to_doc()))
        again = ScenarioInstance.from_doc(doc)
        assert again == ROW32_INSTANCE
        assert check_row_conditions(row(catalog, "3.2"), again)


class TestValidateTables:
    def test_report_shape_and_determinism(self, catalog):
        rows = rows_for_case(catalog, "I")
        a = validate_tables(rows, 800, RandomSource(1))
        b = validate_tables(rows, 800, RandomSource(1))
        assert a.to_csv() == b.to_csv()
        assert len(a.rows) == 10
        header = a.to_csv().splitlines()[0]
        assert header.startswith("case,table,row,samples,satisfied")

    def test_row_subset_gets_same_draws(self, catalog):
        # per-row sub-streams are keyed by row identity, not list position
        rows = rows_for_case(catalog, "I")
        full = validate_tables(rows, 400, RandomSource(1))
        only_one = validate_tables([rows[3]], 400, RandomSource(1))
        assert full.rows[3] == only_one.rows[0]

    def test_unsatisfiable_row_satisfies_nothing(self):
        (impossible,) = load_scenario_rows("I | 1 | 99 | equal | a0 > a0 | - | - | -\n")
        report = validate_tables([impossible], 50, RandomSource(3))
        assert report.rows[0].satisfied == 0
        assert report.certificates() == []

    def test_sample_count_validation(self, catalog):
        with pytest.raises(ValueError, match="at least 1"):
            validate_tables(rows_for_case(catalog, "I"), 0, RandomSource(1))

    def test_counts_are_consistent(self, catalog):
        report = validate_tables(rows_for_case(catalog, "II"), 600, RandomSource(4))
        for tally in report.rows:
            assert tally.satisfied <= tally.samples
            if tally.row.predicted_pair is not None:
                assert tally.verdict_agree + tally.verdict_disagree == tally.satisfied
            if tally.row.predicted_order is not None:
                assert (
                    tally.order_agree + tally.order_disagree + tally.order_tie
                    == tally.order_checked
                )
                assert tally.order_checked <= tally.satisfied
            if tally.satisfied:
                assert 0.0 <= tally.mean_abs_overlap <= 1.0

    def test_exploratory_rows_emit_no_certificates(self, catalog):
        report = validate_tables(rows_for_case(catalog, "V"), 300, RandomSource(4))
        for tally in report.rows:
            assert tally.row.predicted_pair is None
            assert tally.certificates == ()

    def test_certificate_replay(self, catalog):
        report = validate_tables(rows_for_case(catalog, "I"), 1500, RandomSource(1))
        certs = report.certificates()
        assert certs, "expected disagreements at this sample size"
        for cert in certs[:25]:
            replayed = replay_table_certificate(cert, catalog)
            assert replayed["row_conditions_pass"]
            assert replayed["observed_verdict"] == cert["observed_verdict"]
            assert replayed["order"] == cert["order"]
            assert replayed["c2_gamma"] == cert["c2_gamma"]
            assert replayed["c2_gamma_prime"] == cert["c2_gamma_prime"]

    def test_certificate_cap(self, catalog):
        rows = rows_for_case(catalog, "I")
        capped = validate_tables(rows, 1500, RandomSource(1), max_certificates=2)
        assert all(len(t.certificates) <= 2 for t in capped.rows)

    def test_unknown_certificate_row_rejected(self, catalog):
        report = validate_tables(rows_for_case(catalog, "I"), 1500, RandomSource(1))
        cert = dict(report.certificates()[0])
        cert["table"] = "1"
        cert["row"] = "does-not-exist"
        with pytest.raises(ValueError, match="not in catalog"):
            replay_table_certificate(cert, catalog)

    def test_preset_case_four_runs(self, catalog):
        report = validate_tables(rows_for_case(catalog, "IV"), 300, RandomSource(6))
        equal_row = next(t for t in report.rows if t.row.row_id == "1")
        assert equal_row.satisfied > 0
        assert equal_row.row.predicted_pair == "COMPARABLE"


def test_readme_csv_columns_match_report_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("CSV with columns\n\n```\n", 1)[1].split("```", 1)[0]
    assert "".join(block.split()) == TableReport(()).to_csv().strip()


def test_observe_instance_orders_with_tie_category():
    outcome = observe_instance(ROW32_INSTANCE)
    assert outcome.order in ("GAMMA_GT", "GAMMA_LT", "TIE")
    assert outcome.c2_gamma == pytest.approx(0.9861439301377637, abs=1e-12)
    assert outcome.c2_gamma_prime == pytest.approx(1.0911115752463976, abs=1e-12)
    assert outcome.verdict is ComparabilityVerdict.INCOMPARABLE


# ---------------------------------------------------------------------------
# Row-condition oracle: each catalog row evaluated straight from its text
# (Python's own expression evaluator on the written conditions, prefix sums for
# the case preconditions), with no package parsing or evaluation code.

_ORACLE_GAP = 1e-9  # samples this close to any threshold are skipped
_CASE_PAIRS = {  # case -> required comparability of (psi pair, phi pair)
    "I": (False, False),
    "II": (True, False),
    "III": (False, None),
    "IV": (True, None),
    "V": (True, True),
}


class _TooClose(Exception):
    pass


def _oracle_catalog():
    text = resources.files("locclab.data").joinpath("table_rows.txt").read_text()
    rows = {}
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            case, table, row_id, weights, conditions = (f.strip() for f in line.split("|")[:5])
            rows[f"{table}.{row_id}"] = (case, weights, conditions)
    return rows


def _oracle_comparable(p, q):
    first, second = p[0] - q[0], (p[0] + p[1]) - (q[0] + q[1])
    if abs(first) <= _ORACLE_GAP or abs(second) <= _ORACLE_GAP:
        raise _TooClose
    return (first > 0) == (second > 0)


def _oracle_condition(text, env):
    op = next(op for op in ("<>", "<", ">") if op in text)
    if op == "<>":
        return True
    lhs, rhs = (eval(side.replace("^", "**"), {"sqrt": math.sqrt}, env) for side in text.split(op))
    if abs(lhs - rhs) <= _ORACLE_GAP:
        raise _TooClose
    return lhs > rhs if op == ">" else lhs < rhs


def _oracle_holds(case, weights, conditions, inst):
    """The row's predicate on ``inst``; raises _TooClose near a threshold."""
    if weights != "equal" and abs(inst.alpha - inst.alphap) <= _ORACLE_GAP:
        raise _TooClose
    if weights == "equal" and inst.alpha != inst.alphap:
        return False
    if weights == "alpha>alphap" and not inst.alpha > inst.alphap:
        return False
    if weights == "alpha<alphap" and not inst.alpha < inst.alphap:
        return False
    psi_needed, phi_needed = _CASE_PAIRS[case]
    if _oracle_comparable(inst.psi, inst.psip) != psi_needed:
        return False
    if phi_needed is not None and _oracle_comparable(inst.phi, inst.phip) != phi_needed:
        return False
    if conditions in ("-", "unspecified"):
        return True
    env = {"alpha": inst.alpha, "beta": inst.beta, "alphap": inst.alphap, "betap": inst.betap}
    for family, triple in (("a", inst.psi), ("b", inst.phi), ("ap", inst.psip), ("bp", inst.phip)):
        env.update({f"{family}{i}": x for i, x in enumerate(triple)})
    # Evaluate every condition (no short circuit), so a near-threshold one is skipped.
    groups = [
        [_oracle_condition(part.strip(), env) for part in group.split(";")]
        for group in conditions.split(" OR ")
    ]
    return any(all(group) for group in groups)


def _oracle_pair(gen, comparable):
    """Two sorted triples whose comparability is ``comparable`` (None: any)."""
    for _ in range(1000):
        p, q = sorted_simplex(gen, 3), sorted_simplex(gen, 3)
        try:
            if comparable is None or _oracle_comparable(p, q) == comparable:
                return p, q
        except _TooClose:
            pass
    raise AssertionError("no component pair drawn")


def _oracle_instance(gen, case, weights, force):
    u, v = sorted(gen.uniform(0.05, 0.95, size=2))
    alpha, alphap = {"equal": (u, u), "alpha>alphap": (v, u), "alpha<alphap": (u, v)}[weights]
    psi_needed, phi_needed = _CASE_PAIRS[case] if force else (None, None)
    psi, psip = _oracle_pair(gen, psi_needed)
    if case in ("III", "IV"):
        phi = phip = sorted_simplex(gen, 3)
    else:
        phi, phip = _oracle_pair(gen, phi_needed)
    return ScenarioInstance(
        alpha=alpha,
        beta=math.sqrt(1.0 - alpha * alpha),
        alphap=alphap,
        betap=math.sqrt(1.0 - alphap * alphap),
        psi=psi,
        phi=phi,
        psip=psip,
        phip=phip,
        shared_phi=case in ("III", "IV"),
    )


def test_row_conditions_match_text_oracle(catalog):
    oracle = _oracle_catalog()
    assert set(oracle) == {r.key for r in catalog}
    gen = np.random.default_rng(20261018)
    outcomes = Counter()
    for r in catalog:
        case, weights, conditions = oracle[r.key]
        for i in range(200):
            # Three in four draws meet the case preconditions, so the
            # written conditions decide; the rest exercise the gating.
            inst = _oracle_instance(gen, case, weights, force=i % 4 != 0)
            try:
                expected = _oracle_holds(case, weights, conditions, inst)
            except _TooClose:
                continue
            assert check_row_conditions(r, inst) == expected, (r.key, inst)
            outcomes[conditions not in ("-", "unspecified"), expected] += 1
    # Both outcomes occur often on rows whose written conditions decide.
    assert outcomes[True, True] > 300 and outcomes[True, False] > 300
