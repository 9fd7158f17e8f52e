"""Input errors that the rest of the suite does not reach, each pinned by its
exact message (and, through the CLI, by exit code 2 and nothing on stdout)."""

import json
import math
import re

import pytest

import locclab.cli as cli
from locclab.scenarios import RowFormatError, load_scenario_rows
from locclab.statefile import StateFileError, parse_state_file
from locclab.states import InvalidStateError, PureState, SchmidtVector, schmidt_of_state


def raises_exactly(exc_type, message):
    return pytest.raises(exc_type, match=f"^{re.escape(message)}$")


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def row(conditions="-", table="1", pair="-", order="-"):
    return f"I | {table} | 1 | equal | {conditions} | {pair} | {order} | -\n"


class TestCatalog:
    @pytest.mark.parametrize(
        "line, message",
        [
            (row(table="9"), "line 1: unknown table '9'"),
            (row(pair="MAYBE"), "line 1: unknown pair prediction 'MAYBE'"),
            (row(order="GAMMA_LT"), "line 1: unknown order prediction 'GAMMA_LT'"),
            (
                row("(gamma*sqrt(a0)+beta*sqrt(b0))^2 > 0.5"),
                "line 1: 'gamma' is not a weight",
            ),
            (
                row("(alpha*sqrt(a0)+beta*sqrt(q0))^2 > 0.5"),
                "line 1: 'q0' is not a coefficient",
            ),
            # An empty product is one empty factor: splitting on "*" always
            # gives at least one token.
            (row("a0 >"), "line 1: unknown factor ''"),
            (row("alpha^2*a0 > b0 OR ;"), "line 1: empty OR-group"),
        ],
        ids=[
            "table", "pair", "order", "half-weight", "half-coefficient", "empty-product",
            "empty-or-group",
        ],
    )
    def test_message(self, line, message):
        with raises_exactly(RowFormatError, message):
            load_scenario_rows(line)

    def test_cli_rows_document_exits_2(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text(row(pair="MAYBE"))
        out = tmp_path / "r.csv"
        argv = ["tables", "--case", "I", "--samples", "5", "--seed", "1"]
        code, stdout, err = run_cli(capsys, *argv, "--rows", str(rows), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == "error: line 1: unknown pair prediction 'MAYBE'\n"
        assert not out.exists()


class TestTablesCli:
    def test_out_directory_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "validate_tables", no_sweep)
        argv = ["tables", "--case", "I", "--samples", "5", "--seed", "1", "--out", str(tmp_path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_rows_document_without_the_case_exits_2(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text(row())
        out = tmp_path / "r.csv"
        argv = ["tables", "--case", "II", "--samples", "5", "--seed", "1"]
        code, stdout, err = run_cli(capsys, *argv, "--rows", str(rows), "--out", str(out))
        assert (code, stdout, err) == (2, "", "error: no rows selected for case 'II'\n")
        assert not out.exists()


class TestStateFile:
    @pytest.mark.parametrize("amplitudes", [[[]], [1.0, 0.0], [[1.0], []]])
    def test_matrix_rows_must_be_non_empty_lists(self, amplitudes):
        doc = json.dumps({"version": 1, "form": "matrix", "amplitudes": amplitudes})
        with raises_exactly(StateFileError, "matrix amplitudes must be non-empty rows"):
            parse_state_file(doc)

    def test_cli_matrix_rows_exit_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 1, "form": "matrix", "amplitudes": [[]]}))
        code, out, err = run_cli(capsys, "measure", str(path))
        assert (code, out, err) == (2, "", "error: matrix amplitudes must be non-empty rows\n")

    def test_matrix_renormalized_with_warning(self):
        s = math.sqrt(0.5) * (1.0 + 1.5e-11)
        rows = [[s, 0.0], [0.0, -s]]
        sumsq = s * s + 0.0 + 0.0 + s * s
        assert 1e-12 < sumsq - 1.0 < 1e-9
        text = json.dumps({"version": 1, "form": "matrix", "amplitudes": rows})
        warning = f"renormalizing state: squared amplitudes summed to {sumsq!r}"
        with pytest.warns(UserWarning, match=f"^{re.escape(warning)}$"):
            state = parse_state_file(text)
        scale = 1.0 / math.sqrt(sumsq)
        assert state.amplitudes == tuple(tuple(v * scale for v in r) for r in rows)
        assert not state.is_vector


class TestStates:
    @pytest.mark.parametrize(
        "probs, message",
        [
            ((), "Schmidt vector needs at least one entry"),
            ((math.nan,), "non-finite entry nan"),
            ((math.inf, 0.0), "non-finite entry inf"),
        ],
        ids=["empty", "nan", "inf"],
    )
    def test_schmidt_vector(self, probs, message):
        with raises_exactly(InvalidStateError, message):
            SchmidtVector(probs)

    @pytest.mark.parametrize(
        "form, amplitudes, message",
        [
            ("vector", (), "vector state needs at least one amplitude"),
            ("vector", (math.nan, 1.0), "non-finite amplitude nan"),
            ("matrix", (), "matrix state must be non-empty"),
            ("matrix", ((),), "matrix state must be non-empty"),
            ("matrix", ((1.0, -math.inf), (0.0, 0.0)), "non-finite entry -inf"),
            ("ket", (1.0,), "unknown state form 'ket'"),
        ],
        ids=["empty-vector", "nan-vector", "empty-matrix", "empty-row", "inf-matrix", "form"],
    )
    def test_pure_state(self, form, amplitudes, message):
        with raises_exactly(InvalidStateError, message):
            PureState(form, amplitudes)

    def test_diagonal_matrix_of_a_matrix(self):
        state = PureState.matrix([[1.0, 0.0], [0.0, 0.0]])
        with raises_exactly(ValueError, "state is already in matrix form"):
            state.diagonal_matrix()

    def test_schmidt_of_a_non_state(self):
        with raises_exactly(InvalidStateError, "expected a PureState"):
            schmidt_of_state((1.0, 0.0))
