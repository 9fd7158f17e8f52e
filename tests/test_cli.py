import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locclab.cli as cli
from locclab.statefile import (
    StateFileError,
    emit_state_file,
    parse_state_file,
    state_from_document,
)
from locclab.states import NumericalError, PureState, schmidt_of_state


def vec(probs):
    return PureState.vector([math.sqrt(p) for p in probs])


GOOD_INSTANCE = {
    "alpha": 1.0,
    "beta": 0.0,
    "psi": {"form": "vector", "amplitudes": [1.0, 0.0]},
    "phi": {"form": "vector", "amplitudes": [0.0, 1.0]},
}


class TestStateFiles:
    def test_point_mass_vector(self):
        state = parse_state_file('{"version": 1, "form": "vector", "amplitudes": [1, 0, 0]}')
        assert state.is_vector
        assert schmidt_of_state(state).probs == (1.0, 0.0, 0.0)

    def test_seventeen_digit_amplitudes(self):
        text = (
            '{"version": 1, "form": "vector", '
            '"amplitudes": [0.70710678118654752, 0.70710678118654752]}'
        )
        state = parse_state_file(text)
        assert schmidt_of_state(state).probs == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_matrix_form(self):
        text = '{"version": 1, "form": "matrix", "amplitudes": [[0.5, 0.5], [0.5, 0.5]]}'
        state = parse_state_file(text)
        assert schmidt_of_state(state).probs == pytest.approx((1.0, 0.0), abs=1e-13)

    def test_emit_parse_emit_is_identity(self):
        state = vec((0.5, 0.3, 0.2))
        text = emit_state_file(state, label="fixture")
        again = emit_state_file(parse_state_file(text), label="fixture")
        assert text == again

    def test_small_norm_drift_renormalized_with_warning(self):
        amps = [a * (1.0 + 3e-10) for a in vec((0.5, 0.5)).amplitudes]
        text = json.dumps({"version": 1, "form": "vector", "amplitudes": amps})
        with pytest.warns(UserWarning, match="renormalizing"):
            state = parse_state_file(text)
        assert abs(sum(a * a for a in state.amplitudes) - 1.0) <= 1e-12

    def test_large_norm_drift_rejected_without_flag(self):
        text = json.dumps({"version": 1, "form": "vector", "amplitudes": [0.6, 0.9]})
        with pytest.raises(StateFileError, match="renormalization was not requested"):
            parse_state_file(text)
        with pytest.warns(UserWarning):
            state = parse_state_file(text, renormalize=True)
        assert abs(sum(a * a for a in state.amplitudes) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "text,match",
        [
            ("not json at all", "not valid JSON"),
            ("[1, 2, 3]", "JSON object"),
            ('{"version": 2, "form": "vector", "amplitudes": [1]}', "version"),
            ('{"version": 1, "form": "ket", "amplitudes": [1]}', "unknown form"),
            ('{"version": 1, "form": "vector", "amplitudes": []}', "non-empty"),
            ('{"version": 1, "form": "vector", "amplitudes": [true]}', "number"),
            ('{"version": 1, "form": "matrix", "amplitudes": [[1, 0], [0]]}', "equal length"),
            ('{"version": 1, "form": "vector", "amplitudes": [1], "label": 5}', "label"),
        ],
    )
    def test_malformed_documents(self, text, match):
        with pytest.raises(StateFileError, match=match):
            parse_state_file(text)

    def test_zero_norm_rejected_even_with_flag(self):
        text = '{"version": 1, "form": "vector", "amplitudes": [0, 0]}'
        with pytest.raises(StateFileError, match="zero norm"):
            parse_state_file(text, renormalize=True)

    def test_embedded_document(self):
        doc = {"form": "vector", "amplitudes": [1.0, 0.0]}
        assert state_from_document(doc).amplitudes == (1.0, 0.0)


@pytest.fixture
def fixture_files(tmp_path):
    amplitudes = {
        "a": vec((0.5, 0.3, 0.2)).amplitudes,
        "b": vec((0.6, 0.3, 0.1)).amplitudes,
        "u3": (1 / math.sqrt(3),) * 3,
        "v1": (1.0, 0.0),
        "v2": (0.0, 1.0),
    }
    paths = {}
    for name, amps in amplitudes.items():
        p = tmp_path / f"{name}.json"
        p.write_text(emit_state_file(PureState.vector(amps)))
        paths[name] = str(p)
    return paths


class TestCli:
    def test_classify(self, fixture_files, capsys):
        code = cli.run(["classify", fixture_files["a"], fixture_files["b"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict = ConvertibleAtoB" in out

    def test_measure_prints_full_precision(self, fixture_files, capsys):
        code = cli.run(["measure", fixture_files["u3"], "--measures", "c2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "c2 = 1.3333333333333333" in out

    def test_measure_all_kinds(self, fixture_files, capsys):
        code = cli.run(["measure", fixture_files["a"], "--delta", "2"])
        out = capsys.readouterr().out
        assert code == 0
        for key in ("e =", "c2 =", "n =", "ln =", "renyi =", "renyi_delta ="):
            assert key in out

    def test_measure_unknown_kind_exits_2(self, fixture_files, capsys):
        code = cli.run(["measure", fixture_files["a"], "--measures", "purity"])
        assert code == 2
        assert "unknown measure" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["measure", "bounds"])
    def test_non_finite_renyi_order_exits_2(self, fixture_files, capsys, command, delta):
        if command == "measure":
            argv = ["measure", fixture_files["a"], "--measures", "renyi"]
        else:
            argv = ["bounds", "--random", "3", "--seed", "1", "--theorems", "t5,t6"]
        assert cli.run(argv + ["--delta", delta]) == 2
        captured = capsys.readouterr()
        assert "finite and non-negative" in captured.err
        assert "nan" not in captured.out

    def test_superpose_reports_overlap_flag(self, fixture_files, capsys):
        code = cli.run(
            [
                "superpose",
                fixture_files["v1"],
                fixture_files["v2"],
                "--alpha",
                repr(1 / math.sqrt(2)),
                "--beta",
                repr(1 / math.sqrt(2)),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "overlap = 0.0" in out
        assert "orthogonal_components = true" in out
        assert "e = 1.0" in out

    def test_superpose_bad_weights_exit_2(self, fixture_files, capsys):
        code = cli.run(
            ["superpose", fixture_files["v1"], fixture_files["v2"], "--alpha", "1", "--beta", "1"]
        )
        assert code == 2

    def test_superpose_non_finite_weight_exits_2(self, fixture_files, capsys):
        argv = ["superpose", fixture_files["a"], fixture_files["b"], "--alpha", "nan"]
        assert cli.run(argv + ["--beta", "0.8"]) == 2
        assert "weights must be finite" in capsys.readouterr().err

    def test_module_entry_point(self, fixture_files):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

        def module_run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "locclab.cli", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
                timeout=120,
            )

        bad = module_run("bounds", "--random", "0", "--seed", "1")
        assert bad.returncode == 2
        assert any(line.startswith("error: ") for line in bad.stderr.splitlines())
        good = module_run("classify", fixture_files["a"], fixture_files["b"])
        assert good.returncode == 0
        assert "verdict = ConvertibleAtoB" in good.stdout

    def test_bounds_requires_seed(self, capsys):
        code = cli.run(["bounds", "--random", "5"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_bounds_requires_exactly_one_source(self, fixture_files, capsys):
        assert cli.run(["bounds"]) == 2
        assert cli.run(["bounds", "--instance", "x.json", "--random", "5", "--seed", "1"]) == 2

    def test_bounds_survey_deterministic_output(self, capsys):
        argv = ["bounds", "--random", "120", "--seed", "3", "--format", "csv"]
        assert cli.run(argv) == 0
        first = capsys.readouterr().out
        assert cli.run(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[0] == "theorem,n,hold_rate,worst_margin,certificate_ids"
        assert len(first.splitlines()) == 11

    @pytest.mark.parametrize(
        "theorems, delta, code", [("t1", "1", 0), ("t1", "-1", 0), ("t5", "1", 2)]
    )
    def test_survey_checks_delta_only_for_selected_theorems(self, capsys, theorems, delta, code):
        argv = ["bounds", "--random", "3", "--seed", "1", "--theorems", theorems, "--delta", delta]
        assert cli.run(argv) == code
        captured = capsys.readouterr()
        if code:
            assert "excludes Renyi order 1" in captured.err
        else:
            assert captured.out.startswith("theorem = T1\n")

    def test_survey_needs_samples(self, capsys):
        assert cli.run(["bounds", "--random", "0", "--seed", "1"]) == 2
        assert "at least one sample" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["kv", "csv"])
    def test_survey_selection_prints_selected_parts(self, tmp_path, capsys, fmt):
        argv = ["bounds", "--random", "60", "--seed", "3", "--format", fmt]
        assert cli.run(argv + ["--certs", str(tmp_path / "all")]) == 0
        full = capsys.readouterr().out
        picked = ["--theorems", "t4,t1,T1", "--certs", str(tmp_path / "some")]
        assert cli.run(argv + picked) == 0
        part = capsys.readouterr().out
        if fmt == "csv":
            lines = full.splitlines(keepends=True)
            assert part == lines[0] + lines[1] + lines[4]
        else:
            blocks = full.split("\n\n")
            assert blocks[0].startswith("theorem = T1\n")
            assert blocks[3].startswith("theorem = T4\n")
            assert part == blocks[0] + "\n\n" + blocks[3] + "\n"
        kept = {p.name: p.read_bytes() for p in (tmp_path / "all").glob("T[14]-*.json")}
        assert kept
        assert {p.name: p.read_bytes() for p in (tmp_path / "some").iterdir()} == kept

    def test_bounds_instance_evaluation(self, tmp_path, capsys):
        s2 = 1 / math.sqrt(2)
        doc = {
            "alpha": s2,
            "beta": s2,
            "psi": {"form": "vector", "amplitudes": [1.0, 0.0]},
            "phi": {"form": "vector", "amplitudes": [0.0, 1.0]},
            "delta": 2.0,
            "log_base": 2.0,
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code = cli.run(["bounds", "--instance", str(path), "--theorems", "t1,t7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "theorem = T1" in out and "theorem = T7" in out
        assert "holds = true" in out

    def test_bounds_instance_all_skips_inapplicable(self, tmp_path, capsys):
        s2 = 1 / math.sqrt(2)
        doc = {
            "alpha": s2,
            "beta": s2,
            "psi": {"form": "vector", "amplitudes": [1.0, 0.0]},
            "phi": {"form": "vector", "amplitudes": [0.0, 1.0]},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code = cli.run(["bounds", "--instance", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "theorem = T1" in out
        assert "theorem = T2" not in out  # needs 3x3 components

    def test_bounds_instance_all_equals_omitted_selection(self, tmp_path, capsys):
        certs = tmp_path / "certs"
        argv = ["bounds", "--random", "300", "--seed", "3", "--theorems", "t1"]
        assert cli.run(argv + ["--certs", str(certs)]) == 0
        path = str(next(certs.glob("T1-*.json")))
        capsys.readouterr()
        assert cli.run(["bounds", "--instance", path]) == 0
        omitted = capsys.readouterr().out
        assert cli.run(["bounds", "--instance", path, "--theorems", "all"]) == 0
        assert capsys.readouterr().out == omitted
        assert "theorem = T9" in omitted and "Chain11" not in omitted
        assert cli.run(["bounds", "--instance", path, "--theorems", "chain11"]) == 2
        assert "psi_prime/phi_prime" in capsys.readouterr().err

    def test_bounds_instance_explicit_precondition_failure_exits_2(self, tmp_path, capsys):
        s2 = 1 / math.sqrt(2)
        doc = {
            "alpha": s2,
            "beta": s2,
            "psi": {"form": "vector", "amplitudes": [1.0, 0.0]},
            "phi": {"form": "vector", "amplitudes": [0.0, 1.0]},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["bounds", "--instance", str(path), "--theorems", "t2"]) == 2

    @pytest.mark.parametrize(
        "doc,match",
        [
            ([1, 2, 3], "JSON object"),
            ({"snapshot": [1, 2, 3]}, "JSON object"),
            ({"beta": 1.0, "psi": {"form": "vector", "amplitudes": [1.0]}}, "alpha, phi"),
            ({"alpha": 1.0, "beta": 0.0}, "psi, phi"),
            ({"alpha": 1.0, "beta": 0.0, "psi": [1.0], "phi": [1.0]}, "JSON object"),
            (
                {
                    "alpha": 1.0,
                    "beta": 0.0,
                    "psi": {"form": "vector", "amplitudes": [0.6, 0.9]},
                    "phi": {"form": "vector", "amplitudes": [1.0, 0.0]},
                },
                "renormalization",
            ),
            ({**GOOD_INSTANCE, "alpha": [1]}, "alpha: expected a number"),
            ({**GOOD_INSTANCE, "alpha": None}, "alpha: expected a number"),
            ({**GOOD_INSTANCE, "delta": [1]}, "delta: expected a number"),
            ({**GOOD_INSTANCE, "log_base": "2"}, "log_base: expected a number"),
        ],
        ids=[
            "array", "array-snapshot", "missing-alpha", "missing-psi", "psi-not-object", "bad-norm",
            "alpha-list", "alpha-null", "delta-list", "log-base-string",
        ],
    )
    def test_bounds_malformed_instance_exits_2(self, tmp_path, capsys, doc, match):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["bounds", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err

    def test_bounds_certificate_replay_via_cli(self, tmp_path, capsys):
        cert_dir = tmp_path / "certs"
        assert (
            cli.run(
                [
                    "bounds",
                    "--random",
                    "150",
                    "--seed",
                    "31",
                    "--certs",
                    str(cert_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        cert_files = sorted(cert_dir.glob("*.json"))
        assert cert_files
        code = cli.run(["bounds", "--instance", str(cert_files[0])])
        out = capsys.readouterr().out
        assert code == 0
        assert "holds = false" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--random", "5", "--seed", "1"],
            ["tables", "--case", "I", "--samples", "5", "--seed", "1"],
        ],
        ids=["bounds", "tables"],
    )
    def test_renormalize_rejected_without_state_files(self, tmp_path, capsys, argv):
        out_path = tmp_path / "t.csv"
        if argv[0] == "tables":
            argv = argv + ["--out", str(out_path)]
        assert cli.run(argv + ["--renormalize"]) == 2
        assert "--renormalize" in capsys.readouterr().err
        assert not out_path.exists()

    def test_tables_requires_seed(self, tmp_path, capsys):
        code = cli.run(
            ["tables", "--case", "I", "--samples", "10", "--out", str(tmp_path / "t.csv")]
        )
        assert code == 2

    def test_tables_negative_max_certs_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        code = cli.run(
            [
                "tables", "--case", "I", "--samples", "10", "--seed", "1",
                "--out", str(out_path), "--max-certs", "-1",
            ]
        )
        assert code == 2
        assert "error: --max-certs" in capsys.readouterr().err
        assert not out_path.exists()

    def test_tables_runs_and_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        cert_dir = tmp_path / "certs"
        code = cli.run(
            [
                "tables",
                "--case",
                "I",
                "--samples",
                "400",
                "--seed",
                "1",
                "--out",
                str(out_path),
                "--certs",
                str(cert_dir),
            ]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        assert "rows = 10" in stdout
        lines = out_path.read_text().splitlines()
        assert len(lines) == 11
        for cert_file in cert_dir.glob("*.json"):
            cert = json.loads(cert_file.read_text())
            assert {"id", "instance", "observed_verdict"} <= set(cert)

    def test_tables_custom_rows_document(self, tmp_path, capsys):
        rows_doc = tmp_path / "rows.txt"
        rows_doc.write_text("I | 1 | 1 | equal | - | INCOMPARABLE | - | -\n")
        out_path = tmp_path / "r.csv"
        code = cli.run(
            [
                "tables",
                "--case",
                "I",
                "--samples",
                "50",
                "--seed",
                "2",
                "--rows",
                str(rows_doc),
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 2

    def test_tables_bad_rows_document_exits_2(self, tmp_path, capsys):
        rows_doc = tmp_path / "rows.txt"
        rows_doc.write_text("I | 1 | 1 | equal | nonsense ~ x | - | - | -\n")
        code = cli.run(
            [
                "tables",
                "--case",
                "I",
                "--samples",
                "10",
                "--seed",
                "2",
                "--rows",
                str(rows_doc),
                "--out",
                str(tmp_path / "r.csv"),
            ]
        )
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert cli.run(["classify", "--frobnicate"]) == 2

    def test_unknown_theorem_exits_2(self, capsys):
        assert cli.run(["bounds", "--theorems", "t42", "--random", "5", "--seed", "1"]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert cli.run(["classify", "/nonexistent/a.json", "/nonexistent/b.json"]) == 2

    def test_numerical_failure_exits_3(self, fixture_files, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NumericalError("synthetic convergence failure")

        monkeypatch.setattr(cli, "parse_state_file", boom)
        code = cli.run(["classify", fixture_files["a"], fixture_files["b"]])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.run(["--help"]) == 0

    def test_human_format_rounds(self, fixture_files, capsys):
        code = cli.run(["measure", fixture_files["u3"], "--measures", "c2", "--format", "human"])
        out = capsys.readouterr().out
        assert code == 0
        assert "c2 = 1.33333" in out
        assert "1.3333333333333333" not in out

    def test_csv_format(self, fixture_files, capsys):
        code = cli.run(["measure", fixture_files["u3"], "--measures", "c2", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert "c2,1.3333333333333333" in out
