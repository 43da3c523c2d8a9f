"""Command-line entry point: exit codes, output routing, tolerance overrides."""

import json
import subprocess
import sys
import warnings

import pytest

from ckframe.cli import main
from ckframe.harness import emit_spec, generate_example, parse_problem, run_command

BROKEN_PAIR = {
    "space": {"labels": ["a", "b"], "weights": [1.0, 1.0]},
    "dim_h": 2,
    "dim_h0": 2,
    "field_f": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "operator_k": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "field_g": [[[1.00001, 0], [0, 0]], [[0, 0], [1.00001, 0]]],
}

EXCLUDED = {
    "space": {"labels": ["a", "b"], "weights": [1.0, 1.0]},
    "dim_h": 2,
    "dim_h0": 2,
    "field_f": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]],
    "operator_k": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
}


@pytest.fixture
def onb_spec(tmp_path):
    path = tmp_path / "onb.json"
    path.write_text(emit_spec(generate_example("onb", {"n": 2})))
    return str(path)


@pytest.fixture
def broken_pair_spec(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(BROKEN_PAIR))
    return str(path)


def test_gen_writes_parseable_spec(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["gen", "--kind", "scaled_onb", "--out", str(out)]) == 0
    spec = parse_problem(out.read_text())
    assert spec.dim_h == 2


def test_gen_to_stdout(capsys):
    assert main(["gen", "--kind", "onb"]) == 0
    assert '"field_f"' in capsys.readouterr().out


def test_bounds_ok_exit_zero(onb_spec, capsys):
    assert main(["bounds", onb_spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"


def test_out_flag_writes_file(onb_spec, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["bounds", onb_spec, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["command"] == "bounds"


def test_text_format(onb_spec, capsys):
    assert main(["bounds", onb_spec, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ckframe report")
    assert "status: ok" in out


def test_failed_check_exit_one(tmp_path):
    path = tmp_path / "excluded.json"
    path.write_text(json.dumps(EXCLUDED))
    assert main(["atoms", str(path)]) == 1


def test_degenerate_exit_zero(tmp_path, capsys):
    doc = dict(EXCLUDED)
    doc["field_f"] = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    doc["operator_k"] = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["bounds", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "degenerate"


def test_malformed_spec_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["bounds", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_missing_file_exit_two(tmp_path):
    assert main(["bounds", str(tmp_path / "nope.json")]) == 2


def test_bad_gen_params_exit_two(tmp_path):
    assert main(["gen", "--kind", "onb", "--params", "{not json"]) == 2
    assert main(["gen", "--kind", "onb", "--params", '{"n": 0}']) == 2


def test_env_tolerance_loosens_default(broken_pair_spec, monkeypatch):
    monkeypatch.delenv("CKFRAME_TOL", raising=False)
    assert main(["verify-pair", broken_pair_spec]) == 1
    monkeypatch.setenv("CKFRAME_TOL", "1e-3")
    assert main(["verify-pair", broken_pair_spec]) == 0


def test_tol_flag_beats_env(broken_pair_spec, monkeypatch):
    monkeypatch.setenv("CKFRAME_TOL", "1e-3")
    assert main(["verify-pair", broken_pair_spec, "--tol", "1e-8"]) == 1


def test_spec_tolerance_beats_env(tmp_path, monkeypatch):
    doc = dict(BROKEN_PAIR)
    doc["tolerances"] = {"check_tol": 1e-8}
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("CKFRAME_TOL", "1e-3")
    assert main(["verify-pair", str(path)]) == 1


def test_invalid_env_tolerance_exit_two(onb_spec, monkeypatch, capsys):
    monkeypatch.setenv("CKFRAME_TOL", "tight")
    assert main(["bounds", onb_spec]) == 2
    assert "CKFRAME_TOL" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    spec_path = tmp_path / "spec.json"
    gen = subprocess.run(
        [sys.executable, "-m", "ckframe", "gen", "--kind", "scaled_onb", "--out", str(spec_path)],
        capture_output=True,
        text=True,
    )
    assert gen.returncode == 0
    dual = subprocess.run(
        [sys.executable, "-m", "ckframe", "dual", str(spec_path)],
        capture_output=True,
        text=True,
    )
    assert dual.returncode == 0
    doc = json.loads(dual.stdout)
    assert doc["results"]["dual_field"] == [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.5, 0.0]],
    ]


@pytest.mark.parametrize("scales", [[1.0, 1e-6], [1e-5, 1e-5], [1.0, 3e-5]])
def test_scaled_onb_gets_one_verdict_from_every_command(scales, tmp_path):
    # rank is decided on the singular values of B, and positivity of the
    # lower bound by inclusion, so a tiny or badly scaled frame is still one
    spec_path = tmp_path / "spec.json"
    params = json.dumps({"scales": scales})
    assert main(["gen", "--kind", "scaled_onb", "--params", params, "--out", str(spec_path)]) == 0
    spec = parse_problem(spec_path.read_text())
    reports = {
        cmd: run_command(spec, cmd) for cmd in ("bounds", "atoms", "douglas", "dual", "sandwich")
    }
    assert {cmd: r.status for cmd, r in reports.items()} == dict.fromkeys(reports, "ok")
    lower = reports["bounds"].results["lower"]
    assert 1.0 / reports["douglas"].results["lambda_min"] == pytest.approx(lower, rel=1e-8)
    assert reports["atoms"].results["bound_constant"] ** -2 == pytest.approx(lower, rel=1e-8)


@pytest.mark.parametrize("weight,sample", [(1e308, 1e200), (1.0, 1e-200)])
def test_unrepresentable_frame_operator_fails_without_stderr(weight, sample, tmp_path, capsys):
    # S_f = B B* overflows in the first case and underflows to 0 in the second
    doc = dict(BROKEN_PAIR)
    doc["space"] = {"labels": ["a", "b"], "weights": [weight, weight]}
    doc["field_f"] = [[[sample, 0], [0, 0]], [[0, 0], [sample, 0]]]
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cmd in ("bounds", "atoms", "douglas", "dual", "sandwich", "verify-pair"):
            assert main([cmd, str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err == ""
            assert json.loads(captured.out)["results"]["error"] == "NotRepresentable"


def test_row_lengths_checked_before_allocation(tmp_path, capsys):
    # a 1 x 10**12 complex matrix would need 16 TB
    doc = {
        "space": {"labels": ["a"], "weights": [1.0]},
        "dim_h": 10**12,
        "dim_h0": 1,
        "field_f": [[[1, 0]]],
        "operator_k": [[[1, 0]]],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["bounds", str(path)]) == 2
    assert "'field_f[0]'" in capsys.readouterr().err


def _set_weight(doc, value):
    doc["space"]["weights"][1] = value


def _set_cell(doc, value):
    doc["operator_k"][1][0][0] = value


def _set_tolerance(doc, value):
    doc["tolerances"] = {"check_tol": value}


@pytest.mark.parametrize(
    "place,path",
    [(_set_weight, "space.weights[1]"), (_set_cell, "operator_k[1][0][0]"), (_set_tolerance, "tolerances.check_tol")],
    ids=["weight", "matrix-cell", "tolerance"],
)
def test_huge_json_integer_is_an_input_error(place, path, tmp_path, capsys):
    # 10**400 is a valid JSON number that no double can hold
    doc = json.loads(json.dumps(EXCLUDED))
    place(doc, 10**400)
    spec_path = tmp_path / "huge.json"
    spec_path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bounds", str(spec_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"ckframe: input error: number is too large for double precision at '{path}'"
    ]


def test_huge_gen_scale_is_an_input_error(capsys):
    params = json.dumps({"scales": [1.0, 10**400]})
    assert main(["gen", "--kind", "scaled_onb", "--params", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["ckframe: input error: scales[1] must be a finite number"]
