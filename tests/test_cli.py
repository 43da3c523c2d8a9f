"""Command-line entry point: exit codes, output routing, tolerance overrides."""

import json
import resource
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from ckframe.cli import main
from ckframe.errors import BadParams
from ckframe.harness import (
    GENERATOR_KINDS,
    MAX_GENERATED_CELLS,
    emit_spec,
    generate_example,
    parse_problem,
    run_command,
)

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


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "kind,key",
    [("onb", "n"), ("random_ckframe", "n"), ("random_bessel_pair", "n0"), ("interval_fourier", "atoms")],
)
def test_huge_gen_size_is_refused_before_building(kind, key):
    # the cell limit must refuse a 400-digit size before any label or array
    # is built; the child runs under a 1 GiB address-space cap and a timeout,
    # so a regression fails here instead of growing until it is killed
    params = json.dumps({key: 10**400})
    gen = subprocess.run(
        [sys.executable, "-m", "ckframe", "gen", "--kind", kind, "--params", params],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_cap_address_space,
    )
    assert gen.returncode == 2
    assert gen.stdout == ""
    assert gen.stderr.splitlines() == [
        f"ckframe: input error: {kind} would generate a matrix of more than "
        f"{MAX_GENERATED_CELLS} cells"
    ]


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_tol_flag_must_be_finite_and_positive(value, onb_spec, monkeypatch, capsys):
    # the rule a spec's tolerances.check_tol keeps; at inf every check passes
    monkeypatch.delenv("CKFRAME_TOL", raising=False)
    assert main(["bounds", onb_spec, "--tol", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ckframe: input error: ")
    assert captured.err.rstrip().endswith("at '--tol'")


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_env_tolerance_must_be_finite_and_positive(value, onb_spec, monkeypatch, capsys):
    monkeypatch.setenv("CKFRAME_TOL", value)
    assert main(["bounds", onb_spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ckframe: input error: ")
    assert captured.err.rstrip().endswith("at 'CKFRAME_TOL'")


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_negative_seed_is_an_input_error(kind, capsys):
    with pytest.raises(BadParams):
        generate_example(kind, {}, -1)
    assert main(["gen", "--kind", kind, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["ckframe: input error: seed must be >= 0, got -1"]


def test_gen_refuses_onb_one_past_the_cell_limit_before_allocating(capsys):
    # 4096**2 cells fit exactly; one row and column more does not
    assert 4096**2 == MAX_GENERATED_CELLS < 4097**2
    tracemalloc.start()
    try:
        code = main(["gen", "--kind", "onb", "--params", '{"n": 4097}'])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    # the refused identity alone would take 256 MiB
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"ckframe: input error: onb would generate a matrix of more than {MAX_GENERATED_CELLS} cells"
    ]


SCALED_ONB_MATRICES = {
    "atoms": ("coefficients", ["1.000000000000e+00", "5.000000000000e-01"]),
    "dual": ("dual_field", ["1.000000000000e+00", "5.000000000000e-01"]),
    "douglas": ("factor", ["1.000000000000e+00", "5.000000000000e-01"]),
}


@pytest.mark.parametrize("command", sorted(SCALED_ONB_MATRICES))
def test_text_format_writes_a_matrix_row_by_row(command, tmp_path, capsys):
    # gen's default scaled_onb, f = diag(1, 2) and k = I, holds diag(1, 1/2)
    spec_path = tmp_path / "spec.json"
    assert main(["gen", "--kind", "scaled_onb", "--out", str(spec_path)]) == 0
    assert main([command, str(spec_path), "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    key, (d0, d1) = SCALED_ONB_MATRICES[command]
    zero = "0.000000000000e+00"
    block = [
        f"{key}:",
        "  [0]:",
        f"    [0]: [{d0}, {zero}]",
        f"    [1]: [{zero}, {zero}]",
        "  [1]:",
        f"    [0]: [{zero}, {zero}]",
        f"    [1]: [{d1}, {zero}]",
    ]
    start = lines.index(f"{key}:")
    assert lines[start : start + len(block)] == block


def test_json_report_writes_null_for_an_absent_douglas_factor(tmp_path, capsys):
    path = tmp_path / "excluded.json"
    path.write_text(json.dumps(EXCLUDED))
    assert main(["douglas", str(path)]) == 1
    out = capsys.readouterr().out
    assert '    "factor": null,\n' in out
    assert '    "lambda_min": null,\n' in out
    assert json.loads(out)["results"]["included"] is False


def test_json_report_of_a_zero_field_pair(tmp_path, capsys):
    # k = 0 is onto neither side, so there are no notes and no onto
    # residuals; a zero f has no Bessel bound, so its certificate is unbounded
    doc = dict(BROKEN_PAIR)
    doc["field_f"] = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    doc["operator_k"] = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-pair", str(path)]) == 0
    out = capsys.readouterr().out
    assert '    "lower_bound_cert": "unbounded",\n' in out
    assert '    "notes": [],\n' in out
    assert '    "onto_variant_residuals": null,\n' in out
