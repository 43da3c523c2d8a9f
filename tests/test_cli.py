"""Command-line entry point: exit codes, output routing, tolerance overrides."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckframe.atoms_duals import sandwich_check, subspace_cframe_margin
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
from helpers import fresh_copy, strip_wall_time

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


@pytest.mark.parametrize(
    "kind,params,seed",
    [(kind, "{}", seed) for kind in GENERATOR_KINDS for seed in range(3)]
    + [("random_ckframe", '{"n": 32, "n0": 16, "atoms": 256}', 0)],
)
def test_the_inputs_digest_is_the_sha256_of_the_spec_file(kind, params, seed, tmp_path):
    # gen writes the canonical text, so hashing what was parsed from it
    # gives the hash of the file's own bytes
    spec_path, report_path = tmp_path / "spec.json", tmp_path / "report.json"
    assert main(["gen", "--kind", kind, "--params", params, "--seed", str(seed), "--out", str(spec_path)]) == 0
    assert main(["bounds", str(spec_path), "--out", str(report_path)]) in (0, 1)
    digest = json.loads(report_path.read_text())["inputs_digest"]
    assert digest == "sha256:" + hashlib.sha256(spec_path.read_bytes()).hexdigest()


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


def with_check_tol(literal):
    """BROKEN_PAIR's text with tolerances.check_tol spelled literal."""
    return json.dumps(BROKEN_PAIR)[:-1] + ', "tolerances": {"check_tol": ' + literal + "}}"


# an integer literal past Python's 4,300-digit conversion limit, where the
# decoder raises a plain ValueError; an interpreter without the limit
# (3.10 before 3.10.7, or the limit set to 0) refuses each further on
HUGE_LITERAL = "9" * 5000
DIGIT_LIMIT = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(HUGE_LITERAL)


# an integer literal within the limit, which the decoder reads: a message
# that spelled it out would run to thousands of characters
LONG_LITERAL = "9" * 4000


def huge_at(text, path):
    """text, and what its error line names: the decoder's limit, else path."""
    return text, "invalid JSON: Exceeds the limit" if DIGIT_LIMIT else f"at '{path}'"


#: Spec texts that exit 2, each with what its one error line names.
MALFORMED = [
    (b"{oops", "invalid JSON: "),
    (b"\xff\xfe" + json.dumps(BROKEN_PAIR).encode(), "not UTF-8"),
    (b"[" * 200000, "invalid JSON: "),
    (with_check_tol("1e999"), "number must be finite at 'tolerances.check_tol'"),
    huge_at(json.dumps(BROKEN_PAIR).replace('"weights": [1.0', '"weights": [' + HUGE_LITERAL), "space.weights[0]"),
    huge_at(json.dumps(BROKEN_PAIR).replace('"dim_h": 2', '"dim_h": ' + HUGE_LITERAL), "field_f[0]"),
    huge_at(with_check_tol(HUGE_LITERAL), "tolerances.check_tol"),
    (json.dumps(BROKEN_PAIR).replace('"dim_h": 2', '"dim_h": ' + LONG_LITERAL), "dim_h complex pairs"),
    (json.dumps(BROKEN_PAIR).replace('"dim_h0": 2', '"dim_h0": ' + LONG_LITERAL), "dim_h0 complex pairs"),
]


def assert_one_input_error_line(err):
    assert len(err.splitlines()) == 1 and err.startswith("ckframe: input error: "), err[:200]


def test_malformed_spec_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text, names in MALFORMED:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["bounds", str(path)]) == 2, text[:8]
        err = capsys.readouterr().err
        assert_one_input_error_line(err)
        assert names in err and len(err) < 200, err[:200]


@pytest.mark.parametrize("value", ["null", "{}", "0", "[]"])
def test_options_exit_two_as_an_unknown_key(value, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(BROKEN_PAIR)[:-1] + f', "options": {value}}}')
    assert main(["bounds", str(path)]) == 2
    assert capsys.readouterr().err == "ckframe: input error: unknown key 'options' at 'options'\n"


@pytest.mark.parametrize("value", ["0", "false", '""', "[]"])
def test_an_optional_object_that_is_not_an_object_exits_two(value, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(BROKEN_PAIR)[:-1] + f', "tolerances": {value}}}')
    assert main(["bounds", str(path)]) == 2
    assert capsys.readouterr().err == "ckframe: input error: expected an object at 'tolerances'\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_null_optional_object_reads_as_an_absent_one(fmt, tmp_path, capsys):
    absent, null = tmp_path / "absent.json", tmp_path / "null.json"
    absent.write_text(json.dumps(BROKEN_PAIR))
    null.write_text(json.dumps(dict(BROKEN_PAIR, tolerances=None)))
    reports = []
    for path in (absent, null):
        assert main(["bounds", str(path), "--format", fmt]) == 0
        reports.append(strip_wall_time(capsys.readouterr().out))
    assert reports[0] == reports[1]


def test_spec_is_read_as_utf8_whatever_the_locale(tmp_path):
    doc = dict(BROKEN_PAIR, space={"labels": ["\u00e9", "b"], "weights": [1.0, 1.0]})
    path = tmp_path / "utf8.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    run = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "ckframe", "bounds", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (run.returncode, run.stderr) == (0, "")
    want = run_command(parse_problem(json.dumps(doc)), "bounds").inputs_digest
    assert json.loads(run.stdout)["inputs_digest"] == want


def test_missing_file_exit_two(tmp_path):
    assert main(["bounds", str(tmp_path / "nope.json")]) == 2


def test_bad_gen_params_exit_two(capsys):
    huge = ['{"n": ' + HUGE_LITERAL + "}", '{"n": -' + HUGE_LITERAL + "}"]
    for params in ["{not json", '{"n": 0}', "[" * 200000] + huge:
        assert main(["gen", "--kind", "onb", "--params", params]) == 2, params[:8]
        assert_one_input_error_line(capsys.readouterr().err)


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


@pytest.mark.parametrize("rank_tol", [1, 2])
def test_a_spec_rank_tol_from_one_up_exits_two(rank_tol, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(BROKEN_PAIR, tolerances={"rank_tol": rank_tol})))
    assert main(["bounds", str(path)]) == 2
    err = capsys.readouterr().err
    assert_one_input_error_line(err)
    assert err.endswith("at 'tolerances.rank_tol'\n")


#: One unit atom (1, 0) and k = e2, orthogonal to its synthesis range.
ORTHOGONAL = {
    "space": {"labels": ["a"], "weights": [1.0]},
    "dim_h": 2,
    "dim_h0": 1,
    "field_f": [[[1, 0], [0, 0]]],
    "operator_k": [[[0, 0]], [[1, 0]]],
}


#: Where an inclusion tolerance of 2 comes in, and the name it is refused at:
#: CKFRAME_TOL is checked whenever it is set, also under a --tol that overrides it.
INCLUSION_TOL_SOURCES = {
    "flag": "--tol",
    "env": "CKFRAME_TOL",
    "env-under-flag": "CKFRAME_TOL",
    "spec": "tolerances.check_tol",
}


@pytest.mark.parametrize("where", INCLUSION_TOL_SOURCES)
@pytest.mark.parametrize("command", ["bounds", "atoms", "douglas", "dual", "sandwich"])
def test_an_inclusion_tolerance_of_two_exits_two(command, where, tmp_path, monkeypatch, capsys):
    # the distance of k from the synthesis range is at most 1: at tol = 2
    # k = e2 counted as included, and each command failed as NotRepresentable
    doc = dict(ORTHOGONAL, tolerances={"check_tol": 2}) if where == "spec" else ORTHOGONAL
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    monkeypatch.delenv("CKFRAME_TOL", raising=False)
    if where.startswith("env"):
        monkeypatch.setenv("CKFRAME_TOL", "2")
    flag = {"flag": ["--tol", "2"], "env-under-flag": ["--tol", "1e-8"]}.get(where, [])
    assert main([command, str(path), *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_input_error_line(captured.err)
    assert captured.err.endswith(f"tolerance must lie in (0, 1), got 2.0 at '{INCLUSION_TOL_SOURCES[where]}'\n")


def test_a_pair_tolerance_of_two_is_taken(broken_pair_spec, capsys):
    # a pair residual can exceed 1, so verify-pair grades at any positive tol
    assert main(["verify-pair", broken_pair_spec, "--tol", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["tolerance"] == 2.0


def test_invalid_env_tolerance_exit_two(onb_spec, monkeypatch, capsys):
    monkeypatch.setenv("CKFRAME_TOL", "tight")
    assert main(["bounds", onb_spec]) == 2
    assert "CKFRAME_TOL" in capsys.readouterr().err


def _run_module(*args):
    return subprocess.run([sys.executable, "-m", "ckframe", *args], capture_output=True, text=True)


def test_module_entry_point(tmp_path):
    spec_path = tmp_path / "spec.json"
    assert _run_module("gen", "--kind", "scaled_onb", "--out", str(spec_path)).returncode == 0
    dual = _run_module("dual", str(spec_path))
    assert dual.returncode == 0
    doc = json.loads(dual.stdout)
    assert doc["results"]["dual_field"] == [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.5, 0.0]],
    ]
    # exit codes 1 and 2 reach the calling process as well as 0
    doc = json.loads(spec_path.read_text())
    doc["operator_k"] = [[[1e300, 0.0] for _ in row] for row in doc["operator_k"]]
    spec_path.write_text(json.dumps(doc))
    failed = _run_module("bounds", str(spec_path))
    assert (failed.returncode, failed.stderr) == (1, "")
    assert json.loads(failed.stdout)["results"]["error"] == "NotRepresentable"
    spec_path.write_text("{oops")
    malformed = _run_module("bounds", str(spec_path))
    assert (malformed.returncode, malformed.stdout) == (2, "")
    assert_one_input_error_line(malformed.stderr)


# (kind, params) of generated specs on which every inclusion face passes;
# k is not onto for random_ckframe's defaults and onto for the others
GENERATED_KFRAMES = [
    pytest.param("scaled_onb", "{}", id="scaled_onb"),
    pytest.param("random_ckframe", "{}", id="random_ckframe"),
    pytest.param("interval_fourier", "{}", id="interval_fourier"),
    pytest.param("random_ckframe", '{"n": 4, "n0": 4, "atoms": 16}', id="square"),
    pytest.param("random_ckframe", '{"n": 32, "n0": 16, "atoms": 256}', id="32-16-256"),
]


@pytest.mark.parametrize("kind,params", GENERATED_KFRAMES)
def test_the_written_canonical_dual_verifies_as_a_pair(kind, params, tmp_path):
    # the pair is read back from the report, so its samples carry the
    # report's %.12e rounding
    spec_path, report_path = tmp_path / "spec.json", tmp_path / "report.json"
    assert main(["gen", "--kind", kind, "--params", params, "--out", str(spec_path)]) == 0
    assert main(["sandwich", str(spec_path)]) == 0
    assert main(["dual", str(spec_path), "--out", str(report_path)]) == 0
    doc = json.loads(spec_path.read_text())
    results = json.loads(report_path.read_text())["results"]
    doc["field_f"], doc["field_g"] = results["projected_frame"], results["dual_field"]
    spec_path.write_text(json.dumps(doc))
    for cmd in ("verify-pair", "sandwich"):
        assert main([cmd, str(spec_path), "--out", str(report_path)]) == 0, cmd


@pytest.mark.parametrize("kind,params", GENERATED_KFRAMES)
def test_the_written_lower_bound_and_douglas_multiplier_are_reciprocals(kind, params, tmp_path):
    # A = x^-2 and lambda_min = x^2 for one x = ||pinv(B) k||, so their
    # product is 1 up to the reports' %.12e rounding
    spec_path, report_path = tmp_path / "spec.json", tmp_path / "report.json"
    assert main(["gen", "--kind", kind, "--params", params, "--out", str(spec_path)]) == 0
    results = {}
    for cmd in ("bounds", "douglas"):
        assert main([cmd, str(spec_path), "--out", str(report_path)]) == 0, cmd
        results[cmd] = json.loads(report_path.read_text())["results"]
    assert abs(results["bounds"]["lower"] * results["douglas"]["lambda_min"] - 1.0) <= 1e-11


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


def test_overflowing_atom_map_and_dual_field_fail_without_stderr(tmp_path, capsys):
    # B, S_f and the lower bound are in range, so the inclusion faces pass;
    # the atom coefficients and the dual's samples divide by sqrt(1e-320)
    # and overflow
    doc = {
        "space": {"labels": ["a", "b"], "weights": [1.0, 1e-320]},
        "dim_h": 1,
        "dim_h0": 1,
        "field_f": [[[1e-153, 0]], [[1e3, 0]]],
        "operator_k": [[[1, 0]]],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cmd, code in (("bounds", 0), ("douglas", 0), ("sandwich", 0), ("atoms", 1), ("dual", 1)):
            assert main([cmd, str(path)]) == code, cmd
            captured = capsys.readouterr()
            assert captured.err == ""
            if code:
                assert json.loads(captured.out)["results"]["error"] == "NotRepresentable", cmd


@pytest.mark.parametrize("cell", [[1e300, 1e300], [1e-300, 0.0]], ids=["huge", "tiny"])
def test_unrepresentable_douglas_multiplier_fails_as_every_face_does(cell, tmp_path, capsys):
    # ||pinv(B) k||^2 overflows for the huge k and underflows to 0 for the
    # tiny nonzero one; A = 1 / ||pinv(B) k||^2 does the reverse, so every
    # face of the inclusion refuses the spec alike
    doc = json.loads(emit_spec(generate_example("random_ckframe", {})))
    doc["operator_k"] = [[cell for _ in row] for row in doc["operator_k"]]
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cmd in ("bounds", "atoms", "douglas", "dual", "sandwich"):
            assert main([cmd, str(path)]) == 1, cmd
            captured = capsys.readouterr()
            assert captured.err == ""
            assert json.loads(captured.out)["results"]["error"] == "NotRepresentable", cmd


@pytest.mark.parametrize("params", [{}, {"n": 4, "n0": 4, "atoms": 16}], ids=["default", "square"])
@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
def test_tiny_weights_keep_every_face_ok_without_stderr(scale, params, tmp_path, capsys):
    # ||pinv(B) k|| grows like scale^-1/2 and the atom coefficients m like
    # 1/scale, so |m|^2 overflows; the bound check reads the whitened
    # sqrt(w) m, whose entries are of the size of the bound
    doc = json.loads(emit_spec(generate_example("random_ckframe", params)))
    doc["space"]["weights"] = [w * scale for w in doc["space"]["weights"]]
    path = tmp_path / "tiny-weights.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cmd in ("bounds", "atoms", "dual", "douglas", "sandwich"):
            assert main([cmd, str(path)]) == 0, cmd
            captured = capsys.readouterr()
            assert captured.err == "", cmd
            assert json.loads(captured.out)["status"] == "ok", cmd


@pytest.mark.parametrize("edit", ["operator_k", "weights"])
def test_huge_pair_residuals_are_read_without_overflow(edit, tmp_path, capsys):
    # k or the weights times 1e160: the entries of D = k - B_f B_g* are
    # about 1e160, and so c1 and c2, column norms of D, are at least c3,
    # its largest entry, where squaring D overflowed to "unbounded"
    doc = json.loads(emit_spec(generate_example("random_bessel_pair", {})))
    if edit == "weights":
        doc["space"]["weights"] = [w * 1e160 for w in doc["space"]["weights"]]
    else:
        doc["operator_k"] = [[[x * 1e160 for x in cell] for cell in row] for row in doc["operator_k"]]
    path = tmp_path / "huge-pair.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify-pair", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    results = json.loads(captured.out)["results"]
    c = [results[f"residual_c{i}"] for i in range(1, 6)]
    assert all(isinstance(r, float) for r in c + results["onto_variant_residuals"][1:]), results
    assert min(c[0], c[1]) >= c[2] == c[3] == c[4] > 0.0


@pytest.mark.parametrize("params", [{}, {"n": 16, "n0": 40, "atoms": 64}], ids=["default", "16-40-64"])
@pytest.mark.parametrize("seed", range(3))
def test_a_pair_whose_s_g_underflows_keeps_the_residuals_of_the_unscaled_pair(seed, params, tmp_path, capsys):
    # g and k times 2^-530: S_g, of the size 2^-1060, underflows, but
    # D = k - B_f B_g* is only scaled, exactly, and every residual is
    # relative to ||k||, so the report is that of the unscaled pair
    doc = json.loads(emit_spec(generate_example("random_bessel_pair", params, seed)))
    reports = []
    for _ in range(2):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify-pair", str(path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        reports.append((code, json.loads(captured.out)["results"]))
        for key in ("field_g", "operator_k"):
            doc[key] = [[[x * 2.0**-530 for x in cell] for cell in row] for row in doc[key]]
    assert reports[1] == reports[0]
    assert "error" not in reports[0][1]


def real_spec(weights, f, k, g=None) -> dict:
    """A spec whose matrices hold the real numbers f (atoms x n), k (n x n0)
    and g (atoms x n0)."""
    doc = {
        "space": {"labels": [f"x{i}" for i in range(len(weights))], "weights": weights},
        "dim_h": len(f[0]),
        "dim_h0": len(k[0]),
        "field_f": [[[x, 0.0] for x in row] for row in f],
        "operator_k": [[[x, 0.0] for x in row] for row in k],
    }
    if g is not None:
        doc["field_g"] = [[[x, 0.0] for x in row] for row in g]
    return doc


#: Specs at the edges of double precision, with the exit code of each
#: command that exited 3 on them, leaking numpy warnings to stderr.
EXTREME_SPECS = {
    # U_r* k / sigma overflows before the multiplier is checked
    "overflowing_douglas_factor": (
        real_spec([1.0], [[1e-150]], [[1e160]]),
        {"bounds": 1, "atoms": 1, "dual": 1, "douglas": 1, "sandwich": 1},
    ),
    # every entry of k is finite, ||k|| is not
    "pair_whose_k_norm_overflows": (
        real_spec(
            [1.0] * 3,
            [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            [[1e308, 1e308, 1e308], [1e308, -1e308, 1e308]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        ),
        {"verify-pair": 1},
    ),
    # c3 = |D| / ||k|| = 1e464: ||k|| scaled by 2^-1011 underflows
    "pair_whose_residuals_overflow": (
        real_spec([1.0], [[1e150]], [[1e-160]], [[1e154]]),
        {"verify-pair": 1},
    ),
    # D = k and ||k|| subnormal: 2^1063 is past double range
    "pair_of_subnormal_scale": (
        real_spec([1.0], [[1e-150]], [[1e-320]], [[1e-300]]),
        {"verify-pair": 1},
    ),
    # the dual's certified upper bound (||k|| ||pinv(k)|| x)^2 = 1e314
    # overflows, where A = x^-2 = 1e-300 and every other face is in range
    "dual_whose_upper_bound_overflows": (
        real_spec([1.0, 1.0], [[1e-150, 0.0], [0.0, 1e-150]], [[1.0, 0.0], [0.0, 1e-7]]),
        {"bounds": 0, "atoms": 0, "douglas": 0, "sandwich": 0, "dual": 1},
    ),
    # a ck-frame whose mismatch entries, about 1e284, overflow when squared
    "atoms_with_a_huge_mismatch": (
        real_spec([1.7], [[3e150]], [[1e300 / 3]]),
        {"bounds": 0, "atoms": 0, "dual": 0, "douglas": 0, "sandwich": 0},
    ),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(EXTREME_SPECS))
def test_extreme_specs_exit_zero_or_one_without_stderr(name, fmt, tmp_path, capsys):
    doc, codes = EXTREME_SPECS[name]
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    for cmd, code in codes.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([cmd, str(path), "--format", fmt]) == code, cmd
        captured = capsys.readouterr()
        assert captured.err == "", cmd
        if fmt == "text":
            continue
        results = json.loads(captured.out)["results"]
        if code == 1 and name != "pair_of_subnormal_scale":
            assert results["error"] == "NotRepresentable", cmd
        elif name == "pair_of_subnormal_scale":
            # D is k itself: every residual is 1
            assert [results[f"residual_c{i}"] for i in range(1, 6)] == [1.0] * 5
            assert not results["holds"]
        elif cmd == "atoms":
            assert results["reconstruction_residual"] < 1e-15


#: Decimal exponents of the scales in test_every_command_exits_cleanly_at_extreme_scales.
EXTREME_EXPONENTS = [-320, -300, -160, -150, 0, 150, 154, 160, 300, 307, 308]

#: A spec at extreme scales on which bounds, atoms, dual and douglas exit 0:
#: sandwich exited 1 on it (NotRepresentable) while its margins squared
#: sc / k_s, of the size of 1 / sqrt(A), before they divided by A.
SANDWICH_AT_EXTREME_SCALES = {"seed": 2, "atoms": 3, "n": 2, "n0": 2, "exponents": (307, -300, -320, -300)}


def extreme_spec(seed, atoms, n, n0, exponents) -> dict:
    """w, f, g and k, entries of magnitude below 1.5, each times 10^e."""
    rng = np.random.default_rng(seed)
    e_w, e_f, e_g, e_k = (10.0**e for e in exponents)
    return real_spec(
        list(rng.uniform(0.5, 1.5, atoms) * e_w),
        (rng.uniform(-1.5, 1.5, (atoms, n)) * e_f).tolist(),
        (rng.uniform(-1.5, 1.5, (n, n0)) * e_k).tolist(),
        (rng.uniform(-1.5, 1.5, (atoms, n0)) * e_g).tolist(),
    )


@settings(max_examples=60, deadline=None)
# each exited 3: ||k|| overflows (NaN distance); U_r U_r* k overflows in a
# sum; U_r* k / sigma divides inf by inf; a sandwich margin's ratio overflows
@example(seed=0, atoms=1, n=1, n0=2, exponents=(-320, -320, -320, 308))
@example(seed=0, atoms=2, n=3, n0=3, exponents=(-320, 150, -320, 308))
@example(seed=4, atoms=4, n=3, n0=1, exponents=(-320, 150, -320, 308))
@example(**SANDWICH_AT_EXTREME_SCALES)
@given(
    seed=st.integers(0, 2**16),
    atoms=st.integers(1, 4),
    n=st.integers(1, 3),
    n0=st.integers(1, 3),
    exponents=st.tuples(*[st.sampled_from(EXTREME_EXPONENTS)] * 4),
)
def test_every_command_exits_cleanly_at_extreme_scales(seed, atoms, n, n0, exponents, tmp_path_factory):
    params = {"seed": seed, "atoms": atoms, "n": n, "n0": n0, "exponents": exponents}
    path = tmp_path_factory.mktemp("extreme") / "spec.json"
    path.write_text(json.dumps(extreme_spec(**params)))
    for cmd in ("bounds", "atoms", "dual", "verify-pair", "douglas", "sandwich"):
        for fmt in ("json", "text"):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main([cmd, str(path), "--format", fmt])
            assert code in (0, 1, 2) and err.getvalue() == "", (cmd, fmt, code, err.getvalue())
            if params == SANDWICH_AT_EXTREME_SCALES and cmd != "verify-pair":
                assert code == 0, (cmd, fmt)


SANDWICH_SPECS = [(kind, seed) for kind in GENERATOR_KINDS for seed in range(3)] + [("extreme", None)]


@pytest.mark.parametrize("kind,seed", SANDWICH_SPECS)
def test_the_sandwich_report_holds_the_margins_of_the_faces_on_fresh_copies(kind, seed):
    # one compression serves both margins; each face builds its own
    if kind == "extreme":
        text = json.dumps(extreme_spec(**SANDWICH_AT_EXTREME_SCALES))
    else:
        text = emit_spec(generate_example(kind, {}, seed))
    results = run_command(parse_problem(text), "sandwich").results
    spec = parse_problem(text)
    f, k = spec.field_f, spec.operator_k
    faces = {"sandwich_margin": sandwich_check, "restricted_margin": subspace_cframe_margin}
    for name, face in faces.items():
        assert np.float64(results[name]).tobytes() == np.float64(face(fresh_copy(f), k)).tobytes(), name


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
