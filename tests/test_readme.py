"""README's examples run as shown and do what their comments say."""

import contextlib
import inspect
import io
import re
import shlex
from pathlib import Path

import numpy as np

import ckframe
from ckframe.cli import main
from ckframe.harness import parse_problem

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    text = README.read_text()
    section = text[text.index(heading) :]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_prints_its_commented_values():
    code = code_block("## Library quickstart", "python")
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    # the comments after the first and last print are the printed text
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines() if "print(" in line]
    assert comments == ["1.0 4.0", "diag(1.0, 0.5)", "True"]
    assert printed[0] == comments[0]
    assert printed[-1] == comments[2]
    assert np.array_equal(namespace["dual"].dual_field.samples, np.diag([1.0, 0.5]))


def test_readme_command_lines_exit_as_their_comments_say(tmp_path, monkeypatch, capsys):
    # each line reads the files the lines before it wrote
    monkeypatch.chdir(tmp_path)
    for line in code_block("## Command line", "sh").splitlines():
        command, comment = line.split("#")
        argv = shlex.split(command)
        assert argv[0] == "ckframe", line
        assert main(argv[1:]) == int(comment.removeprefix(" exit ")), line
        assert capsys.readouterr().err == "", line


def test_readme_spec_format_example_parses():
    spec = parse_problem(code_block("### Problem-spec format", "json"))
    assert (spec.dim_h, spec.dim_h0, spec.field_g) == (2, 2, None)
    assert (spec.rank_tol, spec.check_tol) == (1e-10, 1e-8)


def test_readme_names_every_exported_function_and_class():
    # a name counts when it is code: in a fenced block or an inline span
    text = README.read_text()
    fenced = re.findall(r"```[a-z]*\n(.*?)```", text, re.S)
    prose = re.sub(r"```[a-z]*\n.*?```", "", text, flags=re.S)
    code = " ".join(fenced + re.findall(r"`([^`]+)`", prose))
    named = set(re.findall(r"\w+", code))
    exported = [
        name
        for name, value in vars(ckframe).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and not (inspect.isclass(value) and issubclass(value, Exception))
    ]
    assert len(exported) > 30
    assert [name for name in exported if name not in named] == []
