"""README's library quickstart runs as shown and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> str:
    text = README.read_text()
    section = text[text.index("## Library quickstart") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_prints_its_commented_values():
    code = quickstart()
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
