"""The docs name only what the code has: every "(see X)" cross-reference
in a ckframe source file and every backticked `module.name[.attr]` span
in README.md resolves, so renaming or deleting an internal cannot leave a
stale name behind."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import ckframe

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "ckframe"
MODULES = {
    info.name: importlib.import_module(f"ckframe.{info.name}")
    for info in pkgutil.iter_modules(ckframe.__path__)
    if info.name != "__main__"  # importing it runs the command line
}
DOTTED = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*"


def has_path(obj, path: str) -> bool:
    """Whether the dotted path is an attribute chain of obj; its last name
    may also be a dataclass field with no class default."""
    names = path.split(".")
    for i, name in enumerate(names):
        if hasattr(obj, name):
            obj = getattr(obj, name)
        else:
            return i == len(names) - 1 and name in getattr(obj, "__dataclass_fields__", {})
    return True


def resolves(path: str, citing=None) -> bool:
    """Whether path is an attribute path of ckframe or of one of its
    modules, or of a class defined in the citing module."""
    roots = [ckframe, *MODULES.values()]
    if citing is not None:
        roots += [c for _, c in inspect.getmembers(citing, inspect.isclass) if c.__module__ == citing.__name__]
    return any(has_path(root, path) for root in roots)


def see_references() -> list:
    """(file name, name) of each "(see X)" in the source, docstrings and
    comments, also where the reference wraps onto the next line."""
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        for name in re.findall(rf"\(see\s+(?:#\s*)?({DOTTED})", path.read_text()):
            found.append((path.name, name))
    return found


def readme_spans() -> list:
    """Each backticked span of README.md that is a ckframe module's name
    followed by a dotted attribute path."""
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    return [s for s in spans if re.fullmatch(DOTTED, s) and s.split(".")[0] in MODULES and "." in s]


def test_the_resolver_refuses_a_deleted_internal():
    assert resolves("linalg._Kept.ask") and resolves("_Kept.ask")
    assert resolves("values", MODULES["linalg"]) and not resolves("values")
    # a name an earlier version deleted
    assert not resolves("harness._matrix_pairs") and not resolves("_matrix_pairs")


def test_every_see_reference_in_the_source_resolves():
    found = see_references()
    assert ("frame_ops.py", "linalg._kept_like") in found
    unresolved = [(file, name) for file, name in found if not resolves(name, MODULES[file[:-3]])]
    assert not unresolved


def test_every_module_name_span_in_the_readme_resolves():
    spans = readme_spans()
    assert {"cli.main", "linalg._Kept.ask"} <= set(spans)
    assert [span for span in spans if not resolves(span)] == []
