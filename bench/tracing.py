"""Per-layer tracing of ckframe from outside the package.

The tracer replaces each traced public function with a timing wrapper in
every namespace that holds it (the package, the defining module and every
module that imported it by name), so a call is seen whichever way it is
looked up.  It also wraps the dense factorizations of ``numpy.linalg`` and
counts the fields ``ckframe.measure`` builds.  Nothing under ``src/`` is
edited; leaving the ``with`` block puts every original back.

Spans are kept in memory for one op at a time; ``take_op`` folds them into
that op's per-layer figures.  A span's self time is its duration minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from ckframe import cli, measure

#: Traced public functions, by defining module.  A layer is named after
#: the module whose functions it times.
TRACED_FUNCTIONS = {
    "harness": ("parse_problem", "spec_digest", "emit_report", "run_command"),
    "frame_ops": ("ckframe_check",),
    "douglas": ("range_included", "douglas_factor", "minimal_multiplier"),
    "atoms_duals": (
        "atom_coefficient_map",
        "verify_atomic_decomposition",
        "canonical_dual",
        "verify_dual_pair",
        "sandwich_check",
        "subspace_cframe_margin",
    ),
}

#: numpy.linalg entry points the package calls, grouped the way the
#: factorization counts are reported.  norm is classified per call.
LINALG_KINDS = {"svd": "svd", "eigh": "eig", "eigvalsh": "eig", "inv": "other", "matrix_rank": "other"}

#: Sizes read off a call: the spec text handed to the parser and the
#: report text the serializer returns (both ASCII, so characters = bytes).
_SIZES = {
    "harness.parse_problem": ("harness.spec_bytes", lambda args, result: len(args[0])),
    "harness.emit_report": ("harness.report_bytes", lambda args, result: len(result)),
}


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "ckframe" or name.startswith("ckframe."))
    ]


def _work(shape) -> int:
    """Computed size of a dense factorization: m * n * min(m, n), times any batch."""
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    work = m * n * min(m, n)
    for batch in shape[:-2]:
        work *= batch
    return work


class Tracer:
    """Context manager that installs the wrappers; ``take_op`` reads one op."""

    def __init__(self) -> None:
        self._stack: list[tuple[str, list[float]]] = []
        # (name, duration, self time, nested in a span of the same layer)
        self._spans: list[tuple[str, float, float, bool]] = []
        self._counts: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []
        modules = _package_modules()
        for module_name, names in TRACED_FUNCTIONS.items():
            module = sys.modules[f"ckframe.{module_name}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._spanned(f"{module_name}.{name}", original)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original, wrapper))
        for name, kind in LINALG_KINDS.items():
            original = getattr(np.linalg, name)
            self._patches.append((np.linalg, name, original, self._factorization(kind, original)))
        self._patches.append((np.linalg, "norm", np.linalg.norm, self._norm(np.linalg.norm)))
        for cls in (measure.SampleField, measure.ScalarField):
            original = cls.__post_init__
            key = f"measure.{cls.__name__}"
            self._patches.append((cls, "__post_init__", original, self._counted(key, original)))
        self._patches.append((cli, "Path", cli.Path, self._traced_path()))

    def __enter__(self) -> "Tracer":
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for namespace, attr, original, _ in reversed(self._patches):
            setattr(namespace, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        layer = name.split(".", 1)[0]
        parent = self._stack[-1] if self._stack else None
        children = [0.0]
        self._stack.append((layer, children))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if parent is not None:
                parent[1][0] += duration
            nested = parent is not None and parent[0] == layer
            self._spans.append((name, duration, duration - children[0], nested))

    def _spanned(self, name: str, fn):
        size = _SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counts[name] += 1
            result = self._span(name, fn, args, kwargs)
            if size is not None:
                self._counts[size[0]] += size[1](args, result)
            return result

        return wrapper

    def _factorization(self, kind: str, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self._counts[f"linalg.{kind}"] += 1
            self._counts["linalg.work"] += _work(np.shape(a))
            return self._span(f"linalg.{kind}", fn, (a, *args), kwargs)

        return wrapper

    def _norm(self, fn):
        """norm(A, 2) of a matrix runs an SVD; every other norm is a reduction."""

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            order = args[0] if args else kwargs.get("ord")
            if np.ndim(x) == 2 and order == 2:
                self._counts["linalg.norm2"] += 1
                self._counts["linalg.work"] += _work(np.shape(x))
                return self._span("linalg.norm2", fn, (x, *args), kwargs)
            self._counts["linalg.vector_norm"] += 1
            return fn(x, *args, **kwargs)

        return wrapper

    def _counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _traced_path(self):
        base = type(Path())
        read = self._spanned("cli.read", base.read_text)
        write = self._spanned("cli.write", base.write_text)

        class TracedPath(base):
            def read_text(self, *args, **kwargs):
                return read(self, *args, **kwargs)

            def write_text(self, *args, **kwargs):
                return write(self, *args, **kwargs)

        return TracedPath

    # -- per-op figures ---------------------------------------------------

    def take_op(self) -> dict[str, float]:
        """Per-layer figures of the op traced since the last call; resets."""
        spans, counts = self._spans, self._counts
        self._spans, self._counts = [], Counter()

        def ms(*names: str) -> float:
            return 1e3 * sum(d for n, d, _, _ in spans if n in names)

        def self_ms(name: str) -> float:
            return 1e3 * sum(s for n, _, s, _ in spans if n == name)

        def layer_ms(layer: str) -> float:
            return 1e3 * sum(d for n, d, _, nested in spans if n.startswith(layer + ".") and not nested)

        def layer_calls(layer: str) -> int:
            return sum(c for n, c in counts.items() if n.startswith(layer + "."))

        factorizations = ("linalg.svd", "linalg.eig", "linalg.norm2", "linalg.other")
        return {
            "cli.read_ms": ms("cli.read"),
            "cli.write_ms": ms("cli.write"),
            "harness.parse_problem_ms": ms("harness.parse_problem"),
            "harness.spec_digest_ms": ms("harness.spec_digest"),
            "harness.emit_report_ms": ms("harness.emit_report"),
            "harness.run_command_self_ms": self_ms("harness.run_command"),
            "harness.spec_bytes": counts["harness.spec_bytes"],
            "harness.report_bytes": counts["harness.report_bytes"],
            "frame_ops.ckframe_check_ms": ms("frame_ops.ckframe_check"),
            "frame_ops.ckframe_check_calls": counts["frame_ops.ckframe_check"],
            "douglas.ms": layer_ms("douglas"),
            "douglas.calls": layer_calls("douglas"),
            "atoms_duals.canonical_dual_ms": ms("atoms_duals.canonical_dual"),
            "atoms_duals.verify_dual_pair_ms": ms("atoms_duals.verify_dual_pair"),
            "atoms_duals.verify_dual_pair_calls": counts["atoms_duals.verify_dual_pair"],
            "atoms_duals.sandwich_ms": ms("atoms_duals.sandwich_check", "atoms_duals.subspace_cframe_margin"),
            "atoms_duals.atoms_ms": ms("atoms_duals.atom_coefficient_map", "atoms_duals.verify_atomic_decomposition"),
            "linalg.svd_calls": counts["linalg.svd"],
            "linalg.eig_calls": counts["linalg.eig"],
            "linalg.norm2_calls": counts["linalg.norm2"],
            "linalg.other_calls": counts["linalg.other"],
            "linalg.vector_norm_calls": counts["linalg.vector_norm"],
            "linalg.factorizations_per_op": sum(counts[n] for n in factorizations),
            "linalg.factorization_ms": ms(*factorizations),
            "linalg.factorization_work": counts["linalg.work"],
            "measure.scalar_fields_built": counts["measure.ScalarField"],
            "measure.sample_fields_built": counts["measure.SampleField"],
        }

