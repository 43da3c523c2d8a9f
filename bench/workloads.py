"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Two workloads drive the ``ckframe`` command line on a large spec file, one
fresh ``python -m ckframe`` child per op; two call the library's public
functions on in-memory arrays.  ``generate`` is the set-up the benchmark
times; ``prepare`` computes what the output checks compare against and is
not timed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ckframe
from ckframe import cli, harness
from ckframe.linalg import DEFAULT_CHECK_TOL
from reference import CliReference, LibReference

#: Relative agreement required between the three computations of the
#: lower bound: bounds.lower, 1/lambda_min and 1/bound_constant**2.
AGREE_RTOL = 1e-8

#: A child that runs longer than this is killed and its op counted failed.
CHILD_TIMEOUT_S = 120.0

LARGE_SPEC = {"n": 128, "n0": 64, "atoms": 1024}
SMOKE_SPEC = {"n": 8, "n0": 4, "atoms": 64}
#: Reference kernels (see reference.py), each about a fifth of its op's
#: time: the CLI kernel's matrix shape, a quarter of the large spec's
#: samples, and (repetitions, nominal seconds) of the library kernels.
CLI_KERNEL_SHAPE = (128, 256)
CLI_KERNEL_NOMINAL_S = 0.45
DENSE_KERNEL = (15, 0.115)
SMALL_KERNEL = (24, 0.0015)

_WALL_TIME_PREFIX = '  "wall_time": '


@dataclass
class OpResult:
    seconds: float
    ok: bool
    max_rss_kb: int = 0
    error: str = ""


def run_child(argv: list[str], stderr_path: Path) -> tuple[int, float, int]:
    """Run argv to completion: (exit code, wall seconds, peak RSS in KiB).

    The child is reaped with wait4 so its own peak RSS is read, and killed
    if it outlives CHILD_TIMEOUT_S.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def without_wall_time(report: str) -> str:
    """The canonical report bytes: everything but the top-level wall_time line."""
    return "".join(
        line for line in report.splitlines(keepends=True) if not line.startswith(_WALL_TIME_PREFIX)
    )


class CliWorkload:
    """`ckframe <command>` on a random_ckframe spec file, one child per op."""

    uses_cli = True

    def __init__(self, command: str, params: dict, workdir: Path) -> None:
        self.command = command
        self.params = params
        self.spec_path = workdir / "spec.json"
        self.report_path = workdir / "report.json"
        self.stderr_path = workdir / "stderr.txt"
        self.spec_bytes = 0
        self.report_bytes = 0
        self._spec = None
        self._expected = ""

    def generate(self, seed: int) -> None:
        self._spec = harness.generate_example("random_ckframe", self.params, seed)
        text = harness.emit_spec(self._spec)
        self.spec_path.write_text(text)
        self.spec_bytes = len(text)

    def prepare(self) -> None:
        report = harness.emit_report(harness.run_command(self._spec, self.command))
        self._expected = without_wall_time(report)
        self.report_bytes = len(report)

    def _argv(self) -> list[str]:
        return [self.command, str(self.spec_path), "--out", str(self.report_path)]

    def _check(self, code: int) -> str:
        if code != 0:
            return f"exit code {code}"
        if not self.report_path.exists():
            return "no report written"
        if without_wall_time(self.report_path.read_text()) != self._expected:
            return "report differs from the in-process run_command + emit_report"
        return ""

    def op(self) -> OpResult:
        """One `python -m ckframe` child, timed from spawn to reap."""
        self.report_path.unlink(missing_ok=True)
        code, seconds, rss = run_child([sys.executable, "-m", "ckframe", *self._argv()], self.stderr_path)
        error = self._check(code)
        if error and self.stderr_path.stat().st_size:
            error += ": " + self.stderr_path.read_text(errors="replace").strip().splitlines()[-1]
        return OpResult(seconds, not error, rss, error)

    def inprocess_op(self) -> OpResult:
        """The same command through ckframe.cli.main in this interpreter."""
        self.report_path.unlink(missing_ok=True)
        start = time.perf_counter()
        code = cli.main(self._argv())
        seconds = time.perf_counter() - start
        error = self._check(code)
        return OpResult(seconds, not error, 0, error)

    def describe(self) -> dict:
        return {
            "command": f"ckframe {self.command}",
            "generator": {"kind": "random_ckframe", "params": self.params},
            "digest": hashlib.sha256(self.spec_path.read_bytes()).hexdigest(),
            "spec_bytes": self.spec_bytes,
            "report_bytes": self.report_bytes,
        }


@dataclass(frozen=True)
class Problem:
    """Plain arrays, so each op builds the package's own objects itself."""

    labels: tuple[str, ...]
    weights: np.ndarray
    samples: np.ndarray
    k: np.ndarray


def diagnose(p: Problem) -> dict:
    """Full diagnosis of one problem through the public API."""
    space = ckframe.make_measure_space(p.labels, p.weights)
    f = ckframe.SampleField(space, p.samples)
    check = ckframe.ckframe_check(f, p.k)
    cmap = ckframe.atom_coefficient_map(f, p.k)
    residual = ckframe.verify_atomic_decomposition(f, p.k, cmap)
    dual = ckframe.canonical_dual(f, p.k)
    pair = ckframe.verify_dual_pair(dual.projected_frame, dual.dual_field, p.k)
    synth = ckframe.whitened_synthesis_matrix(f)
    included = ckframe.range_included(p.k, synth)
    factor = ckframe.douglas_factor(p.k, synth)
    lam = ckframe.minimal_multiplier(p.k, synth)
    return {
        "check": check,
        "bound_constant": cmap.bound,
        "reconstruction_residual": residual,
        "pair_holds": pair.holds,
        "included": included,
        "factor": factor,
        "lambda_min": lam,
        "sandwich": ckframe.sandwich_check(f, p.k),
        "restricted": ckframe.subspace_cframe_margin(f, p.k),
    }


def diagnosis_error(d: dict) -> str:
    """Empty when the diagnosis is right for a ck-frame, else what is wrong."""
    check, factor, lam = d["check"], d["factor"], d["lambda_min"]
    if not check.is_ck_frame:
        return "ckframe_check: not a ck-frame"
    if not d["reconstruction_residual"] <= DEFAULT_CHECK_TOL:
        return f"atoms: reconstruction residual {d['reconstruction_residual']:.3e}"
    if not d["pair_holds"]:
        return "canonical dual does not verify as a dual pair"
    if not (d["included"] and factor.included and factor.factor is not None and lam is not None):
        return "Douglas predicates disagree"
    if not (d["sandwich"] >= -DEFAULT_CHECK_TOL and d["restricted"] >= -DEFAULT_CHECK_TOL):
        return "sandwich margins negative"
    lower = float(check.bounds.lower)
    for name, value in (("1/lambda_min", 1.0 / lam), ("1/bound_constant^2", d["bound_constant"] ** -2)):
        if not abs(value - lower) <= AGREE_RTOL * abs(lower):
            return f"bounds.lower {lower!r} and {name} {value!r} disagree"
    return ""


class LibWorkload:
    """Full diagnoses through the library, cycling over a pool of problems."""

    uses_cli = False

    def __init__(self, params: dict, pool: int) -> None:
        self.params = params
        self.pool = pool
        self.problems: list[Problem] = []
        self._next = 0

    def generate(self, seed: int) -> None:
        self.problems = []
        for i in range(self.pool):
            spec = harness.generate_example("random_ckframe", self.params, seed * self.pool + i)
            f = spec.field_f
            self.problems.append(
                Problem(f.space.labels, f.space.weight_array, np.array(f.samples), spec.operator_k)
            )

    def prepare(self) -> None:
        pass

    def op(self) -> OpResult:
        problem = self.problems[self._next % self.pool]
        self._next += 1
        start = time.perf_counter()
        try:
            d = diagnose(problem)
        except Exception as exc:  # any raise is a failed op; record what and where
            where = traceback.extract_tb(exc.__traceback__)[-1]
            error = f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"
            return OpResult(time.perf_counter() - start, False, 0, error)
        seconds = time.perf_counter() - start
        error = diagnosis_error(d)
        return OpResult(seconds, not error, 0, error)

    inprocess_op = op

    def describe(self) -> dict:
        digest = hashlib.sha256()
        for p in self.problems:
            for array in (p.weights, p.samples, p.k):
                digest.update(np.ascontiguousarray(array).tobytes())
        return {
            "op": "full diagnosis through the public API",
            "generator": {"kind": "random_ckframe", "params": self.params},
            "digest": digest.hexdigest(),
            "pool": self.pool,
        }


def make(name: str, workdir: Path, smoke: bool):
    """The workload called name; smoke shrinks every size to seconds-long runs."""
    large = SMOKE_SPEC if smoke else LARGE_SPEC
    if name in ("cli_read_large", "cli_write_large"):
        wl = CliWorkload("bounds" if name == "cli_read_large" else "dual", large, workdir)
        wl.reference = CliReference(workdir, (8, 16) if smoke else CLI_KERNEL_SHAPE, CLI_KERNEL_NOMINAL_S)
    elif name == "lib_small":
        wl = LibWorkload({"n": 4, "n0": 2, "atoms": 16}, pool=15)
        wl.reference = LibReference(4, *SMALL_KERNEL)
    elif name == "lib_dense":
        dense = {"n": 8, "n0": 8, "atoms": 32} if smoke else {"n": 96, "n0": 96, "atoms": 384}
        wl = LibWorkload(dense, pool=3)
        wl.reference = LibReference(dense["n"], *(SMALL_KERNEL if smoke else DENSE_KERNEL))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl

