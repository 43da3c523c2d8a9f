"""Reference kernels: fixed work, timed after every op, that measure the machine.

On a shared host the same code runs at different speeds from one minute to
the next, and a slow phase often lasts a whole run.  The benchmark therefore
times a reference kernel right after every op (and every set-up) and scales
the op's time by how much slower than nominal the kernel ran:
``scaled = seconds * nominal_s / kernel_seconds``.  A kernel uses only the
standard library and numpy on inputs that do not depend on the seed, so no
change to ``ckframe`` can make it faster or slower, and it mixes the same
kinds of work as the ops it calibrates.  Each kernel's ``nominal_s`` is its
typical median time on the machine the benchmark was written on (a shared
2-vCPU x86_64 VM); it only fixes the scale of the results.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

#: Child that does what a CLI op does, outside the package: start an
#: interpreter, import numpy, parse a JSON matrix of [re, im] pairs, rebuild
#: it as pairs, serialize and hash it, and factorize a block of it.
CLI_KERNEL = r"""
import hashlib, json, sys
import numpy as np
with open(sys.argv[1]) as fh:
    doc = json.loads(fh.read())
m = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
pairs = [[[float(z.real), float(z.imag)] for z in row] for row in m]
text = json.dumps({"matrix": pairs}, sort_keys=True, indent=2)
hashlib.sha256(text.encode()).hexdigest()
np.linalg.svd(m[:, : m.shape[0]])
"""


def _kernel_matrix(shape: tuple[int, int]) -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class CliReference:
    """The CLI kernel in a fresh child, timed from spawn to reap."""

    def __init__(self, workdir: Path, shape: tuple[int, int], nominal_s: float) -> None:
        self.nominal_s = nominal_s
        self.input_path = workdir / "reference.json"
        self.stderr_path = workdir / "reference-stderr.txt"
        m = _kernel_matrix(shape)
        pairs = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        self.input_path.write_text(json.dumps({"matrix": pairs}, sort_keys=True, indent=2))

    def __call__(self) -> float:
        from workloads import run_child

        code, seconds, _ = run_child([sys.executable, "-c", CLI_KERNEL, str(self.input_path)], self.stderr_path)
        if code != 0:
            raise RuntimeError(f"reference kernel exited {code}: " + self.stderr_path.read_text())
        return seconds


class LibReference:
    """Dense factorizations and a per-column loop, in this process."""

    def __init__(self, n: int, reps: int, nominal_s: float) -> None:
        self.nominal_s = nominal_s
        self.a = _kernel_matrix((n, n))
        self.gram = self.a @ self.a.conj().T + np.eye(n)
        self.reps = reps

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(self.reps):
            np.linalg.svd(self.a)
            np.linalg.eigh(self.gram)
            np.linalg.eigvalsh(self.gram)
            np.linalg.inv(self.gram)
            for col in self.a.T:
                np.vdot(col, self.gram @ col)
                np.linalg.norm(col)
        return time.perf_counter() - start


def scaled(seconds: float, kernel_seconds: float, nominal_s: float) -> float:
    """seconds as they would read had the kernel taken its nominal time."""
    return seconds * nominal_s / kernel_seconds
