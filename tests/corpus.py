"""One corpus of run_command results, so that "byte-identical" is checked
by a script, not by hand.

The corpus is every command at tol_override None, 1e-3 and 1e-12, on every
gen kind at seeds 0-2, at the gen-default sizes, at the sizes in SIZES,
and at the sizes in OFF_RANGE with k moved off range(B) (see off_range):
594 results, 270 of them at the gen-default sizes and 54 off range.  A
result is its report in JSON and in text, with wall_time set to 0, or,
when generating the spec or running the command raises a CkFrameError,
the error's class name and message; beside it, bits, a digest of the
exact bits of what run_command returned or of the error (see raw_bits),
as a report prints each float to 13 digits only.

    python tests/corpus.py --compare OLD_SRC NEW_SRC

runs the corpus on each source tree (a directory holding the ckframe
package, such as src/ of a checkout) in its own subprocess, with BLAS on
one thread and every warning an error, prints the number of results, how
many differ in their reports' bytes and how many in bits, and every key
whose result differs, and exits 1 if any does.  Compare trees taken from
fresh `git archive`s, which hold the committed files only.

    python tests/corpus.py --verdicts SRC

prints the verdict of each gen-default and off-range result (status,
error class name, report keys and the message of a raised error) as
tests/data/corpus_verdicts.json holds them.

    python tests/corpus.py --numbers SRC

prints the results object of each ok gen-default JSON report, by its key
without tol_override (see case), as tests/data/corpus_numbers.json holds
them: an ok result reports the same at every tol_override, which grades
a result and changes none of its numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

#: Sizes beyond the gen defaults, by kind.
SIZES = {
    "random_ckframe": [{"n": 6, "n0": 6, "atoms": 24}, {"n": 5, "n0": 8, "atoms": 30}, {"n": 8, "n0": 3, "atoms": 5}],
    "random_bessel_pair": [{"n": 6, "n0": 6, "atoms": 24}],
    "interval_fourier": [{"n": 8, "atoms": 8}],
}
#: Sizes whose B is not onto, run with k moved off range(B) (see off_range),
#: so that the inclusion threshold, not only the rank, decides the verdicts.
OFF_RANGE = {"random_ckframe": [{"n": 4, "n0": 2, "atoms": 3}]}
SEEDS = (0, 1, 2)
TOL_OVERRIDES = (None, 1e-3, 1e-12)
FORMATS = ("json", "text")
#: Environment of a tree's run: BLAS on one thread, every warning an error.
RUN_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONWARNINGS": "error",
}


def entries():
    """(key, kind, params, moved, seed, command, tol_override) of each result,
    params {} at the gen-default sizes, and moved whether k is moved off
    range(B), marked "off-range" in the key."""
    from ckframe.harness import COMMANDS, GENERATOR_KINDS

    for kind in GENERATOR_KINDS:
        sizes = [(params, False) for params in [{}, *SIZES.get(kind, [])]]
        sizes += [(params, True) for params in OFF_RANGE.get(kind, [])]
        for params, moved in sizes:
            for seed in SEEDS:
                for command in COMMANDS:
                    for tol in TOL_OVERRIDES:
                        size = json.dumps(params, sort_keys=True) + (" off-range" if moved else "")
                        yield f"{kind} {size} seed={seed} {command} tol={tol}", kind, params, moved, seed, command, tol


def off_range(spec):
    """spec with k moved by 1e-5 ||k|| along a unit vector orthogonal to
    range(B), the range of the samples, in k's first column: k then lies
    about 1e-5 from range(B), relative to ||k||, when it lay inside it."""
    k = spec.operator_k
    normal = np.linalg.svd(spec.field_f.samples.T)[0][:, -1]
    return replace(spec, operator_k=k + np.outer(1e-5 * np.linalg.norm(k, 2) * normal, np.eye(k.shape[1])[0]))


def raw_bits(value) -> str:
    """The exact bits of a run_command value, as text: each float as
    float.hex, each array as its dtype, shape and bytes (in hex), containers
    item by item, anything else as its repr."""
    if isinstance(value, np.ndarray):
        return f"array({value.dtype.str}, {value.shape}, {value.tobytes().hex()})"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key!r}: {raw_bits(item)}" for key, item in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}(" + ", ".join(raw_bits(item) for item in value) + ")"
    return repr(value)


def run(kind: str, params: dict, moved: bool, seed: int, command: str, tol) -> dict:
    """One result: {"reports": [json, text]}, with wall_time 0, or {"error":
    [class name, message]} when a CkFrameError is raised, and "bits", the
    sha256 of the raw_bits of the RunReport's fields or of the error."""
    from ckframe.errors import CkFrameError
    from ckframe.harness import emit_report, generate_example, run_command

    try:
        spec = generate_example(kind, params, seed)
        report = replace(run_command(off_range(spec) if moved else spec, command, tol), wall_time=0.0)
    except CkFrameError as exc:
        result = {"error": [type(exc).__name__, str(exc)]}
        raw = result["error"]
    else:
        result, raw = {"reports": [emit_report(report, fmt) for fmt in FORMATS]}, vars(report)
    return {**result, "bits": hashlib.sha256(raw_bits(raw).encode()).hexdigest()}


def run_corpus() -> dict:
    """Every result of the corpus, by key, on the ckframe imported here."""
    return {key: run(*entry) for key, *entry in entries()}


def verdict(result: dict) -> list:
    """[status, error class name or None, sorted report keys, message or
    None] of a result; status "raised", with the error's message, when it
    raised."""
    if "error" in result:
        name, message = result["error"]
        return ["raised", name, [], message]
    report = json.loads(result["reports"][0])
    results = report["results"]
    return [report["status"], results.get("error"), sorted(results), None]


def verdicts(results: dict) -> dict:
    """The verdicts of the gen-default and off-range results, by key."""
    return {key: verdict(result) for key, result in results.items() if " {} " in key or " off-range " in key}


def case(key: str) -> str:
    """key without its tol_override: the kind, size, seed and command."""
    return key.rsplit(" tol=", 1)[0]


def reported(results: dict) -> dict:
    """The results object of the JSON report of each ok gen-default result,
    by key."""
    return {
        key: json.loads(result["reports"][0])["results"]
        for key, result in results.items()
        if " {} " in key and verdict(result)[0] == "ok"
    }


def run_tree(src: str) -> dict:
    """run_corpus on the ckframe package under src, in a subprocess."""
    env = {**os.environ, **RUN_ENV, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run(
        [sys.executable, "-W", "error", __file__, "--dump"], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def compare(old_src: str, new_src: str) -> int:
    old, new = run_tree(old_src), run_tree(new_src)
    differ = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    # a result's bytes are its reports or error, its bits its digest
    in_bytes, in_bits = (
        sum(part(old.get(key, {})) != part(new.get(key, {})) for key in differ)
        for part in (lambda result: (result.get("reports"), result.get("error")), lambda result: result.get("bits"))
    )
    print(f"{len(old)} results in {old_src}, {len(new)} in {new_src}; {in_bytes} differ in bytes, {in_bits} in bits")
    for key in differ:
        print(f"differs: {key}")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--dump"]:
        json.dump(run_corpus(), sys.stdout)
        return 0
    if argv[:1] == ["--compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[:1] == ["--verdicts"] and len(argv) == 2:
        found = verdicts(run_tree(argv[1]))
        print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(found.items())) + "\n}")
        return 0
    if argv[:1] == ["--numbers"] and len(argv) == 2:
        found = {case(key): value for key, value in reported(run_tree(argv[1])).items()}
        lines = (f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in sorted(found.items()))
        print("{\n" + ",\n".join(lines) + "\n}")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
