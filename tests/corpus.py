"""One corpus of run_command results, so that "byte-identical" is checked
by a script, not by hand.

The corpus is every command at tol_override None, 1e-3 and 1e-12, on every
gen kind at seeds 0-2, at the gen-default sizes and at the sizes in
SIZES: 540 results, 270 of them at the gen-default sizes.  A result is
its report in JSON and in text, with wall_time set to 0, or, when
generating the spec or running the command raises a CkFrameError, the
error's class name and message.

    python tests/corpus.py --compare OLD_SRC NEW_SRC

runs the corpus on each source tree (a directory holding the ckframe
package, such as src/ of a checkout) in its own subprocess, with BLAS on
one thread and every warning an error, prints the number of results and
every key whose result differs, and exits 1 if any does.

    python tests/corpus.py --verdicts SRC

prints the verdict of each gen-default result (status, error class name
and report keys) as tests/data/corpus_verdicts.json holds them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

#: Sizes beyond the gen defaults, by kind.
SIZES = {
    "random_ckframe": [{"n": 6, "n0": 6, "atoms": 24}, {"n": 5, "n0": 8, "atoms": 30}, {"n": 8, "n0": 3, "atoms": 5}],
    "random_bessel_pair": [{"n": 6, "n0": 6, "atoms": 24}],
    "interval_fourier": [{"n": 8, "atoms": 8}],
}
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
    """(key, kind, params, seed, command, tol_override) of each result, params
    {} at the gen-default sizes."""
    from ckframe.harness import COMMANDS, GENERATOR_KINDS

    for kind in GENERATOR_KINDS:
        for params in [{}, *SIZES.get(kind, [])]:
            for seed in SEEDS:
                for command in COMMANDS:
                    for tol in TOL_OVERRIDES:
                        key = f"{kind} {json.dumps(params, sort_keys=True)} seed={seed} {command} tol={tol}"
                        yield key, kind, params, seed, command, tol


def run(kind: str, params: dict, seed: int, command: str, tol) -> dict:
    """One result: {"reports": [json, text]}, with wall_time 0, or {"error":
    [class name, message]} when a CkFrameError is raised."""
    from ckframe.errors import CkFrameError
    from ckframe.harness import emit_report, generate_example, run_command

    try:
        report = replace(run_command(generate_example(kind, params, seed), command, tol), wall_time=0.0)
    except CkFrameError as exc:
        return {"error": [type(exc).__name__, str(exc)]}
    return {"reports": [emit_report(report, fmt) for fmt in FORMATS]}


def run_corpus() -> dict:
    """Every result of the corpus, by key, on the ckframe imported here."""
    return {key: run(*entry) for key, *entry in entries()}


def verdict(result: dict) -> list:
    """[status, error class name or None, sorted report keys] of a result;
    status "raised" when it raised."""
    if "error" in result:
        return ["raised", result["error"][0], []]
    report = json.loads(result["reports"][0])
    results = report["results"]
    return [report["status"], results.get("error"), sorted(results)]


def verdicts(results: dict) -> dict:
    """The verdicts of the gen-default results, by key."""
    return {key: verdict(result) for key, result in results.items() if " {} " in key}


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
    print(f"{len(old)} results in {old_src}, {len(new)} in {new_src}; {len(differ)} differ")
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
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
