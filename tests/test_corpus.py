"""The report corpus of tests/corpus.py runs with no warning, and its
gen-default and off-range results keep the verdicts frozen in
tests/data/corpus_verdicts.json: each status, error class name, set of
report keys and raised message.  The off-range verdicts move with the
inclusion threshold, as k lies about 1e-5 from range(B) there.  Each ok
gen-default result keeps the report frozen in tests/data/corpus_numbers.json
for its kind, seed and command at every tol_override: every value but a
number exactly, and every number to GRADE.  A changed verdict fails here; a
change in the last digits of a number does not."""

import json
import warnings
from pathlib import Path

import pytest

import corpus

DATA = Path(__file__).resolve().parent / "data"
VERDICTS = DATA / "corpus_verdicts.json"
NUMBERS = DATA / "corpus_numbers.json"

#: How far a reported number may move, relative to the largest |number| of
#: its report: ten times the largest spread measured, rounded up to a power
#: of ten.  Moving each sample of f and each entry of k by a random relative
#: 2^-52, 5 * 2^-52 or 20 * 2^-52, as a different LAPACK's rounding may,
#: moved the numbers of the gen-default reports, as printed, by at most
#: 7.4e-13 of their largest (random_bessel_pair seed 0 sandwich); forming vh
#: by compact-WY, not by a second QR, moved them by at most 4.5e-16.
GRADE = 1e-11


@pytest.fixture(scope="module")
def results():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return corpus.run_corpus()


def test_the_corpus_runs_every_result_without_a_warning(results):
    assert len(results) == 594
    assert all(result.keys() in ({"reports", "bits"}, {"error", "bits"}) for result in results.values())


def test_the_gen_default_verdicts_are_frozen(results):
    expected = json.loads(VERDICTS.read_text())
    assert len(expected) == 324
    assert corpus.verdicts(results) == expected


def leaves(value, path: str = "") -> dict:
    """Each leaf of a parsed JSON value, by its path."""
    if isinstance(value, dict):
        return {p: v for key, item in value.items() for p, v in leaves(item, f"{path}.{key}").items()}
    if isinstance(value, list):
        return {p: v for i, item in enumerate(value) for p, v in leaves(item, f"{path}[{i}]").items()}
    return {path: value}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def off_grade(expected, found) -> list:
    """The paths at which found differs from expected: a value that is not a
    number and differs, or a number that moved by more than GRADE times the
    largest |number| in expected (1 when all are 0)."""
    old, new = leaves(expected), leaves(found)
    scale = max((abs(v) for v in old.values() if is_number(v)), default=0.0) or 1.0

    def same(a, b):
        if is_number(a) and is_number(b):
            return abs(a - b) <= GRADE * scale
        return type(a) is type(b) and a == b

    return sorted(
        path for path in old.keys() | new.keys() if path not in old or path not in new or not same(old[path], new[path])
    )


def test_the_gen_default_numbers_are_frozen_to_a_grade(results):
    expected = json.loads(NUMBERS.read_text())
    found = corpus.reported(results)
    assert len(found) == 225 and {corpus.case(key) for key in found} == expected.keys()
    assert {key: off_grade(expected[corpus.case(key)], value) for key, value in found.items()} == dict.fromkeys(found, [])


def test_the_grade_passes_a_move_within_it_and_fails_one_beyond_it():
    # the largest |number| is 4, so each may move by 4e-11
    expected = {"upper": 4.0, "factor": [[1.0, -0.5], [1e-17, 0.0]], "included": True, "kind": "ckFrame"}
    within = {"upper": 4.0 - 3e-11, "factor": [[1.0 + 3.5e-11, -0.5], [-3e-11, 0.0]], "included": True, "kind": "ckFrame"}
    assert off_grade(expected, within) == []
    beyond = {**within, "factor": [[1.0, -0.5], [1e-17, 5e-11]]}
    assert off_grade(expected, beyond) == [".factor[1][1]"]
    # a value that is not a number is frozen exactly, and so is the shape
    assert off_grade(expected, {**expected, "included": 1}) == [".included"]
    assert off_grade(expected, {**expected, "factor": [[1.0, -0.5]]}) == [".factor[1][0]", ".factor[1][1]"]
