"""The report corpus of tests/corpus.py runs with no warning, and its
gen-default and off-range results keep the verdicts frozen in
tests/data/corpus_verdicts.json: each status, error class name and set of
report keys.  The off-range verdicts move with the inclusion threshold, as
k lies about 1e-5 from range(B) there.  A changed verdict fails here; a
change in the last digits of a number does not, as no grade for the
numbers has been measured yet."""

import json
import warnings
from pathlib import Path

import pytest

import corpus

VERDICTS = Path(__file__).resolve().parent / "data" / "corpus_verdicts.json"


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
