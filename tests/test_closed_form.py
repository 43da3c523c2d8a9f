"""A continuous frame whose answers have closed forms: the monomials on
[0, 1], sampled by a quadrature rule exact for their frame operator, the
Hilbert matrix H_n (see helpers.monomial_interval).  B's condition number
kappa(B) = sqrt(cond(H_n)) runs from 1.2e2 at n = 4 to 2.3e7 at n = 11, so
the lower bound A, read three ways, and the canonical dual are graded
against c * eps * kappa(B), the growth of a backward-stable computation; a
dual built through the inverse of the Gram compression U_k* S_f U_k grows
like kappa(B)^2 and fails that grade at k = I for every n here.  At
n = 12, B's smallest singular value lies in the ambiguous band of the rank
decision."""

import json

import numpy as np
import pytest

from ckframe import RankAmbiguous
from ckframe.atoms_duals import atom_coefficient_map, canonical_dual, sandwich_check
from ckframe.cli import main
from ckframe.douglas import minimal_multiplier
from ckframe.frame_ops import ckframe_check, frame_operator, whitened_synthesis_matrix
from ckframe.harness import ProblemSpec, emit_spec
from ckframe.linalg import DEFAULT_CHECK_TOL
from helpers import hilbert_inverse, monomial_interval

EPS = np.finfo(float).eps
#: The measured errors stay within 0.52 eps kappa(B).
C = 4.0


def hilbert(n):
    i = np.arange(n)
    return 1.0 / (i[:, None] + i[None, :] + 1.0)


@pytest.mark.parametrize("n", range(4, 12))
@pytest.mark.parametrize("half", [False, True], ids=["k=I", "k=P_half"])
def test_the_monomials_on_the_interval_meet_their_closed_forms(n, half):
    m = n // 2 if half else n
    f, k = monomial_interval(n, m)
    h_inv = hilbert_inverse(n)
    exact_a = 1.0 / np.linalg.eigvalsh(h_inv[:m, :m])[-1]
    exact_upper = np.linalg.eigvalsh(hilbert(n))[-1]
    kappa = np.sqrt(exact_upper * np.linalg.eigvalsh(h_inv)[-1])
    grade = C * EPS * kappa
    assert np.max(np.abs(frame_operator(f) - hilbert(n))) < 1e-14

    report = ckframe_check(f, k)
    assert report.is_ck_frame
    lambda_min = minimal_multiplier(k, whitened_synthesis_matrix(f))
    bound = atom_coefficient_map(f, k).bound
    faces = {"A": report.bounds.lower, "1/lambda_min": 1.0 / lambda_min, "bound^-2": bound**-2}
    for name, a in faces.items():
        assert abs(a - exact_a) <= grade * exact_a, name
    assert abs(report.bounds.upper - exact_upper) <= grade * exact_upper

    assert canonical_dual(f, k).pair.max_residual() <= grade
    assert sandwich_check(f, k) >= -DEFAULT_CHECK_TOL


def test_the_monomials_at_n_12_leave_the_rank_of_b_ambiguous(tmp_path, capsys):
    f, k = monomial_interval(12, 12)
    with pytest.raises(RankAmbiguous, match="^rank of B of f: "):
        ckframe_check(f, k)
    path = tmp_path / "monomials.json"
    path.write_text(emit_spec(ProblemSpec(space=f.space, field_f=f, operator_k=k)))
    assert main(["bounds", str(path)]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["error"] == "RankAmbiguous"
    assert results["message"].startswith("rank of B of f: ")
