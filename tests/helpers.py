"""Shared instance builders and independent numerical oracles.

The oracles deliberately avoid the library's own code paths: bisection on
the smallest eigenvalue instead of whitened pencils, raw least squares
instead of pseudoinverse composition, and Monte-Carlo minimization of
Rayleigh-type quotients with local refinement.
"""

import json
import re

import numpy as np

from ckframe import SampleField, ScalarField, make_measure_space
from ckframe.frame_ops import analysis, synthesis, synthesis_matrix
from ckframe.measure import l2_norm


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_space(rng, n_atoms, uniform=False):
    if uniform:
        weights = np.ones(n_atoms)
    else:
        # non-uniform on purpose: weighted-adjoint bugs pass w = 1 tests
        weights = rng.uniform(0.5, 1.5, size=n_atoms)
    return make_measure_space([f"x{i}" for i in range(n_atoms)], weights)


def random_field(rng, space, dim):
    return SampleField(space, crandn(rng, space.n_atoms, dim))


def random_unitary(rng, n):
    q, r = np.linalg.qr(crandn(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def parseval_field(n, atoms, seed=0):
    """Counting-measure field with frame operator exactly the identity."""
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, atoms)
    space = make_measure_space([f"x{i}" for i in range(atoms)], [1.0] * atoms)
    return SampleField(space, u[:, :n])


def with_rank(rng, rows, cols, rank):
    """Matrix of exact rank with retained singular values in [0.5, 2]."""
    if rank == 0:
        return np.zeros((rows, cols), dtype=complex)
    u, _, vh = np.linalg.svd(crandn(rng, rows, cols), full_matrices=False)
    s = rng.uniform(0.5, 2.0, size=min(rows, cols))
    s[rank:] = 0.0
    return (u * s) @ vh


def ckframe_instance(rng, n, n0, atoms):
    """(f, k) with range(k) inside range(T_f) by construction."""
    space = random_space(rng, atoms)
    f = random_field(rng, space, n)
    mix = crandn(rng, atoms, n0)
    k = synthesis_matrix(f) @ mix
    return f, k


def excluded_instance(rng, n, n0, atoms):
    """f spans a proper subspace of H while k generically escapes it."""
    space = random_space(rng, atoms)
    u = random_unitary(rng, n)[:, : n - 1]
    f = SampleField(space, crandn(rng, atoms, n - 1) @ u.T)
    k = crandn(rng, n, n0)
    return f, k


# ---------------------------------------------------------------------------
# oracles


def bisect_max_multiplier(s, c, hi_cap=1e12):
    """Largest a >= 0 with s - a*c PSD, by bisection on lambda_min."""
    s = np.asarray(s, dtype=complex)
    c = np.asarray(c, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(s, 2)))

    def holds(a):
        m = s - a * c
        m = 0.5 * (m + m.conj().T)
        return float(np.linalg.eigvalsh(m)[0]) >= -1e-12 * scale

    if not holds(0.0):
        return 0.0
    hi = 1.0
    while holds(hi):
        hi *= 2.0
        if hi > hi_cap:
            return np.inf
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def char_poly_eigenvalues_2x2(m):
    """Ascending eigenvalues of a Hermitian 2x2 via the quadratic formula."""
    m = np.asarray(m, dtype=complex)
    tr = float(m[0, 0].real + m[1, 1].real)
    det = float((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real)
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])


def min_quotient(rng, s, c, budget, rounds=14):
    """Monte-Carlo minimum of <S h, h> / <C h, h> over sampled h.

    The first half of the budget is uniform; the rest resamples in a
    shrinking neighborhood of the running minimizer, so the returned
    value converges to the true infimum from above while every sampled
    quotient individually stays a valid upper bound.
    """
    s = np.asarray(s, dtype=complex)
    c = np.asarray(c, dtype=complex)
    n = s.shape[0]

    def quotients(hs):
        num = np.einsum("ik,ij,jk->k", hs.conj(), s, hs).real
        den = np.einsum("ik,ij,jk->k", hs.conj(), c, hs).real
        norms = np.einsum("ik,ik->k", hs.conj(), hs).real
        q = np.full(hs.shape[1], np.inf)
        ok = den > 1e-14 * norms
        q[ok] = num[ok] / den[ok]
        return q

    half = max(budget // 2, 1)
    hs = crandn(rng, n, half)
    qs = quotients(hs)
    j = int(np.argmin(qs))
    best = float(qs[j])
    center = hs[:, j]

    per = max((budget - half) // rounds, 1)
    sigma = 0.5
    for _ in range(rounds):
        cand = center[:, None] / np.linalg.norm(center) + sigma * crandn(rng, n, per)
        q = quotients(cand)
        j = int(np.argmin(q))
        if q[j] < best:
            best = float(q[j])
            center = cand[:, j]
        sigma *= 0.5
    return best


def oracle_spec_text(spec):
    """The canonical spec text the whole-document way: the spec as nested
    lists and dicts, written by one json.dumps(sort_keys=True, indent=2)."""

    def pairs(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]

    doc = {
        "space": {"labels": list(spec.space.labels), "weights": list(spec.space.weights)},
        "dim_h": spec.dim_h,
        "dim_h0": spec.dim_h0,
        "field_f": pairs(spec.field_f.samples),
        "operator_k": pairs(spec.operator_k),
        "field_g": pairs(spec.field_g.samples) if spec.field_g is not None else None,
    }
    tols = {}
    if spec.rank_tol is not None:
        tols["rank_tol"] = spec.rank_tol
    if spec.check_tol is not None:
        tols["check_tol"] = spec.check_tol
    if tols:
        doc["tolerances"] = tols
    if spec.options:
        doc["options"] = spec.options
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def strip_wall_time(text):
    """Normalize the wall_time entry so reports compare byte for byte."""
    text = re.sub(r'"wall_time": [^\n]+', '"wall_time": 0', text)
    return re.sub(r"wall_time: [^\n]+", "wall_time: 0", text)


# ---------------------------------------------------------------------------
# per-basis-vector references for the vectorized residuals


def reference_dual_pair_residuals(f, g, k, basis_h, basis_h0, rank_tol=1e-10):
    """The five dual-pair residuals and the onto variants, one basis vector
    at a time through synthesis/analysis of ScalarFields.

    Returns (c1, c2, c3, c4, c5, onto) with onto as in DualPairReport:
    c1-c5 relative to ||k||, the onto variants to ||k||^2.
    """
    kk = np.asarray(k, dtype=complex)
    e = np.asarray(basis_h, dtype=complex)
    gamma = np.asarray(basis_h0, dtype=complex)
    n, n0 = kk.shape
    w = f.space.weight_array
    kh = kk.conj().T
    scale = float(np.linalg.norm(kk, 2)) or 1.0

    c1 = 0.0
    for j in range(n0):
        recon = synthesis(f, analysis(g, gamma[:, j]))
        c1 = max(c1, float(np.linalg.norm(kk @ gamma[:, j] - recon)) / scale)
    c2 = 0.0
    for i in range(n):
        recon = synthesis(g, analysis(f, e[:, i]))
        c2 = max(c2, float(np.linalg.norm(kh @ e[:, i] - recon)) / scale)

    cross = (f.samples.T * w) @ g.samples.conj()
    cross_adj = (g.samples.T * w) @ f.samples.conj()
    c3 = float(np.max(np.abs(e.conj().T @ (kk - cross) @ gamma))) / scale
    c4 = float(np.max(np.abs(gamma.conj().T @ (kh - cross_adj) @ e))) / scale
    c5 = float(np.max(np.abs(kh - cross_adj))) / scale

    sigma = np.linalg.svd(kk, compute_uv=False)
    rank = int(np.count_nonzero(sigma > rank_tol * sigma[0]))
    sq_scale = scale**2
    res_k = res_k_star = None
    if rank == n:
        res_k = 0.0
        for j in range(n0):
            h0 = gamma[:, j]
            kh0 = kk @ h0
            integral = complex(np.sum(w * (g.samples.conj() @ h0) * (f.samples @ np.conj(kh0))))
            res_k = max(res_k, abs(float(np.linalg.norm(kh0)) ** 2 - integral) / sq_scale)
    if rank == n0:
        res_k_star = 0.0
        for i in range(n):
            h = e[:, i]
            ksh = kh @ h
            integral = complex(np.sum(w * (f.samples.conj() @ h) * (g.samples @ np.conj(ksh))))
            res_k_star = max(res_k_star, abs(float(np.linalg.norm(ksh)) ** 2 - integral) / sq_scale)
    onto = (res_k, res_k_star) if rank in (n, n0) else None
    return c1, c2, c3, c4, c5, onto


def reference_atomic_residual(f, k, m):
    """verify_atomic_decomposition one H0 basis vector at a time: the column
    residual relative to ||k||, the bound excess relative to the bound."""
    kk = np.asarray(k, dtype=complex)
    scale = float(np.linalg.norm(kk, 2)) or 1.0
    worst = 0.0
    worst_coeff_norm = 0.0
    for j in range(kk.shape[1]):
        coeff = ScalarField(f.space, m.matrix[:, j])
        recon = synthesis(f, coeff)
        worst = max(worst, float(np.linalg.norm(kk[:, j] - recon)) / scale)
        worst_coeff_norm = max(worst_coeff_norm, l2_norm(coeff))
    bound_excess = max(0.0, worst_coeff_norm - m.bound) / (m.bound or 1.0)
    return max(worst, bound_excess)
