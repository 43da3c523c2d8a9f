"""Shared instance builders and independent numerical oracles.

The oracles deliberately avoid the library's own code paths: bisection on
the smallest eigenvalue instead of whitened pencils, raw least squares
instead of pseudoinverse composition, and Monte-Carlo minimization of
Rayleigh-type quotients with local refinement.  The range and PSD-pencil
oracles are plain numpy and share no code with ckframe.linalg.
"""

import json
import math
import re
from collections import Counter

import numpy as np
from hypothesis import strategies as st

import ckframe
from ckframe import SampleField, ScalarField, make_measure_space
from ckframe import atoms_duals, frame_ops
from ckframe.frame_ops import analysis, synthesis, synthesis_matrix
from ckframe.linalg import DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL
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


def fresh_copy(field):
    """A new field over the same arrays, for which nothing is kept."""
    return SampleField(field.space, np.array(field.samples))


def with_rank(rng, rows, cols, rank):
    """Matrix of exact rank with retained singular values in [0.5, 2]."""
    if rank == 0:
        return np.zeros((rows, cols), dtype=complex)
    u, _, vh = np.linalg.svd(crandn(rng, rows, cols), full_matrices=False)
    s = rng.uniform(0.5, 2.0, size=min(rows, cols))
    s[rank:] = 0.0
    return (u * s) @ vh


#: Where k_on_the_rank_hairline puts a singular value of k against the
#: ambiguous band (rank_tol, GRAY_ZONE_FACTOR * rank_tol) * sigma_max: the
#: log10 range of its ratio to rank_tol * sigma_max, ten percent clear of
#: either edge of the band.
HAIRLINE_SIDES = {
    "below": (-3.0, math.log10(0.9)),
    "inside": (math.log10(1.1), math.log10(90.0)),
    "above": (math.log10(110.0), 5.0),
}


@st.composite
def k_on_the_rank_hairline(draw, side):
    """A square k in C^n, 2 <= n <= 5, in random singular bases, whose
    smallest singular value sits on the given side of the rank band
    (HAIRLINE_SIDES) and whose others lie in [0.5, 2]."""
    n = draw(st.integers(2, 5))
    ratio = 10.0 ** draw(st.floats(*HAIRLINE_SIDES[side]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    s = np.sort(rng.uniform(0.5, 2.0, size=n))[::-1]
    s[-1] = ratio * DEFAULT_RANK_TOL * s[0]
    return (random_unitary(rng, n) * s) @ random_unitary(rng, n)


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


def range_basis(m, rank_tol=DEFAULT_RANK_TOL):
    """Orthonormal basis of the column space of m, as the columns of a
    (rows, rank) matrix: m's left singular vectors whose singular values
    exceed rank_tol * sigma_max."""
    u, s, _ = np.linalg.svd(np.asarray(m, dtype=complex), full_matrices=False)
    return u[:, : int(np.count_nonzero(s > rank_tol * s[0]))]


def range_projector(m, rank_tol=DEFAULT_RANK_TOL):
    """Orthogonal projector onto the column space of m."""
    u = range_basis(m, rank_tol)
    return u @ u.conj().T


def _check_psd(a, tol, name):
    """Raise ValueError naming a as name unless its symmetry defect and the
    negative part of its least eigenvalue are both within tol * max(1, ||a||)."""
    scale = tol * max(1.0, float(np.linalg.norm(a, 2)))
    if float(np.linalg.norm(a - a.conj().T, 2)) > scale:
        raise ValueError(f"{name} is not Hermitian")
    lo = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])
    if lo < -scale:
        raise ValueError(f"{name}: smallest eigenvalue {lo:.3e} is negative")


def max_psd_multiplier(s, c, rank_tol=DEFAULT_RANK_TOL, tol=DEFAULT_CHECK_TOL):
    """Largest a >= 0 with s - a*c PSD, for Hermitian PSD s and c of one
    square shape, through the eigendecomposition of s: 0.0 when range(c)
    leaves range(s) by more than tol relative to ||c||, math.inf when c = 0
    or c vanishes on range(s), else 1 / lambda_max(s^{+/2} c s^{+/2})."""
    s = np.asarray(s, dtype=complex)
    c = np.asarray(c, dtype=complex)
    if s.shape != c.shape or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected equal square shapes, got {s.shape} and {c.shape}")
    _check_psd(s, tol, "s")
    _check_psd(c, tol, "c")
    if not c.any():
        return math.inf
    vals, vecs = np.linalg.eigh(0.5 * (s + s.conj().T))
    # the eigenvalues of a PSD s are its singular values, so this is the
    # rank cutoff rank_tol * sigma_max
    kept = vals > rank_tol * vals[-1]
    u = vecs[:, kept]
    if np.linalg.norm(c - u @ (u.conj().T @ c), 2) > tol * np.linalg.norm(c, 2):
        return 0.0
    root = u / np.sqrt(vals[kept])
    w = root.conj().T @ c @ root
    lam = float(np.linalg.eigvalsh(0.5 * (w + w.conj().T))[-1])
    return math.inf if lam <= 0.0 else 1.0 / lam


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
# the report writer as it was before result matrices stayed arrays: every
# value converted to nested lists first, then written one element at a time


def _reference_jsonable(value):
    """Convert results to JSON-ready structures (complex -> [re, im])."""
    if isinstance(value, dict):
        return {str(k): _reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        pairs = np.ascontiguousarray(value, dtype=complex).view(float)
        return pairs.reshape(*value.shape, 2).tolist()
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return [z.real, z.imag]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _reference_fragment(value, indent):
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("NaN is not serializable in a report")
        if math.isinf(value):
            return '"unbounded"'
        return f"{value:.12e}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        scalars = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        if scalars:
            return "[" + ", ".join(_reference_fragment(v, 0) for v in value) + "]"
        inner = ",\n".join(pad + "  " + _reference_fragment(v, indent + 1) for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            pad + "  " + json.dumps(str(k)) + ": " + _reference_fragment(value[k], indent + 1)
            for k in sorted(value, key=str)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def _reference_text_value(value, indent, lines, label):
    pad = "  " * indent
    if isinstance(value, dict):
        lines.append(f"{pad}{label}:")
        for k in sorted(value, key=str):
            _reference_text_value(value[k], indent + 1, lines, str(k))
    elif isinstance(value, (list, tuple)) and any(isinstance(v, (list, tuple, dict)) for v in value):
        lines.append(f"{pad}{label}:")
        for i, v in enumerate(value):
            _reference_text_value(v, indent + 1, lines, f"[{i}]")
    else:
        lines.append(f"{pad}{label}: {_reference_text_scalar(value)}")


def _reference_text_scalar(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float) and math.isinf(value):
        return "unbounded"
    if isinstance(value, float):
        return f"{value:.12e}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_reference_text_scalar(v) for v in value) + "]"
    return str(value)


def reference_emit_report(report, fmt):
    """emit_report(report, fmt) the element-by-element way."""
    results = _reference_jsonable(report.results)
    if fmt == "json":
        doc = {
            "command": report.command,
            "inputs_digest": report.inputs_digest,
            "status": report.status,
            "results": results,
            "wall_time": report.wall_time,
        }
        return _reference_fragment(doc, 0) + "\n"
    lines = [
        "ckframe report",
        f"command: {report.command}",
        f"status: {report.status}",
        f"inputs_digest: {report.inputs_digest}",
        f"wall_time: {report.wall_time:.3e}s",
    ]
    if report.command == "verify-pair" and "residual_c1" in results:
        lines.append("conditions:")
        lines.append("  condition  residual            pass")
        for i in range(1, 6):
            r = results[f"residual_c{i}"]
            ok = "yes" if r <= results.get("tolerance", DEFAULT_CHECK_TOL) else "no"
            lines.append(f"  c{i}         {r:.12e}  {ok}")
        rest = {k: v for k, v in results.items() if not k.startswith("residual_c")}
    else:
        rest = results
    for k in sorted(rest, key=str):
        _reference_text_value(rest[k], 0, lines, str(k))
    return "\n".join(lines) + "\n"


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


def counted_factorizations(monkeypatch) -> Counter:
    """Count dense factorizations from now on, by np.linalg name; norm(., 2)
    of a matrix counts as "norm2", since it runs an SVD of its own, and qr
    as "qr", since a wide matrix is factored through the QR of its
    transpose."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("svd", "qr", "eigh", "eigvalsh", "inv", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    norm = np.linalg.norm

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            counts["norm2"] += 1
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return counts


def counted_builds(monkeypatch) -> list:
    """The field of each B built from now on, by frame_ops._whitened_rows,
    patched in both modules that hold it."""
    built = []
    rows = frame_ops._whitened_rows

    def counted_rows(field):
        built.append(field)
        return rows(field)

    for module in (frame_ops, atoms_duals):
        monkeypatch.setattr(module, "_whitened_rows", counted_rows)
    return built


def diagnose(labels, weights, samples, k) -> dict:
    """The call sequence of the benchmark's lib_dense op (bench/workloads.py,
    diagnose): every public question about one (f, k), asked of objects
    built here from plain arrays."""
    space = ckframe.make_measure_space(labels, weights)
    f = ckframe.SampleField(space, samples)
    check = ckframe.ckframe_check(f, k)
    cmap = ckframe.atom_coefficient_map(f, k)
    residual = ckframe.verify_atomic_decomposition(f, k, cmap)
    dual = ckframe.canonical_dual(f, k)
    pair = ckframe.verify_dual_pair(dual.projected_frame, dual.dual_field, k)
    synth = ckframe.whitened_synthesis_matrix(f)
    return {
        "check": check,
        "bound_constant": cmap.bound,
        "reconstruction_residual": residual,
        "pair_holds": pair.holds,
        "included": ckframe.range_included(k, synth),
        "factor": ckframe.douglas_factor(k, synth),
        "lambda_min": ckframe.minimal_multiplier(k, synth),
        "sandwich": ckframe.sandwich_check(f, k),
        "restricted": ckframe.subspace_cframe_margin(f, k),
    }


# ---------------------------------------------------------------------------
# a continuous frame with closed-form answers


def hilbert_inverse(n) -> np.ndarray:
    """The inverse of the n x n Hilbert matrix H_ij = 1 / (i + j + 1), from
    its closed form in integers (Choi, "Tricks or Treats with the Hilbert
    Matrix", Amer. Math. Monthly 90, 1983), as floats; every entry is
    exact, which holds up to n = 11."""
    entries = [
        [
            (-1) ** (i + j)
            * (i + j + 1)
            * math.comb(n + i, n - j - 1)
            * math.comb(n + j, n - i - 1)
            * math.comb(i + j, i) ** 2
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert max(abs(x) for row in entries for x in row) < 2**53
    return np.array(entries, dtype=float)


def monomial_interval(n, m):
    """(f, k) for the monomials f(x) = (1, x, ..., x^(n-1)) on [0, 1] with
    Lebesgue measure, and k the projector onto the first m of them.  The 2n
    Gauss-Legendre nodes integrate every <f(x), h> <h', f(x)> (degree at
    most 2n - 2) exactly, so S_f is the Hilbert matrix H_n, and the lower
    bound is A = 1 / lambda_max(H_n^-1[:m, :m])."""
    nodes, weights = np.polynomial.legendre.leggauss(2 * n)
    space = make_measure_space([f"x{i}" for i in range(2 * n)], weights / 2)
    f = SampleField(space, np.vander((nodes + 1) / 2, n, increasing=True).astype(complex))
    return f, np.diag([1.0] * m + [0.0] * (n - m)).astype(complex)
