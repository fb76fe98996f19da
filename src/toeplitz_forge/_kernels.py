"""Dispatch layer for the numerically hot inner loops.

Every kernel here exists twice: a numba ``@njit`` build and a pure-numpy
fallback.  The fallback is selected when the environment variable
``TOEPLITZ_FORGE_NO_NUMBA`` is set to a non-empty value, or when numba is
not importable.  ``backend_name()`` reports which path is active so tests
and the benchmark can assert against it.

Kernels:

* ``conv_trunc_1d/2d/3d`` -- dense truncated polynomial convolution (the
  multiply behind ``series.PowerSeries``), total degree capped.
* ``conv_pair`` -- bi-graded convolution for the composition engine's
  parametric series: axes 0/1 grade the oscillatory pair variables, axes
  2/3 the base-point offsets.  The numpy build packs each parameter block
  into its monomials of total degree <= M and multiplies the live blocks
  of both operands with one matmul per chunk of rows, against the
  multiplication matrices of the b blocks (one gather through a cached,
  read-only index map); blocks that are zero in either operand take no
  part.  The numba build is the direct loop.
* ``jacobi_sweep`` -- one cyclic-Jacobi sweep over a complex Hermitian
  matrix, driven by ``jacobi_eigh``.  The spectral module takes its
  spectra from LAPACK; this solver is the independent route the tests
  compare them against.

Object-dtype (exact rational) series never reach this module; the series
layer routes those through plain Python loops.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

_DISABLED = bool(os.environ.get("TOEPLITZ_FORGE_NO_NUMBA"))

if not _DISABLED:
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - environment dependent
        _HAVE_NUMBA = False
else:
    _HAVE_NUMBA = False


def backend_name() -> str:
    return "numba" if _HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# truncated dense convolutions


@lru_cache(maxsize=None)
def _over_cap_mask(ndim, cap):
    """Entries of total degree above ``cap`` that still fit in the dense box.

    The numpy fallbacks add whole slices, so they can write there; the jit
    builds bound their loops instead and never do.  Callers pin these to zero.
    """
    mask = np.indices((cap + 1,) * ndim).sum(axis=0) > cap
    mask.setflags(write=False)
    return mask


def _conv_trunc_1d_np(a, b, order):
    out = np.zeros(order + 1, dtype=np.complex128)
    for i in range(min(a.shape[0], order + 1)):
        if a[i] == 0:
            continue
        top = min(b.shape[0], order + 1 - i)
        out[i : i + top] += a[i] * b[:top]
    return out


def _conv_trunc_2d_np(a, b, order):
    out = np.zeros((order + 1, order + 1), dtype=np.complex128)
    nz = np.argwhere(a != 0)
    for i, j in nz:
        if i + j > order:
            continue
        ti = min(b.shape[0], order + 1 - i)
        tj = min(b.shape[1], order + 1 - j)
        out[i : i + ti, j : j + tj] += a[i, j] * b[:ti, :tj]
    out[_over_cap_mask(2, order)] = 0.0
    return out


def _conv_trunc_3d_np(a, b, order):
    out = np.zeros((order + 1,) * 3, dtype=np.complex128)
    nz = np.argwhere(a != 0)
    for i, j, k in nz:
        if i + j + k > order:
            continue
        ti = min(b.shape[0], order + 1 - i)
        tj = min(b.shape[1], order + 1 - j)
        tk = min(b.shape[2], order + 1 - k)
        out[i : i + ti, j : j + tj, k : k + tk] += a[i, j, k] * b[:ti, :tj, :tk]
    out[_over_cap_mask(3, order)] = 0.0
    return out


# a-block rows per matmul in _conv_pair_np; keeps each product chunk to a
# few MB however many blocks are live
_PAIR_ROWS = 16


@lru_cache(maxsize=None)
def _param_monomials(cap):
    """Packed layout of the parameter blocks that ``conv_pair`` multiplies.

    Returns ``(ps, qs, quot)``: monomial s is x^ps[s] y^qs[s], over every
    total degree <= cap (n = C(cap+2, 2) of them), and ``quot[s, u]`` is the
    index of monomial u / monomial s, or n when s does not divide u.  With
    a zero appended at index n, ``c[quot]`` is the matrix of multiplication
    by the packed polynomial c: ``a @ c[quot]`` is the truncated product.
    """
    ps, qs = np.nonzero(np.add.outer(np.arange(cap + 1), np.arange(cap + 1)) <= cap)
    n = ps.size
    index = np.full((cap + 1, cap + 1), n)
    index[ps, qs] = np.arange(n)
    dp = ps[None, :] - ps[:, None]
    dq = qs[None, :] - qs[:, None]
    divides = (dp >= 0) & (dq >= 0)
    quot = np.where(divides, index[np.where(divides, dp, 0), np.where(divides, dq, 0)], n)
    for arr in (ps, qs, quot):
        arr.setflags(write=False)
    return ps, qs, quot


def _live_blocks(x, pair_cap, param_cap):
    """Pair indices (i, j) and packed coefficients of the nonzero blocks of x.

    Pair degrees beyond the cap and parameter entries of total degree
    beyond it cannot reach the truncated product, so they are dropped.
    """
    ps, qs, _ = _param_monomials(param_cap)
    x = x[: pair_cap + 1, : pair_cap + 1]
    if x.shape[2:] != (param_cap + 1, param_cap + 1):
        fit = np.zeros(x.shape[:2] + (param_cap + 1, param_cap + 1), dtype=np.complex128)
        p, q = min(x.shape[2], param_cap + 1), min(x.shape[3], param_cap + 1)
        fit[:, :, :p, :q] = x[:, :, :p, :q]
        x = fit
    packed = x[:, :, ps, qs]
    i, j = np.nonzero(np.any(packed != 0, axis=2))
    return i, j, packed[i, j]


def _conv_pair_np(a, b, pair_cap, param_cap, diag_only):
    """Bi-graded truncated convolution.

    ``a``/``b`` have shape (P+1, P+1, M+1, M+1); axis 0/1 grade the pair
    variables (v, vbar), axis 2/3 the parameters.  ``diag_only`` keeps only
    output blocks with equal pair degrees (what the Wick contraction reads).

    Parameter blocks are packed into their monomials of total degree <= M,
    and every live b block becomes its multiplication matrix (one gather
    through ``_param_monomials``).  One matmul per chunk of live a blocks
    multiplies them against all of those matrices at once; each product
    whose pair offsets stay within P is added into its output block.
    """
    P, M = pair_cap, param_cap
    ps, qs, quot = _param_monomials(M)
    n = ps.size
    out = np.zeros(((P + 1) * (P + 1), n), dtype=np.complex128)
    ia, ja, va = _live_blocks(a, P, M)
    ib, jb, vb = _live_blocks(b, P, M)
    if ia.size and ib.size:
        nb = ib.size
        padded = np.concatenate([vb, np.zeros((nb, 1), dtype=np.complex128)], axis=1)
        # mul[s, k, u]: monomial u of (monomial s) * (b block k)
        mul = padded.ravel()[quot[:, None, :] + (n + 1) * np.arange(nb)[None, :, None]]
        mul = mul.reshape(n, nb * n)
        for lo in range(0, ia.size, _PAIR_ROWS):
            hi = lo + _PAIR_ROWS
            prod = (va[lo:hi] @ mul).reshape(-1, nb, n)
            ti = ia[lo:hi, None] + ib[None, :]
            tj = ja[lo:hi, None] + jb[None, :]
            keep = (ti <= P) & (tj <= P)
            if diag_only:
                keep &= ti == tj
            # products landing in one block add up in a-row order
            slots = ((ti[keep] * (P + 1) + tj[keep])[:, None] * n + np.arange(n)).ravel()
            kept = prod[keep].ravel()
            out.real += np.bincount(slots, kept.real, out.size).reshape(out.shape)
            out.imag += np.bincount(slots, kept.imag, out.size).reshape(out.shape)
    full = np.zeros((P + 1, P + 1, M + 1, M + 1), dtype=np.complex128)
    full.reshape(-1, M + 1, M + 1)[:, ps, qs] = out
    return full


def _jacobi_sweep_np(a, v, tol):
    """One cyclic sweep of complex Hermitian Jacobi rotations, in place.

    Returns the number of rotations applied.  ``a`` is overwritten with the
    partially diagonalized matrix, ``v`` accumulates the eigenvectors.
    """
    n = a.shape[0]
    rotations = 0
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            if abs(apq) <= tol:
                continue
            rotations += 1
            app = a[p, p].real
            aqq = a[q, q].real
            phase = apq / abs(apq)
            tau = (aqq - app) / (2.0 * abs(apq))
            if tau >= 0:
                t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c * phase
            # columns
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = c * col_p - np.conj(s) * col_q
            a[:, q] = s * col_p + c * col_q
            # rows
            row_p = a[p, :].copy()
            row_q = a[q, :].copy()
            a[p, :] = c * row_p - s * row_q
            a[q, :] = np.conj(s) * row_p + c * row_q
            a[p, q] = 0.0
            a[q, p] = 0.0
            a[p, p] = a[p, p].real
            a[q, q] = a[q, q].real
            col_p = v[:, p].copy()
            col_q = v[:, q].copy()
            v[:, p] = c * col_p - np.conj(s) * col_q
            v[:, q] = s * col_p + c * col_q
    return rotations


if _HAVE_NUMBA:

    @njit(cache=True)
    def _conv_trunc_1d_nb(a, b, order):  # pragma: no cover - jit
        out = np.zeros(order + 1, dtype=np.complex128)
        na = min(a.shape[0], order + 1)
        for i in range(na):
            ai = a[i]
            if ai == 0:
                continue
            top = min(b.shape[0], order + 1 - i)
            for j in range(top):
                out[i + j] += ai * b[j]
        return out

    @njit(cache=True)
    def _conv_trunc_2d_nb(a, b, order):  # pragma: no cover - jit
        out = np.zeros((order + 1, order + 1), dtype=np.complex128)
        for i1 in range(min(a.shape[0], order + 1)):
            for j1 in range(min(a.shape[1], order + 1 - i1)):
                c = a[i1, j1]
                if c == 0:
                    continue
                for i2 in range(min(b.shape[0], order + 1 - i1 - j1)):
                    rem = order - i1 - j1 - i2
                    for j2 in range(min(b.shape[1], rem + 1)):
                        out[i1 + i2, j1 + j2] += c * b[i2, j2]
        return out

    @njit(cache=True)
    def _conv_trunc_3d_nb(a, b, order):  # pragma: no cover - jit
        out = np.zeros((order + 1, order + 1, order + 1), dtype=np.complex128)
        for i1 in range(min(a.shape[0], order + 1)):
            for j1 in range(min(a.shape[1], order + 1 - i1)):
                for k1 in range(min(a.shape[2], order + 1 - i1 - j1)):
                    c = a[i1, j1, k1]
                    if c == 0:
                        continue
                    for i2 in range(min(b.shape[0], order + 1 - i1 - j1 - k1)):
                        for j2 in range(
                            min(b.shape[1], order + 1 - i1 - j1 - k1 - i2)
                        ):
                            rem = order - i1 - j1 - k1 - i2 - j2
                            for k2 in range(min(b.shape[2], rem + 1)):
                                out[i1 + i2, j1 + j2, k1 + k2] += c * b[i2, j2, k2]
        return out

    @njit(cache=True)
    def _conv_pair_nb(a, b, pair_cap, param_cap, diag_only):  # pragma: no cover
        P = pair_cap
        M = param_cap
        out = np.zeros((P + 1, P + 1, M + 1, M + 1), dtype=np.complex128)
        for i1 in range(min(a.shape[0], P + 1)):
            for j1 in range(min(a.shape[1], P + 1)):
                block_live = False
                for p in range(a.shape[2]):
                    if block_live:
                        break
                    for q in range(a.shape[3]):
                        if a[i1, j1, p, q] != 0:
                            block_live = True
                            break
                if not block_live:
                    continue
                for i2 in range(min(b.shape[0], P + 1 - i1)):
                    for j2 in range(min(b.shape[1], P + 1 - j1)):
                        if diag_only and (i1 + i2) != (j1 + j2):
                            continue
                        for p1 in range(min(a.shape[2], M + 1)):
                            for q1 in range(min(a.shape[3], M + 1 - p1)):
                                c = a[i1, j1, p1, q1]
                                if c == 0:
                                    continue
                                for p2 in range(min(b.shape[2], M + 1 - p1 - q1)):
                                    rem = M - p1 - q1 - p2
                                    for q2 in range(min(b.shape[3], rem + 1)):
                                        bb = b[i2, j2, p2, q2]
                                        if bb != 0:
                                            out[
                                                i1 + i2, j1 + j2, p1 + p2, q1 + q2
                                            ] += c * bb
        return out

    @njit(cache=True)
    def _jacobi_sweep_nb(a, v, tol):  # pragma: no cover - jit
        n = a.shape[0]
        rotations = 0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol:
                    continue
                rotations += 1
                app = a[p, p].real
                aqq = a[q, q].real
                phase = apq / abs(apq)
                tau = (aqq - app) / (2.0 * abs(apq))
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c * phase
                for k in range(n):
                    akp = a[k, p]
                    akq = a[k, q]
                    a[k, p] = c * akp - np.conj(s) * akq
                    a[k, q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p, k]
                    aqk = a[q, k]
                    a[p, k] = c * apk - s * aqk
                    a[q, k] = np.conj(s) * apk + c * aqk
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = complex(a[p, p].real, 0.0)
                a[q, q] = complex(a[q, q].real, 0.0)
                for k in range(n):
                    vkp = v[k, p]
                    vkq = v[k, q]
                    v[k, p] = c * vkp - np.conj(s) * vkq
                    v[k, q] = s * vkp + c * vkq
        return rotations

    conv_trunc_1d = _conv_trunc_1d_nb
    conv_trunc_2d = _conv_trunc_2d_nb
    conv_trunc_3d = _conv_trunc_3d_nb
    _conv_pair_impl = _conv_pair_nb
    _jacobi_sweep_impl = _jacobi_sweep_nb
else:
    conv_trunc_1d = _conv_trunc_1d_np
    conv_trunc_2d = _conv_trunc_2d_np
    conv_trunc_3d = _conv_trunc_3d_np
    _conv_pair_impl = _conv_pair_np
    _jacobi_sweep_impl = _jacobi_sweep_np


def conv_pair(a, b, pair_cap, param_cap, diag_only=False):
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    return _conv_pair_impl(a, b, pair_cap, param_cap, diag_only)


def jacobi_eigh(matrix, tol=1e-13, max_sweeps=60):
    """Cyclic Jacobi diagonalization of a complex Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns, final off norm).
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    herm_defect = np.max(np.abs(a - a.conj().T)) if n else 0.0
    if herm_defect > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    a = 0.5 * (a + a.conj().T)
    v = np.eye(n, dtype=np.complex128)
    for _ in range(max_sweeps):
        rotations = _jacobi_sweep_impl(a, v, tol)
        if rotations == 0:
            break
    off = off_diagonal_norm(a)
    evals = np.real(np.diag(a)).copy()
    order = np.argsort(evals, kind="stable")
    return evals[order], v[:, order], off


def off_diagonal_norm(a) -> float:
    n = a.shape[0]
    if n == 0:
        return 0.0
    mask = ~np.eye(n, dtype=bool)
    return float(np.sqrt(np.sum(np.abs(a[mask]) ** 2)))
