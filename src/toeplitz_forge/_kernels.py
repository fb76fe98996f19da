"""The composition engine's hot inner loop, in numpy.

``conv_pair`` is the bi-graded convolution of the engine's parametric
series (``stationary_phase.PairFamily``): axes 0/1 grade the oscillatory
pair variables, axes 2/3 the base-point offsets.  It packs each parameter
block into its monomials of total degree <= M and multiplies the live
blocks of both operands with one matmul per chunk of rows, against the
multiplication matrices of the b blocks (one gather through a cached,
read-only index map); blocks that are zero in either operand take no part.

The total-degree truncated product of ``series.PowerSeries`` lives in the
series module, and spectra come from LAPACK in ``quantization_spectral``.
``backend_name()`` names the kernel backend for the benchmark's
environment record; numpy is the only one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def backend_name() -> str:
    return "numpy"


# a-block rows per matmul in conv_pair; keeps each product chunk to a few
# MB however many blocks are live
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


def conv_pair(a, b, pair_cap, param_cap, diag_only=False):
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
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
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
