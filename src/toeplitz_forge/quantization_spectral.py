"""Finite-rank realization of the weighted Hardy spaces and their operators.

The level-N Hardy space has the monomial basis z^j with exact squared
norms (Beta integrals on the sphere, Gaussian moments on the plane).
This module builds dense matrices in the orthonormalized basis for the
two quantization routes:

* multiplier (contravariant) operators u -> projection of f u, with an
  exact rational moment path for polynomial f in the ambient coordinates;
* kernel (covariant) operators with kernel N^d 1_U Psi^N sum_k N^{-k} s_k,
  where U is a sharp geodesic cutoff, assembled by quadrature that splits
  into radial Gauss-Legendre nodes and an angular rule on the exact
  cutoff interval.

On top of the matrices: a Schur-test norm bound, singular values and
Hermitian eigenpairs from LAPACK (SVD of the matrix itself, ``eigh``; the
tests compare them against a cyclic-Jacobi solver of their own),
forbidden-region masses of eigenvector sections
(exact for x3 half-spaces, node-indicator quadrature for general
regions), and least-squares exponential decay fits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .covariant_calculus import CovariantSymbol, bergman_symbol
from .function_spaces import summation_cutoff
from .geometry import ModelGeometry

__all__ = [
    "HardyBasis",
    "OperatorMatrix",
    "DecayReport",
    "basis_norms",
    "contravariant_matrix",
    "cutoff_rho",
    "covariant_matrix",
    "bergman_gram_defect",
    "bergman_kernel_error",
    "schur_norm_bound",
    "operator_norm",
    "invertibility_check",
    "eigenpairs",
    "parse_region",
    "forbidden_mass",
    "decay_rate_fit",
    "decay_report",
]

CUTOFF_FACTOR = 0.4  # sharp kernel cutoff at 0.4 * injectivity radius
DEFAULT_RADIAL = 80
MASS_RADIAL = 160


# ---------------------------------------------------------------------------
# bases and matrices


@dataclass(frozen=True)
class HardyBasis:
    """Monomial basis z^j of the level-N space with exact squared norms."""

    geometry: ModelGeometry
    N: int
    norms: tuple

    @property
    def dim(self) -> int:
        return len(self.norms)


def basis_norms(geometry: ModelGeometry, N: int, cutoff: Optional[int] = None) -> HardyBasis:
    """Exact squared norms of the monomials z^j at level N.

    The sphere space is finite (degree <= N); the plane space is
    truncated at degree ``cutoff`` (default N) for matrix work.
    """
    if N < 1 or N != int(N):
        raise ValueError("N must be a positive integer")
    N = int(N)
    if geometry.compact:
        if cutoff is not None:
            raise ValueError("the sphere basis is already finite; cutoff applies to the plane")
        degrees = range(N + 1)
    else:
        top = N if cutoff is None else int(cutoff)
        if top < 0:
            raise ValueError("cutoff must be nonnegative")
        degrees = range(top + 1)
    norms = tuple(geometry.norm_sq_monomial(N, j) for j in degrees)
    return HardyBasis(geometry, N, norms)


@dataclass
class OperatorMatrix:
    """Dense matrix of an operator in the orthonormalized monomial basis."""

    entries: np.ndarray
    N: int
    label: str = ""

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("entries must form a square matrix")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def hermitian_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T), initial=0.0))

    def __array__(self, dtype=None, copy=None):
        arr = np.array(self.entries, dtype=dtype, copy=True)
        return arr


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, OperatorMatrix):
        return m.entries
    return np.asarray(m, dtype=complex)


# ---------------------------------------------------------------------------
# contravariant (multiplier) matrices: exact moment path


def _euclid_monomial_expansion(e1: int, e2: int, e3: int):
    """Expand x1^e1 x2^e2 x3^e3 = (1+z zbar)^{-s} sum c_pq z^p zbar^q.

    Returns (s, {(p, q): (re, im)}) with exact rational coefficient parts.
    """
    terms = {(0, 0): (Fraction(1), Fraction(0))}

    def mul(table, pieces):
        out = {}
        for (p, q), (re, im) in table.items():
            for (dp, dq), c in pieces:
                key = (p + dp, q + dq)
                ore, oim = out.get(key, (Fraction(0), Fraction(0)))
                out[key] = (ore + re * c, oim + im * c)
        return out

    for _ in range(e1):
        terms = mul(terms, [((1, 0), Fraction(1)), ((0, 1), Fraction(1))])
    for _ in range(e2):
        terms = mul(terms, [((1, 0), Fraction(1)), ((0, 1), Fraction(-1))])
    for _ in range(e3):
        terms = mul(terms, [((0, 0), Fraction(1)), ((1, 1), Fraction(-1))])
    # each x2 factor contributes -i; apply the quarter turns at the end
    for _ in range(e2):
        terms = {k: (im, -re) for k, (re, im) in terms.items()}
    return e1 + e2 + e3, terms


def _beta_full(m: int, M: int) -> Fraction:
    """Exact ∫_0^∞ t^m (1+t)^{-(M+2)} dt for 0 <= m <= M."""
    if not 0 <= m <= M:
        raise ValueError("moment outside the convergent range")
    return Fraction(math.factorial(m) * math.factorial(M - m), math.factorial(M + 1))


def _split_coefficient(c) -> tuple:
    c = complex(c)
    return Fraction(c.real), Fraction(c.imag)


def _sphere_moment_entries(terms: dict, N: int) -> np.ndarray:
    """Entries <e_j, f e_k> for f a polynomial in (x1, x2, x3), exactly.

    The coefficient table maps exponent triples to (complex) coefficients.
    Each monomial expands into z^p zbar^q / (1+t)^s terms whose weighted
    moments are rational; only the final orthonormalization square root
    leaves exact arithmetic.
    """
    dim = N + 1
    acc_re = [[Fraction(0)] * dim for _ in range(dim)]
    acc_im = [[Fraction(0)] * dim for _ in range(dim)]
    for (e1, e2, e3), cval in sorted(terms.items()):
        cre, cim = _split_coefficient(cval)
        if cre == 0 and cim == 0:
            continue
        s, expansion = _euclid_monomial_expansion(e1, e2, e3)
        for (p, q), (xre, xim) in expansion.items():
            # angular selection: j + q = k + p
            tre = cre * xre - cim * xim
            tim = cre * xim + cim * xre
            for j in range(dim):
                k = j + q - p
                if not 0 <= k < dim:
                    continue
                moment = _beta_full(j + q, N + s)
                acc_re[j][k] += tre * moment
                acc_im[j][k] += tim * moment
    norms = [Fraction(math.factorial(j) * math.factorial(N - j), math.factorial(N + 1)) for j in range(dim)]
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        for k in range(dim):
            re, im = acc_re[j][k], acc_im[j][k]
            if re == 0 and im == 0:
                continue
            if j == k:
                out[j, k] = complex(float(re / norms[j]), float(im / norms[j]))
            else:
                den = math.sqrt(float(norms[j] * norms[k]))
                out[j, k] = complex(float(re), float(im)) / den
    return out


def _plane_moment_entries(terms: dict, N: int, dim: int) -> np.ndarray:
    """Entries <e_j, z^p zbar^q e_k> on the truncated plane basis."""
    out = np.zeros((dim, dim), dtype=complex)
    logN = math.log(N)
    for (p, q), cval in sorted(terms.items()):
        c = complex(cval)
        if c == 0:
            continue
        for j in range(dim):
            k = j + p - q  # k + p = j + q reversed: j + q = k + p
            if not 0 <= k < dim:
                continue
            m = j + q
            loge = (
                math.lgamma(m + 1)
                - 0.5 * (math.lgamma(j + 1) + math.lgamma(k + 1))
                + (0.5 * (j + k) - m) * logN
            )
            out[j, k] += c * math.exp(loge)
    return out


def _quadrature_entries(geometry: ModelGeometry, func: Callable, N: int, dim: int, n_radial: int) -> np.ndarray:
    """Multiplier-matrix quadrature for non-polynomial data.

    The angular integral is an exact trapezoid mode projection; the radial
    rule is checked by refinement and insufficiency raises.
    """

    def assemble(n_rad):
        n_ang = 2 * dim + 16
        theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
        t, tw = _radial_nodes(n_rad)
        if geometry.compact:
            weight = tw * np.exp(-(N + 2) * np.log1p(t))
        else:
            # laggauss is only stable to degree ~100, so keep the mapped
            # Legendre rule and carry the exponential weight explicitly
            weight = tw * np.exp(-N * t)
        r = np.sqrt(t)
        z = r[:, None] * np.exp(1j * theta)[None, :]
        if geometry.compact:
            d = 1.0 + t[:, None]
            vals = func((z + np.conj(z)) / d, -1j * (z - np.conj(z)) / d, (1.0 - t[:, None]) / d)
        else:
            vals = func(np.real(z), np.imag(z))
        vals = np.broadcast_to(np.asarray(vals, dtype=complex), z.shape)
        modes = np.fft.fft(vals, axis=1) / n_ang  # mode[m] multiplies e^{i m theta}... conj below
        out = np.zeros((dim, dim), dtype=complex)
        lognorm = [0.5 * _log_norm_inv(geometry, N, j) for j in range(dim)]
        logt = np.log(t)
        for j in range(dim):
            for k in range(dim):
                # fft index m multiplies e^{-i m theta}; z^k zbar^j carries
                # e^{i (k-j) theta}, so the surviving mode is j - k
                mode = (j - k) % n_ang
                rad = np.exp(0.5 * (j + k) * logt + lognorm[j] + lognorm[k])
                out[j, k] = np.sum(weight * rad * modes[:, mode])
        return out

    first = assemble(n_radial)
    refined = assemble(int(1.5 * n_radial) + 1)
    scale = max(1.0, float(np.max(np.abs(refined))))
    if np.max(np.abs(first - refined)) > 1e-9 * scale:
        raise ArithmeticError(
            "quadrature degree insufficient for the requested multiplier matrix"
        )
    return refined


def _log_norm_inv(geometry: ModelGeometry, N: int, j: int) -> float:
    """log(1 / ||z^j||^2) for the level-N weight."""
    if geometry.compact:
        return math.lgamma(N + 2) - math.lgamma(j + 1) - math.lgamma(N - j + 1)
    return (j + 1) * math.log(N) - math.lgamma(j + 1)


def contravariant_matrix(
    geometry: ModelGeometry,
    f,
    N: int,
    cutoff: Optional[int] = None,
    n_radial: int = MASS_RADIAL,
) -> OperatorMatrix:
    """Matrix of u -> projection(f u) in the orthonormal monomial basis.

    ``f`` is a mapping of exponent tuples to coefficients: triples
    (e1, e2, e3) over the ambient sphere coordinates, pairs (p, q) over
    plane monomials z^p zbar^q.  Polynomial data goes through the exact
    rational moment path; a callable f falls back to quadrature
    (``f(x1, x2, x3)`` on the sphere, ``f(re, im)`` on the plane).
    """
    basis = basis_norms(geometry, N, cutoff)
    if callable(f):
        ent = _quadrature_entries(geometry, f, N, basis.dim, n_radial)
        return OperatorMatrix(ent, N, label="multiplier[quadrature]")
    terms = dict(f)
    width = 3 if geometry.compact else 2
    for key in terms:
        if len(key) != width or any(int(e) != e or e < 0 for e in key):
            raise ValueError(f"exponent tuples must be length {width} and nonnegative")
    if geometry.compact:
        ent = _sphere_moment_entries(terms, N)
    else:
        ent = _plane_moment_entries(terms, N, basis.dim)
    return OperatorMatrix(ent, N, label="multiplier")


# ---------------------------------------------------------------------------
# covariant (kernel) matrices


def _radial_nodes(n_radial: int):
    """Gauss-Legendre nodes for ∫_0^∞ dt via t = w/(1-w)."""
    x, w = np.polynomial.legendre.leggauss(n_radial)
    wn = 0.5 * (x + 1.0)
    qw = 0.5 * w
    t = wn / (1.0 - wn)
    return t, qw / (1.0 - wn) ** 2


def _resolve_truncation(symbol: CovariantSymbol, N: int, K: Optional[int]) -> int:
    top = summation_cutoff(N, symbol.R)
    if K is None:
        return min(symbol.K, top)
    K = int(K)
    if K < 0:
        raise ValueError("K must be nonnegative")
    if K > top:
        raise ValueError(
            f"truncation K={K} exceeds the summation cutoff floor(eN/(3R)) = {top}"
        )
    return K


def _summed_amplitude(symbol: CovariantSymbol, N: int, K: int) -> Callable:
    top = min(K, symbol.K)
    if symbol.constant_coeffs is not None:
        # a constant amplitude is one scalar, whatever the shape of the grid
        total = np.zeros((), dtype=complex)
        for k in range(top + 1):
            total = total + float(N) ** (-k) * symbol.constant_coeffs[k]

        def amp(x, zbar):
            return np.broadcast_to(total, np.broadcast(x, zbar).shape)

        return amp

    if symbol.global_eval is not None:

        def amp(x, zbar):
            acc = np.zeros(np.broadcast(x, zbar).shape, dtype=complex)
            for k in range(top + 1):
                acc = acc + float(N) ** (-k) * symbol.value(k, x, zbar)
            return acc

        return amp

    # jets-only symbols: combine sum_k N^{-k} c_k into one block per node,
    # then locate each evaluation point once
    from .covariant_calculus import frame_pair_offsets

    combined = []
    for jet in symbol.jets:
        shape = jet.coeffs[0].coeffs.shape
        block = np.zeros(shape, dtype=complex)
        for k in range(top + 1):
            block += float(N) ** (-k) * np.asarray(jet.coeffs[k].coeffs, dtype=complex)
        combined.append(block)

    def amp(x, zbar):
        x = np.asarray(x, dtype=complex)
        zbar = np.asarray(zbar, dtype=complex)
        idx, a, bbar = frame_pair_offsets(symbol, x, zbar)
        flat_idx = np.atleast_1d(idx).ravel()
        fa = np.atleast_1d(a).ravel()
        fb = np.atleast_1d(bbar).ravel()
        out = np.zeros(flat_idx.shape, dtype=complex)
        for i in np.unique(flat_idx):
            sel = flat_idx == i
            c = combined[int(i)]
            pow_a = fa[sel, None] ** np.arange(c.shape[0])
            pow_b = fb[sel, None] ** np.arange(c.shape[1])
            out[sel] = np.sum((pow_a @ c) * pow_b, axis=1)
        return out.reshape(np.broadcast(x, zbar).shape)

    return amp


def _sphere_diagonal_quadrature(
    N: int,
    dim: int,
    amplitude: Callable,
    rho: float,
    n_radial: int,
    n_angular: int,
) -> np.ndarray:
    """Diagonal of a rotation-invariant kernel operator at level N.

    The kernel is amplitude(x, zbar) (1+x zbar)^N against the level-N
    weights, restricted to pairs with |1+x zbar|^2 >= rho (1+t1)(1+t2);
    rho <= 0 disables the cutoff.  The angular rule is Gauss-Legendre on
    the exact cutoff interval, or a uniform (trigonometrically exact)
    grid when the full circle survives.

    Mode j of the angular integral is projected out for all j at once:
    by one matmul against e^{-i j beta} on the shared uniform grid, or by
    the phase recurrence vals *= e^{-i beta} on the per-pair cutoff grids.
    """
    t, tw = _radial_nodes(n_radial)
    logt = np.log(t)
    l1p = np.log1p(t)
    r = np.sqrt(t)
    rr = r[:, None] * r[None, :]
    if rho > 0.0:
        c0 = (rho * np.exp(l1p[:, None] + l1p[None, :]) - 1.0 - rr**2) / (2.0 * rr)
        beta0 = np.arccos(np.clip(c0, -1.0, 1.0))
        gx, gw = np.polynomial.legendre.leggauss(n_angular)
        betas = beta0[:, :, None] * gx[None, None, :]
        bweight = beta0[:, :, None] * gw[None, None, :]
    else:
        grid = 2.0 * np.pi * (np.arange(n_angular) + 0.5) / n_angular - np.pi
        betas = np.broadcast_to(grid, (t.size, t.size, n_angular))
        bweight = 2.0 * np.pi / n_angular
    phase = np.exp(1j * betas)
    del betas
    # the (n_radial, n_radial, n_angular) tensors set the peak memory of
    # the quadrature, so the amplitude is evaluated before the kernel and
    # everything after it runs in place
    x = r[:, None, None] * phase
    amp = amplitude(x, np.broadcast_to(r[None, :, None], phase.shape))
    del x
    # kernel e^{N log(1 + rr e^{i beta}) - N/2 (log(1+t1) + log(1+t2))}
    vals = rr[:, :, None] * phase
    vals += 1.0
    np.log(vals, out=vals)
    vals *= N
    vals -= 0.5 * N * (l1p[:, None, None] + l1p[None, :, None])
    np.exp(vals, out=vals)
    vals *= bweight
    vals *= amp
    del amp
    if rho > 0.0:
        np.conjugate(phase, out=phase)
        inner = np.empty((t.size, t.size, dim), dtype=complex)
        for j in range(dim):
            np.sum(vals, axis=-1, out=inner[:, :, j])
            vals *= phase
    else:
        inner = vals @ np.exp(-1j * np.outer(grid, np.arange(dim)))
    j = np.arange(dim)
    lognj = np.array(
        [math.lgamma(N + 2) - math.lgamma(k + 1) - math.lgamma(N - k + 1) for k in range(dim)]
    )
    w = tw[:, None] * np.exp(
        0.5 * j[None, :] * logt[:, None] - (0.5 * N + 2.0) * l1p[:, None] + 0.5 * lognj[None, :]
    )
    return np.einsum("aj,abj,bj->j", w, inner, w) / (2.0 * np.pi)


def _plane_gaussian_entries(blocks: Sequence[np.ndarray], N: int, K: int, dim: int) -> np.ndarray:
    """Exact Gaussian-moment matrix of the plane kernel N e^{N x ybar} s(x, ybar).

    ``blocks[k]`` holds the coefficients of s_k in (x, zbar) powers; the
    combined amplitude is sum_k N^{-k} s_k.
    """
    used = blocks[: K + 1] or [np.zeros((1, 1), dtype=complex)]
    shape = (max(b.shape[0] for b in used), max(b.shape[1] for b in used))
    comb = np.zeros(shape, dtype=complex)
    for k, b in enumerate(used):
        comb[: b.shape[0], : b.shape[1]] += float(N) ** (-k) * b
    out = np.zeros((dim, dim), dtype=complex)
    logN = math.log(N)
    for p in range(comb.shape[0]):
        for q in range(comb.shape[1]):
            c = comb[p, q]
            if abs(c) < 1e-300:
                continue
            mtop = min(dim - 1 - p, dim - 1 - q)
            for m in range(mtop + 1):
                j, k = p + m, q + m
                loge = (
                    0.5 * (math.lgamma(j + 1) + math.lgamma(k + 1))
                    - math.lgamma(m + 1)
                    - 0.5 * (p + q) * logN
                )
                out[j, k] += c * math.exp(loge)
    return out


def cutoff_rho(geometry: ModelGeometry, eps: Optional[float] = None) -> float:
    """Threshold of the sphere pair cutoff at geodesic radius ``eps``.

    Pairs are kept when |1 + x zbar|^2 >= rho (1+|x|^2)(1+|z|^2), with
    rho = cos^2(eps / sqrt 2); eps defaults to CUTOFF_FACTOR times the
    injectivity radius, where rho = (3 + sqrt 5)/8.  Returns 0.0 when
    nothing is cut: the plane, or eps at or beyond the injectivity radius.
    """
    if not geometry.compact:
        return 0.0
    if eps is None:
        eps = CUTOFF_FACTOR * geometry.injectivity_radius
    if math.isfinite(eps) and eps < geometry.injectivity_radius:
        return math.cos(eps / math.sqrt(2.0)) ** 2
    return 0.0


def covariant_matrix(
    geometry: ModelGeometry,
    symbol: CovariantSymbol,
    N: int,
    K: Optional[int] = None,
    eps: Optional[float] = None,
    cutoff: Optional[int] = None,
    n_radial: int = DEFAULT_RADIAL,
    n_angular: Optional[int] = None,
) -> OperatorMatrix:
    """Matrix of the kernel operator N^d 1_U Psi^N sum_k N^{-k} s_k.

    The pair cutoff U keeps geodesic distance <= eps, default
    0.4 * injectivity radius (the plane has no cutoff).  K defaults to
    the largest stored coefficient index compatible with the summation
    cutoff floor(eN/(3R)); an explicit K beyond that floor raises.

    Sphere symbols must be rotation invariant: the operator then
    commutes with the circle action and the matrix is diagonal, which
    the quadrature exploits.  Plane symbols go through exact Gaussian
    moments of their jet polynomials.

    Accuracy: without a cutoff the sphere rule is exact to ~1e-13.  With
    the cutoff the angular interval has a square-root edge, so the
    quadrature converges only as n_radial^{-3/2}: for the projector
    symbol over N = 4..32 the entries sit within about 2.5e-4 of the
    exact 1 - rho^{N+1} at the default 80 radial nodes (at N = 4:
    2.5e-4, 8.8e-5, 3.1e-5 at 80, 160, 320 nodes).
    """
    if symbol.geometry.name != geometry.name:
        raise ValueError("symbol was built for a different geometry")
    K_used = _resolve_truncation(symbol, N, K)
    basis = basis_norms(geometry, N, cutoff)
    if not geometry.compact:
        if eps is not None and math.isfinite(eps):
            raise ValueError("the plane kernel carries no cutoff (infinite injectivity radius)")
        blocks = [np.asarray(symbol.jets[0].coeffs[k].coeffs, dtype=complex) for k in range(symbol.K + 1)]
        ent = _plane_gaussian_entries(blocks, N, K_used, basis.dim)
        return OperatorMatrix(ent, N, label=f"kernel[K={K_used}]")
    if not symbol.rotation_invariant:
        raise ValueError(
            "sphere kernel matrices need a rotation-invariant symbol; "
            "general symbols are only stored along a meridian"
        )
    rho = cutoff_rho(geometry, eps)
    if n_angular is None:
        n_angular = max(64, N + 40) if rho > 0.0 else max(64, 2 * N + 8)
    amp = _summed_amplitude(symbol, N, K_used)

    def amplitude(x, zbar):
        return float(N) * amp(x, zbar)

    diag = _sphere_diagonal_quadrature(N, basis.dim, amplitude, rho, n_radial, n_angular)
    return OperatorMatrix(np.diag(diag), N, label=f"kernel[K={K_used}]")


def bergman_gram_defect(
    geometry: ModelGeometry,
    N: int,
    n_radial: int = DEFAULT_RADIAL,
    n_angular: Optional[int] = None,
) -> float:
    """Distance of the quadrature Gram matrix of the exact projector to I.

    The reproducing kernel is integrated against all basis pairs with no
    cutoff; the result is the identity up to quadrature roundoff, which
    validates the covariant-matrix scheme at this resolution.
    """
    if geometry.compact:
        if n_angular is None:
            n_angular = max(64, 2 * N + 8)

        def amplitude(x, zbar):
            return (N + 1.0) * np.ones(np.broadcast(x, zbar).shape)

        diag = _sphere_diagonal_quadrature(N, N + 1, amplitude, 0.0, n_radial, n_angular)
        return float(np.max(np.abs(diag - 1.0)))
    blocks = [np.ones((1, 1), dtype=complex)]
    ent = _plane_gaussian_entries(blocks, N, 0, N + 1)
    return float(np.max(np.abs(ent - np.eye(N + 1))))


def bergman_kernel_error(
    geometry: ModelGeometry,
    N: int,
    K: Optional[int] = None,
    eps: Optional[float] = None,
    n_theta: int = 9,
    n_sep: int = 9,
) -> float:
    """Sup over sample pairs of the weighted error of the cutoff kernel.

    Compares N^d 1_{dist<=eps} Psi^N sum_k N^{-k} a_k (a the Bergman
    symbol) against the exact reproducing kernel, both measured in the
    pointwise h-norm at the pair.  Pairs beyond the cutoff are included:
    there the approximation is exactly zero and the error is the exact
    kernel's own weighted size.
    """
    sym = bergman_symbol(geometry, K=4)
    if K is None:
        K = min(sym.K, summation_cutoff(N, sym.R))
    else:
        K = _resolve_truncation(sym, N, K)
    if eps is None:
        eps = CUTOFF_FACTOR * geometry.injectivity_radius if geometry.compact else math.inf
    amp = _summed_amplitude(sym, N, K)
    if geometry.compact:
        thetas = np.linspace(0.15, math.pi - 0.15, n_theta)
        azimuths = np.array([0.0, 0.7, 1.6, 3.0])
        tx = np.tan(thetas / 2.0)
        x = np.repeat(tx, thetas.size * azimuths.size).astype(complex)
        ty = np.tile(np.repeat(np.tan(thetas / 2.0), azimuths.size), thetas.size)
        y = ty * np.exp(1j * np.tile(azimuths, thetas.size * thetas.size))
        logw = -0.5 * N * (np.log1p(np.abs(x) ** 2) + np.log1p(np.abs(y) ** 2))
    else:
        base = np.linspace(0.0, 1.5, n_theta)
        seps = np.linspace(0.0, 3.0 / math.sqrt(N), n_sep)
        x = np.repeat(base, n_sep).astype(complex)
        y = (np.repeat(base, n_sep) + np.tile(seps, n_theta)).astype(complex)
        logw = -0.5 * N * (np.abs(x) ** 2 + np.abs(y) ** 2)
    dist = geometry.geodesic_distance(x, y)
    inside = dist <= eps
    psi = np.exp(N * geometry.two_phi_tilde(x, np.conj(y)))
    approx = float(N) * amp(x, np.conj(y)) * psi * np.where(inside, 1.0, 0.0)
    exact = geometry.bergman_kernel(N, x, np.conj(y))
    err = np.abs(approx - exact) * np.exp(logw)
    return float(np.max(err))


# ---------------------------------------------------------------------------
# norm bounds and spectra


def schur_norm_bound(geometry: ModelGeometry, amplitude, N: int) -> float:
    """Operator-norm bound C_N sup|amplitude| for kernels N^d Psi^N x amplitude.

    C_N = N^d sup_x ∫ |Psi^N(x, ybar)|_h dm(y) has the closed forms
    2N/(N+2) (sphere) and 2 (plane); the Schur test gives the bound for
    any measurable amplitude, cut off or not.
    """
    if callable(amplitude):
        if geometry.compact:
            thetas = np.linspace(0.1, math.pi - 0.1, 25)
            base = np.tan(thetas / 2.0)
            offs = np.linspace(-0.45, 0.45, 13)
            x = (base[:, None] + offs[None, :]).ravel().astype(complex)
            zb = np.repeat(base, offs.size).astype(complex)
        else:
            base = np.linspace(-1.5, 1.5, 25)
            offs = np.linspace(-2.0 / math.sqrt(N), 2.0 / math.sqrt(N), 13)
            x = (base[:, None] + offs[None, :]).ravel().astype(complex)
            zb = np.repeat(base, offs.size).astype(complex)
        sup = float(np.max(np.abs(amplitude(x, zb))))
    else:
        sup = abs(float(amplitude))
    if geometry.compact:
        comparison = 2.0 * N / (N + 2.0)
    else:
        comparison = 2.0
    return comparison * sup


def operator_norm(m) -> float:
    """Largest singular value (2-norm), by LAPACK SVD of the matrix itself."""
    a = _as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def invertibility_check(m) -> float:
    """Smallest singular value; > 0 certifies invertibility.

    The SVD works on the matrix itself, not on A^H A, so the condition
    number is not squared: the error stays near machine precision times
    the largest singular value, where sqrt(eig(A^H A)) loses everything
    below about 1e-8 of it.
    """
    a = _as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def eigenpairs(m, residual_tol: float = 1e-10):
    """Sorted (eigenvalue, unit eigenvector) pairs of a Hermitian matrix.

    LAPACK ``eigh`` diagonalization (the tests check it against cyclic
    Jacobi rotations, an independent route); rejects non-Hermitian
    input and verifies the residual ||A u - lambda u|| against the
    tolerance.
    """
    a = _as_matrix(m)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    herm_defect = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    if herm_defect > 1e-10 * scale:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    evals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    residual = float(np.max(np.abs(a @ vecs - vecs * evals[None, :]), initial=0.0))
    if residual > residual_tol * scale:
        raise ArithmeticError(f"eigen residual {residual:.3e} exceeds {residual_tol:.1e}")
    return [(float(evals[i]), vecs[:, i].copy()) for i in range(len(evals))]


# ---------------------------------------------------------------------------
# forbidden-region masses and decay fits

Region = Union[None, str, tuple, Callable]


def parse_region(spec: str):
    """Parse "x3 >= 0.5"-style predicates.

    x3 comparisons return a structured triple that takes the exact
    integration path; x1/x2 comparisons return a callable for the
    node-indicator quadrature.
    """
    text = spec.strip()
    for op in ("<=", ">=", "<", ">"):
        if op in text:
            left, _, right = text.partition(op)
            coord = left.strip()
            value = Fraction(right.strip())
            canon = "<=" if op in ("<=", "<") else ">="
            if coord == "x3":
                return ("x3", canon, value)
            if coord in ("x1", "x2"):
                idx = 0 if coord == "x1" else 1
                if canon == "<=":
                    return lambda *c: c[idx] <= float(value)
                return lambda *c: c[idx] >= float(value)
            raise ValueError(f"unknown coordinate {coord!r} in region {spec!r}")
    raise ValueError(f"cannot parse region {spec!r}; expected '<coord> <op> <value>'")


def _beta_tail(j: int, M: int, t0: Fraction) -> Fraction:
    """Exact ∫_{t0}^∞ t^j (1+t)^{-(M+2)} dt for rational t0 >= 0."""
    if t0 < 0:
        t0 = Fraction(0)
    s0 = Fraction(1) + t0
    total = Fraction(0)
    for i in range(j + 1):
        c = math.comb(j, i) * (-1) ** (j - i)
        total += Fraction(c, M + 1 - i) * s0 ** (i - M - 1)
    return total


def _x3_interval(op: str, value: Fraction):
    """Chart-parameter t-interval of {x3 op value}; x3 = (1-t)/(1+t)."""
    if op == ">=":
        if value > 1:
            return None  # empty
        if value <= -1:
            return (Fraction(0), None)  # whole: t in [0, inf)
        return (Fraction(0), (1 - value) / (1 + value))
    if op == "<=":
        if value < -1:
            return None
        if value >= 1:
            return (Fraction(0), None)
        return ((1 - value) / (1 + value), None)
    raise ValueError(f"unsupported comparison {op!r}")


def forbidden_mass(
    geometry: ModelGeometry,
    N: int,
    u,
    region: Region,
    cutoff: Optional[int] = None,
    n_radial: int = MASS_RADIAL,
    n_angular: Optional[int] = None,
) -> float:
    """Weighted mass ∫_V |u(z)|^2_h dm of a unit section over a region.

    ``u`` holds coefficients in the orthonormal basis.  Regions: None for
    the whole space, a string for :func:`parse_region`, a structured
    ("x3", op, value) triple (exact rational radial integrals), or a
    predicate on the ambient coordinates evaluated on quadrature nodes.
    The quadrature path recomputes the total mass and raises when it
    strays from 1 by more than 1e-8.
    """
    basis = basis_norms(geometry, N, cutoff)
    u = np.asarray(u, dtype=complex)
    if u.shape != (basis.dim,):
        raise ValueError(f"coefficient vector must have length {basis.dim}")
    if isinstance(region, str):
        region = parse_region(region)
    total = float(np.sum(np.abs(u) ** 2))
    if abs(total - 1.0) > 1e-8:
        raise ArithmeticError(f"section is not normalized: total mass {total!r}")
    if isinstance(region, tuple):
        if not geometry.compact:
            raise ValueError("x3 half-spaces live on the sphere")
        interval = _x3_interval(region[1], Fraction(region[2]))
        if interval is None:
            return 0.0
        lo, hi = interval
        mass = 0.0
        for j in range(basis.dim):
            piece = _beta_tail(j, N, lo)
            if hi is not None:
                piece -= _beta_tail(j, N, hi)
            mass += abs(u[j]) ** 2 * float(piece / basis.norms[j])
        return mass
    if region is None:
        return total
    if not callable(region):
        raise ValueError("region must be None, a string, an (x3, op, value) triple, or a predicate")
    if geometry.compact:
        t, tw = _radial_nodes(n_radial)
        radial_weight = tw * np.exp(-2.0 * np.log1p(t))
        log_h = -float(N) * np.log1p(t)
    else:
        # mapped Legendre instead of laggauss: stable at any degree, and the
        # weight e^{-Nt} split across the basis factors tempers large nodes
        t, tw = _radial_nodes(max(n_radial, 2 * basis.dim + 8))
        radial_weight = tw
        log_h = -float(N) * t
    if n_angular is None:
        n_angular = max(64, 2 * basis.dim + 16)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    logt = np.log(t)
    section = np.zeros((t.size, n_angular), dtype=complex)
    for j in range(basis.dim):
        mag = np.exp(0.5 * j * logt + 0.5 * log_h + 0.5 * _log_norm_inv(geometry, N, j))
        section += u[j] * mag[:, None] * np.exp(1j * j * theta)[None, :]
    density = np.abs(section) ** 2 * radial_weight[:, None] / n_angular
    z = np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]
    if geometry.compact:
        d = 1.0 + t[:, None]
        coords = ((z + np.conj(z)).real / d, (-1j * (z - np.conj(z))).real / d, (1.0 - t[:, None]) / d)
    else:
        coords = (np.real(z), np.imag(z))
    quad_total = float(np.sum(density))
    if abs(quad_total - 1.0) > 1e-8:
        raise ArithmeticError(
            f"quadrature does not resolve the section: total mass {quad_total!r}"
        )
    mask = np.asarray(region(*coords), dtype=bool)
    mask = np.broadcast_to(mask, density.shape)
    return float(np.sum(density[mask]))


def decay_rate_fit(rows) -> tuple:
    """Least-squares slope of -log(mass) against N.

    Rows are (N, mass) pairs or full report rows (N, eigenvalue, target,
    mass); nonpositive masses are skipped with a warning.  Returns
    (c, r_squared).
    """
    ns, ys = [], []
    for row in rows:
        row = tuple(row)
        if len(row) == 2:
            n, mass = row
        elif len(row) == 4:
            n, _, _, mass = row
        else:
            raise ValueError("rows must be (N, mass) or (N, eigenvalue, target, mass)")
        if mass <= 0:
            warnings.warn(f"skipping nonpositive mass at N={n}", stacklevel=2)
            continue
        ns.append(float(n))
        ys.append(-math.log(mass))
    if len(ns) < 4:
        raise ValueError("need at least 4 positive-mass rows for a rate fit")
    ns = np.array(ns)
    ys = np.array(ys)
    slope, intercept = np.polyfit(ns, ys, 1)
    fit = slope * ns + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


@dataclass
class DecayReport:
    """Forbidden-region masses of near-target eigenvectors across levels."""

    rows: tuple  # (N, eigenvalue, target, mass)
    rate: float
    fit_quality: float


def decay_report(
    geometry: ModelGeometry,
    f,
    target: float,
    region: Region,
    N_list: Sequence[int],
    cutoff: Optional[int] = None,
) -> DecayReport:
    """Eigenvector decay sweep for the multiplier operator of f.

    For each level the eigenvector with eigenvalue nearest the target is
    located and its forbidden-region mass recorded; the exponential rate
    comes from :func:`decay_rate_fit`.
    """
    rows = []
    for N in N_list:
        mat = contravariant_matrix(geometry, f, N, cutoff)
        pairs = eigenpairs(mat)
        ev, vec = min(pairs, key=lambda p: abs(p[0] - target))
        mass = forbidden_mass(geometry, N, vec, region, cutoff)
        rows.append((int(N), float(ev), float(target), float(mass)))
    rate, quality = decay_rate_fit(rows)
    return DecayReport(tuple(rows), rate, quality)
