"""Finite-rank realization of the weighted Hardy spaces and their operators.

The level-N Hardy space has the monomial basis z^j with exact squared
norms (Beta integrals on the sphere, Gaussian moments on the plane),
which each geometry states once as integer moments (``level_moments``).
This module builds dense matrices in the orthonormalized basis for the
two quantization routes:

* multiplier (contravariant) operators u -> projection of f u, with one
  exact moment path, shared by both models, for polynomial f in the
  geometry's coordinates;
* kernel (covariant) operators with kernel N^d 1_U Psi^N sum_k N^{-k} s_k,
  where U is a sharp geodesic cutoff: the same moment path for polynomial
  symbols without a cutoff, otherwise quadrature that splits into radial
  Gauss-Legendre nodes and an angular rule on the exact cutoff interval.

On top of the matrices: a Schur-test norm bound, singular values and
Hermitian eigenpairs from LAPACK (SVD of the matrix itself, ``eigh``; the
tests compare them against a cyclic-Jacobi solver of their own),
forbidden-region masses of eigenvector sections (exact binomial tails for
x3 half-spaces, node-indicator quadrature on one polar section grid for
general regions), and least-squares exponential decay fits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .geometry import ModelGeometry, sphere

if TYPE_CHECKING:  # annotations only: the engine loads only inside bergman_kernel_error
    from .covariant_calculus import CovariantSymbol

__all__ = [
    "OperatorMatrix",
    "DecayReport",
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


def _basis_dim(geometry: ModelGeometry, N: int, cutoff: Optional[int] = None) -> int:
    """Dimension of the level-N monomial basis z^j, with its checks.

    The sphere space is finite (degree <= N); the plane space is
    truncated at degree ``cutoff`` (default N) for matrix work.  The
    exact squared norms are ``geometry.level_moments`` at s = 0.
    """
    if N < 1 or N != int(N):
        raise ValueError("N must be a positive integer")
    if geometry.compact:
        if cutoff is not None:
            raise ValueError("the sphere basis is already finite; cutoff applies to the plane")
        return int(N) + 1
    top = int(N) if cutoff is None else int(cutoff)
    if top < 0:
        raise ValueError("cutoff must be nonnegative")
    return top + 1


@dataclass
class OperatorMatrix:
    """Dense matrix of an operator in the orthonormalized monomial basis."""

    entries: np.ndarray

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
# exact moment path of both quantizations; contravariant (multiplier) matrices


def _moment_entries(geometry: ModelGeometry, polys: Sequence[dict], N: int, dim: int,
                    kernel: bool = False) -> np.ndarray:
    """Entries <e_j, Op e_k> of sum_k N^{-k} polys[k], polynomials in the
    geometry's coordinates (exponent tuples -> coefficients), exactly.

    A monomial expands (``geometry.monomial_expansion``) into integer
    multiples of z^p zbar^q / (1+t)^s, and such a term reaches only the
    band k = j + q - p (the plane is the case s = 0).  Its entry is a
    moment over sqrt(M_N(j) M_N(k)), with M_L the level-L moments of
    ``geometry.level_moments``, and the quantizations differ only in that
    moment: M_{N+s}(j+q) for the multiplier; for the uncut kernel
    N x^p ybar^q (1+x ybar)^{N-s} (N >= s), whose coefficients are
    kappa_L(m) = M_L(0)/M_L(m) at L = N - s, it is
    N kappa_{N-s}(k-q) M_N(j) M_N(k).

    Terms of one band are summed first, and every entry sums Python-int
    numerators over one denominator: the lcm of the denominators of the
    c N^{-k} times the moments' shared one (squared for the kernel).  Int
    true division rounds correctly, so a diagonal entry is the float
    float(Fraction) gives.  An off-diagonal entry divides the rounded sum
    by the rounded square root of the rounded M_N(j) M_N(k); both
    rationals are first scaled by one power of two, chosen so that
    neither leaves the float range, which changes no bit where they were
    normal.
    """
    parts = []
    for k, terms in enumerate(polys):
        for expo, cval in terms.items():
            c = complex(cval)
            cre, cim = Fraction(c.real), Fraction(c.imag)
            if cre or cim:
                parts.append((cre, cim, N**k) + geometry.monomial_expansion(expo))
    if not parts:
        return np.zeros((dim, dim), dtype=complex)
    den = math.lcm(*(c.denominator * nk for cre, cim, nk, _, _ in parts for c in (cre, cim)))
    top_s = max(part[3] for part in parts)
    if kernel:
        # rows[i] is level N - top_s + i, so level N is the row of the norms
        rows, moment_den = geometry.level_moments(N - top_s, top_s, dim - 1)
        norms, diag_den = rows[top_s], den * moment_den
    else:
        # j + q = k + p <= dim - 1 + min(p, q), and min(p, q) is at most the degree
        top_m = dim - 1 + max(sum(e) for terms in polys for e in terms)
        rows, moment_den = geometry.level_moments(N, top_s, top_m)
        norms, diag_den = rows[0], den
    bands = {}  # (s, p, q) -> [re, im] numerators over den
    for cre, cim, nk, s, expansion in parts:
        are = cre.numerator * (den // (cre.denominator * nk))
        aim = cim.numerator * (den // (cim.denominator * nk))
        for (p, q), (xre, xim) in expansion.items():
            coeff = bands.setdefault((s, p, q), [0, 0])
            coeff[0] += are * xre - aim * xim
            coeff[1] += are * xim + aim * xre
    acc = {}  # (j, k) -> [re, im] numerators over sum_den
    for (s, p, q), (tre, tim) in bands.items():
        if kernel:
            # m = k - q = j - p runs over the level N - s row.  The
            # quotient is exact: kappa is the integer C(N-s, m) on the
            # sphere; on the plane kappa M_N(j) = N^{m-j-1} j!/m! with
            # m <= j, an integer over the moments' N^{dim}
            row = rows[top_s - s]
            band, lead = range(p, min(dim, dim + p - q, p + len(row))), N * row[0]
            moments = [lead * norms[j] // row[j - p] * norms[j + q - p] for j in band]
        else:
            band = range(max(0, p - q), min(dim, dim + p - q))
            moments = rows[s][band.start + q:band.stop + q]
        for j, moment in zip(band, moments):
            entry = acc.setdefault((j, j + q - p), [0, 0])
            entry[0] += tre * moment
            entry[1] += tim * moment
    sum_den, norm_den = diag_den * moment_den, moment_den * moment_den
    out = np.zeros((dim, dim), dtype=complex)
    for (j, k), (re, im) in acc.items():
        if re == 0 and im == 0:
            continue
        if j == k:
            scale = diag_den * norms[j]
            out[j, k] = complex(re / scale, im / scale)
            continue
        # M_N(j) M_N(k) 4^e is near 1; the 2^e it puts on the sum cancels
        prod = norms[j] * norms[k]
        e = (norm_den.bit_length() - prod.bit_length()) // 2
        if e >= 0:
            root = math.sqrt((prod << 2 * e) / norm_den)
            out[j, k] = complex((re << e) / sum_den, (im << e) / sum_den) / root
        else:
            root, scale = math.sqrt(prod / (norm_den << -2 * e)), sum_den << -e
            out[j, k] = complex(re / scale, im / scale) / root
    return out


def _radial_grid(geometry: ModelGeometry, N: int, dim: int, n_radial: int):
    """Radial rule of the level-N space, t = |z|^2 on Gauss-Legendre nodes.

    Returns the nodes t, the radial weights of the level-N volume (the
    caller takes the angular mean) and moduli[a, j] = |e_j|_h at node a.
    """
    t, tw = _radial_nodes(n_radial)
    if geometry.compact:
        vol = tw * np.exp(-2.0 * np.log1p(t))
        log_h = -float(N) * np.log1p(t)
    else:
        # laggauss is only stable to degree ~100, so keep the mapped
        # Legendre rule; the weight e^{-Nt} split across the moduli
        # tempers large nodes
        vol, log_h = tw, -float(N) * t
    j = np.arange(dim)[None, :]
    lognorm = _log_norm_inv(geometry, N, dim)[None, :]
    moduli = np.exp(0.5 * j * np.log(t)[:, None] + 0.5 * log_h[:, None] + 0.5 * lognorm)
    return t, vol, moduli


def _section_grid(geometry: ModelGeometry, N: int, dim: int, n_radial: int, n_angular: int):
    """Polar quadrature grid of the level-N space.

    Returns the radial weights and moduli of ``_radial_grid``, the uniform
    angle grid and the real ambient coordinates at the nodes.
    """
    t, vol, moduli = _radial_grid(geometry, N, dim, n_radial)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    z = np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]
    if geometry.compact:
        d = 1.0 + t[:, None]
        coords = (2.0 * z.real / d, 2.0 * z.imag / d, (1.0 - t[:, None]) / d)
    else:
        coords = (z.real, z.imag)
    return vol, theta, coords, moduli


def _quadrature_entries(geometry: ModelGeometry, func: Callable, N: int, dim: int) -> np.ndarray:
    """Multiplier-matrix quadrature for non-polynomial data.

    The angular integral is an exact trapezoid mode projection; the radial
    rule is checked by refinement and insufficiency raises.
    """

    def assemble(n_rad):
        vol, theta, coords, moduli = _section_grid(geometry, N, dim, n_rad, 2 * dim + 16)
        vals = np.broadcast_to(np.asarray(func(*coords), dtype=complex), (vol.size, theta.size))
        # fft index m multiplies e^{-i m theta}; conj(z^j) z^k carries
        # e^{i (k-j) theta}, so entry (j, k) takes mode j - k
        modes = np.fft.fft(vals, axis=1) / theta.size
        # one diagonal d = j - k at a time: gathering modes[:, j - k] for
        # every pair would hold an (n_radial, dim, dim) array
        out = np.empty((dim, dim), dtype=complex)
        weighted = vol[:, None] * moduli
        for d in range(1 - dim, dim):
            j = np.arange(max(d, 0), min(dim, dim + d))
            mode = modes[:, d % theta.size]
            out[j, j - d] = np.einsum("aj,aj,a->j", weighted[:, j], moduli[:, j - d], mode)
        return out

    first = assemble(MASS_RADIAL)
    refined = assemble(int(1.5 * MASS_RADIAL) + 1)
    scale = max(1.0, float(np.max(np.abs(refined))))
    if np.max(np.abs(first - refined)) > 1e-9 * scale:
        raise ArithmeticError(
            "quadrature degree insufficient for the requested multiplier matrix"
        )
    return refined


def _log_norm_inv(geometry: ModelGeometry, N: int, dim: int) -> np.ndarray:
    """log(1 / ||z^j||^2) for the level-N weight, j < dim, from the exact moments."""
    (row,), den = geometry.level_moments(N, 0, dim - 1)
    log_den = math.log(den)
    return np.array([log_den - math.log(m) for m in row])


def contravariant_matrix(
    geometry: ModelGeometry,
    f,
    N: int,
    cutoff: Optional[int] = None,
) -> OperatorMatrix:
    """Matrix of u -> projection(f u) in the orthonormal monomial basis.

    ``f`` is a mapping of exponent tuples over ``geometry.coordinates`` to
    coefficients, checked by ``geometry.check_exponents``: triples
    (e1, e2, e3) over the ambient sphere coordinates, pairs (p, q) over
    plane monomials z^p zbar^q.  Polynomial data goes through one exact
    moment path for both models (``_moment_entries``); a callable f falls
    back to quadrature (``f(x1, x2, x3)`` on the sphere, ``f(re, im)`` on
    the plane).
    """
    dim = _basis_dim(geometry, N, cutoff)
    if callable(f):
        return OperatorMatrix(_quadrature_entries(geometry, f, N, dim))
    return OperatorMatrix(_moment_entries(geometry, [geometry.check_exponents(f)], int(N), dim))


# ---------------------------------------------------------------------------
# covariant (kernel) matrices


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]; shared, so read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _radial_nodes(n_radial: int):
    """Gauss-Legendre nodes for ∫_0^∞ dt via t = w/(1-w)."""
    x, w = _gauss_legendre(n_radial)
    wn = 0.5 * (x + 1.0)
    qw = 0.5 * w
    t = wn / (1.0 - wn)
    return t, qw / (1.0 - wn) ** 2


def _resolve_truncation(symbol: CovariantSymbol, N: int, K: Optional[int]) -> int:
    from .function_spaces import summation_cutoff  # the decay sweep never truncates

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
    """The level-N kernel amplitude N sum_{k <= K} N^{-k} s_k at polarized points.

    N rides the weights, so a constant symbol's amplitude stays one
    broadcast scalar: no array of the grid's shape is multiplied by N.
    """
    weights = {k: float(N) ** (1 - k) for k in range(min(K, symbol.K) + 1)}
    return lambda x, zbar: symbol.value(weights, x, zbar)


# unordered live radial pairs per block of the kernel and mode pass; a
# block's folded rows and its phase (about 0.85 MB at 104 angular nodes)
# stay in L2 through every mode of the cutoff recurrence or the FFT
_PAIR_BLOCK = 256


def _pair_blocks(n_un: int, n_diag: int):
    """Blocks of the unordered live pairs, as ``(own, off)``.

    ``own`` slices the block's pairs.  Pairs from n_diag on lie off the
    diagonal, so the block's rows ``off:`` are the ones with a mirror.
    """
    for lo in range(0, n_un, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, n_un)
        yield slice(lo, hi), min(max(n_diag - lo, 0), hi - lo)


def _int_power(base: np.ndarray, n: int) -> np.ndarray:
    """base**n for an integer n >= 0 by square-and-multiply; base is overwritten."""
    out = None
    while n:
        if n & 1:
            out = base.copy() if out is None else np.multiply(out, base, out=out)
        n >>= 1
        if n:
            base *= base
    return np.ones_like(base) if out is None else out


def _pair_kernel(t_a: np.ndarray, t_b: np.ndarray, phase: np.ndarray, N: int) -> np.ndarray:
    """The kernel (1 + r_a r_b e^{i beta})^N ((1+t_a)(1+t_b))^{-N/2} of pairs of rows.

    Taken as q^N with q = (1 + r_a r_b e^{i beta}) ((1+t_a)(1+t_b))^{-1/2}:
    since |1 + x zbar|^2 <= (1+|x|^2)(1+|z|^2), |q| <= 1 and no power
    overflows.  The square root keeps q within a few ulp; the exp-log form
    of the scale, e^{-(log1p t_a + log1p t_b)/2}, is off by about
    log(1+t) ulp, which the power multiplies by N.
    """
    q = (np.sqrt(t_a) * np.sqrt(t_b))[:, None] * phase
    q += 1.0
    q *= (1.0 / np.sqrt((1.0 + t_a) * (1.0 + t_b)))[:, None]
    return _int_power(q, N)


def _folded_rows(amplitude: Callable, r, t, a, b, off: int, phase, weight, N: int) -> np.ndarray:
    """Weighted kernel times amplitude at the pairs (a, b), mirrors folded in.

    The rows ``off:`` lie off the diagonal.  Their mirrors (b, a) share the
    angular nodes and weights, the kernel and the radial weight w_a w_b,
    so only the amplitude is evaluated at them, and it is added into the
    pair's own before the kernel multiplies both.
    """
    n = a.size
    x = np.empty((2 * n - off, phase.shape[1]), dtype=complex)
    np.multiply(r[a, None], phase, out=x[:n])
    np.multiply(r[b[off:], None], phase[off:], out=x[n:])
    amp = amplitude(x, np.broadcast_to(r[np.concatenate([b, a[off:]]), None], x.shape))
    summed = x[:n]  # x is dead once the amplitude returns
    summed[...] = amp[:n]
    summed[off:] += amp[n:]
    vals = _pair_kernel(t[a], t[b], phase, N)
    vals *= weight
    vals *= summed
    return vals


def _mode_sums(vals: np.ndarray, phase: np.ndarray, out: np.ndarray) -> None:
    """out[:, j] = sum over the angle of vals * phase^j, for every column j.

    The phase recurrence overwrites vals.
    """
    for j in range(out.shape[1]):
        if j:
            vals *= phase
        np.add.reduce(vals, axis=-1, out=out[:, j])


def _sphere_diagonal_quadrature(
    N: int,
    dim: int,
    amplitude: Callable,
    rho: float,
    n_radial: int,
) -> np.ndarray:
    """Diagonal of a rotation-invariant kernel operator at level N.

    The kernel is amplitude(x, zbar) (1+x zbar)^N against the level-N
    weights, restricted to pairs with |1+x zbar|^2 >= rho (1+t1)(1+t2);
    rho <= 0 disables the cutoff.  The angular rule is Gauss-Legendre on
    the exact cutoff interval (max(64, N + 40) nodes), or a uniform
    (trigonometrically exact) grid of max(64, 2N + 8) nodes when the full
    circle survives.

    Only live radial pairs are integrated: a pair whose cutoff arc is
    empty (c0 >= 1) adds exactly zero and is skipped.  The ordered pairs
    (a, b) and (b, a) share the arc, the angular nodes and weights, the
    kernel and the radial weight w_a w_b, so everything but the amplitude
    is formed once per unordered live pair.  The amplitude is evaluated
    at every ordered pair, since a jets-only symbol is swap-symmetric only
    up to its truncation; each mirror's amplitude is added into its
    unordered pair's before the shared kernel multiplies them
    (``_folded_rows``), so the modes are projected once per unordered pair.

    The kernel is an integer power q^N with |q| <= 1 (``_pair_kernel``),
    so it takes about 2 log2(N) complex multiplies and no transcendental.
    One pass walks the unordered live pairs in blocks of ``_PAIR_BLOCK``:
    each block forms its phase, amplitude and kernel, folds its mirrors
    and projects out mode j of the angular integral for all j while the
    block is in cache.  On the per-pair cutoff grids that is the phase
    recurrence vals *= e^{-i beta}; on the shared uniform grid
    beta_k = beta_0 + 2 pi k / n it is a DFT, the block's FFT times
    e^{-i j beta_0}.  One contraction with w_a w_b = (vol |e_j|_h)_a
    (vol |e_j|_h)_b (``_radial_grid``) over the unordered pairs, after the
    pass, gives the diagonal, so the result does not depend on the block
    size.
    """
    t, vol, moduli = _radial_grid(sphere(), N, dim, n_radial)
    r = np.sqrt(t)
    rr = r[:, None] * r[None, :]
    if rho > 0.0:
        n_angular = max(64, N + 40)
        gx, gw = _gauss_legendre(n_angular)
        l1p = np.log1p(t)
        c0 = (rho * np.exp(l1p[:, None] + l1p[None, :]) - 1.0 - rr**2) / (2.0 * rr)
        live = c0 < 1.0
        beta0 = np.arccos(np.clip(c0, -1.0, 1.0))
    else:
        n_angular = max(64, 2 * N + 8)
        grid = 2.0 * np.pi * (np.arange(n_angular) + 0.5) / n_angular - np.pi
        circle = np.exp(1j * grid)
        shift = np.exp(-1j * grid[0] * np.arange(dim))
        live = np.ones(rr.shape, dtype=bool)
    # the unordered live pairs: the diagonal first, then the strict upper
    # triangle, so a block's off-diagonal pairs are its last rows
    diag = np.flatnonzero(np.diag(live))
    up_a, up_b = np.nonzero(np.triu(live, 1))
    ua, ub = np.concatenate([diag, up_a]), np.concatenate([diag, up_b])
    inner = np.empty((ua.size, dim), dtype=complex)
    for own, off in _pair_blocks(ua.size, diag.size):
        a, b = ua[own], ub[own]
        if rho > 0.0:
            phase = np.exp(1j * (beta0[a, b, None] * gx))
            weight = beta0[a, b, None] * gw
        else:
            phase = np.broadcast_to(circle, (a.size, n_angular))
            weight = 2.0 * np.pi / n_angular
        vals = _folded_rows(amplitude, r, t, a, b, off, phase, weight, N)
        if rho > 0.0:
            _mode_sums(vals, np.conjugate(phase, out=phase), inner[own])
        else:
            np.multiply(np.fft.fft(vals, axis=1)[:, :dim], shift, out=inner[own])
    w = vol[:, None] * moduli
    inner *= w[ua]  # in place: one gathered weight at a time
    inner *= w[ub]
    return inner.sum(axis=0) / (2.0 * np.pi)


def _check_cutoff_radius(eps: Optional[float]) -> None:
    """A cutoff radius is positive (inf keeps every pair); NaN or eps <= 0 raises."""
    if eps is not None and not eps > 0.0:
        raise ValueError(f"cutoff radius must be positive, got {eps}")


def cutoff_rho(geometry: ModelGeometry, eps: Optional[float] = None) -> float:
    """Threshold of the sphere pair cutoff at geodesic radius ``eps``.

    Pairs are kept when |1 + x zbar|^2 >= rho (1+|x|^2)(1+|z|^2), with
    rho = cos^2(eps / sqrt 2); eps defaults to CUTOFF_FACTOR times the
    injectivity radius, where rho = (3 + sqrt 5)/8.  Returns 0.0 when
    nothing is cut: the plane, or eps at or beyond the injectivity radius.
    """
    _check_cutoff_radius(eps)
    if not geometry.compact:
        return 0.0
    if eps is None:
        eps = CUTOFF_FACTOR * geometry.injectivity_radius
    if eps < geometry.injectivity_radius:
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
) -> OperatorMatrix:
    """Matrix of the kernel operator N^d 1_U Psi^N sum_k N^{-k} s_k.

    The pair cutoff U keeps geodesic distance <= eps, default
    0.4 * injectivity radius (the plane has no cutoff).  K defaults to
    the largest stored coefficient index compatible with the summation
    cutoff floor(eN/(3R)); an explicit K beyond that floor raises.

    Without a cutoff, every plane symbol (its node-0 jets are the global
    polynomials) and a sphere symbol that keeps its polynomials
    (``symbol.exact``) at N >= their over-power s take the exact moment
    route of ``contravariant_matrix``.  Other sphere symbols must be
    rotation invariant: the matrix is then diagonal, which the quadrature
    exploits.

    Accuracy: without a cutoff the sphere quadrature is exact to ~1e-13.
    With the cutoff the angular interval has a square-root edge, so the
    quadrature converges only as n_radial^{-3/2}: for the projector
    symbol over N = 4..32 the entries sit within about 2.5e-4 of the
    exact 1 - rho^{N+1} at the default 80 radial nodes (at N = 4:
    2.5e-4, 8.8e-5, 3.1e-5 at 80, 160, 320 nodes).
    """
    if symbol.geometry.name != geometry.name:
        raise ValueError("symbol was built for a different geometry")
    K_used = _resolve_truncation(symbol, N, K)
    dim = _basis_dim(geometry, N, cutoff)
    rho = cutoff_rho(geometry, eps)
    if not geometry.compact:
        if eps is not None and math.isfinite(eps):
            raise ValueError("the plane kernel carries no cutoff (infinite injectivity radius)")
        polys = [{(int(p), int(q)): block[p, q] for p, q in zip(*np.nonzero(block))}
                 for block in symbol.coeffs[0, : K_used + 1]]
    else:
        polys = symbol.exact[: K_used + 1] if symbol.exact is not None and rho == 0.0 else None
    if polys is not None:
        s = geometry.over_power * max((sum(e) for terms in polys for e in terms), default=0)
        if N >= s:
            return OperatorMatrix(_moment_entries(geometry, polys, int(N), dim, kernel=True))
    if not symbol.rotation_invariant:
        raise ValueError(
            "sphere kernel matrices need a rotation-invariant symbol; "
            "general symbols are only stored along a meridian"
        )
    amp = _summed_amplitude(symbol, N, K_used)
    diag = _sphere_diagonal_quadrature(N, dim, amp, rho, n_radial)
    return OperatorMatrix(np.diag(diag))


def bergman_gram_defect(geometry: ModelGeometry, N: int) -> float:
    """Distance of the uncut Gram matrix of the exact projector to I.

    On the sphere the reproducing kernel is integrated against all basis
    pairs by the quadrature; the result is the identity up to quadrature
    roundoff, which validates the covariant-matrix scheme at this
    resolution.  On the plane the exact moment route gives exactly I.
    """
    if geometry.compact:
        def amplitude(x, zbar):
            return np.broadcast_to(N + 1.0, np.broadcast(x, zbar).shape)

        diag = _sphere_diagonal_quadrature(N, N + 1, amplitude, 0.0, DEFAULT_RADIAL)
        return float(np.max(np.abs(diag - 1.0)))
    ent = _moment_entries(geometry, [{(0, 0): 1.0}], N, N + 1, kernel=True)
    return float(np.max(np.abs(ent - np.eye(N + 1))))


def bergman_kernel_error(
    geometry: ModelGeometry,
    N: int,
    K: Optional[int] = None,
    eps: Optional[float] = None,
) -> float:
    """Sup over sample pairs of the weighted error of the cutoff kernel.

    Compares N^d 1_{dist<=eps} Psi^N sum_k N^{-k} a_k (a the Bergman
    symbol) against the exact reproducing kernel, both measured in the
    pointwise h-norm at the pair.  Pairs beyond the cutoff are included:
    there the approximation is exactly zero and the error is the exact
    kernel's own weighted size.
    """
    from .covariant_calculus import bergman_symbol  # only this check needs the engine

    _check_cutoff_radius(eps)
    sym = bergman_symbol(geometry, K=4)
    K = _resolve_truncation(sym, N, K)
    if eps is None:
        eps = CUTOFF_FACTOR * geometry.injectivity_radius if geometry.compact else math.inf
    amp = _summed_amplitude(sym, N, K)
    if geometry.compact:
        thetas = np.linspace(0.15, math.pi - 0.15, 9)
        azimuths = np.array([0.0, 0.7, 1.6, 3.0])
        tx = np.tan(thetas / 2.0)
        x = np.repeat(tx, thetas.size * azimuths.size).astype(complex)
        ty = np.tile(np.repeat(np.tan(thetas / 2.0), azimuths.size), thetas.size)
        y = ty * np.exp(1j * np.tile(azimuths, thetas.size * thetas.size))
        logw = -0.5 * N * (np.log1p(np.abs(x) ** 2) + np.log1p(np.abs(y) ** 2))
    else:
        base = np.linspace(0.0, 1.5, 9)
        seps = np.linspace(0.0, 3.0 / math.sqrt(N), 9)
        x = np.repeat(base, seps.size).astype(complex)
        y = (np.repeat(base, seps.size) + np.tile(seps, base.size)).astype(complex)
        logw = -0.5 * N * (np.abs(x) ** 2 + np.abs(y) ** 2)
    dist = geometry.geodesic_distance(x, y)
    inside = dist <= eps
    psi = np.exp(N * geometry.two_phi_tilde(x, np.conj(y)))
    approx = amp(x, np.conj(y)) * psi * np.where(inside, 1.0, 0.0)
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


def eigenpairs(m):
    """Sorted (eigenvalue, unit eigenvector) pairs of a Hermitian matrix.

    LAPACK ``eigh`` diagonalization (the tests check it against cyclic
    Jacobi rotations, an independent route); rejects non-Hermitian
    input and verifies the residual ||A u - lambda u|| against 1e-10 of
    the matrix scale.
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
    if residual > 1e-10 * scale:
        raise ArithmeticError(f"eigen residual {residual:.3e} exceeds 1.0e-10")
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


def _x3_masses(N: int, op: str, value) -> list:
    """Exact masses of the basis sections e_0..e_N in {x3 op value}.

    In w = (1 - x3)/2, |e_j|^2 has density Beta(j+1, N-j+1), whose CDF
    at x is the binomial tail P(Bin(N+1, x) > j).  {x3 >= value} is
    {w <= x} with x = (1 - value)/2, so ">=" takes tails and "<=" heads;
    clamping x to [0, 1] covers the empty and whole regions.  With
    x = p/q every term shares the denominator q^(N+1), so each mass is a
    running sum of integers over it.
    """
    if op not in (">=", "<="):
        raise ValueError(f"unsupported comparison {op!r}")
    x = min(max((1 - Fraction(value)) / 2, Fraction(0)), Fraction(1))
    p, q = x.numerator, x.denominator
    terms = [math.comb(N + 1, k) * p**k * (q - p) ** (N + 1 - k) for k in range(N + 2)]
    if op == ">=":
        sums = list(accumulate(reversed(terms)))[::-1][1:]  # k > j
    else:
        sums = list(accumulate(terms))[:-1]  # k <= j
    return [Fraction(s, q ** (N + 1)) for s in sums]


def forbidden_mass(
    geometry: ModelGeometry,
    N: int,
    u,
    region: Region,
    cutoff: Optional[int] = None,
) -> float:
    """Weighted mass ∫_V |u(z)|^2_h dm of a unit section over a region.

    ``u`` holds coefficients in the orthonormal basis.  Regions: None for
    the whole space, a string for :func:`parse_region`, a structured
    ("x3", op, value) triple (exact binomial-tail masses), or a
    predicate on the ambient coordinates evaluated on the nodes of
    :func:`_section_grid`.
    The quadrature path recomputes the total mass and raises when it
    strays from 1 by more than 1e-8.
    """
    dim = _basis_dim(geometry, N, cutoff)
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim,):
        raise ValueError(f"coefficient vector must have length {dim}")
    if isinstance(region, str):
        region = parse_region(region)
    total = float(np.sum(np.abs(u) ** 2))
    if abs(total - 1.0) > 1e-8:
        raise ArithmeticError(f"section is not normalized: total mass {total!r}")
    if isinstance(region, tuple):
        if not geometry.compact:
            raise ValueError("x3 half-spaces live on the sphere")
        mass = 0.0
        for uj, mj in zip(u, _x3_masses(N, region[1], region[2])):
            mass += abs(uj) ** 2 * float(mj)  # float(Fraction) rounds correctly
        return float(mass)
    if region is None:
        return total
    if not callable(region):
        raise ValueError("region must be None, a string, an (x3, op, value) triple, or a predicate")
    # the plane's Gaussian weight needs enough radial nodes for the top degree
    n_rad = MASS_RADIAL if geometry.compact else max(MASS_RADIAL, 2 * dim + 8)
    n_angular = max(64, 2 * dim + 16)
    vol, theta, coords, moduli = _section_grid(geometry, N, dim, n_rad, n_angular)
    section = (moduli * u) @ np.exp(1j * np.outer(np.arange(dim), theta))
    density = np.abs(section) ** 2 * vol[:, None] / n_angular
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

    At each level the eigenvector whose eigenvalue is nearest the target
    gives one row (N, eigenvalue, target, forbidden-region mass); the
    exponential rate comes from :func:`decay_rate_fit`.
    """
    rows = []
    for N in N_list:
        mat = contravariant_matrix(geometry, f, N, cutoff)
        ev, vec = min(eigenpairs(mat), key=lambda p: abs(p[0] - target))
        mass = forbidden_mass(geometry, N, vec, region, cutoff)
        rows.append((int(N), float(ev), float(target), float(mass)))
    rate, quality = decay_rate_fit(rows)
    return DecayReport(tuple(rows), rate, quality)
