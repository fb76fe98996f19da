"""Tests for finite-level operator matrices, norms, and decay reports."""

import functools
import itertools
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from toeplitz_forge import covariant_calculus as cc
from toeplitz_forge import geometry
from toeplitz_forge import quantization_spectral as qs

SPH = geometry.sphere()
PLANE = geometry.bargmann()


# ---------------------------------------------------------------------------
# bases and matrix containers


def test_basis_norms_sphere_exact():
    assert qs._basis_dim(SPH, 2) == 3
    norms = [SPH.norm_sq_monomial(2, j) for j in range(3)]
    assert norms == [Fraction(1, 3), Fraction(1, 6), Fraction(1, 3)]


def test_basis_norms_plane_default_and_cutoff():
    assert qs._basis_dim(PLANE, 4) == 5
    assert PLANE.norm_sq_monomial(4, 0) == Fraction(1, 4)
    assert PLANE.norm_sq_monomial(4, 2) == Fraction(2, 64)
    assert qs._basis_dim(PLANE, 4, cutoff=7) == 8


def test_basis_norms_rejections():
    with pytest.raises(ValueError):
        qs._basis_dim(SPH, 0)
    with pytest.raises(ValueError):
        qs._basis_dim(SPH, 4, cutoff=6)
    with pytest.raises(ValueError):
        qs._basis_dim(PLANE, 4, cutoff=-1)


def test_operator_matrix_container():
    m = qs.OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert m.dim == 2
    assert m.hermitian_defect() == pytest.approx(1.0)
    assert np.asarray(m).shape == (2, 2)
    with pytest.raises(ValueError):
        qs.OperatorMatrix(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# contravariant (multiplier) matrices


def test_multiplier_x3_is_diagonal_with_known_spectrum():
    m = qs.contravariant_matrix(SPH, {(0, 0, 1): 1.0}, 2)
    assert np.allclose(m.entries, np.diag([0.5, 0.0, -0.5]), atol=1e-15)


def test_multiplier_x1_level_one():
    m = qs.contravariant_matrix(SPH, {(1, 0, 0): 1.0}, 1)
    expected = np.array([[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]])
    assert np.allclose(m.entries, expected, atol=1e-15)
    evals = [ev for ev, _ in qs.eigenpairs(m)]
    assert evals == pytest.approx([-1.0 / 3.0, 1.0 / 3.0], abs=1e-14)


@pytest.mark.parametrize("geom", [SPH, PLANE])
def test_multiplier_of_one_is_identity(geom):
    exponents = (0, 0, 0) if geom.compact else (0, 0)
    m = qs.contravariant_matrix(geom, {exponents: 1.0}, 6)
    assert np.array_equal(m.entries, np.eye(m.dim))


def test_multiplier_plane_radial_diagonal():
    # z zbar multiplies e_j by (j + 1) / N
    m = qs.contravariant_matrix(PLANE, {(1, 1): 1.0}, 5)
    diag = np.diag(m.entries).real
    assert np.allclose(diag, (np.arange(6) + 1) / 5.0, atol=1e-10)
    assert np.max(np.abs(m.entries - np.diag(diag))) < 1e-15


def test_multiplier_real_symbol_is_hermitian_and_contracting():
    f = {(1, 0, 0): 1.0, (0, 1, 1): 0.3}
    m = qs.contravariant_matrix(SPH, f, 6)
    assert m.hermitian_defect() < 1e-12
    # positivity of the quantization: spectrum inside [min f, max f]
    sup = 1.0 + 0.3 * 0.5
    for ev, _ in qs.eigenpairs(m):
        assert abs(ev) <= sup + 1e-12


def test_multiplier_spectrum_formula_x3():
    N = 6
    m = qs.contravariant_matrix(SPH, {(0, 0, 1): 1.0}, N)
    evals = np.array([ev for ev, _ in qs.eigenpairs(m)])
    expected = np.array(sorted((N - 2 * j) / (N + 2) for j in range(N + 1)))
    assert np.allclose(evals, expected, atol=1e-13)


def test_multiplier_quadrature_matches_exact_sphere():
    exact = qs.contravariant_matrix(SPH, {(0, 0, 1): 1.0}, 6)
    quad = qs.contravariant_matrix(SPH, lambda x1, x2, x3: x3, 6)
    assert np.max(np.abs(exact.entries - quad.entries)) < 1e-8


def test_multiplier_quadrature_matches_exact_plane():
    exact = qs.contravariant_matrix(PLANE, {(1, 1): 1.0}, 5)
    quad = qs.contravariant_matrix(PLANE, lambda re, im: re * re + im * im, 5)
    assert np.max(np.abs(exact.entries - quad.entries)) < 1e-8


def test_multiplier_rejects_bad_exponents():
    with pytest.raises(ValueError):
        qs.contravariant_matrix(SPH, {(1, 0): 1.0}, 4)
    with pytest.raises(ValueError):
        qs.contravariant_matrix(PLANE, {(1, 0, 0): 1.0}, 4)
    with pytest.raises(ValueError):
        qs.contravariant_matrix(SPH, {(1, 0, -1): 1.0}, 4)


def _bad_key(geom, kind):
    """One invalid exponent key of the given kind over geom's coordinates."""
    width = len(geom.coordinates)
    return {
        "negative": (1,) + (0,) * (width - 2) + (-1,),  # (1, 0, -1) and (1, -1)
        "fractional": (1.5,) + (0,) * (width - 1),
        "integral-float": (1.0,) + (0,) * (width - 1),
        "short": (0,) * (width - 1),
        "long": (0,) * (width + 1),
    }[kind]


@pytest.mark.parametrize("geom", [SPH, PLANE], ids=["sphere", "plane"])
@pytest.mark.parametrize("kind", ["negative", "fractional", "integral-float", "short", "long"])
@pytest.mark.parametrize("entry", [
    lambda geom, key: cc.symbol_from_poly(geom, [{key: 1.0}]),
    lambda geom, key: qs.contravariant_matrix(geom, {key: 1.0}, 4),
], ids=["symbol_from_poly", "contravariant_matrix"])
def test_polynomial_entry_points_reject_invalid_exponents(geom, kind, entry):
    # both polynomial entry points read one check: a negative exponent is
    # not silently a constant or a reciprocal, and 1.0 is not an exponent
    with pytest.raises(ValueError, match="non-negative integer"):
        entry(geom, _bad_key(geom, kind))


def _fraction_moments(geom, terms, N, dim):
    """Exact entry sums and norms of a multiplier matrix, as Fractions.

    Every entry (j, k) accumulates Fraction products of the coefficient,
    the expansion coefficient and the moment M_{N+s}(j+q), taken from
    math.factorial rather than the geometry: (j+q)! (N+s-j-q)! / (N+s+1)!
    on the sphere, (j+q)! / N^{j+q+1} on the plane, whose monomial z^p zbar^q
    expands to itself with s = 0.  Returns ({(j, k): [re, im]}, norms).
    """
    fact = functools.cache(math.factorial)

    @functools.cache
    def moment(s, m):
        if geom.compact:
            return Fraction(fact(m) * fact(N + s - m), fact(N + s + 1))
        return Fraction(fact(m), N ** (m + 1))

    acc = {}
    for expo, cval in sorted(terms.items()):
        c = complex(cval)
        cre, cim = Fraction(c.real), Fraction(c.imag)
        if cre == 0 and cim == 0:
            continue
        s, expansion = geom.monomial_expansion(expo) if geom.compact else (0, {expo: (1, 0)})
        for (p, q), (xre, xim) in expansion.items():
            tre = cre * xre - cim * xim
            tim = cre * xim + cim * xre
            for j in range(dim):
                k = j + q - p
                if 0 <= k < dim:
                    mom = moment(s, j + q)
                    entry = acc.setdefault((j, k), [Fraction(0), Fraction(0)])
                    entry[0] += tre * mom
                    entry[1] += tim * mom
    return acc, [moment(0, j) for j in range(dim)]


def _fraction_moment_entries(geom, terms, N, dim):
    """The per-entry Fraction loop _moment_entries must match bit for bit:
    each entry rounded once by float(Fraction), the off-diagonal norms once more."""
    acc, norms = _fraction_moments(geom, terms, N, dim)
    out = np.zeros((dim, dim), dtype=complex)
    for (j, k), (re, im) in acc.items():
        if re == 0 and im == 0:
            continue
        if j == k:
            out[j, k] = complex(float(re / norms[j]), float(im / norms[j]))
        else:
            out[j, k] = complex(float(re), float(im)) / math.sqrt(float(norms[j] * norms[k]))
    return out


def _check_moments_against_fraction_loop(geom, complex_key, zero_key):
    # the exact path holds every entry over one integer denominator; it
    # must round each entry as float(Fraction) does.  Terms of degrees 0-3
    # together exercise the lift of each moment to the top degree; the
    # plane's truncation is varied past N
    width = len(geom.coordinates)
    monomials = [e for e in itertools.product(range(4), repeat=width) if sum(e) <= 3]
    rng = np.random.default_rng(20)
    for N in range(1, 71):
        terms = {}
        for i in rng.choice(len(monomials), size=5, replace=False):
            re, im = rng.uniform(-1.0, 1.0, 2)
            terms[monomials[i]] = complex(re, im) if rng.random() < 0.5 else float(re)
        terms[complex_key] = complex(*rng.uniform(-1.0, 1.0, 2))
        terms[zero_key] = 0.0  # a zero coefficient
        cutoff = None if geom.compact or N % 2 else N + N % 4 - 1
        got = qs.contravariant_matrix(geom, terms, N, cutoff).entries
        want = _fraction_moment_entries(geom, terms, N, got.shape[0])
        assert np.array_equal(got, want), (N, terms)


def test_multiplier_moments_match_fraction_loop():
    _check_moments_against_fraction_loop(SPH, (0, 1, 0), (0, 0, 1))  # an x2 term


def test_plane_multiplier_moments_match_fraction_loop():
    _check_moments_against_fraction_loop(PLANE, (0, 1), (1, 1))  # a zbar term


@pytest.mark.parametrize("N, cutoff", [(5, None), (16, None), (8, 12)])
@pytest.mark.parametrize("p, q", [(1, 0), (0, 1), (2, 1), (0, 3)])
def test_plane_exact_matches_quadrature(N, cutoff, p, q):
    # z^p zbar^q maps e_k into e_j with j + q = k + p: below the diagonal for p > q
    exact = qs.contravariant_matrix(PLANE, {(p, q): 1.0}, N, cutoff)
    quad = qs.contravariant_matrix(PLANE, lambda re, im: (re + 1j * im) ** p * (re - 1j * im) ** q,
                                   N, cutoff)
    assert np.max(np.abs(exact.entries - quad.entries)) < 1e-8


def test_plane_multiplier_entries_past_float_range():
    # far past N the norms M_N(m) = m! / N^{m+1} exceed the float range;
    # x = z + zbar still moves e_j to sqrt((j+1)/N) e_{j+1} and back
    N, cutoff = 2, 300
    m = qs.contravariant_matrix(PLANE, {(1, 0): 1.0, (0, 1): 1.0}, N, cutoff).entries
    with localcontext() as ctx:
        ctx.prec = 40
        want = np.array([float((Decimal(j + 1) / N).sqrt()) for j in range(cutoff)])
    assert np.max(np.abs(np.diag(m, -1) - want) / want) <= 2.0**-51
    assert np.array_equal(m, m.T) and np.count_nonzero(m) == 2 * cutoff


@pytest.mark.parametrize("N", [600, 1000])
def test_sphere_multiplier_entries_past_float_range(N):
    # the norms M_N(j) M_N(k) fall below the float range from N ~ 515 on,
    # where the entries themselves are of order one
    terms = {(1, 0, 0): 1.0, (0, 1, 1): 0.3, (0, 0, 2): -0.5}
    m = qs.contravariant_matrix(SPH, terms, N)
    assert m.hermitian_defect() == 0.0
    acc, norms = _fraction_moments(SPH, terms, N, N + 1)
    got = m.entries
    assert np.count_nonzero(got) == sum(1 for (re, im) in acc.values() if re or im)
    with localcontext() as ctx:
        ctx.prec = 50
        for (j, k), parts in acc.items():
            scale = norms[j] * norms[k]
            root = (Decimal(scale.numerator) / Decimal(scale.denominator)).sqrt()
            for value, want in zip((got[j, k].real, got[j, k].imag), parts):
                want = float(Decimal(want.numerator) / Decimal(want.denominator) / root)
                assert abs(value - want) <= 2 * math.ulp(want), (j, k, value, want)


# ---------------------------------------------------------------------------
# covariant (kernel) matrices


def test_covariant_unit_plane_is_identity():
    sym = cc.unit_covariant(PLANE)
    m = qs.covariant_matrix(PLANE, sym, 7)
    assert np.max(np.abs(m.entries - np.eye(m.dim))) < 1e-14


def test_covariant_zero_symbol():
    sym = cc.symbol_from_poly(SPH, [{(0, 0, 0): 0.0}], order=4)
    m = qs.covariant_matrix(SPH, sym, 8)
    assert np.max(np.abs(m.entries)) < 1e-14


def test_covariant_full_support_unit_sphere():
    # without a cutoff the unit amplitude integrates exactly to N/(N+1)
    sym = cc.symbol_from_poly(SPH, [{(0, 0, 0): 1.0}], order=4)
    m = qs.covariant_matrix(SPH, sym, 8, eps=np.inf)
    diag = np.diag(m.entries).real
    assert np.max(np.abs(diag - 8.0 / 9.0)) < 1e-12


def test_covariant_scaled_unit_min_singular():
    sym = cc.symbol_from_poly(SPH, [{(0, 0, 0): 2.0}], order=6)
    m = qs.covariant_matrix(SPH, sym, 16)
    assert qs.invertibility_check(m) == pytest.approx(2 * 16 / 17, abs=5e-3)


def test_covariant_bergman_defect_decays_exponentially():
    sym = cc.bergman_symbol(SPH, K=4)
    levels = [4, 8, 12, 16]
    defects = []
    for N in levels:
        m = qs.covariant_matrix(SPH, sym, N)
        defects.append(qs.operator_norm(np.asarray(m) - np.eye(m.dim)))
    assert defects[-1] < 1e-3
    slope, _ = np.polyfit(levels, -np.log(defects), 1)
    fit = np.polyval(np.polyfit(levels, np.log(defects), 1), levels)
    ss_res = np.sum((np.log(defects) - fit) ** 2)
    ss_tot = np.sum((np.log(defects) - np.mean(np.log(defects))) ** 2)
    assert slope > 0.2
    assert 1 - ss_res / ss_tot > 0.95


def test_covariant_bergman_invertible_mid_levels():
    sym = cc.bergman_symbol(SPH, K=4)
    m8 = qs.covariant_matrix(SPH, sym, 8)
    assert 0.95 < qs.invertibility_check(m8) < 1.0
    m16 = qs.covariant_matrix(SPH, sym, 16)
    assert 0.995 < qs.invertibility_check(m16) < 1.0


def test_covariant_rejections():
    sph_sym = cc.bergman_symbol(SPH, K=2)
    with pytest.raises(ValueError):
        qs.covariant_matrix(PLANE, sph_sym, 8)
    with pytest.raises(ValueError):
        qs.covariant_matrix(SPH, sph_sym, 8, K=5)  # above floor(eN/(3R)) = 3
    tilted = cc.symbol_from_poly(SPH, [{(1, 0, 0): 1.0}], order=4)
    with pytest.raises(ValueError):
        qs.covariant_matrix(SPH, tilted, 8)
    plane_sym = cc.unit_covariant(PLANE)
    with pytest.raises(ValueError):
        qs.covariant_matrix(PLANE, plane_sym, 8, eps=1.0)


def test_covariant_over_power_above_level_stays_on_quadrature():
    # x3^3 polarizes with (1 + x ybar)^{-3}, so at N = 2 the kernel is no
    # polynomial: the uncut quadrature runs, and non-invariant symbols
    # are still refused there
    N = 2
    x3_cubed = cc.symbol_from_poly(SPH, [{(0, 0, 3): 1.0}], order=4)
    got = qs.covariant_matrix(SPH, x3_cubed, N, eps=np.inf).entries
    amp = qs._summed_amplitude(x3_cubed, N, 0)
    want = qs._sphere_diagonal_quadrature(N, amp, 0.0, qs.DEFAULT_RADIAL)
    assert np.array_equal(got, np.diag(want))
    with pytest.raises(ValueError, match="rotation-invariant"):
        qs.covariant_matrix(SPH, cc.symbol_from_poly(SPH, [{(1, 0, 2): 1.0}], order=4), N,
                            eps=np.inf)


def _fraction_kernel_sums(geom, polys, N, dim):
    """Exact kernel-matrix sums of sum_l N^{-l} polys[l], as Fractions.

    Entry (j, k) of the uncut kernel matrix is S(j, k) sqrt(M_N(j) M_N(k)),
    where S sums c N^{1-l} kappa(m) over the terms c x^p ybar^q (1+x ybar)^{-s}
    of polys[l] with k = j + q - p and m = k - q.  kappa and M_N come from math.comb and
    math.factorial, not the geometry: kappa(m) = C(N-s, m) and
    M_N(j) = j! (N-j)! / (N+1)! on the sphere, kappa(m) = N^m / m! and
    M_N(j) = j! / N^{j+1} on the plane.  Returns ({(j, k): [re, im]}, norms).
    """
    fact = math.factorial

    def kappa(s, m):
        if geom.compact:
            return Fraction(math.comb(N - s, m))
        return Fraction(N**m, fact(m))

    def norm(j):
        if geom.compact:
            return Fraction(fact(j) * fact(N - j), fact(N + 1))
        return Fraction(fact(j), N ** (j + 1))

    acc = {}
    for level, terms in enumerate(polys):
        weight = Fraction(N) ** (1 - level)
        for expo, cval in terms.items():
            c = complex(cval)
            cre, cim = Fraction(c.real) * weight, Fraction(c.imag) * weight
            s, expansion = geom.monomial_expansion(expo) if geom.compact else (0, {expo: (1, 0)})
            for (p, q), (xre, xim) in expansion.items():
                for j in range(p, dim):
                    k = j + q - p
                    if k < dim:
                        kap = kappa(s, k - q)
                        entry = acc.setdefault((j, k), [Fraction(0), Fraction(0)])
                        entry[0] += (cre * xre - cim * xim) * kap
                        entry[1] += (cre * xim + cim * xre) * kap
    return acc, [norm(j) for j in range(dim)]


def _check_kernel_against_fraction_oracle(got, acc, norms):
    """Diagonals equal float(Fraction); off-diagonals lie within 2 ulp of
    the 50-digit Decimal value."""
    assert np.count_nonzero(got) == sum(1 for (re, im) in acc.values() if re or im)
    with localcontext() as ctx:
        ctx.prec = 50
        for (j, k), parts in acc.items():
            if j == k:
                want = complex(float(parts[0] * norms[j]), float(parts[1] * norms[j]))
                assert got[j, k] == want, (j, got[j, k], want)
                continue
            scale = norms[j] * norms[k]
            root = (Decimal(scale.numerator) / Decimal(scale.denominator)).sqrt()
            for value, part in zip((got[j, k].real, got[j, k].imag), parts):
                want = float(Decimal(part.numerator) / Decimal(part.denominator) * root)
                assert abs(value - want) <= 2 * math.ulp(want), (j, k, value, want)


@pytest.mark.parametrize("geom", [SPH, PLANE], ids=["sphere", "plane"])
def test_kernel_moments_match_fraction_oracle(geom):
    # random polynomials of degree <= 3 in up to three powers of 1/N, with
    # complex, real and zero coefficients; the plane's truncation varies
    width = len(geom.coordinates)
    monomials = [e for e in itertools.product(range(4), repeat=width) if sum(e) <= 3]
    rng = np.random.default_rng(26)
    for N in range(1, 21):
        degree = min(3, N) if geom.compact else 3
        usable = [e for e in monomials if sum(e) <= degree]
        polys = []
        for _ in range(3):
            terms = {}
            for i in rng.choice(len(usable), size=3, replace=False):
                re, im = rng.uniform(-1.0, 1.0, 2)
                terms[usable[i]] = complex(re, im) if rng.random() < 0.5 else float(re)
            terms[usable[0]] = 0.0
            polys.append(terms)
        sym = cc.symbol_from_poly(geom, polys, order=4)
        cutoff = None if geom.compact or N % 2 else N + 3
        got = qs.covariant_matrix(geom, sym, N, eps=np.inf, cutoff=cutoff).entries
        K = qs._resolve_truncation(sym, N, None)
        acc, norms = _fraction_kernel_sums(geom, polys[: K + 1], N, got.shape[0])
        _check_kernel_against_fraction_oracle(got, acc, norms)


def _plane_gaussian_entries(blocks, N, K, dim):
    """The plane's lgamma route to covariant matrices, kept as an oracle.

    Exact Gaussian-moment matrix of the plane kernel N e^{N x ybar} s(x, ybar):
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


@pytest.mark.parametrize("N, cutoff", [(1, None), (8, None), (16, 21), (33, None), (64, None),
                                       (64, 70)])
def test_plane_kernel_matches_lgamma_route(N, cutoff):
    # the lgamma route sits within 5.4e-14 of the exact one at N = 64
    symbols = [cc.bergman_symbol(PLANE, K=4)] + [
        cc.symbol_from_poly(PLANE, [{(p, q): 1.0}, {(1, 1): 0.25}], order=4)
        for p, q in [(0, 0), (1, 0), (0, 1), (2, 1), (0, 3)]
    ]
    for sym in symbols:
        got = qs.covariant_matrix(PLANE, sym, N, cutoff=cutoff)
        K = qs._resolve_truncation(sym, N, None)
        want = _plane_gaussian_entries(list(sym.coeffs[0]), N, K, got.dim)
        assert np.max(np.abs(got.entries - want)) < 1e-13


@pytest.mark.parametrize("N", [4, 16, 40, 64])
def test_sphere_kernel_matches_uncut_quadrature(N):
    # on invariant symbols the uncut quadrature is the other route; the
    # exact route's diagonal is float(Fraction), so the quadrature carries
    # the whole gap (5.5e-14 at most)
    for polys in ([{(0, 0, 1): 1.0}], [{(0, 0, 2): 1.0, (0, 0, 0): 0.5}], [{(0, 0, 3): 1.0}]):
        sym = cc.symbol_from_poly(SPH, polys, order=4)
        got = qs.covariant_matrix(SPH, sym, N, eps=np.inf).entries
        acc, norms = _fraction_kernel_sums(SPH, polys, N, N + 1)
        want = np.array([float(acc[j, j][0] * norms[j]) for j in range(N + 1)])
        assert np.array_equal(got, np.diag(want.astype(complex)))
        amp = qs._summed_amplitude(sym, N, 0)
        quad = qs._sphere_diagonal_quadrature(N, amp, 0.0, qs.DEFAULT_RADIAL)
        assert np.max(np.abs(quad - want)) < 1e-13, polys


@pytest.mark.parametrize("N", [1, 2, 12, 33, 64])
def test_sphere_coordinate_kernels_close_the_spin_algebra(N):
    # Op(x1), Op(x2), which the quadrature refuses, and Op(x3) are
    # Hermitian, satisfy [Op(x2), Op(x3)] = -2i/(N+1) Op(x1), and x1 is a
    # rotation of x3, so their spectra agree
    ops = [qs.covariant_matrix(SPH, cc.symbol_from_poly(SPH, [{e: 1.0}], order=4), N,
                               eps=np.inf).entries
           for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    for op in ops:
        assert np.max(np.abs(op - op.conj().T)) <= 1e-14
    commutator = ops[1] @ ops[2] - ops[2] @ ops[1]
    assert np.max(np.abs(commutator + 2j / (N + 1) * ops[0])) <= 1e-14
    spectrum = [ev for ev, _ in qs.eigenpairs(ops[0])]
    assert np.max(np.abs(spectrum - np.sort(np.diag(ops[2]).real))) <= 1e-14


@pytest.mark.parametrize("eps", [math.nan, 0.0, -0.5])
@pytest.mark.parametrize("call", [
    lambda eps: qs.cutoff_rho(SPH, eps),
    lambda eps: qs.covariant_matrix(SPH, cc.bergman_symbol(SPH, K=4), 8, eps=eps),
    lambda eps: qs.covariant_matrix(PLANE, cc.bergman_symbol(PLANE, K=4), 8, eps=eps),
    lambda eps: qs.bergman_kernel_error(SPH, 8, eps=eps),
    lambda eps: qs.bergman_kernel_error(PLANE, 8, eps=eps),
], ids=["cutoff_rho", "covariant_matrix-sphere", "covariant_matrix-plane",
        "bergman_kernel_error-sphere", "bergman_kernel_error-plane"])
def test_cutoff_radius_must_be_positive(call, eps):
    # a squared cosine would read -eps as eps, NaN as no cutoff, and 0 as
    # a sliver of the diagonal instead of the zero operator
    with pytest.raises(ValueError, match="cutoff radius"):
        call(eps)


def _per_mode_diagonal(N, amplitude, rho, n_radial, n_angular):
    """The per-mode loop that _sphere_diagonal_quadrature vectorizes.

    Each mode j is projected out separately with e^{-i j beta} over the
    whole angular tensor, and contracted with its own radial weights.
    """
    t, tw = qs._radial_nodes(n_radial)
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
        bweight = np.full_like(betas, 2.0 * np.pi / n_angular)
    phase = np.exp(1j * betas)
    x = r[:, None, None] * phase
    zbar = np.broadcast_to(r[None, :, None], betas.shape)
    kern = np.exp(
        N * np.log(1.0 + rr[:, :, None] * phase)
        - 0.5 * N * (l1p[:, None, None] + l1p[None, :, None])
    )
    vals = bweight * kern * amplitude(x, zbar)
    diag = np.zeros(N + 1, dtype=complex)
    for j in range(N + 1):
        inner = np.sum(vals * np.exp(-1j * j * betas), axis=-1)
        lognj = math.log(math.factorial(N + 1) // (math.factorial(j) * math.factorial(N - j)))
        w = tw * np.exp(0.5 * j * logt - (0.5 * N + 2.0) * l1p + 0.5 * lognj)
        diag[j] = (w @ inner @ w) / (2.0 * np.pi)
    return diag


@pytest.mark.parametrize("N", [1, 4, 8, 33, 64])
def test_sphere_quadrature_matches_per_mode_loop(N):
    amplitudes = {
        "constant": lambda x, zbar: (N + 1.0) * np.ones(np.broadcast(x, zbar).shape),
        # a function of x zbar alone is rotation invariant; |w| < 1 keeps it bounded
        "radial": lambda x, zbar: 1.0 + 0.5 * np.cos(x * zbar / (1.0 + np.abs(x * zbar))),
        # not a function of x zbar, so not symmetric under swapping the radial
        # pair: guards against mirroring the amplitude across (a, b) and (b, a)
        "asymmetric": lambda x, zbar: 1 + 0.3 * x + 0.1 * zbar**2,
    }
    rho = qs.cutoff_rho(SPH)
    for name, amp in amplitudes.items():
        for cut, n_angular in ((rho, max(64, N + 40)), (0.0, max(64, 2 * N + 8))):
            args = (N, amp, cut, qs.DEFAULT_RADIAL)
            want = _per_mode_diagonal(*args, n_angular)
            got = qs._sphere_diagonal_quadrature(*args)
            assert np.max(np.abs(got - want)) < 1e-13, (name, cut)


def test_gauss_legendre_cache():
    x, w = qs._gauss_legendre(72)
    want_x, want_w = np.polynomial.legendre.leggauss(72)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    assert not x.flags.writeable and not w.flags.writeable
    again = qs._gauss_legendre(72)
    assert again[0] is x and again[1] is w
    # the CLI's thread pools share the cache: concurrent first calls all
    # get correct, read-only nodes
    qs._gauss_legendre.cache_clear()
    want_x, want_w = np.polynomial.legendre.leggauss(96)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda _: qs._gauss_legendre(96), range(32), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 32
    for x, w in got:
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
        assert not x.flags.writeable and not w.flags.writeable


def test_sphere_quadrature_skips_empty_arcs():
    N, n_angular = 64, 104
    rho = qs.cutoff_rho(SPH)
    seen = []

    def amp(x, zbar):
        seen.append(np.broadcast(x, zbar).size)
        return (N + 1.0) * np.ones(np.broadcast(x, zbar).shape)

    qs._sphere_diagonal_quadrature(N, amp, rho, qs.DEFAULT_RADIAL)
    # ordered radial pairs whose cutoff arc is non-empty
    t, _ = qs._radial_nodes(qs.DEFAULT_RADIAL)
    l1p = np.log1p(t)
    rr = np.sqrt(t)[:, None] * np.sqrt(t)[None, :]
    c0 = (rho * np.exp(l1p[:, None] + l1p[None, :]) - 1.0 - rr**2) / (2.0 * rr)
    live = np.count_nonzero(c0 < 1.0)
    assert 0 < live < qs.DEFAULT_RADIAL**2
    assert sum(seen) == n_angular * live


@pytest.mark.parametrize("cut", [True, False])
def test_sphere_quadrature_peak_memory(cut):
    N = 64
    rho = qs.cutoff_rho(SPH) if cut else 0.0
    n_angular = N + 40 if cut else 2 * N + 8
    amp = lambda x, zbar: (N + 1.0) * np.ones(np.broadcast(x, zbar).shape)
    args = (N, amp, rho, qs.DEFAULT_RADIAL)
    qs._sphere_diagonal_quadrature(*args)  # fill the node caches
    tracemalloc.start()
    try:
        qs._sphere_diagonal_quadrature(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a full complex (n_radial, n_radial, n_angular) tensor.  The all-pairs
    # quadrature peaked at 3.16 of them with the cutoff and 2.52 without,
    # the ordered-pair one at 1.49 and 1.52, the unordered-pair blocks at
    # 0.53 and 0.77 (the uncut rows of every pair held for one matmul
    # after the pass), and with each uncut block projected by its own FFT
    # at 0.53 and 0.50.  An ordered-pair buffer would add 0.65 and 1.0, an
    # (n_radial, n_radial, dim) tensor 0.63 with the cutoff
    full = qs.DEFAULT_RADIAL**2 * n_angular * 16
    assert peak < 0.6 * full


def test_multiplier_quadrature_peak_memory():
    N = 64
    f = lambda x1, x2, x3: x3 + 0.3 * x1**2
    qs.contravariant_matrix(SPH, f, N)  # fill the caches
    tracemalloc.start()
    try:
        qs.contravariant_matrix(SPH, f, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the refined pass gathered the FFT modes of every entry (j, k) into a
    # complex (n_radial, dim, dim) array, 18.7 MB of peak in all; one
    # diagonal at a time peaks at 2.6 MB
    gathered = (int(1.5 * qs.MASS_RADIAL) + 1) * (N + 1) ** 2 * 16
    assert peak < 0.25 * gathered


def test_bergman_amplitude_stays_one_broadcast_scalar():
    # the Bergman symbol is constant, so its summed amplitude must reach the
    # quadrature as one scalar broadcast over the grid (the strides below).
    # The peak is 5.2 MB; an ordered-pair buffer (6.9 MB) or an
    # (n_radial, n_radial, dim) tensor (6.7 MB) would lift it past the bound
    N = 64
    a = cc.bergman_symbol(SPH, K=4)
    qs.covariant_matrix(SPH, a, N)  # fill the caches
    tracemalloc.start()
    try:
        qs.covariant_matrix(SPH, a, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5e6
    x = np.ones((5, 7), dtype=complex)
    amp = qs._summed_amplitude(a, N, 4)(x, np.broadcast_to(np.ones((5, 1)), x.shape))
    assert amp.shape == x.shape and all(stride == 0 for stride in amp.strides)


def _live_phase(rho, n_angular):
    """The unordered live pairs of the default grid, in the quadrature's order.

    Returns (t, ua, ub, n_diag, phase): the diagonal pairs first, then the
    strict upper triangle, and e^{i beta} at each pair's angular nodes.
    """
    t, _ = qs._radial_nodes(qs.DEFAULT_RADIAL)
    l1p = np.log1p(t)
    rr = np.sqrt(t)[:, None] * np.sqrt(t)[None, :]
    live = np.ones(rr.shape, dtype=bool)
    if rho > 0.0:
        c0 = (rho * np.exp(l1p[:, None] + l1p[None, :]) - 1.0 - rr**2) / (2.0 * rr)
        live = c0 < 1.0
    diag = np.flatnonzero(np.diag(live))
    up_a, up_b = np.nonzero(np.triu(live, 1))
    ua, ub = np.concatenate([diag, up_a]), np.concatenate([diag, up_b])
    if rho > 0.0:
        beta0 = np.arccos(np.clip(c0, -1.0, 1.0))[ua, ub]
        gx, _ = qs._gauss_legendre(n_angular)
        phase = np.exp(1j * (beta0[:, None] * gx))
    else:
        grid = 2.0 * np.pi * (np.arange(n_angular) + 0.5) / n_angular - np.pi
        phase = np.broadcast_to(np.exp(1j * grid), (ua.size, n_angular))
    return t, ua, ub, diag.size, phase


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="the oracle needs a long double wider than a double",
)
@pytest.mark.parametrize("N", [1, 2, 3, 7, 64, 100, 128, 255])
def test_pair_kernel_matches_exp_log_form(N):
    # bit patterns of N, a power of two, and numpy's own cutoff at 100
    # (np.power switches from repeated multiplication to cpow there).  The
    # oracle is the exp-log form exp(N log(1 + rr e^{i beta}) - N/2 (log(1+t_a)
    # + log(1+t_b))) taken in long double: in double, the two terms of
    # size N log(1+t) cancel and the form itself is off by up to 6e-13 of
    # the largest kernel at N = 255.
    for rho, n_angular in ((qs.cutoff_rho(SPH), max(64, N + 40)), (0.0, max(64, 2 * N + 8))):
        t, ua, ub, n_diag, phase = _live_phase(rho, n_angular)
        rr = np.sqrt(t[ua]) * np.sqrt(t[ub])
        l1p = np.log1p(t.astype(np.longdouble))
        for own, _ in qs._pair_blocks(ua.size, n_diag):
            got = qs._pair_kernel(t[ua[own]], t[ub[own]], phase[own], N)
            z = 1 + rr[own, None].astype(np.longdouble) * phase[own].astype(np.clongdouble)
            want = np.exp(N * np.log(z) - 0.5 * N * (l1p[ua[own]] + l1p[ub[own]])[:, None])
            top = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * top, (rho, own)


def _whole_buffer_modes(vals, phase, dim):
    """The mode recurrence over the whole unordered-pair buffer, unblocked.

    Every mode streams the whole buffer once.
    """
    out = np.empty((vals.shape[0], dim), dtype=complex)
    for j in range(dim):
        if j:
            vals *= phase
        np.sum(vals, axis=-1, out=out[:, j])
    return out


@pytest.mark.parametrize("block", [None, 37])
def test_blocked_mode_recurrence_is_bit_identical(block, monkeypatch):
    if block is not None:
        # blocks that hold only diagonal pairs, with no mirrored rows
        monkeypatch.setattr(qs, "_PAIR_BLOCK", block)
    N = 64
    _, ua, ub, n_diag, phase = _live_phase(qs.cutoff_rho(SPH), N + 40)
    n_un, n_angular = phase.shape
    assert n_un > qs._PAIR_BLOCK and n_un % qs._PAIR_BLOCK != 0
    phase = np.conjugate(phase)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((n_un, n_angular)) + 1j * rng.standard_normal((n_un, n_angular))
    want = _whole_buffer_modes(vals.copy(), phase, N + 1)
    got = np.empty_like(want)
    for own, off in qs._pair_blocks(n_un, n_diag):
        # the rows off: of each block are exactly its off-diagonal pairs
        assert np.all(ua[own][:off] == ub[own][:off]) and np.all(ua[own][off:] < ub[own][off:])
        qs._mode_sums(vals[own], phase[own], got[own])
    assert np.array_equal(got, want)
    # and neither branch of the whole quadrature (the cut one projects by
    # that recurrence, the uncut one by an FFT per block) depends on where
    # the blocks fall; the uncut pairs end in a part block too
    assert qs.DEFAULT_RADIAL * (qs.DEFAULT_RADIAL + 1) // 2 % qs._PAIR_BLOCK != 0
    amp = lambda x, zbar: 1 + 0.3 * x + 0.1 * zbar**2
    runs = [(N, amp, rho, qs.DEFAULT_RADIAL) for rho in (qs.cutoff_rho(SPH), 0.0)]
    blocked = [qs._sphere_diagonal_quadrature(*args) for args in runs]
    monkeypatch.setattr(qs, "_PAIR_BLOCK", 10**6)  # one block
    for args, want in zip(runs, blocked):
        assert np.array_equal(qs._sphere_diagonal_quadrature(*args), want), args[2]


def test_bergman_gram_defect():
    for N in (4, 8, 16, 32, 64):
        assert qs.bergman_gram_defect(SPH, N) < 1e-10
    for N in (1, 8, 64):
        assert qs.bergman_gram_defect(PLANE, N) == 0.0


def test_bergman_kernel_error_frozen_values():
    e8 = qs.bergman_kernel_error(SPH, 8)
    e32 = qs.bergman_kernel_error(SPH, 32)
    assert e8 == pytest.approx(1.562925, rel=1e-4)
    assert e32 == pytest.approx(3.001209e-2, rel=1e-4)
    assert qs.bergman_kernel_error(PLANE, 8) < 1e-12


# ---------------------------------------------------------------------------
# norm bounds and spectra


def test_schur_bound_scalar_closed_forms():
    assert qs.schur_norm_bound(SPH, 1.0, 8) == pytest.approx(1.6)
    assert qs.schur_norm_bound(PLANE, 3.0, 8) == pytest.approx(6.0)
    assert qs.schur_norm_bound(SPH, 0.0, 8) == 0.0


def test_schur_bound_dominates_multiplier_norm():
    m = qs.contravariant_matrix(SPH, {(0, 0, 1): 1.0}, 8)
    true_norm = qs.operator_norm(m)
    assert true_norm == pytest.approx(0.8, abs=1e-12)  # N/(N+2)
    bound = qs.schur_norm_bound(SPH, 1.0, 8)
    assert bound >= true_norm
    assert bound / true_norm == pytest.approx(2.0, abs=1e-12)


def test_schur_bound_callable_amplitude():
    amp = lambda x, zbar: np.full(np.shape(x), 0.5, dtype=float)
    assert qs.schur_norm_bound(SPH, amp, 8) == pytest.approx(0.8)


def test_operator_norm_and_invertibility():
    assert qs.operator_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0)
    assert qs.invertibility_check(np.eye(4)) == pytest.approx(1.0)
    assert qs.operator_norm(np.zeros((0, 0))) == 0.0
    assert qs.invertibility_check(np.zeros((0, 0))) == 0.0


def test_eigenpairs_flip_matrix():
    pairs = qs.eigenpairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert [ev for ev, _ in pairs] == pytest.approx([-1.0, 1.0])
    for ev, vec in pairs:
        assert np.linalg.norm(vec) == pytest.approx(1.0)


def _jacobi_sweep(a, v, tol):
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


def _jacobi_eigh(matrix, tol=1e-13, max_sweeps=60):
    """Cyclic Jacobi diagonalization of a complex Hermitian matrix.

    The independent route the LAPACK spectra are checked against.  Returns
    (eigenvalues ascending, eigenvector columns, final off norm).
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
        rotations = _jacobi_sweep(a, v, tol)
        if rotations == 0:
            break
    off = _off_diagonal_norm(a)
    evals = np.real(np.diag(a)).copy()
    order = np.argsort(evals, kind="stable")
    return evals[order], v[:, order], off


def _off_diagonal_norm(a) -> float:
    n = a.shape[0]
    if n == 0:
        return 0.0
    mask = ~np.eye(n, dtype=bool)
    return float(np.sqrt(np.sum(np.abs(a[mask]) ** 2)))


def test_eigenpairs_random_hermitian_residual():
    # eigenpairs runs on LAPACK; cyclic Jacobi is the independent route
    rng = np.random.default_rng(11)
    for n in (8, 17, 33, 49):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a + a.conj().T
        pairs = qs.eigenpairs(a)
        evals = np.array([ev for ev, _ in pairs])
        reference, _, off = _jacobi_eigh(a)
        assert off < 1e-10
        assert np.allclose(evals, reference, atol=1e-10)
        for ev, vec in pairs:
            assert np.max(np.abs(a @ vec - ev * vec)) < 1e-10 * np.max(np.abs(a))


def test_singular_values_ill_conditioned():
    # sqrt(eig(A^H A)) squares the condition number 1e9 and loses sigma_min
    # to roundoff; the SVD of A keeps it to machine precision times sigma_max
    n = 17
    rng = np.random.default_rng(5)

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q

    u, v = unitary(), unitary()
    a = u @ np.diag(np.logspace(0, -9, n)) @ v.conj().T
    assert qs.invertibility_check(a) == pytest.approx(1e-9, rel=1e-6)
    assert qs.operator_norm(a) == pytest.approx(1.0, rel=1e-12)
    # the largest singular value survives the squaring: Jacobi agrees there
    gram_evals, _, _ = _jacobi_eigh(a.conj().T @ a)
    assert qs.operator_norm(a) == pytest.approx(math.sqrt(gram_evals[-1]), rel=1e-12)


def test_eigenpairs_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qs.eigenpairs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        qs.eigenpairs(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# regions and forbidden mass


def test_parse_region_x3_forms():
    assert qs.parse_region("x3 >= 1/2") == ("x3", ">=", Fraction(1, 2))
    assert qs.parse_region("x3 < -0.25") == ("x3", "<=", Fraction(-1, 4))
    assert qs.parse_region("x3>0") == ("x3", ">=", Fraction(0))


def test_parse_region_x1_callable():
    pred = qs.parse_region("x1 >= 0")
    assert callable(pred)
    assert pred(0.3, 0.0, 0.0)
    assert not pred(-0.3, 0.0, 0.0)


def test_parse_region_rejections():
    with pytest.raises(ValueError):
        qs.parse_region("x3 ~ 1")
    with pytest.raises(ValueError):
        qs.parse_region("x4 >= 0")


def test_forbidden_mass_exact_control():
    # the north-pole section e_0 has mass exactly 4^-(N+1) below x3 = -1/2
    for N in (1, 4, 9):
        vec = np.zeros(N + 1, dtype=complex)
        vec[0] = 1.0
        mass = qs.forbidden_mass(SPH, N, vec, "x3 <= -1/2")
        assert mass * 4.0 ** (N + 1) == pytest.approx(1.0, abs=1e-14)


def test_forbidden_mass_whole_and_empty():
    vec = np.zeros(5, dtype=complex)
    vec[2] = 1.0
    assert qs.forbidden_mass(SPH, 4, vec, None) == pytest.approx(1.0)
    assert qs.forbidden_mass(SPH, 4, vec, "x3 >= 2") == 0.0
    assert qs.forbidden_mass(SPH, 4, vec, "x3 <= -3/2") == 0.0
    assert qs.forbidden_mass(SPH, 4, vec, "x3 >= -2") == pytest.approx(1.0)
    # the poles: a point, or the whole sphere
    assert qs.forbidden_mass(SPH, 4, vec, "x3 >= 1") == 0.0
    assert qs.forbidden_mass(SPH, 4, vec, "x3 <= 1") == 1.0
    assert qs.forbidden_mass(SPH, 4, vec, "x3 >= -1") == 1.0
    assert qs.forbidden_mass(SPH, 4, vec, "x3 <= -1") == 0.0
    assert qs.forbidden_mass(SPH, 4, vec, "x3 < -1") == 0.0


def _beta_tail(j, M, t0):
    """Exact ∫_{t0}^∞ t^j (1+t)^{-(M+2)} dt for rational t0 >= 0, by its
    alternating antiderivative."""
    s0 = 1 + max(t0, Fraction(0))
    return sum(Fraction(math.comb(j, i) * (-1) ** (j - i), M + 1 - i) * s0 ** (i - M - 1)
               for i in range(j + 1))


def _x3_masses_by_interval(N, op, value):
    """Per-j masses in {x3 op value} over the chart interval in t, x3 = (1-t)/(1+t)."""
    if op == ">=":
        if value > 1:
            return [Fraction(0)] * (N + 1)
        lo, hi = Fraction(0), (None if value <= -1 else (1 - value) / (1 + value))
    else:
        # {x3 <= -1} is the south pole, where the interval form divides by zero
        if value <= -1:
            return [Fraction(0)] * (N + 1)
        lo, hi = (Fraction(0) if value >= 1 else (1 - value) / (1 + value)), None
    out = []
    for j in range(N + 1):
        piece = _beta_tail(j, N, lo) - (0 if hi is None else _beta_tail(j, N, hi))
        out.append(piece / SPH.norm_sq_monomial(N, j))
    return out


@pytest.mark.parametrize("N", [1, 8, 31, 32, 64])
def test_x3_masses_match_beta_interval_oracle(N):
    cuts = [Fraction(c) for c in ("-3/2", "-1", "-1/2", "0", "1/4", "1/3", "1/2", "2/3", "1", "3/2")]
    for op in (">=", "<="):
        for cut in cuts:
            assert qs._x3_masses(N, op, cut) == _x3_masses_by_interval(N, op, cut), (op, cut)


def test_forbidden_mass_callable_matches_exact():
    vec = np.zeros(5, dtype=complex)
    vec[0] = 1.0
    exact = qs.forbidden_mass(SPH, 4, vec, "x3 <= -1/2")
    quad = qs.forbidden_mass(SPH, 4, vec, lambda x1, x2, x3: x3 <= -0.5)
    assert abs(quad - exact) < 2e-4


def test_forbidden_mass_plane_half_plane():
    vec = np.zeros(6, dtype=complex)
    vec[0] = 1.0
    mass = qs.forbidden_mass(PLANE, 5, vec, lambda re, im: re >= 0.0)
    assert mass == pytest.approx(0.5, abs=1e-9)


def test_forbidden_mass_rejections():
    vec = np.zeros(5, dtype=complex)
    vec[0] = 1.0
    with pytest.raises(ValueError):
        qs.forbidden_mass(SPH, 4, vec[:3], "x3 >= 1/2")
    with pytest.raises(ArithmeticError):
        qs.forbidden_mass(SPH, 4, 2.0 * vec, "x3 >= 1/2")
    with pytest.raises(ValueError):
        qs.forbidden_mass(PLANE, 4, np.eye(5)[0] + 0j, "x3 >= 1/2")


# ---------------------------------------------------------------------------
# decay fits and reports


def test_decay_rate_fit_exact_exponential():
    rows = [(N, 0.25 ** (N + 1)) for N in range(4, 10)]
    rate, quality = qs.decay_rate_fit(rows)
    assert rate == pytest.approx(math.log(4.0), abs=1e-12)
    assert quality > 1 - 1e-12


def test_decay_rate_fit_constant_mass():
    rows = [(N, 0.125) for N in range(4, 9)]
    rate, quality = qs.decay_rate_fit(rows)
    assert rate == pytest.approx(0.0, abs=1e-12)
    assert quality == 1.0


def test_decay_rate_fit_noisy_recovery():
    rng = np.random.default_rng(7)
    rows = [
        (N, math.exp(-0.5 * N + 0.05 * rng.standard_normal()))
        for N in range(8, 44, 4)
    ]
    rate, quality = qs.decay_rate_fit(rows)
    assert rate == pytest.approx(0.5, abs=0.02)
    assert quality > 0.99


def test_decay_rate_fit_four_column_rows():
    rows = [(N, 0.0, 0.0, 0.5 ** N) for N in range(4, 9)]
    rate, _ = qs.decay_rate_fit(rows)
    assert rate == pytest.approx(math.log(2.0), abs=1e-12)


def test_decay_rate_fit_skips_nonpositive_mass():
    rows = [(N, 0.5 ** N) for N in range(4, 9)] + [(10, 0.0)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rate, _ = qs.decay_rate_fit(rows)
    assert any("nonpositive" in str(w.message) for w in caught)
    assert rate == pytest.approx(math.log(2.0), abs=1e-12)


def test_decay_rate_fit_needs_four_points():
    with pytest.raises(ValueError):
        qs.decay_rate_fit([(4, 0.5), (5, 0.25), (6, 0.125)])


def test_decay_report_x3_sweep():
    report = qs.decay_report(
        SPH, {(0, 0, 1): 1.0}, 0.0, "x3 >= 1/2", [8, 12, 16, 20]
    )
    masses = [row[3] for row in report.rows]
    assert all(0.0 < m < 1.0 for m in masses)
    assert all(a > b for a, b in zip(masses, masses[1:]))
    # eigenvalue nearest 0 is exactly 0 at even N
    assert all(abs(row[1]) < 1e-13 for row in report.rows)
    assert report.rate > 0.1
    assert report.fit_quality > 0.99
