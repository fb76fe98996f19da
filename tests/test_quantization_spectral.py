"""Tests for finite-level operator matrices, norms, and decay reports."""

import math
import warnings
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
    basis = qs.basis_norms(SPH, 2)
    assert basis.dim == 3
    assert basis.norms == (Fraction(1, 3), Fraction(1, 6), Fraction(1, 3))


def test_basis_norms_plane_default_and_cutoff():
    basis = qs.basis_norms(PLANE, 4)
    assert basis.dim == 5
    assert basis.norms[0] == Fraction(1, 4)
    assert basis.norms[2] == Fraction(2, 64)
    wide = qs.basis_norms(PLANE, 4, cutoff=7)
    assert wide.dim == 8


def test_basis_norms_rejections():
    with pytest.raises(ValueError):
        qs.basis_norms(SPH, 0)
    with pytest.raises(ValueError):
        qs.basis_norms(SPH, 4, cutoff=6)
    with pytest.raises(ValueError):
        qs.basis_norms(PLANE, 4, cutoff=-1)


def test_operator_matrix_container():
    m = qs.OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), N=3)
    assert m.dim == 2
    assert m.hermitian_defect() == pytest.approx(1.0)
    assert np.asarray(m).shape == (2, 2)
    with pytest.raises(ValueError):
        qs.OperatorMatrix(np.zeros((2, 3)), N=3)


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


# ---------------------------------------------------------------------------
# covariant (kernel) matrices


def test_covariant_unit_plane_is_identity():
    sym = cc.unit_covariant(PLANE)
    m = qs.covariant_matrix(PLANE, sym, 7)
    assert np.max(np.abs(m.entries - np.eye(m.dim))) < 1e-14


def test_covariant_zero_symbol():
    sym = cc.symbol_from_euclid_poly(SPH, [{(0, 0, 0): 0.0}], order=4)
    m = qs.covariant_matrix(SPH, sym, 8)
    assert np.max(np.abs(m.entries)) < 1e-14


def test_covariant_full_support_unit_sphere():
    # without a cutoff the unit amplitude integrates exactly to N/(N+1)
    sym = cc.symbol_from_euclid_poly(SPH, [{(0, 0, 0): 1.0}], order=4)
    m = qs.covariant_matrix(SPH, sym, 8, eps=np.inf)
    diag = np.diag(m.entries).real
    assert np.max(np.abs(diag - 8.0 / 9.0)) < 1e-12


def test_covariant_scaled_unit_min_singular():
    sym = cc.symbol_from_euclid_poly(SPH, [{(0, 0, 0): 2.0}], order=6)
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
    tilted = cc.symbol_from_euclid_poly(SPH, [{(1, 0, 0): 1.0}], order=4)
    with pytest.raises(ValueError):
        qs.covariant_matrix(SPH, tilted, 8)
    plane_sym = cc.unit_covariant(PLANE)
    with pytest.raises(ValueError):
        qs.covariant_matrix(PLANE, plane_sym, 8, eps=1.0)


def _per_mode_diagonal(N, dim, amplitude, rho, n_radial, n_angular):
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
    diag = np.zeros(dim, dtype=complex)
    for j in range(dim):
        inner = np.sum(vals * np.exp(-1j * j * betas), axis=-1)
        lognj = math.lgamma(N + 2) - math.lgamma(j + 1) - math.lgamma(N - j + 1)
        w = tw * np.exp(0.5 * j * logt - (0.5 * N + 2.0) * l1p + 0.5 * lognj)
        diag[j] = (w @ inner @ w) / (2.0 * np.pi)
    return diag


@pytest.mark.parametrize("N", [1, 4, 8, 33, 64])
def test_sphere_quadrature_matches_per_mode_loop(N):
    amplitudes = {
        "constant": lambda x, zbar: (N + 1.0) * np.ones(np.broadcast(x, zbar).shape),
        # a function of x zbar alone is rotation invariant; |w| < 1 keeps it bounded
        "radial": lambda x, zbar: 1.0 + 0.5 * np.cos(x * zbar / (1.0 + np.abs(x * zbar))),
    }
    rho = qs.cutoff_rho(SPH)
    for name, amp in amplitudes.items():
        for cut, n_angular in ((rho, max(64, N + 40)), (0.0, max(64, 2 * N + 8))):
            args = (N, N + 1, amp, cut, qs.DEFAULT_RADIAL, n_angular)
            want = _per_mode_diagonal(*args)
            got = qs._sphere_diagonal_quadrature(*args)
            assert np.max(np.abs(got - want)) < 1e-13, (name, cut)


def test_bergman_gram_defect():
    for N in (4, 8, 16, 32, 64):
        assert qs.bergman_gram_defect(SPH, N) < 1e-10
    assert qs.bergman_gram_defect(PLANE, 8) < 1e-14


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
