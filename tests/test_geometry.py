"""Model-space conventions, pinned values, and cross-route identities."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from toeplitz_forge import geometry
from toeplitz_forge.geometry import bargmann, mixed_log_derivative_check, model_by_name, sphere

RNG = np.random.default_rng(20240817)


def rand_pts(n, scale=1.0):
    return scale * (RNG.standard_normal(n) + 1j * RNG.standard_normal(n))


def euclid_coords(z):
    """Unit-sphere embedding (x1, x2, x3) of a chart point."""
    return np.real(sphere().polarized_coordinates(z, np.conj(z)))


def test_model_by_name():
    assert model_by_name("sphere").name == "sphere"
    assert model_by_name("bargmann").name == "bargmann"
    with pytest.raises(ValueError):
        model_by_name("torus")


def test_phase_phi1_pinned_sphere_value():
    # the distinguished four-point value: log 2 with a minus sign
    val = sphere().phase_phi1(0.0, 1.0, 1.0, 0.0)
    assert abs(val - (-math.log(2.0))) < 1e-15


def test_phase_phi1_bargmann_factors():
    m = bargmann()
    x, y, wb, zb = rand_pts(4)
    val = m.phase_phi1(x, y, wb, zb)
    assert abs(val - (x - y) * (wb - zb)) < 1e-12


def test_phase_phi1_vanishes_on_coincidence_loci():
    for m in (bargmann(), sphere()):
        x, y, wb, zb = rand_pts(4, scale=0.4)
        assert abs(m.phase_phi1(x, x, wb, zb)) < 1e-13
        assert abs(m.phase_phi1(x, y, zb, zb)) < 1e-13


def test_phase_phi1_real_part_nonpositive_on_real_locus():
    for m in (bargmann(), sphere()):
        x = rand_pts(200, scale=1.5)
        y = rand_pts(200, scale=1.5)
        vals = m.phase_phi1(x, y, np.conj(y), np.conj(x))
        assert np.all(vals.real <= 1e-12), m.name


def test_phase_series_bargmann_is_minus_uubar():
    s = bargmann().phase_phi1_series(0.7 - 0.2j, 0.1 + 0.4j, order=6)
    expect = np.zeros_like(s.coeffs)
    expect[1, 1, 0, 0] = -1.0
    assert np.array_equal(s.coeffs, expect)


def test_phase_series_sphere_base_zero_diagonal_slice():
    s = sphere().phase_phi1_series(0.0, 0.0, order=8)
    # at dx = dzbar = 0 the phase is -log(1 + u ubar)
    for k in range(1, 5):
        assert abs(s.coeffs[k, k, 0, 0] - ((-1.0) ** k) / k) < 1e-13
    assert abs(s.coeffs[1, 2, 0, 0]) < 1e-13


def test_phase_series_pair_valuation():
    # every monomial must carry at least one power of u and one of ubar
    s = sphere().phase_phi1_series(0.3, 0.1 - 0.2j, order=6)
    assert np.max(np.abs(s.coeffs[0, :, :, :])) < 1e-13
    assert np.max(np.abs(s.coeffs[:, 0, :, :])) < 1e-13


def test_phase_series_matches_pointwise_evaluation():
    for m in (bargmann(), sphere()):
        x0, zb0 = 0.25 - 0.1j, 0.3 + 0.2j
        s = m.phase_phi1_series(x0, zb0, order=12)
        u, ub, dx, dz = 0.03 + 0.01j, 0.02 - 0.02j, -0.015j, 0.01
        x = x0 + dx
        y = x + u
        zb = zb0 + dz
        wb = zb + ub
        direct = m.phase_phi1(x, y, wb, zb)
        assert abs(s(u, ub, dx, dz) - direct) < 1e-12, m.name


def test_phase_series_hessian_matches_pairing():
    # coefficient of u ubar equals minus the mixed Hessian at the base point,
    # which on a Kaehler model is the density
    for m in (bargmann(), sphere()):
        x0, zb0 = 0.4 + 0.1j, -0.2 + 0.3j
        s = m.phase_phi1_series(x0, zb0, order=4)
        assert abs(s.coeffs[1, 1, 0, 0] + m.density_rho(x0, zb0)) < 1e-12


def test_density_series_matches_pointwise():
    m = sphere()
    x0, zb0 = 0.2 - 0.3j, 0.1 + 0.1j
    s = m.density_rho_series(x0, zb0, order=10)
    u, ub, dx, dz = 0.02, 0.03j, 0.01 - 0.01j, 0.02j
    y = x0 + dx + u
    wb = zb0 + dz + ub
    assert abs(s(u, ub, dx, dz) - m.density_rho(y, wb)) < 1e-12


def test_psi_pointwise_norm_bargmann_gaussian():
    m = bargmann()
    x, y = 0.8 + 0.1j, -0.3 + 0.5j
    for N in (1, 7):
        expect = math.exp(-N * abs(x - y) ** 2 / 2.0)
        assert abs(m.psi_pointwise_norm(x, y, N) - expect) < 1e-13


def test_psi_pointwise_norm_sphere_cosine_power():
    m = sphere()
    x, y = 0.5 - 0.2j, -0.1 + 0.9j
    # central angle between the images on the unit sphere
    theta = math.acos(float(np.dot(euclid_coords(x), euclid_coords(y))))
    for N in (1, 6):
        expect = math.cos(theta / 2.0) ** N
        assert abs(m.psi_pointwise_norm(x, y, N) - expect) < 1e-13


def test_geodesic_distance_sphere():
    m = sphere()
    assert abs(m.geodesic_distance(0.0, 1.0) - math.sqrt(2.0) * math.pi / 4.0) < 1e-13
    # antipode of z is -1/conj(z)
    z = 0.3 + 0.4j
    anti = -1.0 / np.conj(z)
    assert abs(m.geodesic_distance(z, anti) - m.injectivity_radius) < 1e-13
    assert abs(m.injectivity_radius - math.pi / math.sqrt(2.0)) < 1e-15


def test_geodesic_distance_bargmann():
    m = bargmann()
    assert abs(m.geodesic_distance(1.0, 2.0 + 1.0j) - math.sqrt(2.0) * math.sqrt(2.0)) < 1e-13


def test_euclid_coords_unit_norm_and_polarization():
    m = sphere()
    z = rand_pts(50)
    d = 1.0 + np.abs(z) ** 2
    x1, x2, x3 = 2.0 * z.real / d, 2.0 * z.imag / d, (1.0 - np.abs(z) ** 2) / d
    assert np.max(np.abs(x1**2 + x2**2 + x3**2 - 1.0)) < 1e-12
    p1, p2, p3 = m.polarized_coordinates(z, np.conj(z))
    assert np.max(np.abs(p1 - x1)) < 1e-12
    assert np.max(np.abs(p2 - x2)) < 1e-12
    assert np.max(np.abs(p3 - x3)) < 1e-12
    # north and south poles
    assert np.allclose(euclid_coords(0.0), (0.0, 0.0, 1.0))


def test_monomial_norms_exact():
    s = sphere()
    assert s.norm_sq_monomial(4, 2) == Fraction(1, 30)
    assert s.norm_sq_monomial(4, 0) == Fraction(1, 5)
    assert s.norm_sq_monomial(4, 4) == Fraction(1, 5)
    with pytest.raises(ValueError):
        s.norm_sq_monomial(4, 5)
    b = bargmann()
    assert b.norm_sq_monomial(3, 2) == Fraction(2, 27)
    assert b.norm_sq_monomial(2, 0) == Fraction(1, 2)
    assert b.norm_sq_monomial(5, 4) == Fraction(24, 3125)
    for m in (s, b):
        with pytest.raises(ValueError):
            m.norm_sq_monomial(4, -1)


def test_level_moments_share_one_denominator():
    # sphere levels 2 and 3: m! (2-m)! / 3! and m! (3-m)! / 4!, over 4!
    rows, den = sphere().level_moments(2, 1, 3)
    assert den == 24
    assert [[Fraction(n, den) for n in row] for row in rows] == [
        [Fraction(1, 3), Fraction(1, 6), Fraction(1, 3)],
        [Fraction(1, 4), Fraction(1, 12), Fraction(1, 12), Fraction(1, 4)],
    ]
    # plane m! / 3^{m+1} for m <= 3, over 3^4; it has no level shift
    (row,), den = bargmann().level_moments(3, 0, 3)
    assert (row, den) == ([27, 9, 6, 6], 81)
    with pytest.raises(ValueError):
        bargmann().level_moments(3, 1, 3)


def test_monomial_expansion_over_the_chart():
    # x1 x2 = -i (z^2 - zbar^2) / (1+t)^2 and x3 = (1 - z zbar) / (1+t)
    assert sphere().monomial_expansion((1, 1, 0)) == (2, {(2, 0): (0, -1), (1, 1): (0, 0),
                                                          (0, 2): (0, 1)})
    assert sphere().monomial_expansion((0, 0, 1)) == (1, {(0, 0): (1, 0), (1, 1): (-1, 0)})
    assert bargmann().monomial_expansion((2, 3)) == (0, {(2, 3): (1, 0)})


@pytest.mark.parametrize("model", [sphere(), bargmann()], ids=["sphere", "plane"])
def test_coordinate_tables_read_both_ways(model):
    # a monomial of degree <= 3 in polarized_coordinates against the sum
    # (re + i im) y^p wbar^q / (1 + y wbar)^s of monomial_expansion
    rng = np.random.default_rng(7)
    y, wbar = (0.8 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
               for _ in range(2))
    coords = model.polarized_coordinates(y, wbar)
    width = len(model.coordinates)
    worst = 0.0
    for expo in itertools.product(range(4), repeat=width):
        if sum(expo) > 3:
            continue
        got = np.ones_like(y)
        for c, e in zip(coords, expo):
            got = got * c**e
        s, terms = model.monomial_expansion(expo)
        want = sum(complex(re, im) * y**p * wbar**q for (p, q), (re, im) in terms.items())
        want = want / (1 + y * wbar) ** s
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    assert worst < 1e-13


def test_check_exponents_returns_int_keys():
    got = sphere().check_exponents({(np.int64(1), 0, 2): 0.5})
    assert got == {(1, 0, 2): 0.5}
    assert all(type(e) is int for key in got for e in key)
    with pytest.raises(ValueError, match="need 2 entries"):
        bargmann().check_exponents({3: 1.0})


def test_bergman_kernel_is_normalized_monomial_sum():
    # S_N(x, ybar) = sum_j x^j ybar^j / |z^j|^2, summed exactly
    for m, N in ((sphere(), 6), (bargmann(), 5)):
        x, ybar = 0.4 + 0.2j, 0.3 - 0.5j
        jmax = N if m.compact else 40
        acc = sum(
            (x * ybar) ** j / float(m.norm_sq_monomial(N, j)) for j in range(jmax + 1)
        )
        assert abs(acc - m.bergman_kernel(N, x, ybar)) < 1e-9 * abs(acc)


def test_dm_weight_total_mass_sphere():
    # radial integral of (1/pi)(1+r^2)^{-2} dA is exactly 1
    m = sphere()
    r = np.linspace(0.0, 60.0, 200001)
    integrand = m.density_rho(r, r).real * 2.0 * r  # dA/pi in polar = 2 r dr dtheta/(2 pi)
    mass = np.trapezoid(integrand, r) + 1.0 / (1.0 + 60.0**2)  # tail closed form
    assert abs(mass - 1.0) < 1e-7


def test_mixed_log_derivative_check():
    res = mixed_log_derivative_check()
    expect = (1.0 - math.log(2.0)) / (2.0 * math.log(2.0) ** 2)
    assert abs(res.remark_value - expect) < 1e-12
    assert abs(res.remark_value - 0.319337) < 1e-6
    assert res.discrepancy < 1e-10
    assert abs(res.mixed_derivative + 0.5 * expect) < 1e-12


def test_two_charts_consistency():
    # chart flip preserves sphere geometry: distances are invariant
    m = sphere()
    z, w = 0.4 + 0.7j, -1.2 + 0.3j
    assert abs(m.geodesic_distance(z, w) - m.geodesic_distance(1 / z, 1 / w)) < 1e-12
