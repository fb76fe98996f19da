"""Both expansion routes against hand oracles, closed forms, and quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_forge import geometry
from toeplitz_forge.series import PowerSeries
from toeplitz_forge.stationary_phase import (
    ExpansionResult,
    PairFamily,
    PhaseData,
    gaussian_moment,
    morse_expand,
    morse_normalize,
    morse_normalize_family,
    numeric_phase_integral,
    wick_expand,
)


def pair_phase(terms, order):
    return PowerSeries.from_terms(terms, 2, order)


def gauss_phase(order):
    return pair_phase({(1, 1): -1.0}, order)


def sphere_phase(order):
    u = PowerSeries.variable(0, 2, order)
    ubar = PowerSeries.variable(1, 2, order)
    return -((1 + u * ubar).log())


def sphere_density(order):
    u = PowerSeries.variable(0, 2, order)
    ubar = PowerSeries.variable(1, 2, order)
    return (1 + u * ubar).reciprocal() ** 2


# -- Gaussian moments ---------------------------------------------------------


def test_moment_pairing():
    assert gaussian_moment(gauss_phase(2), (1, 1)) == pytest.approx(1.0)


def test_moment_unmatched():
    assert gaussian_moment(gauss_phase(2), (2, 0)) == 0.0


def test_moment_double_pairing():
    assert gaussian_moment(gauss_phase(2), (2, 2)) == pytest.approx(2.0)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(min_value=0, max_value=6),
       a=st.floats(min_value=0.25, max_value=4.0))
def test_moment_diagonal_law(p, a):
    phase = pair_phase({(1, 1): -a}, 2)
    want = math.factorial(p) / a**p
    assert gaussian_moment(phase, (p, p)) == pytest.approx(want, rel=1e-12)


def test_moment_two_pairs():
    phase = PowerSeries.from_terms({(1, 1, 0, 0): -1.0, (0, 0, 1, 1): -2.0}, 4, 2)
    assert gaussian_moment(phase, (1, 1, 0, 0)) == pytest.approx(1.0)
    assert gaussian_moment(phase, (0, 0, 1, 1)) == pytest.approx(0.5)
    assert gaussian_moment(phase, (1, 1, 1, 1)) == pytest.approx(0.5)
    assert gaussian_moment(phase, (2, 2, 0, 0)) == pytest.approx(2.0)
    # v_0^2 vbar_1^2 has no diagonal pairing
    assert gaussian_moment(phase, (2, 0, 0, 2)) == 0.0


def test_moment_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        gaussian_moment(pair_phase({(2, 2): 1.0}, 4), (1, 1))


# -- wick route ---------------------------------------------------------------


def test_wick_pure_gaussian():
    res = wick_expand(gauss_phase(8), PowerSeries.constant(1.0, 2, 6), K=3)
    assert res.coeffs == pytest.approx((1, 0, 0, 0), abs=1e-14)
    assert res.route == "wick"


def test_wick_single_moment_amplitude():
    amp = pair_phase({(1, 1): 1.0}, 4)
    res = wick_expand(gauss_phase(6), amp, K=2)
    assert res.coeffs == pytest.approx((0, 1, 0), abs=1e-14)


def test_wick_quartic_remainder():
    phase = pair_phase({(1, 1): -1.0, (2, 2): 1.0}, 4)
    res = wick_expand(phase, PowerSeries.constant(1.0, 2, 2), K=1)
    assert res.coeffs == pytest.approx((1, 2), abs=1e-13)


def test_wick_quartic_against_quadrature():
    # radius keeps the boundary weight e^{N Phi} ~ 1.6e-3, below the first
    # neglected term T_2/N^2, so the disc integral is the K=1 prediction + O(N^-2)
    N = 40.0
    phase = pair_phase({(1, 1): -1.0, (2, 2): 1.0}, 4)
    res = wick_expand(phase, PowerSeries.constant(1.0, 2, 2), K=1)

    def integrand(v):
        t = np.abs(v) ** 2
        return np.exp(N * (-t + t**2))

    numeric = numeric_phase_integral(integrand, N, radius=0.45)
    assert abs(numeric - res.predict_integral(N)) <= 0.01 * abs(numeric)


def test_wick_two_pair_remainder():
    phase = PowerSeries.from_terms(
        {(1, 1, 0, 0): -1.0, (0, 0, 1, 1): -1.0, (1, 1, 1, 1): 1.0}, 4, 4)
    res = wick_expand(phase, PowerSeries.constant(1.0, 4, 2), K=1)
    assert res.coeffs == pytest.approx((1, 1), abs=1e-13)


def test_wick_reports_required_amplitude_order():
    with pytest.raises(ValueError, match="need >= 6"):
        wick_expand(gauss_phase(10), PowerSeries.constant(1.0, 2, 5), K=3)


def test_wick_reports_required_phase_order():
    with pytest.raises(ValueError, match="need >= 8"):
        wick_expand(gauss_phase(6), PowerSeries.constant(1.0, 2, 6), K=3)


# -- phase validation ---------------------------------------------------------


def test_phase_rejects_linear_term():
    with pytest.raises(ValueError, match="linear"):
        PhaseData.from_series(pair_phase({(1, 0): 0.5, (1, 1): -1.0}, 4))


def test_phase_rejects_non_pairing_quadratic():
    with pytest.raises(ValueError, match="non-pairing quadratic"):
        PhaseData.from_series(pair_phase({(2, 0): 0.5, (1, 1): -1.0}, 4))


def test_phase_rejects_odd_variable_count():
    with pytest.raises(ValueError, match="paired"):
        PhaseData.from_series(PowerSeries.from_terms({(1, 1, 0): -1.0}, 3, 4))


def test_phase_split_is_consistent():
    phase = pair_phase({(1, 1): -1.0, (2, 1): 0.3, (1, 2): -0.2, (2, 2): 0.1}, 6)
    data = PhaseData.from_series(phase)
    assert data.dim == 1
    assert data.det_neg_hessian == pytest.approx(1.0)
    total = data.quadratic + data.remainder
    assert np.allclose(np.abs((total - data.series).coeffs), 0.0)
    deg = np.sum(np.indices(data.remainder.coeffs.shape), axis=0)
    live = np.abs(data.remainder.coeffs) > 0
    assert deg[live].min() >= 3


# -- flattening route ---------------------------------------------------------


def test_morse_identity_phase():
    (kv, kvb), jac = morse_normalize(gauss_phase(8), K=3)
    u = PowerSeries.variable(0, 2, 5)
    ubar = PowerSeries.variable(1, 2, 5)
    assert np.allclose(np.abs((kv - u).coeffs), 0.0)
    assert np.allclose(np.abs((kvb - ubar).coeffs), 0.0)
    assert np.allclose(np.abs((jac - 1).coeffs), 0.0)


def test_morse_cubic_closed_form():
    # Phi = -v vbar + c v^2 vbar flattens with kappa_vbar = ubar/(1 - c u),
    # picking up a quadratic correction; J = 1/(1 - c u) has constant term 1.
    c = 0.3
    phase = pair_phase({(1, 1): -1.0, (2, 1): c}, 8)
    (kv, kvb), jac = morse_normalize(phase, K=4)
    u = PowerSeries.variable(0, 2, 6)
    assert np.allclose(np.abs((kv - u).coeffs), 0.0)
    for m in range(5):
        assert kvb.coeffs[m, 1] == pytest.approx(c**m, rel=1e-12)
        assert jac.coeffs[m, 0] == pytest.approx(c**m, rel=1e-12)
    assert jac.constant_term() == pytest.approx(1.0)
    assert kvb.coeffs[1, 1] != 0.0
    check = phase.truncate(6).substitute([kv, kvb]) + u * PowerSeries.variable(1, 2, 6)
    assert check.max_abs() <= 1e-12


def test_morse_swap_branch():
    # corrections must attach to the other leg when the remainder is pure vbar
    phase = pair_phase({(1, 1): -1.0, (0, 3): 0.4}, 8)
    (kv, kvb), jac = morse_normalize(phase, K=4)
    order = kv.order
    u = PowerSeries.variable(0, 2, order)
    ubar = PowerSeries.variable(1, 2, order)
    check = phase.truncate(order).substitute([kv, kvb]) + u * ubar
    assert check.max_abs() <= 1e-10
    assert jac.constant_term() == pytest.approx(1.0)


def test_morse_rejects_two_sided_pure_powers():
    phase = pair_phase({(1, 1): -1.0, (3, 0): 0.5, (0, 3): 0.5}, 8)
    with pytest.raises(ArithmeticError, match="not divisible"):
        morse_normalize(phase, K=4)


def test_morse_sphere_matches_wick():
    phase = sphere_phase(12)
    for amp in (PowerSeries.constant(1.0, 2, 8), sphere_density(8)):
        a = wick_expand(phase, amp, K=4)
        b = morse_expand(phase, amp, K=4)
        assert np.max(np.abs(np.array(a.coeffs) - np.array(b.coeffs))) <= 1e-10
    dens = morse_expand(phase, sphere_density(8), K=4)
    want = [(-1.0) ** k for k in range(5)]
    assert dens.coeffs == pytest.approx(want, abs=1e-12)


def test_dual_routes_on_perturbed_phase():
    rng = np.random.default_rng(1234)
    terms = {(1, 1): -1.0}
    for i in range(1, 5):
        for j in range(1, 5):
            if 3 <= i + j <= 6:
                terms[(i, j)] = 0.2 * rng.standard_normal()
    phase = pair_phase(terms, 12)
    amp = PowerSeries(rng.standard_normal((9, 9)) * 0.5, 8)
    amp.coeffs[np.sum(np.indices((9, 9)), axis=0) > 8] = 0.0
    a = wick_expand(phase, amp, K=4)
    b = morse_expand(phase, amp, K=4)
    scale = max(1.0, np.max(np.abs(a.coeffs)))
    assert np.max(np.abs(np.array(a.coeffs) - np.array(b.coeffs))) <= 1e-10 * scale


def test_nontrivial_pairing_normalization():
    # Phi = -2 v vbar: T_0 = a(0) and the predicted integral carries 1/det(-H)
    phase = pair_phase({(1, 1): -2.0}, 6)
    for route in (wick_expand, morse_expand):
        res = route(phase, PowerSeries.constant(1.0, 2, 4), K=2)
        assert res.coeffs == pytest.approx((1, 0, 0), abs=1e-13)
        assert res.det_neg_hessian == pytest.approx(2.0)
        assert res.predict_integral(10.0) == pytest.approx(0.5)


# -- invariants ---------------------------------------------------------------


def _rescale(ps, lam):
    i, j = np.indices(ps.coeffs.shape)
    return PowerSeries(ps.coeffs * lam ** (i - j), ps.order)


@pytest.mark.parametrize("lam", [2.0, 1j])
def test_scaling_covariance(lam):
    phase = pair_phase({(1, 1): -1.0, (2, 1): 0.3, (1, 3): -0.15, (2, 2): 0.1}, 10)
    amp = pair_phase({(0, 0): 1.0, (1, 0): 0.5, (0, 2): 0.25, (2, 1): -0.4}, 6)
    base = wick_expand(phase, amp, K=3)
    scaled = wick_expand(_rescale(phase, lam), _rescale(amp, lam), K=3)
    assert np.max(np.abs(np.array(base.coeffs) - np.array(scaled.coeffs))) <= 1e-10


@pytest.mark.parametrize("phase_terms", [
    {(1, 1): -1.0},
    {(1, 1): -1.0, (2, 2): 1.0},
])
def test_parity_odd_amplitude(phase_terms):
    # Odd amplitudes integrate to zero against an even total weight; the
    # phase itself must be even for this, so only even phases are tested.
    phase = pair_phase(phase_terms, 10)
    for amp_terms in ({(1, 0): 1.0}, {(0, 3): 1.0}, {(1, 0): 1.0, (2, 1): 0.7}):
        amp = pair_phase(amp_terms, 6)
        res = wick_expand(phase, amp, K=3)
        assert np.max(np.abs(res.coeffs)) <= 1e-12


def test_parity_on_sphere_phase():
    res = wick_expand(sphere_phase(12), pair_phase({(1, 2): 1.0, (3, 0): -0.5}, 8), K=4)
    assert np.max(np.abs(res.coeffs)) <= 1e-12


def test_sphere_truncation_identity():
    # N/(N+1) = sum_k (-1)^k N^-k exactly, so the truncation gap at K is
    # exactly N^-(K+1) * N/(N+1)
    res = wick_expand(sphere_phase(12), sphere_density(8), K=4)
    for N in (7.0, 23.0):
        gap = abs(res.evaluate(N) - N / (N + 1.0))
        assert gap == pytest.approx(N ** (-5.0) * N / (N + 1.0), rel=1e-9)


def test_sphere_quadrature_closed_form():
    N = 40.0

    def integrand(v):
        t = np.abs(v) ** 2
        return (1.0 + t) ** (-(N + 2.0))

    numeric = numeric_phase_integral(integrand, N, radius=3.0)
    assert numeric == pytest.approx(N / (N + 1.0), rel=1e-10)


@pytest.mark.parametrize("K", [1, 2])
def test_quadrature_convergence_slope_sphere(K):
    res = wick_expand(sphere_phase(12), sphere_density(2 * K), K=K)
    Ns = np.array([10.0, 20.0, 40.0, 80.0])
    errs = []
    for N in Ns:
        def integrand(v, N=N):
            t = np.abs(v) ** 2
            return (1.0 + t) ** (-(N + 2.0))
        numeric = numeric_phase_integral(integrand, N, radius=3.0)
        errs.append(abs(res.det_neg_hessian * numeric - res.evaluate(N)))
    slope = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
    assert abs(slope + (K + 1)) <= 0.5


@pytest.mark.parametrize("K", [1, 2])
def test_quadrature_convergence_slope_weighted_gaussian(K):
    # pure pairing phase, analytic amplitude 1/(1+v vbar)^2: the Watson
    # series has T_k = (-1)^k (k+1)!, truncation error ~ (K+2)! N^-(K+1)
    phase = gauss_phase(2 * K + 2)
    res = wick_expand(phase, sphere_density(2 * K), K=K)
    Ns = np.array([10.0, 20.0, 40.0, 80.0])
    errs = []
    for N in Ns:
        def integrand(v, N=N):
            t = np.abs(v) ** 2
            return np.exp(-N * t) / (1.0 + t) ** 2
        numeric = numeric_phase_integral(integrand, N, radius=2.0)
        errs.append(abs(numeric - res.evaluate(N)))
    want = [(-1.0) ** k * math.factorial(k + 1) for k in range(K + 1)]
    assert res.coeffs == pytest.approx(want, rel=1e-12)
    slope = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
    assert abs(slope + (K + 1)) <= 0.5


def test_gaussian_quadrature_unit():
    N = 30.0
    numeric = numeric_phase_integral(lambda v: np.exp(-N * np.abs(v) ** 2), N, radius=1.5)
    assert numeric == pytest.approx(1.0, abs=1e-10)


def test_expansion_result_guards():
    with pytest.raises(ValueError):
        ExpansionResult((), "x", 1.0, "wick")
    with pytest.raises(ArithmeticError):
        ExpansionResult((float("nan"),), "x", 1.0, "wick")


# -- parameter families -------------------------------------------------------


def test_family_exp_multinomial():
    u, ubar, dx, dzb = PairFamily.variables(4, 3)
    fam = (u + ubar + dx).exp()
    for i in range(5):
        for j in range(5):
            for p in range(4):
                want = 1.0 / (math.factorial(i) * math.factorial(j) * math.factorial(p))
                assert fam.coeffs[i, j, p, 0] == pytest.approx(want, rel=1e-12)


def test_family_log_exp_roundtrip():
    u, ubar, dx, dzb = PairFamily.variables(5, 4)
    fam = 0.3 * u + 0.2 * ubar * dx - 0.1 * dzb * dzb * u + 0.05 * ubar * ubar
    back = fam.exp().log()
    assert np.max(np.abs(back.coeffs - fam.coeffs)) <= 1e-12


def test_family_reciprocal():
    u, ubar, dx, dzb = PairFamily.variables(4, 4)
    fam = 2.0 + u * ubar - 0.5 * dx * dzb
    prod = fam * fam.reciprocal()
    one = PairFamily.constant(1.0, 4, 4)
    assert np.max(np.abs(prod.coeffs - one.coeffs)) <= 1e-12


def test_family_product_reference():
    rng = np.random.default_rng(42)
    P, M = 3, 2
    a = PairFamily(rng.standard_normal((P + 1, P + 1, M + 1, M + 1)), P, M)
    b = PairFamily(rng.standard_normal((P + 1, P + 1, M + 1, M + 1)), P, M)
    grid = np.add.outer(np.arange(M + 1), np.arange(M + 1))
    for fam in (a, b):
        fam.coeffs[:, :, grid > M] = 0.0
    # reference: explicit loop respecting box pair caps and total param cap
    want = np.zeros_like(a.coeffs)
    for i1, j1, p1, q1 in np.argwhere(a.coeffs != 0):
        for i2, j2, p2, q2 in np.argwhere(b.coeffs != 0):
            i, j, p, q = i1 + i2, j1 + j2, p1 + p2, q1 + q2
            if i <= P and j <= P and p + q <= M:
                want[i, j, p, q] += a.coeffs[i1, j1, p1, q1] * b.coeffs[i2, j2, p2, q2]
    got = (a * b).coeffs
    assert np.max(np.abs(got - want)) <= 1e-12


def test_family_shift_scale_diff():
    u, ubar, dx, dzb = PairFamily.variables(3, 2)
    fam = u * ubar + 2.0 * dx * u
    shifted = fam.pair_shift(1, 1)
    assert shifted.coeffs[2, 2, 0, 0] == pytest.approx(1.0)
    assert shifted.coeffs[2, 1, 1, 0] == pytest.approx(2.0)
    block = np.zeros((3, 3), dtype=complex)
    block[1, 0] = 3.0
    scaled = fam.param_scale(block)
    assert scaled.coeffs[1, 1, 1, 0] == pytest.approx(3.0)
    assert scaled.coeffs[1, 0, 2, 0] == pytest.approx(6.0)
    d = fam.diff_u()
    assert d.coeffs[0, 1, 0, 0] == pytest.approx(1.0)
    assert d.coeffs[0, 0, 1, 0] == pytest.approx(2.0)
    assert fam.valuation() == 2
    vals = fam.evaluate_params(0.5, 0.0)
    assert vals[1, 0] == pytest.approx(1.0)  # 2 * dx * u at dx = 0.5
    assert vals[1, 1] == pytest.approx(1.0)


def test_param_scale_matches_pair_product():
    # param_scale takes the series product; a family whose only live pair
    # block is (0, 0) takes conv_pair to the same result.  Both operands
    # carry entries above the parameter cap, which both products drop.
    rng = np.random.default_rng(8)
    P, M = 4, 3
    shape = (P + 1, P + 1, M + 1, M + 1)
    fam = PairFamily(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), P, M)
    block = rng.standard_normal((M + 1, M + 1)) + 1j * rng.standard_normal((M + 1, M + 1))
    block[1, 2] = 0.0  # a zero coefficient adds no slice
    G = PairFamily.zeros(P, M)
    G.coeffs[0, 0] = block
    want = (fam * G).coeffs
    got = fam.param_scale(block).coeffs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_param_poly_reciprocal_inverts():
    # parameter polynomials are two-variable series at the parameter cap
    rng = np.random.default_rng(3)
    M = 5
    a = rng.standard_normal((M + 1, M + 1)) * 0.3
    a[np.add.outer(np.arange(M + 1), np.arange(M + 1)) > M] = 0.0
    a[0, 0] = 1.7
    poly = PowerSeries(a, M)
    prod = (poly * poly.reciprocal()).coeffs
    want = np.zeros_like(prod)
    want[0, 0] = 1.0
    assert np.max(np.abs(prod - want)) <= 1e-12


def _sphere_family(P, M):
    u, ubar, dx, dzb = PairFamily.variables(P, M)
    model = geometry.SphereModel()
    L = model.two_phi_tilde_ring
    x, zbar = dx, dzb
    y = x + u
    wbar = zbar + ubar
    return L(x, wbar) - L(y, wbar) + L(y, zbar) - L(x, zbar)


def test_family_duck_types_through_model_ring():
    fam = _sphere_family(6, 2)
    base = fam.block(0, 0)  # parameter polynomial at u^0 ubar^0
    assert np.max(np.abs(base)) <= 1e-12
    # offsets off: the pair part is -log(1 + u ubar)
    scalar = sphere_phase(6)
    for i in range(7):
        for j in range(7):
            if i + j <= 6:
                assert fam.coeffs[i, j, 0, 0] == pytest.approx(
                    complex(scalar.coeffs[i, j]), abs=1e-12)


def test_family_flatten_identity():
    P, M = 6, 2
    fam = PairFamily.zeros(P, M)
    fam.coeffs[1, 1, 0, 0] = -1.0
    data = morse_normalize_family(fam)
    u, ubar, _, _ = PairFamily.variables(P, M)
    assert np.max(np.abs(data.iota_v.coeffs - u.coeffs)) == 0.0
    assert np.max(np.abs(data.iota_vbar.coeffs - ubar.coeffs)) == 0.0
    one = PairFamily.constant(1.0, P, M)
    assert np.max(np.abs(data.jacobian.coeffs - one.coeffs)) == 0.0


def test_family_flatten_sphere_base_closed_forms():
    # at zero offsets: iota_vbar = (e^{u ubar} - 1)/u, J = e^{u ubar},
    # density transport rho(iota) J = e^{-u ubar}
    P = 8
    fam = _sphere_family(P, 0)
    data = morse_normalize_family(fam)
    for m in range(P):
        if 2 * m + 1 <= P - 1:
            want = 1.0 / math.factorial(m + 1)
            assert data.iota_vbar.coeffs[m, m + 1, 0, 0] == pytest.approx(want, rel=1e-10)
    for m in range(P):
        if 2 * m <= P - 2:
            assert data.jacobian.coeffs[m, m, 0, 0] == pytest.approx(
                1.0 / math.factorial(m), rel=1e-10)
    u, ubar, dx, dzb = PairFamily.variables(P, 0)
    model = geometry.SphereModel()
    rho = model.density_rho_ring(dx + u, dzb + ubar)
    w = data.transport(rho) * data.jacobian
    for m in range(P):
        if 2 * m <= P - 2:
            want = (-1.0) ** m / math.factorial(m)
            assert w.coeffs[m, m, 0, 0] == pytest.approx(want, rel=1e-10)


def test_family_jacobian_base_block_is_ainv():
    data = morse_normalize_family(_sphere_family(6, 4))
    assert np.array_equal(data.jacobian.block(0, 0), data.ainv_block)


def test_family_matches_scalar_at_offsets():
    P, M = 8, 6
    a, b = 0.05, -0.03 + 0.02j
    data = morse_normalize_family(_sphere_family(P, M))

    model = geometry.SphereModel()
    jet = model.phase_phi1_series(a, b, order=10)
    scalar_phase = PowerSeries(np.ascontiguousarray(jet.coeffs[:, :, 0, 0]), 10)
    (kv, kvb), jac = morse_normalize(scalar_phase, K=8)

    fam_vbar = data.iota_vbar.evaluate_params(a, b)
    fam_jac = data.jacobian.evaluate_params(a, b)
    for i in range(P + 1):
        for j in range(P + 1):
            if i + j <= P - 1:
                assert fam_vbar[i, j] == pytest.approx(
                    complex(kvb.coeffs[i, j]), abs=2e-6)
            if i + j <= P - 2:
                assert fam_jac[i, j] == pytest.approx(
                    complex(jac.coeffs[i, j]), abs=2e-6)

    got_a = np.einsum("pq,p,q->", data.a_block,
                      a ** np.arange(M + 1), (b + 0j) ** np.arange(M + 1))
    assert got_a == pytest.approx(complex(model.hessian_pairing(a, b)), abs=1e-9)


def test_family_transport_matches_scalar_substitute():
    P = 8
    fam_phase = _sphere_family(P, 0)
    data = morse_normalize_family(fam_phase)
    rng = np.random.default_rng(11)
    amp2 = PowerSeries(rng.standard_normal((P + 1, P + 1)) * 0.5, P)
    amp2.coeffs[np.sum(np.indices(amp2.coeffs.shape), axis=0) > P] = 0.0
    amp_fam = PairFamily(amp2.coeffs[:, :, None, None].astype(complex), P, 0)

    (kv, kvb), _ = morse_normalize(sphere_phase(P + 2), K=P - 2)
    scal = amp2.substitute([kv.truncate(P), kvb.truncate(P)])
    got = data.transport(amp_fam)
    for i in range(P + 1):
        for j in range(P + 1):
            if i + j <= P - 1:
                assert got.coeffs[i, j, 0, 0] == pytest.approx(
                    complex(scal.coeffs[i, j]), abs=1e-9)


def test_family_boundary_guard():
    fam = PairFamily.zeros(6, 2)
    fam.coeffs[1, 1, 0, 0] = -1.0
    fam.coeffs[0, 3, 0, 0] = 0.4
    with pytest.raises(ArithmeticError, match="boundary"):
        morse_normalize_family(fam)


def test_family_degenerate_pairing():
    fam = PairFamily.zeros(6, 2)
    fam.coeffs[2, 2, 0, 0] = 1.0
    with pytest.raises(ValueError, match="degenerate"):
        morse_normalize_family(fam)
