"""Release acceptance suite.

Eleven numbered checks covering the whole calculus, each printing one
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).  The
tolerances are pinned here and nowhere else; a red line means the library
genuinely does not meet that check, never that the suite was loosened.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from toeplitz_forge import combinatorics as cb
from toeplitz_forge import covariant_calculus as cc
from toeplitz_forge import function_spaces as fs
from toeplitz_forge import geometry as geo
from toeplitz_forge import quantization_spectral as qs
from toeplitz_forge import stationary_phase as sp
from toeplitz_forge.series import PowerSeries

SPHERE = geo.sphere()
PLANE = geo.bargmann()
HALF = fs.Domain.interval(-0.5, 0.5)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _fit(xs, ys):
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * np.asarray(xs) + intercept
    ss_res = float(np.sum((np.asarray(ys) - fitted) ** 2))
    ss_tot = float(np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), r2


# -- 1: exhaustive combinatorial lemmas, exact arithmetic ----------------------


def test_criterion_01_combinatorics_exhaustive():
    violations = 0
    checks = 0
    # polyindex-binomial domination, |mu| <= 10 (slots beyond three add zeros)
    for dim in (1, 2, 3):
        for mu in itertools.product(range(11), repeat=dim):
            if sum(mu) > 10:
                continue
            for nu in itertools.product(*[range(m + 1) for m in mu]):
                checks += 1
                violations += not cb.check_binomial_domination(mu, nu).holds
    # multinomial bound, n <= 4, both sums <= 10
    for dim in (1, 2, 3, 4):
        for a in itertools.product(range(11), repeat=dim):
            if sum(a) > 10:
                continue
            for b in itertools.product(range(1, 11), repeat=dim):
                if sum(b) > 10:
                    continue
                checks += 1
                violations += not cb.binom_multi_bound(a, b).holds
    # hull membership on the sum plane, n <= 5, ell <= 12
    for n in (2, 3, 4, 5):
        for ell in range(2, 13):
            for t in itertools.product(range(ell + 1), repeat=n):
                if sum(t) != ell:
                    continue
                checks += 1
                inside = cb.hull_membership(t, ell).holds
                expected = sum(1 for x in t if x >= 1) >= 2
                violations += inside != expected
    # 3^m/4^m sum lemma across the legal m range (the lemma needs n >= 2)
    for n in (2, 3):
        for d in (0, 1, 2):
            for m in cb.legal_m_range(n, d, 24):
                for ell in range(61):
                    checks += 1
                    violations += not cb.lem_hard_sum(n, d, ell, m, exact=True).holds
    _verdict(1, "combinatorial lemmas", violations == 0,
             f"{checks} exact checks, {violations} violations")


# -- 2: summation contract for the saturating sequence -------------------------


def test_criterion_02_summation_contract():
    R = 1.0
    factorials = [Fraction(math.factorial(k)) for k in range(200)]
    ratio_cap = math.e / 3.0
    bound_factor = 3.0 / (3.0 - math.e)
    ok = True
    worst_ratio = 0.0
    for N in range(5, 201):
        K = fs.summation_cutoff(N, R)
        coeffs = factorials[: K + 1]
        sym = fs.make_symbol(coeffs, HALF, r=2.0, R=R, m=0)
        res = fs.summation(sym, N)
        terms = [Fraction(math.factorial(k), N ** k) for k in range(K + 1)]
        ratio = max((float(terms[k + 1] / terms[k]) for k in range(K)), default=0.0)
        worst_ratio = max(worst_ratio, ratio)
        ok = ok and ratio <= ratio_cap + 1e-12
        ok = ok and res.sup_abs <= sym.constant * bound_factor * (1.0 + 1e-12)
    # tail between c1 N and the cutoff decays at least at rate c1 log(3/e)
    c1 = 0.5
    target = 0.9 * c1 * math.log(3.0 / math.e)
    levels = list(range(20, 201, 20))
    tails = []
    for N in levels:
        K = fs.summation_cutoff(N, R)
        sym = fs.make_symbol(factorials[: K + 1], HALF, r=2.0, R=R, m=0)
        tails.append(fs.summation(sym, N, c1=c1).tail_estimate)
    rate, r2 = _fit(levels, [-math.log(t) for t in tails])
    ok = ok and rate >= target and r2 > 0.99
    _verdict(2, "summation bounds", ok,
             f"worst ratio {worst_ratio:.4f} <= e/3, tail rate {rate:.3f} >= {target:.4f}, r2 {r2:.4f}")


# -- 3: star inverse, residual and certificate ----------------------------------


def test_criterion_03_star_inverse():
    rng = np.random.default_rng(2024)
    K = 12
    worst_residual = 0.0
    certified = 0
    for _ in range(50):
        coeffs = []
        lead = PowerSeries.from_terms(
            {(0,): float(rng.uniform(0.8, 2.0)) * float(rng.choice([-1.0, 1.0])),
             (1,): float(rng.uniform(-0.3, 0.3))},
            1, K,
        )
        coeffs.append(lead)
        for _k in range(K):
            s = PowerSeries.zero(1, K)
            s.coeffs[:3] = 0.3 * rng.uniform(-1, 1, 3)
            coeffs.append(s)
        a = fs.make_symbol(coeffs, HALF, r=2.0, R=2.0, m=0)
        b = fs.star_inverse(a)
        prod = fs.cauchy_product(a, b)
        unit = fs.unit_symbol(a)
        residual = float(np.max(np.abs(prod.coeffs[0].coeffs - unit.coeffs[0].coeffs)))
        for k in range(1, K + 1):
            residual = max(residual, float(np.max(np.abs(prod.coeffs[k].coeffs))))
        worst_residual = max(worst_residual, residual)
        report = fs.star_inverse_report(a)
        certified += report.holds
        assert report.paper_bound == pytest.approx(
            2.0 * report.min_abs_a0 ** (-4) * a.constant ** 3, rel=1e-12
        )
    ok = worst_residual < 1e-12 and certified == 50
    _verdict(3, "star inverse", ok,
             f"worst residual {worst_residual:.2e}, certificate held on {certified}/50")


# -- 4: explicit mixed-log constant ---------------------------------------------


def test_criterion_04_mixed_log_constant():
    chk = geo.mixed_log_derivative_check()
    reference = (1.0 - math.log(2.0)) / (2.0 * math.log(2.0) ** 2)
    err = abs(chk.remark_value - reference)
    _verdict(4, "mixed-log constant", err < 1e-12,
             f"value {chk.remark_value:.12f}, |err| {err:.2e}")


# -- 5: stationary-phase routes and quadrature rates ---------------------------


def _sphere_phase(order):
    u = PowerSeries.variable(0, 2, order)
    ubar = PowerSeries.variable(1, 2, order)
    return -((1 + u * ubar).log())


def _sphere_density(order):
    u = PowerSeries.variable(0, 2, order)
    ubar = PowerSeries.variable(1, 2, order)
    return (1 + u * ubar).reciprocal() ** 2


def test_criterion_05_stationary_phase():
    rng = np.random.default_rng(5)
    gauss = PowerSeries.from_terms({(1, 1): -1.0}, 2, 12)
    worst = 0.0
    for phase in (gauss, _sphere_phase(12)):
        for trial in range(3):
            terms = {
                (i, j): float(np.round(rng.uniform(-1, 1), 6))
                for i in range(4) for j in range(4 - i)
            }
            amp = PowerSeries.from_terms(terms, 2, 12)
            wick = sp.wick_expand(phase, amp, K=4)
            morse = sp.morse_expand(phase, amp, K=4)
            worst = max(worst, max(abs(complex(w) - complex(m))
                                   for w, m in zip(wick.coeffs, morse.coeffs)))
    routes_ok = worst < 1e-10
    slopes = []
    slope_ok = True
    for K in (1, 2):
        res = sp.wick_expand(_sphere_phase(12), _sphere_density(2 * K), K=K)
        levels = np.array([10.0, 20.0, 40.0, 80.0])
        errs = []
        for N in levels:
            def integrand(v, N=N):
                t = np.abs(v) ** 2
                return (1.0 + t) ** (-(N + 2.0))
            numeric = sp.numeric_phase_integral(integrand, N, radius=3.0)
            errs.append(abs(res.det_neg_hessian * numeric - res.evaluate(N)))
        slope = np.polyfit(np.log(levels), np.log(errs), 1)[0]
        slopes.append(slope)
        slope_ok = slope_ok and abs(slope + (K + 1)) <= 0.5
    ok = routes_ok and slope_ok
    _verdict(5, "stationary phase", ok,
             f"route gap {worst:.2e}, slopes {slopes[0]:.2f}/{slopes[1]:.2f} vs -2/-3")


# -- 6: flat star product equals the closed Wick form --------------------------


def test_criterion_06_bargmann_star_product():
    rng = np.random.default_rng(6)

    def rand_poly(deg, order):
        terms = {
            (p, q): float(np.round(rng.uniform(-1, 1), 6))
            for p in range(deg + 1) for q in range(deg + 1 - p)
        }
        return cc.symbol_from_poly(PLANE, [terms], order=order)

    worst = 0.0
    for _ in range(3):
        f = rand_poly(4, 8)
        g = rand_poly(4, 8)
        engine = cc.sharp_product(f, g, K=6)
        closed = cc.bargmann_wick_product(f, g, K=6)
        for k in range(7):
            d = engine.coeffs[0, k] - closed.coeffs[0, k]
            worst = max(worst, float(np.max(np.abs(d))))
    _verdict(6, "flat Wick product", worst < 1e-10, f"worst coefficient gap {worst:.2e}")


# -- 7: projector symbol and kernel expansion error ----------------------------


def test_criterion_07_kernel_expansion():
    symbol = cc.bergman_symbol(SPHERE, K=4)
    lead = [complex(symbol.coeffs[0, k, 0, 0]) for k in range(3)]
    coeff_err = max(abs(lead[0] - 1.0), abs(lead[1] - 1.0), abs(lead[2]))
    levels = list(range(8, 65, 8))
    errors = []
    for N in levels:
        K = min(fs.summation_cutoff(N, symbol.R), symbol.K)
        errors.append(qs.bergman_kernel_error(SPHERE, N, K=K))
    slope, r2 = _fit(levels, np.log(errors))
    ok = coeff_err < 1e-8 and slope < 0.0 and r2 > 0.98
    _verdict(7, "kernel expansion", ok,
             f"(a0,a1,a2) err {coeff_err:.2e}, slope {slope:.3f}, r2 {r2:.4f}")


# -- 8: composition defect at operator level -----------------------------------


def test_criterion_08_operator_composition():
    f = cc.symbol_from_poly(
        SPHERE, [{(0, 0, 0): 1.0, (0, 0, 1): 0.5}], order=16, node_count=24
    )
    g = cc.symbol_from_poly(
        SPHERE, [{(0, 0, 0): 1.0, (0, 0, 1): -1.0 / 3.0}], order=16, node_count=24
    )
    levels = [8, 16, 24, 32, 48, 64]
    # T(f) and T(g) do not depend on K
    factors = [
        (np.asarray(qs.covariant_matrix(SPHERE, f, N, K=0)),
         np.asarray(qs.covariant_matrix(SPHERE, g, N, K=0)))
        for N in levels
    ]
    ok = True
    details = []
    for K in (2, 3):
        product = cc.sharp_product(f, g, K)
        defects = []
        for N, (mf, mg) in zip(levels, factors):
            mh = np.asarray(qs.covariant_matrix(SPHERE, product, N, K=K))
            defects.append(qs.operator_norm(mf @ mg - mh))
        slope, _ = _fit(np.log(levels), np.log(defects))
        details.append(f"K={K} slope {slope:.2f} (need <= {-(K + 0.5)})")
        ok = ok and slope <= -(K + 0.5)
    _verdict(8, "operator composition", ok, "; ".join(details))


# -- 9: perturbation invariance of the product coefficients --------------------


def test_criterion_09_wick_degree():
    f = cc.symbol_from_poly(SPHERE, [{(0, 0, 0): 1.0, (0, 0, 1): 0.4}], order=10)
    g = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}, {(0, 0, 2): -0.3}], order=10)
    fp = cc.symbol_from_poly(PLANE, [{(0, 0): 1.0, (1, 1): 0.5}], order=10)
    gp = cc.symbol_from_poly(PLANE, [{(2, 1): 1.0}], order=10)
    ok = True
    for k in range(4):
        ok = ok and cc.wick_degree_check(f, g, k, basepoint=4, tol=1e-8)
        ok = ok and cc.wick_degree_check(fp, gp, k, tol=1e-8)
    _verdict(9, "perturbation invariance", ok, "k <= 3, both geometries, tol 1e-8")


# -- 10: forbidden-region decay -------------------------------------------------


def _equator_cap_mass(N: int) -> Fraction:
    """Exact mass of the E = 0 eigenvector of T(x3) on {x3 >= 1/2}, N even.

    T(x3) is diagonal, so the eigenvector is z^{N/2}.  The density of
    |z^j|^2 is Beta(j+1, N-j+1) in w = t/(1+t) and the cap is {w <= 1/4},
    so the mass is I_{1/4}(N/2+1, N/2+1), a binomial tail.
    """
    q = Fraction(1, 4)
    return sum(
        math.comb(N + 1, i) * q**i * (1 - q) ** (N + 1 - i) for i in range(N // 2 + 1, N + 2)
    )


def test_criterion_10_eigenfunction_decay():
    levels = list(range(8, 49, 4))
    report = qs.decay_report(SPHERE, {(0, 0, 1): 1.0}, 0.0, "x3 >= 1/2", levels)
    masses = [row[3] for row in report.rows]
    exact = [float(_equator_cap_mass(N)) for N in levels]
    worst_dev = max(abs(m - e) / e for m, e in zip(masses, exact))
    exact_rate, _ = _fit(levels, [-math.log(e) for e in exact])
    # the N -> infinity rate is KL(1/2 || 1/4); the N^{-1/2} prefactor keeps
    # every finite window above it
    limit = 0.5 * math.log(4.0 / 3.0)
    decreasing = all(a > b for a, b in zip(masses, masses[1:]))
    main_ok = (
        decreasing
        and report.fit_quality > 0.99
        and worst_dev < 1e-12
        and abs(report.rate - exact_rate) < 1e-9
        and report.rate > limit
    )
    control_ok = True
    control_rows = []
    for N in levels:
        vec = np.zeros(N + 1, dtype=complex)
        vec[0] = 1.0
        mass = qs.forbidden_mass(SPHERE, N, vec, "x3 <= -1/2")
        control_ok = control_ok and abs(mass - 4.0 ** (-(N + 1))) < 1e-10
        control_rows.append((N, mass))
    control_rate, _ = qs.decay_rate_fit(control_rows)
    control_ok = control_ok and abs(control_rate - math.log(4.0)) < 1e-3
    ok = main_ok and control_ok
    _verdict(10, "eigenfunction decay", ok,
             f"decreasing={decreasing}, c {report.rate:.6f} vs closed form {exact_rate:.6f} "
             f"(limit ln(4/3)/2 = {limit:.6f}), worst rel mass dev {worst_dev:.1e}, "
             f"r2 {report.fit_quality:.4f}, control c {control_rate:.6f}")


# -- 11: uniform invertibility band ---------------------------------------------


def test_criterion_11_pre_inverse_band():
    # The sphere Bergman symbol is 1 + 1/N and the default cutoff {u >= rho},
    # u = |1 + x ybar|^2 / ((1+|x|^2)(1+|y|^2)), is SU(2)-invariant, so by
    # Schur's lemma the covariant matrix is c_N I.  The trace identity, with u
    # uniform under the area measure, gives c_N = 1 - rho^{N+1}.
    rho = (3.0 + math.sqrt(5.0)) / 8.0
    default_rho = math.cos(qs.CUTOFF_FACTOR * SPHERE.injectivity_radius / math.sqrt(2.0)) ** 2
    ok = abs(default_rho - rho) < 1e-15
    tol = 5e-4  # twice the worst quadrature error at the default 80 radial nodes
    symbol = cc.bergman_symbol(SPHERE, K=4)

    def gap(matrix, N):
        exact = 1.0 - rho ** (N + 1)
        extremes = (qs.invertibility_check(matrix), qs.operator_norm(matrix))
        band_ok = all(abs(s - 1.0) <= rho ** (N + 1) + tol for s in extremes)
        return max(abs(s - exact) for s in extremes), band_ok

    errs = {}
    for N in range(4, 33):
        errs[N], band_ok = gap(qs.covariant_matrix(SPHERE, symbol, N), N)
        ok = ok and band_ok and errs[N] <= tol
    worst_N = max(errs, key=errs.get)
    # the residual is quadrature error, not bias: it shrinks under refinement
    fine, _ = gap(qs.covariant_matrix(SPHERE, symbol, 4, n_radial=160), 4)
    ok = ok and fine <= 0.5 * errs[4]
    _verdict(11, "pre-inverse band", ok,
             f"worst |sigma - (1 - rho^(N+1))| {errs[worst_N]:.1e} at N={worst_N} (tol {tol:.0e}), "
             f"N=4 gap {errs[4]:.1e} -> {fine:.1e} at 160 radial nodes")
