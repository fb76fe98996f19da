"""Norm certificates, symbol algebra, and truncated summation."""

import dataclasses
import itertools
import math
import sys
import threading
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from toeplitz_forge import constants, function_spaces as fs
from toeplitz_forge.function_spaces import (
    AnalyticSymbol, Domain, HNormCertificate, _eval_mesh, estimate_h_norm)
from toeplitz_forge.series import PowerSeries

HALF = fs.Domain.interval(-0.5, 0.5)


def geometric_series(order=24):
    """1/(1-x) as a jet at 0."""
    s = PowerSeries.zero(1, order)
    s.coeffs[:] = 1.0
    return s


# -- paper claims the library does not run ------------------------------------
# Certificate embedding, inversion and import, the summation tail rate and
# the symbol pullback are checked here and nowhere else.


def embed_certificate(c: HNormCertificate, m_new: int, r_new: float) -> HNormCertificate:
    """Reinterpret a certificate at weaker parameters, constant unchanged.

    Legal when m_new >= m and r_new >= r * 2^(m_new - m): the weight
    (j+1)^(m_new) / r_new^j is then dominated by (j+1)^m / r^j for all j.
    """
    if m_new < c.m:
        raise ValueError("embedding cannot decrease m")
    if r_new < c.r * 2 ** (m_new - c.m):
        raise ValueError(
            f"embedding needs r_new >= {c.r * 2 ** (m_new - c.m)}, got {r_new}"
        )
    return HNormCertificate(m_new, float(r_new), c.domain, c.constant, c.j_max, c.grid_resolution)


def invert_h(
    f: PowerSeries, cert: HNormCertificate, inf_abs: float
) -> tuple:
    """Reciprocal series with its certificate.

    ``inf_abs`` must lower-bound |f| on the domain; this is re-verified on
    the certificate's grid. The returned constant is the grid estimate for
    1/f, which must not exceed the classical bound ||f|| / inf_abs^2.
    """
    if inf_abs <= 0:
        raise ValueError("need a positive lower bound")
    grids = cert.domain.grids(cert.grid_resolution)
    vals = np.abs(_eval_mesh(f, grids))
    if float(np.min(vals)) < inf_abs:
        raise ValueError(
            f"|f| dips to {float(np.min(vals)):.6g} on the grid, below {inf_abs}"
        )
    inv = f.reciprocal()
    new_cert = estimate_h_norm(
        inv, cert.m, cert.r, cert.domain, cert.j_max, cert.grid_resolution
    )
    bound = cert.constant / inf_abs**2
    if new_cert.constant > bound * (1.0 + 1e-9):
        raise ArithmeticError(
            f"reciprocal estimate {new_cert.constant:.6g} exceeds the bound {bound:.6g}"
        )
    return inv, new_cert


def cauchy_import(
    f: PowerSeries, T: float, sup_bound: float, d: int = 1
) -> HNormCertificate:
    """Certificate from a plain sup bound via Cauchy derivative estimates.

    |f| <= sup_bound on the disk of radius 2T yields membership in
    H(-d, d/T) on the disk of radius T with constant C * sup_bound. For
    d = 1 (both model spaces) C = 1: the Cauchy estimate gives
    |f^(j)(x)| <= sup_bound * j! / T^j on |x| <= T, and the weight
    (j+1)^(-1) (T/1)^j / j! collapses the rest.
    """
    if T <= 0:
        raise ValueError("need T > 0")
    if d != 1:
        raise NotImplementedError("only one complex dimension is supported")
    if f.nvars != 1:
        raise ValueError("cauchy_import expects a one-variable series")
    # sanity: confirm the promised sup bound on the outer boundary grid
    outer = Domain.disk(2.0 * T).grids(64)
    vals = np.abs(_eval_mesh(f, outer))
    if float(np.max(vals)) > sup_bound * (1.0 + 1e-9):
        raise ValueError(
            f"|f| reaches {float(np.max(vals)):.6g} on the outer disk, above {sup_bound}"
        )
    constant = constants.CAUCHY_IMPORT_C[d] * sup_bound
    cert = HNormCertificate(-d, d / T, Domain.disk(T), constant, j_max=10, grid_resolution=41)
    inner = estimate_h_norm(f, -d, d / T, Domain.disk(T), j_max=10)
    if inner.constant > constant * (1.0 + 1e-9):
        raise ArithmeticError(
            f"grid estimate {inner.constant:.6g} exceeds the imported constant {constant:.6g}"
        )
    return cert


def tail_rate(c1: float) -> float:
    """Exponential rate of the summation tail: c2 = c1 log(3/e)."""
    return c1 * math.log(3.0 / math.e)


def symbol_pullback(a: AnalyticSymbol, kappa: Sequence[PowerSeries]) -> AnalyticSymbol:
    """Compose every coefficient with a change of variables fixing the base."""
    new_coeffs = tuple(c.substitute(list(kappa)) for c in a.coeffs)
    return AnalyticSymbol(new_coeffs, a.K, a.r, a.R, a.m, a.domain,
                          a.j_max, a.grid_resolution)


def test_h_norm_constant_function():
    one = PowerSeries.constant(1.0, 1, 4)
    cert = fs.estimate_h_norm(one, m=3, r=0.7, domain=HALF)
    assert abs(cert.constant - 1.0) < 1e-14


def test_h_norm_geometric_series():
    # sup over (-1/2,1/2) of the j-th derivative weight is exactly 2 at every j
    cert = fs.estimate_h_norm(geometric_series(60), m=0, r=2.0, domain=HALF, j_max=12)
    assert abs(cert.constant - 2.0) < 1e-3


def test_h_norm_exponential():
    s = PowerSeries.zero(1, 24)
    for k in range(25):
        s.coeffs[k] = 1.0 / math.factorial(k)
    cert = fs.estimate_h_norm(s, m=0, r=1.0, domain=fs.Domain.interval(-1.0, 1.0), j_max=8)
    assert abs(cert.constant - math.e) < 1e-6


def test_h_norm_grid_refinement_stable():
    cert41 = fs.estimate_h_norm(geometric_series(60), 0, 2.0, HALF, j_max=8)
    cert82 = fs.estimate_h_norm(geometric_series(60), 0, 2.0, HALF, j_max=8, grid_resolution=82)
    assert abs(cert41.constant - cert82.constant) < 0.01 * cert41.constant


def test_h_norm_flags_unreliable_domain():
    # the geometric jet is garbage near the unit circle
    with pytest.raises(ValueError):
        fs.estimate_h_norm(geometric_series(30), 0, 2.0, fs.Domain.interval(-0.95, 0.95))


def test_embedding_rule():
    cert = fs.estimate_h_norm(geometric_series(60), m=0, r=2.0, domain=HALF)
    moved = embed_certificate(cert, 2, 8.0)
    assert moved.constant == cert.constant and moved.m == 2 and moved.r == 8.0
    same = embed_certificate(cert, cert.m, cert.r)
    assert same.constant == cert.constant
    with pytest.raises(ValueError):
        embed_certificate(cert, 2, 7.9)
    with pytest.raises(ValueError):
        embed_certificate(cert, -1, 100.0)


def test_embedding_monotonicity_on_grid():
    f = geometric_series(60)
    base = fs.estimate_h_norm(f, m=0, r=2.0, domain=HALF, j_max=10)
    for m_new, r_new in ((1, 4.0), (2, 8.0), (3, 16.0), (2, 11.0)):
        weaker = fs.estimate_h_norm(f, m=m_new, r=r_new, domain=HALF, j_max=10)
        assert weaker.constant <= base.constant * (1 + 1e-12), (m_new, r_new)


def test_invert_h_constant():
    two = PowerSeries.constant(2.0, 1, 6)
    cert = fs.estimate_h_norm(two, 0, 2.0, HALF)
    inv, inv_cert = invert_h(two, cert, inf_abs=2.0)
    assert abs(inv.constant_term() - 0.5) < 1e-15
    assert inv_cert.constant <= cert.constant / 4.0 + 1e-12


def test_invert_h_affine():
    f = PowerSeries.from_terms({(0,): 2.0, (1,): 1.0}, 1, 24)
    cert = fs.estimate_h_norm(f, 0, 2.0, HALF, j_max=8)
    inv, inv_cert = invert_h(f, cert, inf_abs=1.5)
    x = 0.3
    assert abs(inv(x) - 1.0 / (2.0 + x)) < 1e-9
    assert inv_cert.constant <= cert.constant / 1.5**2 + 1e-12
    with pytest.raises(ValueError):
        invert_h(f, cert, inf_abs=1.6)  # |f(-1/2)| = 1.5 < 1.6


def test_invert_h_quadratic():
    f = PowerSeries.from_terms({(0,): 1.0, (2,): 0.25}, 1, 16)
    cert = fs.estimate_h_norm(f, 0, 2.0, HALF, j_max=8)
    inv, inv_cert = invert_h(f, cert, inf_abs=1.0)
    assert inv_cert.constant <= cert.constant


def test_cauchy_import_geometric():
    cert = cauchy_import(geometric_series(40), T=0.25, sup_bound=2.0, d=1)
    assert cert.m == -1 and abs(cert.r - 4.0) < 1e-15
    assert cert.constant <= 2.0 + 1e-12


def test_cauchy_import_constant_and_monomial():
    c = PowerSeries.constant(3.0, 1, 10)
    cert = cauchy_import(c, T=0.5, sup_bound=3.0)
    assert cert.constant <= 3.0 + 1e-12
    z5 = PowerSeries.from_terms({(5,): 1.0}, 1, 12)
    cert = cauchy_import(z5, T=0.5, sup_bound=1.0)
    inner = fs.estimate_h_norm(z5, -1, 2.0, fs.Domain.disk(0.5), j_max=10)
    assert inner.constant <= cert.constant + 1e-12


def test_cauchy_import_rejects_false_sup():
    with pytest.raises(ValueError):
        cauchy_import(geometric_series(40), T=0.25, sup_bound=1.5, d=1)


def test_symbol_norm_unit():
    unit = fs.make_symbol([1.0, 0.0, 0.0], HALF, r=2.0, R=3.0, m=2)
    assert abs(unit.constant - 1.0) < 1e-14


def test_symbol_norm_saturating_sequence():
    # a_k = R^k k! saturates the k-weight exactly at m = 0
    R = 1.5
    coeffs = [R**k * math.factorial(k) for k in range(5)]
    sym = fs.make_symbol(coeffs, HALF, r=2.0, R=R, m=0)
    assert abs(sym.constant - 1.0) < 1e-12


def test_cauchy_product_telescoping():
    ones = fs.make_symbol([1.0, 1.0, 1.0, 1.0], HALF, r=2.0, R=2.0, m=4)
    diff = fs.make_symbol([1.0, -1.0, 0.0, 0.0], HALF, r=2.0, R=2.0, m=4)
    prod = fs.cauchy_product(ones, diff)
    assert abs(prod.coeffs[0].constant_term() - 1.0) < 1e-14
    for k in range(1, 4):
        assert abs(prod.coeffs[k].constant_term()) < 1e-14


def test_cauchy_product_unit_identity():
    b = fs.make_symbol([2.0, -1.0, 0.5, 0.25], HALF, r=2.0, R=2.0, m=4)
    prod = fs.cauchy_product(fs.unit_symbol(b), b)
    for k in range(4):
        assert np.allclose(
            np.asarray(prod.coeffs[k].coeffs, dtype=complex),
            np.asarray(b.coeffs[k].coeffs, dtype=complex),
        )


def test_cauchy_product_commutative_associative():
    rng = np.random.default_rng(4242)
    def rand_symbol():
        coeffs = []
        for _ in range(4):
            s = PowerSeries.zero(1, 4)
            s.coeffs[:3] = rng.uniform(-1, 1, 3)
            coeffs.append(s)
        return fs.make_symbol(coeffs, HALF, r=2.0, R=2.0, m=4)
    a, b, c = rand_symbol(), rand_symbol(), rand_symbol()
    ab = fs.cauchy_product(a, b)
    ba = fs.cauchy_product(b, a)
    for k in range(4):
        assert np.allclose(ab.coeffs[k].coeffs, ba.coeffs[k].coeffs)
    abc1 = fs.cauchy_product(ab, c)
    abc2 = fs.cauchy_product(a, fs.cauchy_product(b, c))
    for k in range(4):
        assert np.allclose(abc1.coeffs[k].coeffs, abc2.coeffs[k].coeffs, atol=1e-12)


def test_product_algebra_bound_fresh_instances():
    rng = np.random.default_rng(999)
    for _ in range(50):
        def rand_symbol():
            coeffs = []
            for _ in range(5):
                s = PowerSeries.zero(1, 4)
                s.coeffs[:3] = rng.uniform(-1, 1, 3)
                coeffs.append(s)
            return fs.make_symbol(coeffs, HALF, r=2.0, R=2.0, m=4)
        a, b = rand_symbol(), rand_symbol()
        res = fs.product_bound_check(a, b)
        assert res["holds"], (res["product_norm"], res["bound"])


def test_star_inverse_constant():
    a = fs.make_symbol([2.0, 0.0, 0.0], HALF, r=2.0, R=2.0, m=0)
    b = fs.star_inverse(a)
    assert abs(b.coeffs[0].constant_term() - 0.5) < 1e-15
    assert abs(b.coeffs[1].constant_term()) < 1e-15


def test_star_inverse_geometric_pattern():
    c = 0.7
    a = fs.make_symbol([1.0, c, 0.0, 0.0, 0.0, 0.0], HALF, r=2.0, R=2.0, m=0)
    b = fs.star_inverse(a)
    for k in range(6):
        assert abs(b.coeffs[k].constant_term() - (-c) ** k) < 1e-13


def test_star_inverse_alternating_for_bergman_pattern():
    a = fs.make_symbol([1.0, 1.0, 0.0, 0.0, 0.0], HALF, r=2.0, R=2.0, m=0)
    b = fs.star_inverse(a)
    for k in range(5):
        assert abs(b.coeffs[k].constant_term() - (-1.0) ** k) < 1e-13


def test_star_inverse_is_product_inverse():
    rng = np.random.default_rng(8)
    coeffs = [PowerSeries.from_terms({(0,): 1.2, (1,): 0.3}, 1, 6)]
    for _ in range(5):
        s = PowerSeries.zero(1, 6)
        s.coeffs[:3] = 0.4 * rng.uniform(-1, 1, 3)
        coeffs.append(s)
    a = fs.make_symbol(coeffs, HALF, r=2.0, R=2.0, m=0)
    b = fs.star_inverse(a)
    prod = fs.cauchy_product(a, b)
    assert np.max(np.abs(prod.coeffs[0].coeffs - fs.unit_symbol(a).coeffs[0].coeffs)) < 1e-12
    for k in range(1, 6):
        assert np.max(np.abs(prod.coeffs[k].coeffs)) < 1e-12


def test_star_inverse_requires_invertible_a0():
    a = fs.make_symbol(
        [PowerSeries.from_terms({(1,): 1.0}, 1, 4), PowerSeries.constant(1.0, 1, 4)],
        HALF, r=2.0, R=2.0, m=0,
    )
    with pytest.raises(ValueError):
        fs.star_inverse(a)


def test_star_inverse_report_bound():
    a = fs.make_symbol([1.0, 0.5, 0.25], HALF, r=2.0, R=2.0, m=0)
    rep = fs.star_inverse_report(a)
    assert rep.holds
    assert rep.paper_bound >= 2.0 * rep.min_abs_a0 ** (-4)


def test_summation_cutoff_and_unit():
    unit = fs.make_symbol([1, 0, 0], HALF, r=2.0, R=1.0, m=0)
    res = fs.summation(unit, 10)
    assert res.K_used == 9
    assert res.values == Fraction(1)


def test_summation_factorial_frozen_value():
    K = 9
    coeffs = [math.factorial(k) for k in range(K + 1)]
    a = fs.make_symbol(coeffs, HALF, r=2.0, R=1.0, m=0)
    res = fs.summation(a, 10)
    assert res.K_used == 9
    expect = sum(Fraction(math.factorial(k), 10**k) for k in range(10))
    assert res.values == expect
    assert abs(float(res.values) - 1.1315901) < 1e-7


def test_summation_consecutive_ratio():
    # terms N^{-k} k! at the cutoff: successive ratio stays below e/3
    N, R = 10, 1.0
    K = fs.summation_cutoff(N, R)
    terms = [Fraction(math.factorial(k), N**k) for k in range(K + 1)]
    ratios = [terms[k + 1] / terms[k] for k in range(K)]
    assert max(float(q) for q in ratios) <= math.e / 3.0 + 1e-12


def test_summation_uniform_bound():
    # the saturating sequence a_k = k! R^k obeys |f(N)| <= 3/(3-e) ||a||
    R = 1.0
    for N in (5, 20, 60):
        K = fs.summation_cutoff(N, R)
        coeffs = [math.factorial(k) for k in range(min(K, 33) + 1)]
        a = fs.make_symbol(coeffs, HALF, r=2.0, R=R, m=0)
        res = fs.summation(a, N)
        assert res.sup_abs <= res.uniform_bound * (1.0 + 1e-12)


def test_summation_tail_exponential_decay():
    # tail beyond c1 N decays at least like exp(-c2 N), c2 = c1 log(3/e)
    R, c1 = 1.0, 0.5
    c2 = tail_rate(c1)
    assert c2 > 0
    for N in (20, 60, 120, 200):
        K = fs.summation_cutoff(N, R)
        coeffs = [Fraction(math.factorial(k)) for k in range(K + 1)]
        a = fs.make_symbol(coeffs, HALF, r=2.0, R=R, m=0)
        res = fs.summation(a, N, c1=c1)
        norm_bound = 3.0 / (3.0 - math.e)  # ||a|| = 1 at these parameters
        assert res.tail_estimate <= norm_bound * math.exp(-c2 * N) * (1 + 1e-9), N


def test_summation_exact_path_handles_huge_factorials():
    N = 200
    K = fs.summation_cutoff(N, 1.0)
    assert K == 181
    coeffs = [Fraction(math.factorial(k)) for k in range(K + 1)]
    a = fs.make_symbol(coeffs, HALF, r=2.0, R=1.0, m=0)
    res = fs.summation(a, N, c1=0.5)
    assert math.isfinite(float(res.values))
    assert res.tail_estimate < 1e-15


def test_symbol_pullback_identity_and_constants():
    a = fs.make_symbol(
        [PowerSeries.from_terms({(2,): 1.0}, 1, 4), PowerSeries.constant(3.0, 1, 4)],
        HALF, r=2.0, R=2.0, m=0,
    )
    ident = [PowerSeries.variable(0, 1, 4)]
    same = symbol_pullback(a, ident)
    for k in range(2):
        assert np.allclose(same.coeffs[k].coeffs, a.coeffs[k].coeffs)


def test_symbol_pullback_quadratic_shift():
    # v^2 under v -> v + v^2 becomes v^2 + 2v^3 + v^4
    a = fs.make_symbol([PowerSeries.from_terms({(2,): 1.0}, 1, 4)], HALF, 2.0, 2.0, 0)
    kappa = [PowerSeries.from_terms({(1,): 1.0, (2,): 1.0}, 1, 4)]
    out = symbol_pullback(a, kappa)
    got = np.asarray(out.coeffs[0].coeffs, dtype=complex)
    assert np.allclose(got, [0, 0, 1, 2, 1])


def _all_partials(f: PowerSeries, j_max: int) -> dict:
    """Every partial derivative up to total order j_max, memoized bottom-up:
    the partials one ``PowerSeries.diff`` at a time, before they were
    stacked into one table."""
    out = {(0,) * f.nvars: f}
    for j in range(1, j_max + 1):
        for alpha in itertools.product(range(j + 1), repeat=f.nvars):
            if sum(alpha) != j:
                continue
            axis = next(i for i, a in enumerate(alpha) if a > 0)
            prev = list(alpha)
            prev[axis] -= 1
            out[alpha] = out[tuple(prev)].diff(axis)
    return out


def _scaled_l1_sup(group: list, grids: list) -> tuple:
    """Mesh sup of sum |s| over a group of series, as (log_scale, sup/scale),
    one ``_eval_mesh`` per series: the group sum before the stacked table.

    Exact coefficients are divided by their largest magnitude before the
    complex conversion so values far outside float64 range survive.
    """
    scale_log = 0.0
    if group and group[0].is_exact:
        peak = Fraction(0)
        for s in group:
            for c in s.coeffs.flat:
                if abs(c) > peak:
                    peak = abs(c)
        if peak > 0 and (peak.numerator.bit_length() > 500
                         or peak.denominator.bit_length() > 500):
            scale_log = math.log(peak.numerator) - math.log(peak.denominator)
            scaled = []
            for s in group:
                t = s.truncate(s.order)
                t.coeffs = t.coeffs / peak
                scaled.append(t)
            group = scaled
    l1 = None
    for series in group:
        vals = np.abs(_eval_mesh(series, grids))
        l1 = vals if l1 is None else l1 + vals
    return scale_log, float(np.max(l1)) if l1 is not None else 0.0


def _uncapped_symbol_norm(a):
    """estimate_symbol_norm before it capped the partials at the series
    degree and stacked them: one group of series at a time."""
    grids = a.domain.grids(a.grid_resolution)
    best_log = -math.inf
    for k in range(a.K + 1):
        partials = _all_partials(a.coeffs[k], a.j_max)
        for j in range(a.j_max + 1):
            group = [s for alpha, s in partials.items() if sum(alpha) == j]
            log_scale, l1 = _scaled_l1_sup(group, grids)
            if l1 == 0.0:
                continue
            log_weight = (
                a.m * math.log(j + k + 1)
                - j * math.log(a.r)
                - k * math.log(a.R)
                - math.lgamma(j + k + 1)
            )
            best_log = max(best_log, log_scale + math.log(l1) + log_weight)
    return 0.0 if best_log == -math.inf else math.exp(best_log)


@pytest.mark.parametrize("exact", [False, True])
def test_symbol_norm_partials_cap_matches_uncapped(exact):
    # series orders 0 .. j_max + 2 straddle the cap j_top = min(j_max, order)
    j_max = 3
    domain = HALF * fs.Domain.disk(0.4)
    rng = np.random.default_rng(5)
    for order in range(j_max + 3):
        coeffs = []
        for _ in range(3):
            c = PowerSeries.zero(2, order, exact)
            for expo in np.ndindex(*c.coeffs.shape):
                if sum(expo) <= order:
                    v = int(rng.integers(-5, 6))
                    c.coeffs[expo] = Fraction(v, 3) if exact else complex(v, rng.standard_normal())
            coeffs.append(c)
        a = fs.make_symbol(coeffs, domain, r=1.5, R=2.0, m=1, j_max=j_max, grid_resolution=9)
        assert a.constant == _uncapped_symbol_norm(a), order


# -- certificates on first read ------------------------------------------------


def _symbols_by_constructor():
    """One output of every symbol constructor, float, exact and series."""
    floats = fs.make_symbol([1.0, 0.5, 0.25], HALF, r=2.0, R=2.0, m=4)
    exact = fs.make_symbol([Fraction(3, 2), Fraction(1, 3), 2], HALF, r=2.0, R=2.0, m=4)
    series, other = (
        fs.make_symbol(
            [PowerSeries.from_terms({(0,): 1.0 + k, (1,): c, (3,): -0.1 * k}, 1, 6)
             for k in range(3)],
            HALF, r=2.0, R=2.0, m=4,
        )
        for c in (0.3, -0.7)
    )
    kappa = [PowerSeries.from_terms({(1,): 1.0, (2,): 0.2}, 1, 6)]
    return {
        "float": floats,
        "exact": exact,
        "series": series,
        "cauchy_product": fs.cauchy_product(series, other),
        "star_inverse": fs.star_inverse(series),
        "star_inverse_exact": fs.star_inverse(exact),
        "symbol_pullback": symbol_pullback(series, kappa),
    }


@pytest.mark.parametrize("name", ["float", "exact", "series", "cauchy_product",
                                  "star_inverse", "star_inverse_exact", "symbol_pullback"])
def test_constant_is_the_symbol_norm(name):
    sym = _symbols_by_constructor()[name]
    assert "constant" not in vars(sym)  # nothing is certified up front
    assert sym.constant == fs.estimate_symbol_norm(sym)
    assert vars(sym)["constant"] == sym.constant  # kept, not recomputed


def test_unit_symbol_constant_is_one():
    unit = fs.unit_symbol(_symbols_by_constructor()["series"])
    assert unit.constant == 1.0 == fs.estimate_symbol_norm(unit)


def test_constant_read_by_threads_is_one_value():
    sym = fs.make_symbol(
        [PowerSeries.from_terms({(0,): 2.0, (1,): 0.5 * k, (2,): 0.1}, 1, 8) for k in range(4)],
        HALF, r=2.0, R=2.0, m=4,
    )
    start = threading.Barrier(4)
    got = []

    def reader():
        start.wait(timeout=10)
        got.append(sym.constant)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4 and len(set(got)) == 1
    assert got[0] == sym.constant == fs.estimate_symbol_norm(sym)


def _direct_h_norm(f, m, r, domain, j_max=8, grid_resolution=41):
    """estimate_h_norm's constant by its own loop, before it shared the
    symbol-norm sup: direct float weights, every j up to j_max."""
    grids = domain.grids(grid_resolution)
    partials = _all_partials(f, j_max)
    best = 0.0
    for j in range(j_max + 1):
        l1 = None
        for alpha, series in partials.items():
            if sum(alpha) != j:
                continue
            vals = np.abs(fs._eval_mesh(series, grids))
            l1 = vals if l1 is None else l1 + vals
        weight = (j + 1) ** m / (r**j * math.factorial(j))
        best = max(best, float(np.max(l1)) * weight)
    return best


def _exponential(order=24):
    s = PowerSeries.zero(1, order)
    for k in range(order + 1):
        s.coeffs[k] = 1.0 / math.factorial(k)
    return s


# (series, m, r, domain, j_max, grid_resolution): the h-norm cases above
H_NORM_CASES = [
    (PowerSeries.constant(1.0, 1, 4), 3, 0.7, HALF, 8, 41),
    (geometric_series(60), 0, 2.0, HALF, 12, 41),
    (_exponential(), 0, 1.0, fs.Domain.interval(-1.0, 1.0), 8, 41),
    (geometric_series(60), 0, 2.0, HALF, 8, 82),
    (geometric_series(60), 0, 2.0, HALF, 10, 41),
    (geometric_series(60), 1, 4.0, HALF, 10, 41),
    (geometric_series(60), 2, 8.0, HALF, 10, 41),
    (geometric_series(60), 3, 16.0, HALF, 10, 41),
    (geometric_series(60), 2, 11.0, HALF, 10, 41),
    (PowerSeries.constant(2.0, 1, 6), 0, 2.0, HALF, 8, 41),
    (PowerSeries.constant(2.0, 1, 6).reciprocal(), 0, 2.0, HALF, 8, 41),
    (PowerSeries.from_terms({(0,): 2.0, (1,): 1.0}, 1, 24), 0, 2.0, HALF, 8, 41),
    (PowerSeries.from_terms({(0,): 2.0, (1,): 1.0}, 1, 24).reciprocal(), 0, 2.0, HALF, 8, 41),
    (PowerSeries.from_terms({(0,): 1.0, (2,): 0.25}, 1, 16), 0, 2.0, HALF, 8, 41),
    (PowerSeries.from_terms({(0,): 1.0, (2,): 0.25}, 1, 16).reciprocal(), 0, 2.0, HALF, 8, 41),
    (geometric_series(40), -1, 4.0, fs.Domain.disk(0.25), 10, 41),
    (PowerSeries.constant(3.0, 1, 10), -1, 2.0, fs.Domain.disk(0.5), 10, 41),
    (PowerSeries.from_terms({(5,): 1.0}, 1, 12), -1, 2.0, fs.Domain.disk(0.5), 10, 41),
]


@pytest.mark.parametrize("case", range(len(H_NORM_CASES)))
def test_h_norm_matches_direct_loop(case):
    f, m, r, domain, j_max, res = H_NORM_CASES[case]
    got = fs.estimate_h_norm(f, m, r, domain, j_max=j_max, grid_resolution=res).constant
    want = _direct_h_norm(f, m, r, domain, j_max, res)
    assert abs(got - want) <= 1e-14 * want, (got, want)



# -- stacked evaluation and the symbol algebra over stacked rows ---------------


def _tensordot_eval_mesh(series, grids):
    """_eval_mesh before it was the stack-of-one case: one tensordot per axis."""
    vals = series.coeffs
    if series.is_exact:
        vals = vals.astype(np.complex128)
    for axis_pts in grids:
        powers = axis_pts[:, None] ** np.arange(vals.shape[0])[None, :]
        vals = np.tensordot(powers, vals, axes=([1], [0]))
        vals = np.moveaxis(vals, 0, -1)
    return vals


def _random_box(rng, nvars, order, exact, n_live=None):
    """A seeded coefficient box, zero above the cap, n_live nonzeros (all if None)."""
    shape = (order + 1,) * nvars
    inside = [e for e in np.ndindex(*shape) if sum(e) <= order]
    if n_live is not None:
        inside = [inside[i] for i in rng.choice(len(inside), min(n_live, len(inside)),
                                                replace=False)]
    if exact:
        out = np.full(shape, Fraction(0), dtype=object)
        for e in inside:
            out[e] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
    else:
        out = np.zeros(shape, dtype=np.complex128)
        for e in inside:
            out[e] = complex(rng.standard_normal(), rng.standard_normal())
    return out


_MESH_DOMAINS = {
    "interval": (HALF, 41),
    "disk": (fs.Domain.disk(0.4), 41),
    "interval x disk": (HALF * fs.Domain.disk(0.4), 41),
    "disk x disk": (fs.Domain.disk(0.3) * fs.Domain.disk(0.5), 9),
}


@pytest.mark.parametrize("name", sorted(_MESH_DOMAINS))
@pytest.mark.parametrize("exact", [False, True])
def test_stacked_eval_rows_match_eval_mesh(name, exact):
    domain, res = _MESH_DOMAINS[name]
    grids = domain.grids(res)
    rng = np.random.default_rng([domain.naxes, res, int(exact)])
    for order in (0, 3, 8):
        stack = np.stack([_random_box(rng, domain.naxes, order, exact, n_live)
                          for n_live in (None, None, 2, 0, None)])
        got = fs._eval_stack(stack, grids)
        assert got.shape == (5,) + (res,) * domain.naxes
        for row, box in zip(got, stack):
            single = _eval_mesh(PowerSeries(box, order), grids)
            assert np.array_equal(row, single)
            # the tensordot route sums the same products; BLAS may order them apart
            old = _tensordot_eval_mesh(PowerSeries(box, order), grids)
            scale = max(1.0, float(np.max(np.abs(old))))
            assert np.max(np.abs(single - old)) <= 1e-15 * scale


@pytest.mark.parametrize("nvars, order, j_top", [(1, 8, 6), (1, 3, 3), (2, 6, 6),
                                                 (2, 2, 2), (3, 4, 3), (2, 0, 0)])
@pytest.mark.parametrize("exact", [False, True])
def test_partials_table_matches_diff_chain(nvars, order, j_top, exact):
    f = PowerSeries(_random_box(np.random.default_rng(nvars + order), nvars, order, exact), order)
    table, bounds = fs._partials_table(f, j_top)
    want = list(_all_partials(f, j_top).items())
    assert len(table) == len(want) == bounds[-1]
    for row, (alpha, series) in zip(table, want):
        assert row.dtype == series.coeffs.dtype and np.array_equal(row, series.coeffs)
    for j in range(j_top + 1):
        assert all(sum(alpha) == j for alpha, _ in want[bounds[j]:bounds[j + 1]])


def _loop_cauchy_product(a, b):
    """cauchy_product before it stacked the rows: one series product per pair."""
    coeffs = []
    for k in range(min(a.K, b.K) + 1):
        acc = None
        for i in range(k + 1):
            term = a.coeffs[i] * b.coeffs[k - i]
            acc = term if acc is None else acc + term
        coeffs.append(acc)
    return coeffs


def _loop_star_inverse(a):
    """star_inverse before it stacked the rows: one series product per pair."""
    b0 = a.coeffs[0].reciprocal()
    bs = [b0]
    for k in range(1, a.K + 1):
        acc = None
        for i in range(1, k + 1):
            term = a.coeffs[i] * bs[k - i]
            acc = term if acc is None else acc + term
        bs.append(-(b0 * acc))
    return bs


def _abs_symbol(a):
    """The symbol with |coefficients|: its loop product bounds the rounding."""
    return fs.make_symbol([PowerSeries(np.abs(c.coeffs.astype(complex)) + 0j, c.order)
                           for c in a.coeffs], a.domain, a.r, a.R, a.m)


def _algebra_symbol(rng, kind, K, nvars, order):
    """A seeded symbol: order-0 scalars, exact or complex series; sparse
    rows mixed in so both walk directions of the product occur."""
    domain = HALF if nvars == 1 else HALF * fs.Domain.disk(0.4)
    if kind == "scalar":
        coeffs = [float(rng.uniform(0.5, 2.0))] + [float(rng.uniform(-1, 1)) for _ in range(K)]
    else:
        exact = kind == "exact"
        coeffs = [PowerSeries(_random_box(rng, nvars, order, exact, n_live), order)
                  for n_live in ([None, 2, None, 1, 0, None, 3] * 2)[: K + 1]]
        lift = Fraction(40) if exact else 40.0  # keep a_0 away from zero on the grid
        coeffs[0] = coeffs[0] + lift
    return fs.make_symbol(coeffs, domain, r=2.0, R=2.0, m=4)


def _assert_rows_close(got, want, scale, kind):
    for g, w, s in zip(got, want, scale):
        if kind == "series":
            assert np.all(np.abs(g.coeffs - w.coeffs) <= 1e-14 * np.abs(s.coeffs)), (g, w)
        else:
            # exact rows and order-0 scalars take the same single products
            assert g.coeffs.dtype == w.coeffs.dtype and np.array_equal(g.coeffs, w.coeffs)


@pytest.mark.parametrize("kind", ["scalar", "exact", "series"])
@pytest.mark.parametrize("nvars", [1, 2])
def test_cauchy_product_matches_double_loop(kind, nvars):
    rng = np.random.default_rng([nvars, len(kind)])
    order = 6 if nvars == 1 else 4
    for Ka, Kb in [(0, 0), (1, 3), (6, 6), (6, 4)]:
        a = _algebra_symbol(rng, kind, Ka, nvars, order)
        b = _algebra_symbol(rng, kind, Kb, nvars, order)
        got = fs.cauchy_product(a, b)
        want = _loop_cauchy_product(a, b)
        assert got.K == min(Ka, Kb) == len(want) - 1
        scale = _loop_cauchy_product(_abs_symbol(a), _abs_symbol(b)) if kind == "series" else want
        _assert_rows_close(got.coeffs, want, scale, kind)


@pytest.mark.parametrize("kind", ["scalar", "exact", "series"])
@pytest.mark.parametrize("nvars", [1, 2])
def test_star_inverse_matches_double_loop(kind, nvars):
    rng = np.random.default_rng([nvars, len(kind), 1])
    order = 6 if nvars == 1 else 4
    for K in (0, 1, 4, 6):
        a = _algebra_symbol(rng, kind, K, nvars, order)
        got = fs.star_inverse(a)
        want = _loop_star_inverse(a)
        assert got.K == K and len(got.coeffs) == K + 1
        if kind == "series":
            # the loop on |a_0|^-1 and |a_i| bounds every product and sum it takes
            inv0 = np.abs(a.coeffs[0].reciprocal().coeffs) + 0j
            bound = [PowerSeries(inv0, order)]
            for k in range(1, K + 1):
                acc = sum((PowerSeries(np.abs(a.coeffs[i].coeffs) + 0j, order) * bound[k - i]
                           for i in range(1, k + 1)), PowerSeries.zero(nvars, order))
                bound.append(bound[0] * acc)
            # each b_k carries the rounding of every b_j before it: k-fold slack
            scale = [PowerSeries(b.coeffs * (k + 1), order) for k, b in enumerate(bound)]
        else:
            scale = want
        _assert_rows_close(got.coeffs, want, scale, kind)


@pytest.mark.parametrize("field, value", [("r", 3.0), ("R", 1.5), ("m", 5),
                                          ("j_max", 4), ("grid_resolution", 21)])
def test_cauchy_product_rejects_another_class(field, value):
    # the product is stamped with a's class, so a factor of another class
    # would be certified against a constant measured in its own
    a = fs.make_symbol([1.0, 0.5, 0.25], HALF, r=2.0, R=2.0, m=4)
    b = fs.make_symbol([2.0, -1.0, 0.5], HALF, r=2.0, R=2.0, m=4)
    other = dataclasses.replace(b, **{field: value})
    with pytest.raises(ValueError, match=field):
        fs.cauchy_product(a, other)
    with pytest.raises(ValueError, match=field):
        fs.product_bound_check(other, a)
    assert fs.cauchy_product(a, b).K == 2  # the same class still multiplies


def test_star_inverse_report_evaluates_a0_once(monkeypatch):
    a = fs.make_symbol(
        [PowerSeries.from_terms({(0,): 2.0, (1,): 0.5}, 1, 6), PowerSeries.constant(0.3, 1, 6)],
        HALF, r=2.0, R=2.0, m=4,
    )
    a.constant  # certified before the count starts
    calls = []
    real = fs._eval_mesh

    def counting(series, grids):
        calls.append(series)
        return real(series, grids)

    monkeypatch.setattr(fs, "_eval_mesh", counting)
    rep = fs.star_inverse_report(a)
    assert len(calls) == 1 and calls[0] is a.coeffs[0]
    assert rep.min_abs_a0 == float(np.min(np.abs(real(a.coeffs[0], HALF.grids(41)))))
    want = _loop_star_inverse(a)
    for got, w in zip(rep.inverse.coeffs, want):
        assert np.allclose(got.coeffs, w.coeffs, rtol=0, atol=1e-14)
    # star_inverse alone keeps its own guard, and so does the report
    vanishing = fs.make_symbol(
        [PowerSeries.from_terms({(1,): 1.0}, 1, 4), PowerSeries.constant(1.0, 1, 4)],
        HALF, r=2.0, R=2.0, m=0,
    )
    for invert in (fs.star_inverse, fs.star_inverse_report):
        with pytest.raises(ValueError, match="vanishes"):
            invert(vanishing)


def test_summation_stacked_sup_and_tail_match_eval_mesh():
    coeffs = [PowerSeries.from_terms({(0,): 1.0 + k, (1,): 0.3 * k, (2,): -0.1}, 1, 8)
              for k in range(7)]
    a = fs.make_symbol(coeffs, HALF, r=2.0, R=0.5, m=4)
    res = fs.summation(a, 3, c1=0.5)
    grids = HALF.grids(41)
    tail = PowerSeries.zero(1, 8)
    for k in range(2, res.K_used + 1):
        tail = tail + coeffs[k] * (3.0 ** -k)
    assert res.sup_abs == float(np.max(np.abs(_eval_mesh(res.values, grids))))
    assert res.tail_estimate == float(np.max(np.abs(_eval_mesh(tail, grids))))
