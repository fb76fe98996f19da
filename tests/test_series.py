"""Ring and calculus identities for the truncated power series layer.

Exact (Fraction) series make the ring identities strict equalities;
the complex path is then checked against the exact one at every rank.
"""

import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_forge.series import PowerSeries, _degree_grid, _truncated_product
from toeplitz_forge.stationary_phase import PairFamily

ORDER = 5


def exact_series(nvars, order=ORDER):
    """Strategy: a random exact series in nvars variables at the given order."""
    n_entries = int(np.count_nonzero(_degree_grid(nvars, order) <= order))
    return st.lists(
        st.integers(min_value=-4, max_value=4), min_size=n_entries, max_size=n_entries
    ).map(lambda vals: _build(vals, nvars, order))


def _build(vals, nvars, order):
    out = PowerSeries.zero(nvars, order, exact=True)
    it = iter(vals)
    for expo in np.ndindex(*out.coeffs.shape):
        if sum(expo) <= order:
            out.coeffs[expo] = Fraction(next(it))
    return out


@given(exact_series(2), exact_series(2), exact_series(2))
@settings(max_examples=25, deadline=None)
def test_ring_axioms_exact(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == PowerSeries.zero(2, ORDER, exact=True)


@given(exact_series(2), exact_series(2))
@settings(max_examples=25, deadline=None)
def test_leibniz_rule(a, b):
    # the product rule is exact one order below the truncation cap
    lhs = (a * b).diff(0).truncate(ORDER - 1)
    rhs = (a.diff(0) * b + a * b.diff(0)).truncate(ORDER - 1)
    assert lhs == rhs


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_complex_path_matches_exact(data):
    # four variables at order 3: a Fraction product at ORDER takes 0.3 s there
    for nvars, order in ((1, ORDER), (2, ORDER), (3, ORDER), (4, 3)):
        a = data.draw(exact_series(nvars, order))
        b = data.draw(exact_series(nvars, order))
        prod = (a * b).to_complex()
        prod_c = a.to_complex() * b.to_complex()
        assert np.max(np.abs(prod.coeffs - prod_c.coeffs)) < 1e-9, nvars


def test_degree_grid_read_only():
    grid = _degree_grid(3, 4)
    assert grid.shape == (5, 5, 5) and grid[1, 2, 3] == 6
    with pytest.raises(ValueError):
        grid[0, 0, 0] = 1


def _full_box_product(a, b, order):
    """The product before it cut its slices to the cap: whole shifted slices."""
    if a.dtype == object:
        out = np.full(a.shape, Fraction(0), dtype=object)
    else:
        out = np.zeros(a.shape, dtype=np.complex128)
    n = order + 1
    for expo in np.argwhere(a != 0).tolist():
        if sum(expo) > order:
            continue
        dst = tuple(slice(e, None) for e in expo)
        src = tuple(slice(0, n - e) for e in expo)
        out[dst] += a[tuple(expo)] * b[src]
    out[_degree_grid(a.ndim, order) > order] = 0
    return out


@pytest.mark.parametrize("nvars, order", [(1, 9), (2, 6), (3, 5), (4, 4)])
def test_truncated_product_in_cap_slices(nvars, order):
    rng = np.random.default_rng(nvars)
    above = _degree_grid(nvars, order) > order
    shape = above.shape
    for _ in range(3):
        a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        a[rng.random(shape) < 0.3] = 0.0  # sparse left operands skip slices
        a[above] = b[above] = 0.0
        got = _truncated_product(a, b, order)
        assert got.tobytes() == _full_box_product(a, b, order).tobytes()
        # a right operand with leading axes: each leading slice multiplies alone
        stack = np.stack([b, a, 2.0 * b])
        lead = _truncated_product(a, stack, order)
        for k in range(3):
            assert lead[k].tobytes() == _truncated_product(a, stack[k], order).tobytes()
        fa, fb = (np.vectorize(Fraction, otypes=[object])(rng.integers(-3, 4, shape))
                  for _ in range(2))
        fa[above] = fb[above] = Fraction(0)
        assert np.all(_truncated_product(fa, fb, order) == _full_box_product(fa, fb, order))


def _left_walk_product(a, b, order):
    """The product before it walked the sparser operand: always the left one."""
    if a.dtype == object:
        out = np.full(b.shape, Fraction(0), dtype=object)
    else:
        out = np.zeros(b.shape, dtype=np.complex128)
    lead = (slice(None),) * (b.ndim - a.ndim)
    for expo in np.argwhere(a != 0).tolist():
        room = order + 1 - sum(expo)
        if room <= 0:
            continue
        dst = lead + tuple(slice(e, e + room) for e in expo)
        src = lead + (slice(0, room),) * len(expo)
        out[dst] += a[tuple(expo)] * b[src]
    out[lead + (_degree_grid(a.ndim, order) > order,)] = 0
    return out


# complex128 has eps 2.2e-16; two summation orders of the same products
# differ by a few dozen ulps of the sum of |a_i| |b_j| at these sizes
SUM_ORDER_TOL = 1e-14


def _operand(rng, nvars, order, n_live, exact):
    """A seeded box with n_live nonzeros inside the cap (all of them if None)."""
    inside = np.flatnonzero(_degree_grid(nvars, order) <= order)
    keep = inside if n_live is None else rng.choice(inside, min(n_live, inside.size), replace=False)
    shape = (order + 1,) * nvars
    if exact:
        out = np.full(shape, Fraction(0), dtype=object)
        out.flat[keep] = [Fraction(int(v), int(d)) for v, d in
                          zip(rng.integers(1, 9, keep.size) * rng.choice([-1, 1], keep.size),
                              rng.integers(1, 5, keep.size))]
    else:
        out = np.zeros(shape, dtype=np.complex128)
        out.flat[keep] = rng.standard_normal(keep.size) + 1j * rng.standard_normal(keep.size)
    return out


# (nvars, order, exact): Fraction boxes stop where a dense Fraction walk
# takes seconds
_PRODUCT_CASES = (
    [(n, o, False) for n in (1, 2, 3, 4) for o in range(9)]
    + [(1, 36, False), (2, 36, False)]
    + [(n, o, True) for n in (1, 2, 3) for o in range(0, 9, 2)]
    + [(1, 36, True), (4, 4, True)]
)


@pytest.mark.parametrize("nvars, order, exact", _PRODUCT_CASES)
def test_sparser_operand_walk_matches_left_walk(nvars, order, exact):
    rng = np.random.default_rng([nvars, order, int(exact)])
    dense = _operand(rng, nvars, order, None, exact)
    sparse = _operand(rng, nvars, order, 3, exact)
    zero = _operand(rng, nvars, order, 0, exact)
    same = _operand(rng, nvars, order, int(np.count_nonzero(sparse != 0)), exact)
    pairs = [(sparse, dense), (dense, sparse), (sparse, same), (zero, dense), (dense, zero)]
    for a, b in pairs:
        got = _truncated_product(a, b, order)
        want = _left_walk_product(a, b, order)
        if exact:
            assert got.dtype == object and np.all(got == want)
        elif np.count_nonzero(b) >= np.count_nonzero(a):
            # the left operand is walked, as before: the same sums in the same order
            assert got.tobytes() == want.tobytes()
        else:
            scale = _left_walk_product(np.abs(a), np.abs(b), order).real
            assert np.all(np.abs(got - want) <= SUM_ORDER_TOL * scale)


@pytest.mark.parametrize("n_live", [0, 1, 4, None])
def test_param_scale_walks_the_block(n_live):
    # a parameter block times a family: the block is walked whatever its
    # count, so the product stays the one it was
    rng = np.random.default_rng(n_live or 0)
    P, M = 3, 4
    fam = PairFamily.variables(P, M)[0] * 0.5 + PairFamily.constant(1.0, P, M)
    for block in (_operand(rng, 2, M, n_live, False), _operand(rng, 2, M, 2, False)):
        got = fam.param_scale(block).coeffs
        assert np.array_equal(got, _left_walk_product(block, fam.coeffs, M))


def _ring(kind):
    """(constant of a value, an element of degree one) in one truncated ring."""
    if kind == "family":
        return (lambda v: PairFamily.constant(v, 3, 2)), PairFamily.variables(3, 2)[0]
    exact = kind == "exact"
    return (lambda v: PowerSeries.constant(v, 2, 4, exact)), PowerSeries.variable(1, 2, 4, exact)


@pytest.mark.parametrize("kind", ["complex", "exact", "family"])
def test_ring_protocol_edge_cases(kind):
    const, x = _ring(kind)
    zero, one = const(0), const(1)

    def same(p, q):
        return np.array_equal(p.coeffs, q.coeffs)

    assert same(zero.exp(), one)
    assert same(one.log(), zero)
    c = Fraction(2, 5) if kind == "exact" else 0.4 - 0.2j
    assert same(const(c).reciprocal(), const(1 / c))
    assert same(x**0, one)
    assert zero.valuation() == -1 and (x - x).valuation() == -1
    assert one.valuation() == 0 and (one + x).valuation() == 0
    assert x.valuation() == 1 and (x * x + x**3).valuation() == 2
    with pytest.raises(ValueError):
        one.exp()
    with pytest.raises(ValueError):
        x.log()
    with pytest.raises(ValueError):
        x.reciprocal()
    with pytest.raises(ValueError):
        x**-1


def test_mixed_exactness_rejected():
    a = PowerSeries.constant(1, 1, 3, exact=True)
    b = PowerSeries.constant(1, 1, 3, exact=False)
    with pytest.raises(ValueError):
        a * b


def test_evaluate_matches_monomial_sum():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s = PowerSeries.zero(2, 3)
    for (i, j), val in np.ndenumerate(coeffs):
        if i + j <= 3:
            s.coeffs[i, j] = val
    x, y = 0.3 - 0.2j, -0.1 + 0.5j
    direct = sum(
        s.coeffs[i, j] * x**i * y**j for i in range(4) for j in range(4)
    )
    assert abs(s(x, y) - direct) < 1e-13


def test_substitute_matches_pointwise():
    # f(u, v) at (u, v) = (g(x), h(x)) agrees with evaluation
    f = PowerSeries.from_terms({(0, 0): 2, (1, 0): 1, (1, 1): 3, (0, 2): -1}, 2, 6)
    g = PowerSeries.from_terms({(1,): 1, (2,): 0.5}, 1, 6)
    h = PowerSeries.from_terms({(1,): -1, (3,): 2}, 1, 6)
    comp = f.substitute([g, h])
    for x in (0.05, -0.08, 0.02 + 0.03j):
        expected = f(g(x), h(x))
        # composition truncated at degree 6; arguments are tiny so the tail is small
        assert abs(comp(x) - expected) < 1e-7


def _nested_horner_substitute(f, args):
    """substitute before it built the innermost powers once: nested Horner."""
    tgt = args[0]

    def horner(block, depth):
        if depth == f.nvars:
            return PowerSeries.constant(block, tgt.nvars, tgt.order, tgt.is_exact)
        acc = horner(block[-1], depth + 1)
        for k in range(block.shape[0] - 2, -1, -1):
            acc = acc * args[depth] + horner(block[k], depth + 1)
        return acc

    return horner(f.coeffs, 0)


def _random_series(rng, nvars, order, exact, valuation=0):
    """Dense series with every coefficient of degree below valuation zero."""
    grid = _degree_grid(nvars, order)
    vals = rng.integers(-4, 5, grid.shape)
    vals[(grid > order) | (grid < valuation)] = 0
    if exact:
        return PowerSeries(np.vectorize(lambda v: Fraction(int(v), 3), otypes=[object])(vals),
                           order)
    noise = rng.standard_normal(grid.shape)
    return PowerSeries(vals + 1j * np.where(vals != 0, noise, 0.0), order)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("n_src", [1, 2, 3])
def test_substitute_matches_nested_horner(exact, n_src):
    rng = np.random.default_rng(10 * n_src + exact)
    for n_tgt in (1, 2, 3):
        # source order above, equal to and below the target order
        for src_order, tgt_order in ((4, 3), (3, 3), (2, 4)):
            f = _random_series(rng, n_src, src_order, exact)
            zero = PowerSeries.zero(n_tgt, tgt_order, exact)
            cases = [
                [_random_series(rng, n_tgt, tgt_order, exact, 1) for _ in range(n_src)],
                # outer arguments of valuation two and a zero innermost one
                [_random_series(rng, n_tgt, tgt_order, exact, 2)] * (n_src - 1) + [zero],
                [_random_series(rng, n_tgt, tgt_order, exact, 1)] * (n_src - 1)
                + [_random_series(rng, n_tgt, tgt_order, exact, 2)],
            ]
            for args in cases:
                for src in (f, PowerSeries.zero(n_src, src_order, exact)):
                    got, ref = src.substitute(args), _nested_horner_substitute(src, args)
                    assert got.order == tgt_order and got.nvars == n_tgt
                    if exact:
                        assert got == ref
                    else:
                        err = np.max(np.abs(got.coeffs - ref.coeffs))
                        assert err <= 1e-13 * np.max(np.abs(ref.coeffs)), (n_tgt, src_order)


def test_substitute_leaves_no_cyclic_garbage():
    rng = np.random.default_rng(3)
    f = _random_series(rng, 2, 8, False)
    args = [_random_series(rng, 2, 8, False, 1) for _ in range(2)]
    gc.collect()
    gc.disable()
    try:
        f.substitute(args)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_substitute_requires_zero_constant_term():
    f = PowerSeries.variable(0, 1, 3)
    g = PowerSeries.constant(1, 1, 3)
    with pytest.raises(ValueError):
        f.substitute([g])
    # complex coefficients have no exact image
    with pytest.raises(TypeError):
        f.substitute([PowerSeries.variable(0, 1, 3, exact=True)])


def test_chain_rule():
    f = PowerSeries.from_terms({(1,): 1, (2,): -2, (4,): 1}, 1, 8, exact=True)
    g = PowerSeries.from_terms({(1,): 3, (2,): 1, (3,): -1}, 1, 8, exact=True)
    comp = f.substitute([g])
    lhs = comp.diff(0).truncate(7)
    rhs = (f.diff(0).substitute([g]) * g.diff(0)).truncate(7)
    assert lhs == rhs


def test_exp_log_roundtrip_exact():
    s = PowerSeries.from_terms({(1, 0): 1, (0, 1): -2, (1, 1): 3}, 2, 6, exact=True)
    assert s.exp().log() == s
    # exp turns sums into products
    t = PowerSeries.from_terms({(0, 1): 1, (2, 0): 1}, 2, 6, exact=True)
    assert (s + t).exp() == s.exp() * t.exp()


def test_log_series_coefficients():
    x = PowerSeries.variable(0, 1, 6, exact=True)
    lg = (1 + x).log()
    for k in range(1, 7):
        assert lg.coeffs[k] == Fraction((-1) ** (k + 1), k)
    assert lg.coeffs[0] == 0


def test_exp_coefficients():
    x = PowerSeries.variable(0, 1, 7, exact=True)
    e = x.exp()
    for k in range(8):
        assert e.coeffs[k] == Fraction(1, math.factorial(k))


def test_reciprocal():
    x = PowerSeries.variable(0, 1, 9, exact=True)
    geom = (1 - x).reciprocal()
    assert all(geom.coeffs[k] == 1 for k in range(10))
    s = PowerSeries.from_terms({(0,): 2, (1,): 1, (3,): -5}, 1, 9, exact=True)
    assert s * s.reciprocal() == PowerSeries.constant(1, 1, 9, exact=True)
    with pytest.raises(ValueError):
        x.reciprocal()


def test_truncate():
    s = PowerSeries.from_terms({(0, 0): 1, (1, 1): 2, (2, 1): 3}, 2, 4, exact=True)
    t = s.truncate(2)
    assert t.order == 2 and t.coeffs[1, 1] == 2


def test_power_matches_repeated_multiplication():
    s = PowerSeries.from_terms({(1,): 1, (0,): 1}, 1, 6, exact=True)
    assert s**4 == s * s * s * s
    assert s**0 == PowerSeries.constant(1, 1, 6, exact=True)


def test_diff_of_powers():
    x = PowerSeries.variable(0, 1, 5, exact=True)
    p = x**4
    assert p.diff(0) == 4 * x**3


def test_four_variable_multiply_falls_back():
    # four variables take the same product as one to three
    a = PowerSeries.from_terms({(1, 0, 0, 0): 1, (0, 1, 0, 0): 2}, 4, 3)
    b = PowerSeries.from_terms({(0, 0, 1, 0): 1, (0, 0, 0, 1): -1}, 4, 3)
    p = a * b
    assert p.coeffs[1, 0, 1, 0] == 1
    assert p.coeffs[0, 1, 0, 1] == -2
