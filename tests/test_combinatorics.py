"""Exact-arithmetic checks for the polyindex module.

Everything here is rational arithmetic, so assertions are equalities,
not tolerances.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_forge import combinatorics as cb
from toeplitz_forge import constants


def test_multiindex_basics():
    mu = cb.MultiIndex((3, 0, 2))
    assert mu.norm == 5
    assert cb.MultiIndex((1, 0, 2)).leq(mu)
    assert not mu.leq(cb.MultiIndex((1, 0, 2)))
    with pytest.raises(ValueError):
        cb.MultiIndex((1, -1))
    with pytest.raises(ValueError):
        mu.leq(cb.MultiIndex((1, 2)))


def test_polyindex_binomial_values():
    assert cb.polyindex_binomial((3, 2), (1, 1)) == 6
    assert cb.polyindex_binomial((3, 2), (1, 3)) == 0  # nu not below mu
    assert cb.polyindex_binomial((4,), (2,)) == 6
    # Vandermonde in one slot: sum over splits recovers the 1d binomial
    total = sum(
        cb.polyindex_binomial((5, 3), (k, 2 - k)) for k in range(3)
    )
    assert total == math.comb(8, 2)


def test_binomial_domination_exhaustive_small():
    # every pair nu <= mu with |mu| <= 6 in up to three slots
    for dim in (1, 2, 3):
        for mu in itertools.product(range(7), repeat=dim):
            if sum(mu) > 6:
                continue
            ranges = [range(m + 1) for m in mu]
            for nu in itertools.product(*ranges):
                res = cb.check_binomial_domination(mu, nu)
                assert res.holds, (mu, nu, res.value, res.bound)


@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4).flatmap(
        lambda mu: st.tuples(
            st.just(mu),
            st.tuples(*[st.integers(min_value=0, max_value=m) for m in mu]),
        )
    )
)
def test_binomial_domination_property(pair):
    mu, nu = pair
    assert cb.check_binomial_domination(mu, nu).holds


def test_binom_multi_bound_requires_positive_right():
    with pytest.raises(ValueError):
        cb.binom_multi_bound((1, 1), (1, 0))


def test_binom_multi_bound_single_slot_is_equality():
    for a in range(7):
        for b in range(1, 7):
            res = cb.binom_multi_bound((a,), (b,))
            assert res.holds and res.value == res.bound


def test_binom_multi_bound_exhaustive_small():
    for dim in (2, 3):
        for a in itertools.product(range(5), repeat=dim):
            if sum(a) > 8:
                continue
            for b in itertools.product(range(1, 5), repeat=dim):
                if sum(b) > 8:
                    continue
                res = cb.binom_multi_bound(a, b)
                assert res.holds, (a, b, res.value, res.bound)


def test_hull_vertices_shapes():
    verts = cb.hull_vertices(3, 4)
    assert (3, 1, 0) in verts and (0, 1, 3) in verts
    assert len(verts) == 6
    # ell = 2 collapses the two marked slots
    assert cb.hull_vertices(3, 2) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_hull_membership_known_points():
    assert cb.hull_membership((2, 1, 1), 4).holds
    assert not cb.hull_membership((4, 0, 0), 4).holds
    assert not cb.hull_membership((2, 1, 0), 4).holds  # off the sum plane
    assert cb.hull_membership((1, 1), 2).holds
    assert not cb.hull_membership((2, 0), 2).holds


def test_hull_membership_exhaustive():
    # every lattice point with >= 2 positive slots on the sum plane is inside,
    # and its witness is a convex combination of hull vertices giving t
    for n in (2, 3, 4):
        for ell in (2, 3, 5, 7):
            verts = set(cb.hull_vertices(n, ell))
            for t in itertools.product(range(ell + 1), repeat=n):
                if sum(t) != ell:
                    continue
                res = cb.hull_membership(t, ell)
                expected = sum(1 for x in t if x >= 1) >= 2
                assert res.holds == expected, (n, ell, t)
                weights = res.witness["weights"]
                if not expected:
                    assert weights is None, (n, ell, t)
                    continue
                assert set(weights) <= verts, (n, ell, t)
                assert all(w > 0 for w in weights.values()), (n, ell, t)
                assert sum(weights.values()) == 1, (n, ell, t)
                combo = tuple(sum(w * v[k] for v, w in weights.items()) for k in range(n))
                assert combo == t, (n, ell, t)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=6),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_hull_membership_accepts_convex_combinations(n, ell, data):
    verts = cb.hull_vertices(n, ell)
    weights = data.draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=len(verts), max_size=len(verts))
    )
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    point = [
        sum(Fraction(w, total) * v[k] for w, v in zip(weights, verts)) for k in range(n)
    ]
    # only integer points are valid multi-indices; scale to clear denominators
    if any(p.denominator != 1 for p in point):
        return
    assert cb.hull_membership([int(p) for p in point], ell).holds


def test_ascending_compositions():
    tuples = list(cb.ascending_compositions(5, 3))
    assert all(sum(t) == 5 for t in tuples)
    assert all(t[0] <= t[1] <= t[2] for t in tuples)
    assert len(tuples) == len(set(tuples))
    # partitions of 5 into at most 3 parts: 5
    assert len(tuples) == 5
    assert list(cb.ascending_compositions(0, 2)) == [(0, 0)]


def test_hard_sum_frozen_example():
    res = cb.lem_hard_sum(2, 0, 3, 4)
    assert res.value == Fraction(97, 81)
    assert abs(float(res.value) - 1.1975308641975309) < 1e-15
    assert res.holds


def test_hard_sum_rejects_illegal_m():
    with pytest.raises(ValueError):
        cb.lem_hard_sum(3, 2, 10, 5)  # floor is max(4, 2*4) = 8
    with pytest.raises(ValueError):
        cb.lem_hard_sum(1, 0, 3, 4)


def test_hard_sum_exact_matches_float_path():
    for (n, d, ell, m) in [(2, 0, 12, 4), (3, 1, 9, 8), (2, 2, 7, 8)]:
        exact = cb.lem_hard_sum(n, d, ell, m, exact=True)
        approx = cb.lem_hard_sum(n, d, ell, m, exact=False)
        assert abs(float(exact.value) - float(approx.value)) < 1e-12 * float(exact.value)


def _hard_sum_oracle(n, d, ell, m):
    """The lemma's sum added term by term in Fraction arithmetic."""
    value = Fraction(0)
    for tup in cb.ascending_compositions(ell, n):
        den = 1
        for ik in tup:
            den *= (ik + 1) ** m
        value += Fraction((tup[-2] + 1) ** d * (ell + 1) ** m, den)
    return value


def _easy_sum_oracle(j, d, m):
    return sum(
        Fraction(min(i + 1, j - i + 1) ** d * (j + 1) ** m, ((i + 1) ** m) * ((j - i + 1) ** m))
        for i in range(j + 1)
    )


ORACLE_SIZES = (0, 1, 2, 7, 23, 40, 60)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hard_sum_common_denominator_matches_termwise_oracle(n):
    for d in (0, 1, 2):
        for ell in ORACLE_SIZES:
            for m in (cb.legal_m_range(n, d, 24)[0], 24):
                got = cb._hard_sum_value(n, d, ell, m, exact=True)
                want = _hard_sum_oracle(n, d, ell, m)
                assert isinstance(got, Fraction) and got == want, (n, d, ell, m)
                assert float(got) == float(want), (n, d, ell, m)


def test_easy_sum_common_denominator_matches_termwise_oracle():
    for d in (0, 1, 2):
        for j in ORACLE_SIZES:
            for m in (max(d + 2, 2 * (d + 1)), 24):
                got = cb._easy_sum_value(j, d, m, exact=True)
                want = _easy_sum_oracle(j, d, m)
                assert isinstance(got, Fraction) and got == want, (d, j, m)
                assert float(got) == float(want), (d, j, m)


def test_easy_sum_small_values():
    # j = 0: single term equal to 1
    res = cb.lem_easy_sum(0, 0, 2)
    assert res.value == 1 and res.holds
    # j = 1, d = 0: both end terms are 1
    res = cb.lem_easy_sum(1, 0, 2)
    assert res.value == 2 and res.holds


def _easy_sum_calibration_loop(d, j_max, m_max):
    """The calibration sweep with its own copy of both value formulas."""
    import numpy as np

    worst = 0.0
    for j in range(0, j_max + 1):
        for m in range(max(d + 2, 2 * (d + 1)), m_max + 1):
            if j <= cb.EXACT_ELL_LIMIT:
                value = float(_easy_sum_oracle(j, d, m))
            else:
                i = np.arange(j + 1, dtype=np.longdouble)
                top = np.minimum(i + 1, j - i + 1) ** d * np.longdouble(j + 1) ** m
                value = float(np.sum(top / ((i + 1) ** m * (j - i + 1) ** m)))
            worst = max(worst, (value - 2.0) * (4.0 / 3.0) ** m)
    for _ in range(4):
        worst = math.nextafter(worst, math.inf)
    return worst


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_calibrate_easy_sum_matches_own_loop(d):
    # the domain crosses EXACT_ELL_LIMIT, so both value paths are compared;
    # d = 3 has no frozen constant, which the calibration must not need
    j_max = 70
    assert j_max > cb.EXACT_ELL_LIMIT
    assert cb.calibrate_easy_sum(d, j_max=j_max, m_max=8) == _easy_sum_calibration_loop(d, j_max, 8)


def test_calibrate_hard_sum_needs_no_frozen_constant():
    assert (5, 0) not in constants.HARD_SUM_C
    worst = 0.0
    for ell in range(9):
        for m in cb.legal_m_range(5, 0, 9):
            value = sum(
                Fraction((ell + 1) ** m, math.prod((i + 1) ** m for i in tup))
                for tup in cb.ascending_compositions(ell, 5)
            )
            worst = max(worst, (float(value) - 1.0) * (4.0 / 3.0) ** m)
    for _ in range(4):
        worst = math.nextafter(worst, math.inf)
    got = cb.calibrate_hard_sum(5, 0, ell_max=8, m_max=9)
    assert math.isfinite(got) and got == worst
    with pytest.raises(KeyError):
        cb.lem_hard_sum(5, 0, 8, 9)


def test_sum_lemma_bounds_hold_on_sweep():
    # sampled sweep inside the calibration domain
    for n in (2, 3):
        for d in (0, 1, 2):
            for ell in (0, 1, 2, 5, 11, 23, 40):
                for m in (cb.legal_m_range(n, d, 24)[0], 24):
                    assert cb.lem_hard_sum(n, d, ell, m).holds, (n, d, ell, m)
    for d in (0, 1, 2):
        for j in (0, 1, 7, 19, 37):
            for m in (2 * d + 2, 17, 24):
                assert cb.lem_easy_sum(j, d, m).holds, (d, j, m)


def test_legal_m_range():
    assert list(cb.legal_m_range(2, 0, 4)) == [2, 3, 4]
    assert cb.legal_m_range(3, 2, 24)[0] == 8
