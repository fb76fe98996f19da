"""Polyindex combinatorics: exact binomial bounds, hull membership, sum lemmas.

Everything in this module is arithmetic over the integers or rationals.
Results are exact (`fractions.Fraction`) up to the documented size cutoffs;
past those, sums switch to extended-precision floats (``numpy.longdouble``)
with relative accuracy far below the tolerances any caller uses.

Hull membership is decided in closed form; the convex weights it returns
as a witness are built directly and checked exactly, not searched for.

The two "sum lemmas" bound weighted lattice sums by ``const + C * (3/4)^m``;
the constants ``C`` are calibrated offline over a fixed domain and frozen in
:mod:`toeplitz_forge.constants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from . import constants

Number = Union[int, float, Fraction]

EXACT_ELL_LIMIT = 60  # rational arithmetic up to here, longdouble beyond


class MultiIndex(tuple):
    """A tuple of non-negative integers with the polyindex order and norm.

    The partial order is the entrywise one (``polyindex_binomial`` is the
    entrywise binomial); the norm is the entry sum. Instances are ordinary
    tuples, so they hash and
    sort like tuples (use :meth:`leq` for the partial order, not ``<=``).
    """

    def __new__(cls, entries: Iterable[int]) -> "MultiIndex":
        tup = tuple(int(e) for e in entries)
        if any(e < 0 for e in tup):
            raise ValueError(f"negative entry in multi-index {tup}")
        return super().__new__(cls, tup)

    @property
    def norm(self) -> int:
        return sum(self)

    def leq(self, other: "MultiIndex") -> bool:
        """Entrywise partial order (the divisibility order on monomials)."""
        if len(self) != len(other):
            raise ValueError("multi-index dimensions differ")
        return all(a <= b for a, b in zip(self, other))


@dataclass
class BoundCheckResult:
    """Outcome of one inequality check: value, bound, verdict, witness data."""

    value: Number
    bound: Number
    holds: bool
    witness: Optional[dict] = None


def polyindex_binomial(mu: Sequence[int], nu: Sequence[int]) -> Fraction:
    """Entrywise binomial coefficient mu!/(nu! (mu-nu)!); zero unless nu <= mu."""
    mu = MultiIndex(mu)
    nu = MultiIndex(nu)
    if len(mu) != len(nu):
        raise ValueError("multi-index dimensions differ")
    if not nu.leq(mu):
        return Fraction(0)
    out = 1
    for m, n in zip(mu, nu):
        out *= math.comb(m, n)
    return Fraction(out)


def check_binomial_domination(mu: Sequence[int], nu: Sequence[int]) -> BoundCheckResult:
    """Check binom(mu, nu) <= binom(|mu|, |nu|), exactly."""
    mu = MultiIndex(mu)
    nu = MultiIndex(nu)
    value = polyindex_binomial(mu, nu)
    bound = Fraction(math.comb(mu.norm, nu.norm)) if nu.norm <= mu.norm else Fraction(0)
    return BoundCheckResult(value, bound, value <= bound, {"mu": tuple(mu), "nu": tuple(nu)})


def binom_multi_bound(a: Sequence[int], b: Sequence[int]) -> BoundCheckResult:
    """Product bound prod (a_i+b_i-1)!/(a_i! b_i!) <= (j+l-n)!/(j! (l-n+1)!).

    Here j = sum(a), l = sum(b), n = len(a); requires every b_i >= 1.
    """
    a = MultiIndex(a)
    b = MultiIndex(b)
    if len(a) != len(b) or len(a) == 0:
        raise ValueError("need two equal-length non-empty index tuples")
    if any(bi < 1 for bi in b):
        raise ValueError("right factors must have entries >= 1")
    n = len(a)
    j, l = a.norm, b.norm
    value = Fraction(1)
    for ai, bi in zip(a, b):
        value *= Fraction(math.factorial(ai + bi - 1), math.factorial(ai) * math.factorial(bi))
    bound = Fraction(math.factorial(j + l - n), math.factorial(j) * math.factorial(l - n + 1))
    return BoundCheckResult(value, bound, value <= bound, {"a": tuple(a), "b": tuple(b)})


# ---------------------------------------------------------------------------
# hull membership, in closed form with an exact check of the weights


def _check_hull_args(n: int, ell: int) -> None:
    if n < 2:
        raise ValueError("need dimension >= 2")
    if ell < 2:
        raise ValueError("need ell >= 2 (below that the target set is empty)")


def hull_vertices(n: int, ell: int) -> list:
    """Distinct permutations of (ell-1, 1, 0, ..., 0) in dimension n."""
    _check_hull_args(n, ell)
    verts = set()
    for big in range(n):
        for one in range(n):
            if one == big:
                continue
            v = [0] * n
            v[big] = ell - 1
            v[one] += 1  # ell == 2 collapses both entries onto value 1
            verts.add(tuple(v))
    return sorted(verts)


def _hull_weights(t: Sequence[int], ell: int) -> dict:
    """Convex weights on hull vertices for t >= 0 with sum ell, max <= ell-1.

    A star around the largest entry a = t_m: each other slot j puts
    t_j (1 - (ell-1) lam) on (ell-1) e_m + e_j and t_j lam on
    (ell-1) e_j + e_m, with lam = (ell-1-a) / ((ell-2)(ell-a)), which makes
    the weights sum to one and slot m come out as a.  For ell = 2 the
    vertices are e_m + e_j, with weight t_j.
    """
    n = len(t)
    m = max(range(n), key=lambda i: t[i])
    a = t[m]
    lam = Fraction(0) if ell == 2 else Fraction(ell - 1 - a, (ell - 2) * (ell - a))
    weights = {}
    for j in range(n):
        if j == m or t[j] == 0:
            continue
        for big, one, w in ((m, j, t[j] * (1 - (ell - 1) * lam)), (j, m, t[j] * lam)):
            if w == 0:
                continue
            v = [0] * n
            v[big] = ell - 1
            v[one] += 1
            weights[tuple(v)] = w
    return weights


def _check_hull_weights(weights: dict, t: Sequence[int]) -> None:
    """Exact check that the weights are a convex combination giving t."""
    combo = [sum(w * v[k] for v, w in weights.items()) for k in range(len(t))]
    if any(w <= 0 for w in weights.values()) or sum(weights.values()) != 1 or combo != list(t):
        raise ArithmeticError(f"hull weights {weights} do not reproduce {tuple(t)}")


def hull_membership(t: Sequence[int], ell: int) -> BoundCheckResult:
    """Is t in the convex hull of the permutations of (ell-1, 1, 0, ..., 0)?

    The hull is {t >= 0 : sum t = ell, max t <= ell-1}.  On membership the
    witness carries convex weights built in closed form and checked exactly
    in rational arithmetic.
    """
    t = MultiIndex(t)
    weights = None
    if t.norm == ell:  # hull lives on the sum-= ell plane
        _check_hull_args(len(t), ell)
        if max(t) <= ell - 1:
            weights = _hull_weights(t, ell)
            _check_hull_weights(weights, t)
    holds = weights is not None
    return BoundCheckResult(
        value=Fraction(int(holds)),
        bound=Fraction(1),
        holds=holds,
        witness={"t": tuple(t), "weights": weights},
    )


def ascending_compositions(total: int, parts: int) -> Iterator[tuple]:
    """All tuples 0 <= i_1 <= ... <= i_parts with entry sum == total."""

    def rec(remaining: int, left: int, minimum: int):
        if left == 1:
            if remaining >= minimum:
                yield (remaining,)
            return
        i = minimum
        while i * left <= remaining:
            for rest in rec(remaining - i, left - 1, i):
                yield (i,) + rest
            i += 1

    yield from rec(total, parts, 0)


def _legal_m_easy(d: int) -> int:
    return max(d + 2, 2 * (d + 1))


def _legal_m_hard(n: int, d: int) -> int:
    return max(d + 2, 2 * (d + n - 1))


def _exact_power_sum(terms: Iterable[tuple], lead: int, m: int) -> Fraction:
    """sum_t w_t (lead / D_t)^m over the pairs (w_t, D_t), exactly.

    With L = lcm(D_t) every term shares the denominator L^m, so the sum is
    Fraction(lead^m sum_t w_t (L // D_t)^m, L^m): integer arithmetic and
    one gcd, where adding the terms as fractions takes one gcd per term.
    """
    terms = list(terms)
    L = math.lcm(*(den for _, den in terms))
    return Fraction(lead**m * sum(w * (L // den) ** m for w, den in terms), L**m)


def _easy_sum_value(j: int, d: int, m: int, exact: bool) -> Number:
    """The sum of :func:`lem_easy_sum`, exact or in longdouble; needs no frozen constant."""
    if j < 0 or d < 0:
        raise ValueError("need j, d >= 0")
    if m < _legal_m_easy(d):
        raise ValueError(f"m={m} below the legal floor {_legal_m_easy(d)} for d={d}")
    if exact:
        return _exact_power_sum(
            ((min(i + 1, j - i + 1) ** d, (i + 1) * (j - i + 1)) for i in range(j + 1)), j + 1, m
        )
    i = np.arange(j + 1, dtype=np.longdouble)
    top = np.minimum(i + 1, j - i + 1) ** d * np.longdouble(j + 1) ** m
    return float(np.sum(top / ((i + 1) ** m * (j - i + 1) ** m)))


def lem_easy_sum(j: int, d: int, m: int, exact: Optional[bool] = None) -> BoundCheckResult:
    """Two-sided weighted sum over i = 0..j against the bound 2 + C (3/4)^m."""
    if exact is None:
        exact = j <= EXACT_ELL_LIMIT
    value = _easy_sum_value(j, d, m, exact)
    bound = 2.0 + constants.EASY_SUM_C[d] * (0.75**m)
    return BoundCheckResult(value, bound, float(value) <= bound, {"j": j, "d": d, "m": m})


def _hard_sum_value(n: int, d: int, ell: int, m: int, exact: bool) -> Number:
    """The sum of :func:`lem_hard_sum`, exact or in longdouble; needs no frozen constant."""
    if n < 2:
        raise ValueError("need n >= 2")
    if d < 0 or ell < 0:
        raise ValueError("need d, ell >= 0")
    if m < _legal_m_hard(n, d):
        raise ValueError(f"m={m} below the legal floor {_legal_m_hard(n, d)} for n={n}, d={d}")
    if exact:
        return _exact_power_sum(
            (((tup[-2] + 1) ** d, math.prod(ik + 1 for ik in tup)) for tup in ascending_compositions(ell, n)),
            ell + 1,
            m,
        )
    acc = np.longdouble(0)
    lead = np.longdouble(ell + 1) ** m
    for tup in ascending_compositions(ell, n):
        den = np.longdouble(1)
        for ik in tup:
            den *= np.longdouble(ik + 1) ** m
        acc += (np.longdouble(tup[-2] + 1) ** d) * lead / den
    return float(acc)


def lem_hard_sum(n: int, d: int, ell: int, m: int, exact: Optional[bool] = None) -> BoundCheckResult:
    """Ordered-tuple weighted sum against the bound 1 + C(n,d) (3/4)^m.

    value = sum over 0 <= i_1 <= ... <= i_n, sum = ell of
            (i_{n-1}+1)^d (ell+1)^m / prod (i_k+1)^m.

    The exact value is one integer sum over a common denominator: with
    D_t = prod (i_k+1) and L = lcm(D_t),
    value = (ell+1)^m sum_t (i_{n-1}+1)^d (L // D_t)^m / L^m.
    """
    if exact is None:
        exact = ell <= EXACT_ELL_LIMIT
    value = _hard_sum_value(n, d, ell, m, exact)
    key = (n, d)
    if key not in constants.HARD_SUM_C:
        raise KeyError(f"no frozen constant for (n, d) = {key}; rerun the calibration script")
    bound = 1.0 + constants.HARD_SUM_C[key] * (0.75**m)
    return BoundCheckResult(value, bound, float(value) <= bound, {"n": n, "d": d, "ell": ell, "m": m})


def legal_m_range(n: int, d: int, m_max: int) -> range:
    """Legal exponents for the ordered-sum lemma, bottom floor to m_max."""
    return range(_legal_m_hard(n, d), m_max + 1)


def calibrate_hard_sum(n: int, d: int, ell_max: int = 200, m_max: int = 24) -> float:
    """Smallest C with value <= 1 + C (3/4)^m on the calibration domain.

    Exact rationals up to the ell cutoff, longdouble beyond; the result is
    nudged up a few ulps so freezing it cannot round the bound below a
    calibrated value.
    """
    worst = 0.0
    for ell in range(0, ell_max + 1):
        for m in range(_legal_m_hard(n, d), m_max + 1):
            value = _hard_sum_value(n, d, ell, m, exact=ell <= EXACT_ELL_LIMIT)
            gap = (float(value) - 1.0) * (4.0 / 3.0) ** m
            worst = max(worst, gap)
    for _ in range(4):
        worst = math.nextafter(worst, math.inf)
    return worst


def calibrate_easy_sum(d: int, j_max: int = 200, m_max: int = 24) -> float:
    """Smallest C with value <= 2 + C (3/4)^m on the calibration domain.

    Exact rationals up to the j cutoff, longdouble beyond, nudged up as in
    ``calibrate_hard_sum``.
    """
    worst = 0.0
    for j in range(0, j_max + 1):
        for m in range(_legal_m_easy(d), m_max + 1):
            value = _easy_sum_value(j, d, m, exact=j <= EXACT_ELL_LIMIT)
            gap = (float(value) - 2.0) * (4.0 / 3.0) ** m
            worst = max(worst, gap)
    for _ in range(4):
        worst = math.nextafter(worst, math.inf)
    return worst
