"""Weighted-derivative norms, analytic symbols, and truncated summation.

A function norm here weights the j-th derivative by (j+1)^m / (r^j j!);
an analytic symbol is a finite coefficient sequence (a_0, ..., a_K) whose
certificate constant dominates

    ||a_k||_{C^j} (j+k+1)^m / (r^j R^k (j+k)!)

over a grid. All constants are grid suprema of exact series derivatives:
lower estimates of the true norms. Inequalities downstream always compare
a certified lower estimate against a certified upper bound, so grid error
can only make a check more demanding, never quietly pass it.

Truncated summation evaluates f(N) = sum_{k <= K_used} N^{-k} a_k with
K_used = floor(e N / (3R)); with the norm convention above consecutive
terms then shrink by at least e/3, giving the uniform bound
3/(3-e) * ||a|| and exponentially small tails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from . import constants
from .series import PowerSeries

E_THIRD = math.e / 3.0


# ---------------------------------------------------------------------------
# domains and grids


@dataclass(frozen=True)
class Domain:
    """Product of per-axis pieces: real intervals or complex disks."""

    axes: tuple

    @staticmethod
    def interval(lo: float, hi: float) -> "Domain":
        if not lo < hi:
            raise ValueError("need lo < hi")
        return Domain((("interval", float(lo), float(hi)),))

    @staticmethod
    def disk(radius: float) -> "Domain":
        if radius <= 0:
            raise ValueError("need radius > 0")
        return Domain((("disk", float(radius)),))

    def __mul__(self, other: "Domain") -> "Domain":
        return Domain(self.axes + other.axes)

    @property
    def naxes(self) -> int:
        return len(self.axes)

    def grids(self, resolution: int) -> list:
        """One sample array per axis.

        Disk axes sample the boundary circle: every function this module
        differentiates is a polynomial jet, so each |partial| attains its
        disk supremum on the boundary.
        """
        out = []
        for axis in self.axes:
            if axis[0] == "interval":
                out.append(np.linspace(axis[1], axis[2], resolution) + 0j)
            else:
                theta = 2.0 * np.pi * np.arange(resolution) / resolution
                out.append(axis[1] * np.exp(1j * theta))
        return out

    def radii(self) -> list:
        return [
            max(abs(a[1]), abs(a[2])) if a[0] == "interval" else a[1] for a in self.axes
        ]


@dataclass(frozen=True)
class HNormCertificate:
    m: int
    r: float
    domain: Domain
    constant: float
    j_max: int
    grid_resolution: int


def _eval_mesh(series: PowerSeries, grids: list) -> np.ndarray:
    """Evaluate on the product mesh by tensor contraction per axis."""
    coeffs = series.coeffs
    if series.is_exact:
        coeffs = coeffs.astype(np.complex128)
    vals = coeffs
    for axis_pts in grids:
        powers = axis_pts[:, None] ** np.arange(vals.shape[0])[None, :]
        vals = np.tensordot(powers, vals, axes=([1], [0]))
        vals = np.moveaxis(vals, 0, -1)
    return vals


def _all_partials(f: PowerSeries, j_max: int) -> dict:
    """Every partial derivative up to total order j_max, memoized bottom-up."""
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


def _check_reliable(f: PowerSeries, domain: Domain) -> None:
    """Flag series whose top-degree mass exceeds 1e-6 of the whole on the domain."""
    radii = domain.radii()
    deg = np.sum(np.indices(f.coeffs.shape), axis=0)
    mags = np.abs(np.asarray(f.coeffs, dtype=complex))
    scale_pow = np.ones_like(mags)
    for ax, rho in enumerate(radii):
        shape = [1] * f.nvars
        shape[ax] = f.order + 1
        scale_pow = scale_pow * (rho ** np.arange(f.order + 1)).reshape(shape)
    weighted = mags * scale_pow
    top = weighted[deg >= max(f.order - 1, 1)].sum()
    body = weighted.sum()
    if top > 1e-6 * max(body, 1e-30):
        raise ValueError(
            f"series tail dominates on this domain (top-degree mass {top:.3e}); "
            "increase the series order or shrink the domain"
        )


def estimate_h_norm(
    f: PowerSeries,
    m: int,
    r: float,
    domain: Domain,
    j_max: int = 8,
    grid_resolution: int = 41,
) -> HNormCertificate:
    """Grid estimate of the weighted-derivative norm.

    constant = max over grid x and j <= j_max of
    sum_{|alpha| = j} |partial^alpha f(x)| * (j+1)^m / (r^j j!).
    """
    if r <= 0:
        raise ValueError("need r > 0")
    if domain.naxes != f.nvars:
        raise ValueError("domain and series dimensions differ")
    _check_reliable(f, domain)
    best = _weighted_sup((f,), domain.grids(grid_resolution), r, 1.0, m, j_max)
    return HNormCertificate(m, float(r), domain, best, j_max, grid_resolution)


# ---------------------------------------------------------------------------
# analytic symbols


@dataclass(frozen=True)
class AnalyticSymbol:
    """Finite symbol sequence with norm parameters; its certificate
    ``constant`` is ``estimate_symbol_norm(self)``, computed on first read
    and kept, which the frozen fields keep valid."""

    coeffs: tuple
    K: int
    r: float
    R: float
    m: int
    domain: Domain
    j_max: int = 6
    grid_resolution: int = 41

    @cached_property
    def constant(self) -> float:
        return estimate_symbol_norm(self)

    @property
    def nvars(self) -> int:
        return self.coeffs[0].nvars

    @property
    def order(self) -> int:
        return self.coeffs[0].order

    def is_constant_sequence(self) -> bool:
        for c in self.coeffs:
            rest = c.coeffs.copy()
            rest[(0,) * c.nvars] = 0
            if not np.all(rest == 0):
                return False
        return True


def _normalize_coeffs(coeffs: Sequence, nvars: int, order: int, exact: bool) -> tuple:
    out = []
    for c in coeffs:
        if isinstance(c, PowerSeries):
            if c.nvars != nvars or c.order != order:
                raise ValueError("all coefficient series must share one shape")
            out.append(c)
        else:
            out.append(PowerSeries.constant(c, nvars, order, exact=exact))
    return tuple(out)


def make_symbol(
    coeffs: Sequence,
    domain: Domain,
    r: float,
    R: float,
    m: int,
    j_max: int = 6,
    grid_resolution: int = 41,
) -> AnalyticSymbol:
    """Build a symbol from series or scalars, all of one shape and kind."""
    template = next((c for c in coeffs if isinstance(c, PowerSeries)), None)
    if template is None:
        exact = all(isinstance(c, (int, Fraction)) for c in coeffs)
        nvars, order = domain.naxes, 0
    else:
        exact, nvars, order = template.is_exact, template.nvars, template.order
    if domain.naxes != nvars:
        raise ValueError("domain and coefficient dimensions differ")
    series = _normalize_coeffs(coeffs, nvars, order, exact)
    return AnalyticSymbol(series, len(series) - 1, float(r), float(R), int(m), domain,
                          j_max, grid_resolution)


def estimate_symbol_norm(
    a: AnalyticSymbol,
    r: Optional[float] = None,
    R: Optional[float] = None,
    m: Optional[int] = None,
    j_max: Optional[int] = None,
    k_max: Optional[int] = None,
) -> float:
    """Grid estimate of the symbol norm at the given (or stored) parameters."""
    r = a.r if r is None else r
    R = a.R if R is None else R
    m = a.m if m is None else m
    j_max = a.j_max if j_max is None else j_max
    k_max = a.K if k_max is None else k_max
    if k_max > a.K:
        raise ValueError("k_max exceeds the stored truncation")
    return _weighted_sup(a.coeffs[: k_max + 1], a.domain.grids(a.grid_resolution),
                         r, R, m, j_max)


def _weighted_sup(coeffs: Sequence, grids: list, r: float, R: float, m: int, j_max: int) -> float:
    """Mesh sup over k and j <= j_max of sum_{|alpha| = j} |partial^alpha
    a_k| (j+k+1)^m / (r^j R^k (j+k)!); the h-norm is the k = 0 row."""
    # weights in log space: (j+k)! overflows float64 near j+k = 171 and exact
    # Fraction coefficients can be larger still
    best_log = -math.inf
    for k, coeff in enumerate(coeffs):
        # partials above the total degree vanish identically
        j_top = min(j_max, coeff.order)
        partials = _all_partials(coeff, j_top)
        for j in range(j_top + 1):
            group = [s for alpha, s in partials.items() if sum(alpha) == j]
            log_scale, l1 = _scaled_l1_sup(group, grids)
            if l1 == 0.0:
                continue
            log_weight = (
                m * math.log(j + k + 1)
                - j * math.log(r)
                - k * math.log(R)
                - math.lgamma(j + k + 1)
            )
            best_log = max(best_log, log_scale + math.log(l1) + log_weight)
    return 0.0 if best_log == -math.inf else math.exp(best_log)


def _scaled_l1_sup(group: list, grids: list) -> tuple:
    """Mesh sup of sum |s| over a group of series, as (log_scale, sup/scale).

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


def unit_symbol(template: AnalyticSymbol) -> AnalyticSymbol:
    """The multiplicative unit (1, 0, ..., 0) in the shape of ``template``."""
    one = PowerSeries.constant(1, template.nvars, template.order,
                               exact=template.coeffs[0].is_exact)
    zero = PowerSeries.zero(template.nvars, template.order,
                            exact=template.coeffs[0].is_exact)
    coeffs = (one,) + (zero,) * template.K
    return AnalyticSymbol(coeffs, template.K, template.r, template.R, template.m,
                          template.domain, template.j_max, template.grid_resolution)


def cauchy_product(a: AnalyticSymbol, b: AnalyticSymbol) -> AnalyticSymbol:
    """Coefficientwise convolution (a*b)_k = sum_{i<=k} a_i b_{k-i}."""
    if a.domain != b.domain:
        raise ValueError("symbols live on different domains")
    if a.nvars != b.nvars or a.order != b.order:
        raise ValueError("coefficient series shapes differ")
    K = min(a.K, b.K)
    coeffs = []
    for k in range(K + 1):
        acc = None
        for i in range(k + 1):
            term = a.coeffs[i] * b.coeffs[k - i]
            acc = term if acc is None else acc + term
        coeffs.append(acc)
    return AnalyticSymbol(tuple(coeffs), K, a.r, a.R, a.m, a.domain,
                          a.j_max, a.grid_resolution)


def product_bound_check(a: AnalyticSymbol, b: AnalyticSymbol) -> dict:
    """The algebra bound ||a*b|| <= C0 ||a|| ||b|| with the frozen C0 (m >= 4)."""
    if a.m < 4 or b.m < 4:
        raise ValueError("the algebra bound is certified for m >= 4 only")
    prod = cauchy_product(a, b)
    bound = constants.PRODUCT_C0 * a.constant * b.constant
    return {
        "product_norm": prod.constant,
        "bound": bound,
        "holds": prod.constant <= bound,
        "product": prod,
    }


def star_inverse(a: AnalyticSymbol) -> AnalyticSymbol:
    """Inverse for the Cauchy product: a * b = (1, 0, ..., 0) to order K.

    Recursion: b_0 = 1/a_0, then b_k = -b_0 * sum_{i=1}^k a_i b_{k-i}.
    Requires a_0 bounded away from zero on the grid.
    """
    grids = a.domain.grids(a.grid_resolution)
    a0_abs = np.abs(_eval_mesh(a.coeffs[0], grids))
    if float(np.min(a0_abs)) <= 0.0 or not np.isfinite(a0_abs).all():
        raise ValueError("a_0 vanishes on the domain grid")
    b0 = a.coeffs[0].reciprocal()
    bs = [b0]
    for k in range(1, a.K + 1):
        acc = None
        for i in range(1, k + 1):
            term = a.coeffs[i] * bs[k - i]
            acc = term if acc is None else acc + term
        bs.append(-(b0 * acc))
    return AnalyticSymbol(tuple(bs), a.K, a.r, a.R, a.m, a.domain,
                          a.j_max, a.grid_resolution)


@dataclass
class InversionReport:
    inverse: AnalyticSymbol
    min_abs_a0: float
    estimate: float
    paper_bound: float
    holds: bool


def star_inverse_report(a: AnalyticSymbol) -> InversionReport:
    """Invert and compare the certificate against 2 min|a_0|^-4 ||a||^3."""
    grids = a.domain.grids(a.grid_resolution)
    min_abs = float(np.min(np.abs(_eval_mesh(a.coeffs[0], grids))))
    inv = star_inverse(a)
    bound = 2.0 * min_abs ** (-4) * a.constant**3
    return InversionReport(inv, min_abs, inv.constant, bound, inv.constant <= bound)


# ---------------------------------------------------------------------------
# truncated summation


@dataclass
class SummationResult:
    N: int
    K_used: int
    values: Union[PowerSeries, float, Fraction]
    tail_estimate: float
    uniform_bound: float
    sup_abs: float


def summation_cutoff(N: int, R: float) -> int:
    return int(math.floor(E_THIRD * N / R))


def summation(a: AnalyticSymbol, N: int, c1: Optional[float] = None) -> SummationResult:
    """Evaluate f(N) = sum_{k <= K_used} N^{-k} a_k, K_used = floor(eN/3R).

    Terms beyond the stored truncation are zero. Exact constant sequences
    are summed in rational arithmetic, so huge coefficients (k! growth)
    never overflow. ``c1`` requests a tail estimate: the grid sup of
    |sum_{k >= ceil(c1 N)} N^{-k} a_k|.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    K_used = summation_cutoff(N, a.R)
    top = min(K_used, a.K)
    tail_start = None
    if c1 is not None:
        if not 0.0 < c1 < E_THIRD / a.R:
            raise ValueError("need 0 < c1 < e/(3R)")
        tail_start = int(math.ceil(c1 * N))

    exact_consts = a.coeffs[0].is_exact and a.is_constant_sequence()
    if exact_consts:
        total = Fraction(0)
        tail = Fraction(0)
        for k in range(top + 1):
            term = Fraction(a.coeffs[k].constant_term()) / Fraction(N) ** k
            total += term
            if tail_start is not None and k >= tail_start:
                tail += term
        values: Union[PowerSeries, float, Fraction] = total
        sup_abs = abs(float(total))
        tail_estimate = abs(float(tail))
    else:
        acc = PowerSeries.zero(a.nvars, a.order)
        tail_acc = PowerSeries.zero(a.nvars, a.order)
        for k in range(top + 1):
            term = a.coeffs[k].to_complex() * (float(N) ** (-k))
            acc = acc + term
            if tail_start is not None and k >= tail_start:
                tail_acc = tail_acc + term
        values = acc
        grids = a.domain.grids(a.grid_resolution)
        sup_abs = float(np.max(np.abs(_eval_mesh(acc, grids))))
        tail_estimate = float(np.max(np.abs(_eval_mesh(tail_acc, grids))))
    uniform_bound = a.constant * 3.0 / (3.0 - math.e)
    return SummationResult(N, K_used, values, tail_estimate, uniform_bound, sup_abs)
