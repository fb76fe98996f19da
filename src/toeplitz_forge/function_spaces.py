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

Small series arithmetic here costs per coefficient, not per call: a
certificate stacks every partial of every a_k into one table and
evaluates it with one Vandermonde matmul per mesh axis (``_eval_stack``,
of which ``_eval_mesh`` is the stack of one), and the Cauchy product and
star inverse multiply one series against a stack of coefficient rows.
Every sum keeps the order of the one-series loops, so values only move
where a product walks the other operand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from . import constants
from .series import PowerSeries, _truncated_product

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


def _eval_stack(coeffs: np.ndarray, grids: list) -> np.ndarray:
    """Evaluate a stack of coefficient boxes on the product mesh.

    ``coeffs`` has the stack on its first axis; the result has shape
    ``(len(coeffs),) + mesh shape``.  Each axis is one matmul of its
    Vandermonde matrix against the whole stack, batched over the stack,
    so every row is computed exactly as it would be alone.
    """
    vals = coeffs
    if vals.dtype == object:
        vals = vals.astype(np.complex128)
    stack = vals.shape[0]
    for axis_pts in grids:
        n, rest = vals.shape[1], vals.shape[2:]
        powers = axis_pts[:, None] ** np.arange(n)[None, :]
        vals = powers @ vals.reshape(stack, n, -1)
        vals = np.moveaxis(vals.reshape((stack, len(axis_pts)) + rest), 1, -1)
    return vals


def _eval_mesh(series: PowerSeries, grids: list) -> np.ndarray:
    """Evaluate one series on the product mesh: a stack of one."""
    return _eval_stack(series.coeffs[None], grids)[0]


@lru_cache(maxsize=None)
def _partials_plan(nvars: int, j_top: int) -> tuple:
    """Derivation steps of every partial up to total order ``j_top``.

    Partials are numbered level by level (total order j), and within a
    level in ``itertools.product`` order.  Each is the derivative of the
    partial one order lower along its first nonzero axis.  Returns
    ``(steps, bounds)``: for each level j >= 1 the ``(axis, sources,
    targets)`` rows it differentiates along each axis, and the first row
    of every level followed by the number of partials.  Shared, so the
    index arrays are read-only.
    """
    index = {(0,) * nvars: 0}
    steps, bounds = [], [0, 1]
    for j in range(1, j_top + 1):
        by_axis: dict = {}
        for alpha in itertools.product(range(j + 1), repeat=nvars):
            if sum(alpha) != j:
                continue
            axis = next(i for i, e in enumerate(alpha) if e > 0)
            prev = list(alpha)
            prev[axis] -= 1
            src, dst = by_axis.setdefault(axis, ([], []))
            src.append(index[tuple(prev)])
            dst.append(len(index))
            index[alpha] = len(index)
        level = []
        for axis, rows in sorted(by_axis.items()):
            src, dst = (np.array(r) for r in rows)
            src.setflags(write=False)
            dst.setflags(write=False)
            level.append((axis, src, dst))
        steps.append(tuple(level))
        bounds.append(len(index))
    return tuple(steps), tuple(bounds)


def _partials_table(f: PowerSeries, j_top: int) -> tuple:
    """Every partial of ``f`` up to total order ``j_top``, stacked in the
    order of ``_partials_plan``, and the plan's level bounds.

    Each row takes the products ``PowerSeries.diff`` takes on its source
    row, one array operation per level and axis.
    """
    steps, bounds = _partials_plan(f.nvars, j_top)
    shape = (bounds[-1],) + f.coeffs.shape
    if f.is_exact:
        table = np.full(shape, Fraction(0), dtype=object)
    else:
        table = np.zeros(shape, dtype=f.coeffs.dtype)
    table[0] = f.coeffs
    n = f.order + 1
    for level in steps:
        for axis, src, dst in level:
            mult_shape = [1] * (f.nvars + 1)
            mult_shape[axis + 1] = n - 1
            mult = np.arange(1, n).reshape(mult_shape)
            cut = (slice(None),) * axis
            table[(dst,) + cut + (slice(0, n - 1),)] = table[(src,) + cut + (slice(1, None),)] * mult
    return table, bounds


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
    a_k| (j+k+1)^m / (r^j R^k (j+k)!); the h-norm is the k = 0 row.

    The partials of every a_k are stacked into one table, evaluated in one
    contraction per axis; each group sum adds its partials in table order.
    """
    tables, starts, groups = [], [], []
    row = 0
    for k, coeff in enumerate(coeffs):
        # partials above the total degree vanish identically
        table, bounds = _partials_table(coeff, min(j_max, coeff.order))
        for j in range(len(bounds) - 1):
            lo, hi = bounds[j], bounds[j + 1]
            log_scale = _rescale_exact(table[lo:hi]) if coeff.is_exact else 0.0
            starts.append(row + lo)
            groups.append((k, j, log_scale))
        tables.append(table.astype(np.complex128, copy=False))
        row += len(table)
    l1 = np.add.reduceat(np.abs(_eval_stack(np.concatenate(tables), grids)), starts, axis=0)
    sups = l1.reshape(len(groups), -1).max(axis=1).tolist()
    # weights in log space: (j+k)! overflows float64 near j+k = 171 and exact
    # Fraction coefficients can be larger still
    best_log = -math.inf
    for (k, j, log_scale), sup in zip(groups, sups):
        if sup == 0.0:
            continue
        log_weight = (
            m * math.log(j + k + 1)
            - j * math.log(r)
            - k * math.log(R)
            - math.lgamma(j + k + 1)
        )
        best_log = max(best_log, log_scale + math.log(sup) + log_weight)
    return 0.0 if best_log == -math.inf else math.exp(best_log)


def _rescale_exact(group: np.ndarray) -> float:
    """Divide a group of exact partials in place by its largest magnitude
    when that has more than 500 bits, so values far outside float64 range
    survive the complex conversion; returns the log of the divisor (0 if
    none)."""
    peak = max((abs(c) for c in group.flat), default=0)
    if peak > 0 and (peak.numerator.bit_length() > 500
                     or peak.denominator.bit_length() > 500):
        group[...] = group / peak
        return math.log(peak.numerator) - math.log(peak.denominator)
    return 0.0


def unit_symbol(template: AnalyticSymbol) -> AnalyticSymbol:
    """The multiplicative unit (1, 0, ..., 0) in the shape of ``template``."""
    one = PowerSeries.constant(1, template.nvars, template.order,
                               exact=template.coeffs[0].is_exact)
    zero = PowerSeries.zero(template.nvars, template.order,
                            exact=template.coeffs[0].is_exact)
    coeffs = (one,) + (zero,) * template.K
    return AnalyticSymbol(coeffs, template.K, template.r, template.R, template.m,
                          template.domain, template.j_max, template.grid_resolution)


# the fields of a symbol's class besides its domain and coefficient shape;
# a Cauchy product keeps them, so both factors must agree on all of them
_CLASS_FIELDS = ("r", "R", "m", "j_max", "grid_resolution")


def _check_one_kind(coeffs: Sequence) -> None:
    """Products take exact or complex coefficient series, never both."""
    if len({c.is_exact for c in coeffs}) > 1:
        raise ValueError("cannot mix exact and complex series; convert first")


def cauchy_product(a: AnalyticSymbol, b: AnalyticSymbol) -> AnalyticSymbol:
    """Coefficientwise convolution (a*b)_k = sum_{i<=k} a_i b_{k-i}.

    Both symbols must share one class: domain, coefficient shape and
    ``r, R, m, j_max, grid_resolution``.  Each a_i multiplies the stacked
    rows b_0 .. b_{K-i} in one product, and the rows are added with i
    ascending, the order of the sum above.
    """
    if a.domain != b.domain:
        raise ValueError("symbols live on different domains")
    if a.nvars != b.nvars or a.order != b.order:
        raise ValueError("coefficient series shapes differ")
    for name in _CLASS_FIELDS:
        if getattr(a, name) != getattr(b, name):
            raise ValueError(f"symbols differ in {name}: {getattr(a, name)} and {getattr(b, name)}")
    K = min(a.K, b.K)
    _check_one_kind(a.coeffs[: K + 1] + b.coeffs[: K + 1])
    rows = np.stack([c.coeffs for c in b.coeffs[: K + 1]])
    out = _truncated_product(a.coeffs[0].coeffs, rows, a.order)
    for i in range(1, K + 1):
        out[i:] += _truncated_product(a.coeffs[i].coeffs, rows[: K + 1 - i], a.order)
    return AnalyticSymbol(tuple(PowerSeries(c, a.order) for c in out), K, a.r, a.R, a.m,
                          a.domain, a.j_max, a.grid_resolution)


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


def _min_abs_a0(a: AnalyticSymbol) -> float:
    """min |a_0| on the symbol's grid; raises if a_0 vanishes there."""
    a0_abs = np.abs(_eval_mesh(a.coeffs[0], a.domain.grids(a.grid_resolution)))
    if float(np.min(a0_abs)) <= 0.0 or not np.isfinite(a0_abs).all():
        raise ValueError("a_0 vanishes on the domain grid")
    return float(np.min(a0_abs))


def star_inverse(a: AnalyticSymbol) -> AnalyticSymbol:
    """Inverse for the Cauchy product: a * b = (1, 0, ..., 0) to order K.

    Recursion: b_0 = 1/a_0, then b_k = -b_0 * sum_{i=1}^k a_i b_{k-i}.
    Requires a_0 bounded away from zero on the grid.
    """
    _min_abs_a0(a)
    return _solve_inverse(a)


def _solve_inverse(a: AnalyticSymbol) -> AnalyticSymbol:
    """``star_inverse`` past its grid check.

    Each solved b_j multiplies the stacked rows a_1 .. a_{K-j} in one
    product, giving a_i b_j for every later k = i + j; each b_k then sums
    its terms with i ascending, the order of the sum above.
    """
    b0 = a.coeffs[0].reciprocal()
    _check_one_kind(a.coeffs)
    rows = np.stack([c.coeffs for c in a.coeffs])[1:]
    bs, terms = [b0], []
    for k in range(1, a.K + 1):
        terms.append(_truncated_product(bs[-1].coeffs, rows[: a.K + 1 - k], a.order))
        acc = terms[k - 1][0]
        for i in range(2, k + 1):
            acc = acc + terms[k - i][i - 1]
        bs.append(-(b0 * PowerSeries(acc, a.order)))
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
    min_abs = _min_abs_a0(a)
    inv = _solve_inverse(a)
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
        vals = _eval_stack(np.stack([acc.coeffs, tail_acc.coeffs]),
                           a.domain.grids(a.grid_resolution))
        sup_abs, tail_estimate = np.abs(vals).reshape(2, -1).max(axis=1).tolist()
    uniform_bound = a.constant * 3.0 / (3.0 - math.e)
    return SummationResult(N, K_used, values, tail_estimate, uniform_bound, sup_abs)
