"""Two routes to the N^{-k} coefficients of complex Laplace integrals.

Integrals of the form

    I(N) = integral a(v, vbar) exp(N Phi(v, vbar)) prod_i dA(v_i)/pi

over a neighbourhood of a nondegenerate critical point at the origin
expand as N^d det(-H) I(N) ~ sum_k N^{-k} T_k, where H is the mixed
Hessian block d^2 Phi / dv_i dvbar_j.  This module computes the T_k two
independent ways:

* ``wick_expand`` expands exp(N R) of the cubic-and-higher remainder R
  and contracts monomials with Gaussian moments over the inverse
  pairing (Isserlis recursion).
* ``morse_expand`` flattens the phase to -v vbar with a formal change
  of variables (``morse_normalize``) and reads coefficients off the
  diagonal of the transported amplitude.

Variables come in pairs: axis 2i holds v_i, axis 2i+1 holds vbar_i.
They are independent formal variables; no conjugation happens in here
(callers encode the real locus vbar = conj(v) when they evaluate).
The normalization is fixed so T_0 = a(0) always;
``ExpansionResult.predict_integral`` undoes the det(-H) factor.

The second half of the file redoes the flattening for a one-pair phase
whose coefficients are polynomials in two base-offset parameters
(``PairFamily``, ``morse_normalize_family``), so one normalization pass
serves a whole neighbourhood of base points at once.

Both flattenings solve Phi(u / A, iota_vbar) = -u ubar online, one total
degree at a time: the correction at degree D - 1 divides the degree-D
error by u, and that error needs only the parts of iota_vbar already
found.  Each homogeneous part of each power of iota_vbar is computed
once and its share of every later error added as soon as it is known,
so a solve costs about one composition, not one per degree (the online
or "relaxed" evaluation of composition: Brent and Kung, J. ACM 1978;
van der Hoeven, J. Symb. Comp. 2002).  The divisibility guard at
degree D is scaled by the degree-D error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Tuple

import numpy as np

from . import _kernels
from .series import PowerSeries, TruncatedRing, _degree_grid, _truncated_product

NORMALIZATION = (
    "N^d det(-H) integral(a e^{N Phi} prod dA/pi) ~ sum_k N^-k T_k; T_0 = a(0)"
)

_CLEAN_TOL = 1e-12
_SOLVE_TOL = 1e-9  # both online flattenings' divisibility guard and the family boundary guard


@dataclass(frozen=True)
class PhaseData:
    """A phase series split into its pairing form and remainder.

    ``series`` has zero constant and linear parts and a purely mixed
    quadratic part sum_ij H[i,j] v_i vbar_j; ``remainder`` collects
    everything of total degree >= 3.
    """

    series: PowerSeries
    hessian_pairing: np.ndarray
    pairing_inverse: np.ndarray
    quadratic: PowerSeries
    remainder: PowerSeries

    @property
    def dim(self) -> int:
        return self.series.nvars // 2

    @property
    def det_neg_hessian(self) -> complex:
        return complex(np.linalg.det(-self.hessian_pairing))

    @classmethod
    def from_series(cls, phase: PowerSeries) -> "PhaseData":
        if phase.nvars % 2 != 0:
            raise ValueError("phase needs paired variables (v, vbar)")
        if phase.order < 2:
            raise ValueError("phase order must be at least 2")
        if phase.is_exact:
            phase = phase.to_complex()
        d = phase.nvars // 2
        coeffs = phase.coeffs.copy()
        scale = max(1.0, float(np.max(np.abs(coeffs))))

        def _demand_zero(expo: tuple, what: str) -> None:
            c = coeffs[expo]
            if abs(c) > _CLEAN_TOL * scale:
                raise ValueError(f"phase has a {what} term {c!r}; critical point "
                                 "at the origin with a pairing quadratic is required")
            coeffs[expo] = 0.0

        _demand_zero((0,) * phase.nvars, "constant")
        for i in range(phase.nvars):
            expo = [0] * phase.nvars
            expo[i] = 1
            _demand_zero(tuple(expo), "linear")
        # degree-2 terms must pair a v against a vbar
        H = np.zeros((d, d), dtype=np.complex128)
        for i in range(phase.nvars):
            for j in range(i, phase.nvars):
                expo = [0] * phase.nvars
                expo[i] += 1
                expo[j] += 1
                if sum(expo) > phase.order:
                    continue
                vi, vj = i // 2, j // 2
                if i % 2 == 0 and j % 2 == 1:
                    H[vi, vj] = coeffs[tuple(expo)]
                elif i % 2 == 1 and j % 2 == 0:
                    H[vj, vi] = coeffs[tuple(expo)]
                else:
                    _demand_zero(tuple(expo), "non-pairing quadratic")

        hscale = max(1.0, float(np.max(np.abs(H))))
        if abs(np.linalg.det(-H)) <= 1e-12 * hscale**d:
            raise ValueError("degenerate pairing form")
        cleaned = PowerSeries(coeffs, phase.order)

        quad = PowerSeries.zero(phase.nvars, phase.order)
        for vi in range(d):
            for vj in range(d):
                expo = [0] * phase.nvars
                expo[2 * vi] = 1
                expo[2 * vj + 1] = 1
                quad.coeffs[tuple(expo)] = H[vi, vj]
        rem = cleaned - quad
        return cls(
            series=cleaned,
            hessian_pairing=H,
            pairing_inverse=np.linalg.inv(-H).T,
            quadratic=quad,
            remainder=rem,
        )


def _as_phase(phase) -> PhaseData:
    if isinstance(phase, PhaseData):
        return phase
    return PhaseData.from_series(phase)


@dataclass(frozen=True)
class ExpansionResult:
    """Coefficients T_0..T_K plus the bookkeeping to use them."""

    coeffs: Tuple[complex, ...]
    normalization: str
    det_neg_hessian: complex
    route: str

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("need at least T_0")
        if not all(np.isfinite(c) for c in self.coeffs):
            raise ArithmeticError("non-finite expansion coefficient")

    def evaluate(self, N: float) -> complex:
        """sum_k T_k N^-k by Horner."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc / N + c
        return acc

    def predict_integral(self, N: float) -> complex:
        """Prediction for N^d * integral(a e^{N Phi} prod dA/pi)."""
        return self.evaluate(N) / self.det_neg_hessian


# -- Gaussian moments --------------------------------------------------------


def _moment(alpha: tuple, beta: tuple, C: np.ndarray, memo: dict) -> complex:
    if sum(alpha) != sum(beta):
        return 0j
    if sum(alpha) == 0:
        return 1 + 0j
    key = (alpha, beta)
    hit = memo.get(key)
    if hit is not None:
        return hit
    i = next(idx for idx, a in enumerate(alpha) if a)
    a2 = list(alpha)
    a2[i] -= 1
    a2 = tuple(a2)
    acc = 0j
    for j, b in enumerate(beta):
        if b:
            b2 = list(beta)
            b2[j] -= 1
            acc += b * C[i, j] * _moment(a2, tuple(b2), C, memo)
    memo[key] = acc
    return acc


def gaussian_moment(quadratic, mu: Sequence[int]) -> complex:
    """Normalized moment of v^mu under the formal weight e^{N Q}.

    ``mu`` interleaves the pair exponents like the series axes:
    (m_{v_0}, m_{vbar_0}, m_{v_1}, ...).  The true moment carries a
    factor N^{-|mu|/2}; this returns only the coefficient, computed by
    Isserlis pairings over the inverse of the pairing block.  Zero when
    the v and vbar degrees differ.
    """
    data = _as_phase(quadratic)
    mu = tuple(int(m) for m in mu)
    if len(mu) != data.series.nvars:
        raise ValueError(f"need {data.series.nvars} exponents")
    return _moment(mu[0::2], mu[1::2], data.pairing_inverse, {})


# -- route one: moment contraction -------------------------------------------


def _pad_to_order(ps: PowerSeries, order: int) -> PowerSeries:
    """``ps`` zero-padded to ``order`` (never below ``ps.order``)."""
    if order == ps.order:
        return ps
    out = np.zeros((order + 1,) * ps.nvars, dtype=np.complex128)
    out[tuple(slice(0, n) for n in ps.coeffs.shape)] = ps.coeffs
    return PowerSeries(out, order)


def _expansion_data(phase, amplitude: PowerSeries, K: int) -> PhaseData:
    """The phase data of an expansion to order K, after the checks both routes share."""
    data = _as_phase(phase)
    if K < 0:
        raise ValueError("K must be >= 0")
    if amplitude.order < 2 * K:
        raise ValueError(
            f"amplitude order {amplitude.order} insufficient; need >= {2 * K}")
    if data.series.order < 2 * K + 2:
        raise ValueError(
            f"phase order {data.series.order} insufficient; need >= {2 * K + 2}")
    return data


def wick_expand(phase, amplitude: PowerSeries, K: int) -> ExpansionResult:
    """T_0..T_K by expanding e^{N R} and contracting Gaussian moments.

    A term of a R^p / p! with balanced monomial degrees (|alpha| each
    side) lands at order N^{-(|alpha| - p)}; since R has valuation 3,
    p <= 2K exhausts every contribution with k <= K (asserted below).
    At each p only the balanced monomials with |alpha| <= K + p are
    contracted: the v and vbar degree grids are built once, and the rest
    of the term is never visited.  The running product term * R walks the
    sparse remainder (``series._truncated_product``).
    """
    data = _expansion_data(phase, amplitude, K)
    if amplitude.nvars != data.series.nvars:
        raise ValueError("amplitude and phase must share variables")

    amp = amplitude.to_complex() if amplitude.is_exact else amplitude
    work = max(6 * K, 2 * K + 2)
    amp = _pad_to_order(amp.truncate(min(amp.order, 2 * K)), work)
    rem = _pad_to_order(data.remainder.truncate(min(data.remainder.order, 2 * K + 2)), work)

    grids = np.indices(amp.coeffs.shape, sparse=True)
    v_degree = sum(grids[0::2])
    balanced = v_degree == sum(grids[1::2])
    T = [0j] * (K + 1)
    memo: dict = {}
    term = amp
    inv_pfact = 1.0
    for p in range(0, 2 * K + 1):
        usable = balanced & (v_degree <= K + p) & (term.coeffs != 0)
        for expo in np.argwhere(usable).tolist():
            alpha, beta = tuple(expo[0::2]), tuple(expo[1::2])
            assert 2 * sum(alpha) >= 3 * p  # each remainder factor has degree >= 3
            c = complex(term.coeffs[tuple(expo)]) * inv_pfact
            T[sum(alpha) - p] += c * _moment(alpha, beta, data.pairing_inverse, memo)
        if p == 2 * K:
            break
        term = term * rem
        inv_pfact /= p + 1
        if not np.any(term.coeffs):
            break
    return ExpansionResult(tuple(T), NORMALIZATION, data.det_neg_hessian, "wick")


# -- route two: flattening change of variables -------------------------------


def _graded(x: np.ndarray) -> np.ndarray:
    """Regrade a square (u degree, ubar degree)-indexed array by total degree.

    Entry (i, d) of the result is entry (i, d - i) of ``x``, so column d
    is the homogeneous degree-d part listed by u degree; degrees above
    the last index are dropped.  Trailing axes, such as a family's
    parameter block, pass through.
    """
    out = np.zeros_like(x, dtype=np.complex128)
    i, d = np.triu_indices(x.shape[0])
    out[i, d] = x[i, d - i]
    return out


def _ungraded(g: np.ndarray) -> np.ndarray:
    """Inverse of ``_graded``: back to (u degree, ubar degree) indexing."""
    out = np.zeros_like(g)
    i, d = np.triu_indices(g.shape[0])
    out[i, d - i] = g[i, d]
    return out


def _reach(rem: np.ndarray) -> list:
    """reach[b]: the highest degree of iota_vbar^b the solve reads.

    A degree-d part of the b-th power meets column b of the remainder,
    whose lowest live u degree a lands it in degree d + a; each part of a
    power also builds the part of the next power one degree up.
    """
    top = rem.shape[0] - 1
    reach = [-1] * (top + 2)
    for b in range(top, 0, -1):
        live = np.flatnonzero(np.any(rem[:, b].reshape(top + 1, -1), axis=1))
        reach[b] = max(top - live[0] if live.size else -1, reach[b + 1] - 1)
    return reach


def _divide_by_u(err: np.ndarray, what: str) -> np.ndarray:
    """err / u for a degree-D error listed by u degree; guards the u^0 entry.

    The guard's scale is the largest entry of this degree's error (at
    least one).  That is never more than the largest entry of the whole
    recomposed error, so the guard is no looser than one taken over it.
    """
    scale = max(1.0, float(np.max(np.abs(err))))
    leak = float(np.max(np.abs(err[0])))
    if leak > _SOLVE_TOL * scale:
        raise ArithmeticError(f"{what} correction not divisible by u (residue {leak:.3e})")
    return err[1:]


def _solve_online(rem: np.ndarray, what: str, times: Callable, spread: Callable) -> np.ndarray:
    """The online flattening both normalizers share; returns iota_vbar graded.

    ``rem`` holds the phase at (iota_v, ubar) less its pairing term -u
    ubar, indexed (u degree, ubar degree[, parameter block]) up to the
    solve's top degree: column b is g_b, and
    Phi(iota_v, w) = -u w + sum_b g_b(u) w^b.  Step D sets
    w_{D-1} = err_D / u, and err_D involves only parts of w of degree
    <= D - 2.  So each homogeneous part of each power w^b is computed
    once, when its last factor w_{D-1} is known, from parts of w and
    w^{b-1} known before, and its products with g_b go at once into the
    errors of every degree still to come: no composition is rebuilt.

    Arrays are graded (``_graded``): a homogeneous part is one column,
    listed by u degree.  ``times(x, y)`` multiplies two such columns;
    ``spread(g, part)`` multiplies g_b (entry a holds its u^a block,
    a <= top - d) by a degree-d part and returns the columns d .. top of
    the product.
    """
    top = rem.shape[0] - 1
    reach = _reach(rem)
    # err[:, D]: the degree-D error at the current w; powers[b, :, d]: (w^b)_d
    err = _graded(rem)
    powers = np.zeros((top + 1,) + err.shape, dtype=np.complex128)
    deg = np.arange(top + 1)
    powers[(deg, 0, deg) + (0,) * (err.ndim - 2)] = 1.0  # w^b = ubar^b + ...
    w = powers[1]
    for D in range(3, top + 1):
        w[:D, D - 1] = _divide_by_u(err[: D + 1, D], f"{what}-{D}")
        for b in range(1, top + 1):
            d = D - 2 + b
            if d > reach[b]:
                break
            if b > 1:
                # (w^b)_d = ubar (w^{b-1})_{d-1} + w_{D-1} ubar^{b-1} + the
                # products in between; a factor ubar keeps every u degree
                part = powers[b, :, d]
                part[:] = powers[b - 1, :, d - 1] + w[:, D - 1]
                for k in range(2, D - 1):
                    part += times(w[:, k], powers[b - 1, :, d - k])
            err[:, d:] += spread(rem[: top + 1 - d, b], powers[b, : d + 1, d])
    return w


def _jacobian_det(kv: PowerSeries, kvb: PowerSeries) -> PowerSeries:
    return kv.diff(0) * kvb.diff(1) - kv.diff(1) * kvb.diff(0)


def _normalize_one_pair(ser: PowerSeries, A: complex, order: int):
    """Solve Phi(iota_v, iota_vbar) = -u ubar online, one degree at a time.

    Keeps iota_v = u / A frozen and pushes every correction into
    iota_vbar, which works whenever each excess term is divisible by u;
    raises ArithmeticError otherwise (caller may retry transposed).
    g_b is column b of the phase scaled by A^-a, with no product at all;
    ``_solve_online`` does the rest, with homogeneous parts as 1-D arrays
    over their u degree multiplied by ``np.convolve``.  The guard at
    degree D is scaled by the degree-D error (``_divide_by_u``).
    """
    rem = ser.coeffs * (1.0 / A) ** np.arange(order + 1)[:, None]
    rem[1, 1] = 0.0

    def times(x, y):
        return np.convolve(x, y)[: order + 1]

    def spread(g, part):
        # entry (a + i, a): u^a g_b[a] times u^i ubar^(d - i)
        out = np.zeros((order + 1, g.size), dtype=np.complex128)
        a = np.arange(g.size)[:, None]
        out[a + np.arange(part.size), a] = g[:, None] * part
        return out

    w = _solve_online(rem, "degree", times, spread)
    iota_v = PowerSeries.variable(0, 2, order) * (1.0 / A)
    return iota_v, PowerSeries(_ungraded(w), order)


class MorseData(NamedTuple):
    """(kappa, jacobian) from morse_normalize; unpacks like a pair."""

    kappa: Tuple[PowerSeries, PowerSeries]
    jacobian: PowerSeries


def morse_normalize(phase, K: int) -> MorseData:
    """Substitution kappa with Phi(kappa) = -u ubar through degree K+2.

    Returns (kappa, J) with kappa = (kappa_v, kappa_vbar) series of
    order K+2 and J their formal 2x2 Jacobian determinant; J(0) = 1/A
    where A = -H.  One variable pair only.
    """
    data = _as_phase(phase)
    if data.dim != 1:
        raise NotImplementedError("flattening is implemented for one pair only")
    order = K + 2
    if data.series.order < order:
        raise ValueError(
            f"phase order {data.series.order} insufficient; need >= {order}")
    ser = data.series.truncate(order) if data.series.order > order else data.series
    A = complex(-data.hessian_pairing[0, 0])
    try:
        kv, kvb = _normalize_one_pair(ser, A, order)
    except ArithmeticError:
        flipped = PowerSeries(np.ascontiguousarray(ser.coeffs.T), order)
        fv, fvb = _normalize_one_pair(flipped, A, order)
        # undo the u <-> ubar relabeling: swap components and transpose each
        kv = PowerSeries(np.ascontiguousarray(fvb.coeffs.T), order)
        kvb = PowerSeries(np.ascontiguousarray(fv.coeffs.T), order)
    return MorseData((kv, kvb), _jacobian_det(kv, kvb))


def morse_expand(phase, amplitude: PowerSeries, K: int) -> ExpansionResult:
    """T_0..T_K via the flattening route; same normalization as wick_expand.

    After the change of variables the weight is exactly e^{-N u ubar},
    whose moments sit on the diagonal: transporting b = (a o kappa) J
    gives T_k = det(-H) k! b_{k,k}.  One variable pair only, as for
    ``morse_normalize``.
    """
    data = _expansion_data(phase, amplitude, K)
    kappa, jac = morse_normalize(data, 2 * K)
    amp = amplitude.to_complex() if amplitude.is_exact else amplitude
    comp = amp.substitute(list(kappa)) * jac
    det = data.det_neg_hessian
    T = tuple(det * math.factorial(k) * complex(comp.coeffs[k, k])
              for k in range(K + 1))
    return ExpansionResult(T, NORMALIZATION, det, "morse")


# -- quadrature oracle --------------------------------------------------------


def numeric_phase_integral(integrand: Callable[[np.ndarray], np.ndarray],
                           N: float, radius: float) -> complex:
    """N * (1/pi) * integral of integrand(v) over the disc |v| <= radius.

    One complex variable. ``integrand`` must accept a complex ndarray
    and is the full a(v, conj v) exp(N Phi(v, conj v)); polar
    Gauss-Legendre in r (240 nodes), uniform rule in the (periodic) angle
    (256 nodes).
    """
    nodes, weights = np.polynomial.legendre.leggauss(240)
    r = 0.5 * radius * (nodes + 1.0)
    wr = 0.5 * radius * weights * r
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    v = r[:, None] * np.exp(1j * theta)[None, :]
    vals = np.asarray(integrand(v), dtype=np.complex128)
    ang = vals.mean(axis=1) * (2.0 * np.pi)
    return complex(N * np.sum(wr * ang) / np.pi)


# -- parametric families ------------------------------------------------------


class PairFamily(TruncatedRing):
    """Series in one (u, ubar) pair with parameter-polynomial coefficients.

    Coefficients form a dense complex array of shape
    (pair_cap+1, pair_cap+1, param_cap+1, param_cap+1) indexed by
    (u degree, ubar degree, first offset degree, second offset degree).
    Pair degrees are capped by total degree u + ubar <= pair_cap, and
    parameter degrees by total degree, so entries above either
    anti-diagonal stay zero, as in ``PowerSeries``.  Both caps are
    monomial ideals, so the truncated arithmetic is an exact quotient
    ring.

    Its own sum and product (``_kernels.conv_pair``) feed the ring algebra
    of ``series.TruncatedRing`` (log, reciprocal, powers, scalar ops), so
    the model geometries' formulas take families as they take
    ``PowerSeries`` and arrays.
    """

    __slots__ = ("coeffs", "pair_cap", "param_cap")
    nvars = 4
    is_exact = False

    def __init__(self, coeffs: np.ndarray, pair_cap: int, param_cap: int):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        shape = (pair_cap + 1, pair_cap + 1, param_cap + 1, param_cap + 1)
        if coeffs.shape != shape:
            raise ValueError(f"coefficient shape {coeffs.shape} does not match {shape}")
        self.coeffs = coeffs
        self.pair_cap = pair_cap
        self.param_cap = param_cap

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, pair_cap: int, param_cap: int) -> "PairFamily":
        shape = (pair_cap + 1, pair_cap + 1, param_cap + 1, param_cap + 1)
        return cls(np.zeros(shape, dtype=np.complex128), pair_cap, param_cap)

    @classmethod
    def constant(cls, value: complex, pair_cap: int, param_cap: int) -> "PairFamily":
        out = cls.zeros(pair_cap, param_cap)
        out.coeffs[0, 0, 0, 0] = value
        return out

    @classmethod
    def variables(cls, pair_cap: int, param_cap: int):
        """(u, ubar, first offset, second offset) as family elements.

        A variable whose degree-1 monomial falls outside the cap (e.g. an
        offset at ``param_cap=0``) truncates to the zero family.
        """
        out = []
        for axis in range(4):
            fam = cls.zeros(pair_cap, param_cap)
            idx = [0, 0, 0, 0]
            idx[axis] = 1
            if idx[axis] < fam.coeffs.shape[axis]:
                fam.coeffs[tuple(idx)] = 1.0
            out.append(fam)
        return tuple(out)

    # -- bookkeeping -------------------------------------------------------

    def _new(self, coeffs: np.ndarray) -> "PairFamily":
        return PairFamily(coeffs, self.pair_cap, self.param_cap)

    def copy(self) -> "PairFamily":
        return self._new(self.coeffs.copy())

    def constant_term(self) -> complex:
        return complex(self.coeffs[0, 0, 0, 0])

    def _constant(self, value: complex) -> "PairFamily":
        return PairFamily.constant(value, self.pair_cap, self.param_cap)

    def _top_degree(self) -> int:
        return self.pair_cap + self.param_cap

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def block(self, i: int, j: int) -> np.ndarray:
        """Parameter polynomial multiplying u^i ubar^j (a copy)."""
        return self.coeffs[i, j].copy()

    def _check(self, other: "PairFamily") -> None:
        if self.pair_cap != other.pair_cap or self.param_cap != other.param_cap:
            raise ValueError("family caps differ")

    def __repr__(self) -> str:
        nz = int(np.count_nonzero(self.coeffs))
        return (f"PairFamily(pair_cap={self.pair_cap}, "
                f"param_cap={self.param_cap}, {nz} terms)")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, PairFamily):
            self._check(other)
            return self._new(self.coeffs + other.coeffs)
        out = self.copy()
        out.coeffs[0, 0, 0, 0] += complex(other)
        return out

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, PairFamily):
            return self._new(self.coeffs * complex(other))
        self._check(other)
        return self._new(_kernels.conv_pair(
            self.coeffs, other.coeffs, self.pair_cap, self.param_cap))

    __rmul__ = __mul__

    # -- grading helpers ----------------------------------------------------

    def valuation(self) -> int:
        """Minimum total degree (pair plus parameter) of a nonzero term; -1 for zero."""
        nz = self.coeffs != 0
        if not nz.any():
            return -1
        P, M = self.pair_cap, self.param_cap
        grid = _degree_grid(2, P)[:, :, None, None] + _degree_grid(2, M)[None, None, :, :]
        return int(grid[nz].min())

    def param_scale(self, block: np.ndarray) -> "PairFamily":
        """Multiply by a parameter-only polynomial (a (M+1, M+1) array)."""
        return self._new(_truncated_product(np.asarray(block), self.coeffs, self.param_cap))

    def diff_ubar(self) -> "PairFamily":
        out = np.zeros_like(self.coeffs)
        n = self.pair_cap + 1
        mult = np.arange(1, n).reshape(1, n - 1, 1, 1)
        out[:, : n - 1] = self.coeffs[:, 1:] * mult
        return self._new(out)


def _scrub_boundary(fam: PairFamily) -> PairFamily:
    """Zero the u-degree-0 and ubar-degree-0 slabs, guarding the residue."""
    scale = max(1.0, fam.max_abs())
    worst = max(float(np.max(np.abs(fam.coeffs[0, :]))),
                float(np.max(np.abs(fam.coeffs[:, 0]))))
    if worst > _SOLVE_TOL * scale:
        raise ArithmeticError(
            f"family phase has a boundary term of size {worst:.3e}; every "
            "monomial must carry both u and ubar")
    out = fam.copy()
    out.coeffs[0, :] = 0.0
    out.coeffs[:, 0] = 0.0
    return out


@dataclass
class MorseFamily:
    """Flattening data for a one-pair phase family.

    iota_v = u * ainv(params); iota_vbar solves
    Phi(iota_v, iota_vbar) = -u ubar through pair degree pair_cap,
    so iota_vbar is exact through pair degree pair_cap - 1 and the
    Jacobian through pair_cap - 2.  a_block is the pairing coefficient
    A(params) = -[u ubar] Phi; the (0,0) pair block of ``jacobian``
    equals ainv_block exactly.  A function of the flattened variables
    is evaluated on them by its own formula: substitution commutes
    with the ring operations.
    """

    iota_v: PairFamily
    iota_vbar: PairFamily
    jacobian: PairFamily
    a_block: np.ndarray
    ainv_block: np.ndarray


def _pair_powers(base: PairFamily, top: int) -> list:
    out = [PairFamily.constant(1.0, base.pair_cap, base.param_cap), base]
    for _ in range(2, top + 1):
        out.append(out[-1] * base)
    return out[: top + 1]


def morse_normalize_family(phase: PairFamily) -> MorseFamily:
    """Flatten a one-pair phase family to -u ubar, all offsets at once.

    Requires every phase monomial to carry both u and ubar (the
    recentred geometric phases do; the residue guard raises
    ArithmeticError otherwise), which pins the pair-degree-2 part to
    A(params) u ubar and keeps every correction divisible by u.

    Solves online (``_solve_online``): with iota_v = u ainv frozen,
    g_b = sum_a c_ab ainv^a u^a is built once, before the degree loop,
    and each pair-homogeneous part of each power iota_vbar^b once.  A
    part is one column of a graded family (``_graded``); two parts, or
    g_b and a part, multiply with one ``conv_pair``: two parts as
    one-column operands, which convolves their u-degree lists, and g_b
    (blocks (a, 0)) with a degree-d part (blocks (i, d - i)) as plain
    families, regraded.  The guard at pair degree D is ``_divide_by_u``
    with ``_SOLVE_TOL``, scaled by the degree-D error.  No power of
    iota_vbar is multiplied out beyond what the solve reads.
    """
    P, M = phase.pair_cap, phase.param_cap
    if P < 2:
        raise ValueError("pair cap must be at least 2")
    ser = _scrub_boundary(phase)

    a_block = -ser.block(1, 1)
    if abs(a_block[0, 0]) <= 1e-12 * max(1.0, float(np.max(np.abs(a_block)))):
        raise ValueError("degenerate pairing form")
    ainv = PowerSeries(a_block, M).reciprocal()
    ainv_block = ainv.coeffs
    ainv_powers = [PowerSeries.constant(1, 2, M)]
    for _ in range(P):
        ainv_powers.append(ainv_powers[-1] * ainv)

    # rem[a, b] = c_ab ainv^a: the phase at (u ainv, ubar) less its pairing
    # term -u ubar; column b holds g_b
    rem = np.zeros_like(ser.coeffs)
    for a, b in zip(*np.nonzero(np.any(ser.coeffs, axis=(2, 3)))):
        rem[a, b] = _truncated_product(ser.coeffs[a, b], ainv_powers[a].coeffs, M)
    rem[1, 1] = 0.0

    def times(x, y):
        return _kernels.conv_pair(x[:, None], y[:, None], P, M)[:, 0]

    def spread(g, part):
        # g_b at blocks (a, 0) times the degree-d part at blocks (i, d - i)
        d = part.shape[0] - 1
        gb = np.zeros_like(ser.coeffs)
        gb[: g.shape[0], 0] = g
        pd = np.zeros_like(ser.coeffs)
        pd[np.arange(d + 1), d - np.arange(d + 1)] = part
        return _graded(_kernels.conv_pair(gb, pd, P, M))[:, d:]

    w = _solve_online(rem, "pair-degree", times, spread)

    u = PairFamily.variables(P, M)[0]
    iota_v = u.param_scale(ainv_block)
    iota_vbar = PairFamily(_ungraded(w), P, M)
    jacobian = iota_vbar.diff_ubar().param_scale(ainv_block)
    return MorseFamily(
        iota_v=iota_v,
        iota_vbar=iota_vbar,
        jacobian=jacobian,
        a_block=a_block,
        ainv_block=ainv_block,
    )
