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
    if order < ps.order:
        return ps.truncate(order)
    if order == ps.order:
        return ps
    out = np.zeros((order + 1,) * ps.nvars, dtype=np.complex128)
    out[tuple(slice(0, n) for n in ps.coeffs.shape)] = ps.coeffs
    return PowerSeries(out, order)


def wick_expand(phase, amplitude: PowerSeries, K: int) -> ExpansionResult:
    """T_0..T_K by expanding e^{N R} and contracting Gaussian moments.

    A term of a R^p / p! with balanced monomial degrees (|alpha| each
    side) lands at order N^{-(|alpha| - p)}; since R has valuation 3,
    p <= 2K exhausts every contribution with k <= K (asserted below).
    """
    data = _as_phase(phase)
    if K < 0:
        raise ValueError("K must be >= 0")
    if amplitude.nvars != data.series.nvars:
        raise ValueError("amplitude and phase must share variables")
    if amplitude.order < 2 * K:
        raise ValueError(
            f"amplitude order {amplitude.order} insufficient; need >= {2 * K}")
    if data.series.order < 2 * K + 2:
        raise ValueError(
            f"phase order {data.series.order} insufficient; need >= {2 * K + 2}")

    amp = amplitude.to_complex() if amplitude.is_exact else amplitude
    work = max(6 * K, 2 * K + 2)
    amp = _pad_to_order(amp.truncate(min(amp.order, 2 * K)), work)
    rem = _pad_to_order(data.remainder.truncate(min(data.remainder.order, 2 * K + 2)), work)

    T = [0j] * (K + 1)
    memo: dict = {}
    term = amp
    inv_pfact = 1.0
    for p in range(0, 2 * K + 1):
        for expo in np.argwhere(term.coeffs != 0):
            alpha = tuple(int(e) for e in expo[0::2])
            beta = tuple(int(e) for e in expo[1::2])
            if sum(alpha) != sum(beta):
                continue
            assert 2 * sum(alpha) >= 3 * p  # each remainder factor has degree >= 3
            k = sum(alpha) - p
            if k <= K:
                c = complex(term.coeffs[tuple(expo)]) * inv_pfact
                T[k] += c * _moment(alpha, beta, data.pairing_inverse, memo)
        if p == 2 * K:
            break
        term = term * rem
        inv_pfact /= p + 1
        if not np.any(term.coeffs):
            break
    return ExpansionResult(tuple(T), NORMALIZATION, data.det_neg_hessian, "wick")


# -- route two: flattening change of variables -------------------------------


def _shift_down(ps: PowerSeries, axis: int) -> PowerSeries:
    """Divide by the axis variable, assuming the boundary slab is zero."""
    out = np.zeros_like(ps.coeffs)
    src = [slice(None)] * ps.nvars
    dst = [slice(None)] * ps.nvars
    src[axis] = slice(1, None)
    dst[axis] = slice(0, -1)
    out[tuple(dst)] = ps.coeffs[tuple(src)]
    return PowerSeries(out, ps.order)


def _jacobian_det(kv: PowerSeries, kvb: PowerSeries) -> PowerSeries:
    return kv.diff(0) * kvb.diff(1) - kv.diff(1) * kvb.diff(0)


def _normalize_one_pair(ser: PowerSeries, A: complex, order: int):
    """Solve Phi(iota_v, iota_vbar) = -u ubar degree by degree.

    Keeps iota_v = u / A frozen and pushes every correction into
    iota_vbar, which works whenever each excess term is divisible by u;
    raises ArithmeticError otherwise (caller may retry transposed).
    """
    u = PowerSeries.variable(0, 2, order)
    ubar = PowerSeries.variable(1, 2, order)
    iota_v = u * (1.0 / A)
    iota_vbar = ubar.copy()
    uub = u * ubar
    for D in range(3, order + 1):
        err = ser.substitute([iota_v, iota_vbar]) + uub
        err_d = err.homogeneous(D)
        if err_d.max_abs() == 0.0:
            continue
        scale = max(1.0, err.max_abs())
        leak = float(np.max(np.abs(err_d.coeffs[0, :])))
        if leak > 1e-9 * scale:
            raise ArithmeticError(
                f"degree-{D} correction not divisible by u (residue {leak:.3e})")
        row = err_d.coeffs.copy()
        row[0, :] = 0.0
        iota_vbar = iota_vbar + _shift_down(PowerSeries(row, order), axis=0)
    return iota_v, iota_vbar


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
    gives T_k = det(-H) k! b_{k,k}.
    """
    data = _as_phase(phase)
    if data.dim != 1:
        raise NotImplementedError("flattening is implemented for one pair only")
    if K < 0:
        raise ValueError("K must be >= 0")
    if amplitude.order < 2 * K:
        raise ValueError(
            f"amplitude order {amplitude.order} insufficient; need >= {2 * K}")
    if data.series.order < 2 * K + 2:
        raise ValueError(
            f"phase order {data.series.order} insufficient; need >= {2 * K + 2}")
    kappa, jac = morse_normalize(data, 2 * K)
    amp = amplitude.to_complex() if amplitude.is_exact else amplitude
    comp = amp.substitute(list(kappa)) * jac
    det = data.det_neg_hessian
    T = tuple(det * math.factorial(k) * complex(comp.coeffs[k, k])
              for k in range(K + 1))
    return ExpansionResult(T, NORMALIZATION, det, "morse")


# -- quadrature oracle --------------------------------------------------------


def numeric_phase_integral(integrand: Callable[[np.ndarray], np.ndarray],
                           N: float, radius: float,
                           radial_points: int = 240,
                           angular_points: int = 256) -> complex:
    """N * (1/pi) * integral of integrand(v) over the disc |v| <= radius.

    One complex variable. ``integrand`` must accept a complex ndarray
    and is the full a(v, conj v) exp(N Phi(v, conj v)); polar
    Gauss-Legendre in r, uniform rule in the (periodic) angle.
    """
    nodes, weights = np.polynomial.legendre.leggauss(radial_points)
    r = 0.5 * radius * (nodes + 1.0)
    wr = 0.5 * radius * weights * r
    theta = np.linspace(0.0, 2.0 * np.pi, angular_points, endpoint=False)
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
    Pair degrees are capped per axis (a bidegree box); parameter degrees
    by total degree.  Both caps are monomial ideals, so the truncated
    arithmetic is an exact quotient ring.

    Its own sum and product (``_kernels.conv_pair``) feed the ring algebra
    of ``series.TruncatedRing`` (log, reciprocal, powers, scalar ops), so
    the model geometries' ring formulas take families as they take
    ``PowerSeries``.
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
        return 2 * self.pair_cap + self.param_cap

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

    def pair_homogeneous(self, degree: int) -> "PairFamily":
        """Keep only blocks with u degree + ubar degree == degree."""
        out = np.zeros_like(self.coeffs)
        sel = _degree_grid(2, self.pair_cap) == degree
        out[sel] = self.coeffs[sel]
        return self._new(out)

    def pair_shift(self, di: int, dj: int) -> "PairFamily":
        """Multiply by u^di ubar^dj."""
        out = np.zeros_like(self.coeffs)
        P = self.pair_cap
        if di <= P and dj <= P:
            out[di:, dj:] = self.coeffs[: P + 1 - di, : P + 1 - dj]
        return self._new(out)

    def param_scale(self, block: np.ndarray) -> "PairFamily":
        """Multiply by a parameter-only polynomial (a (M+1, M+1) array)."""
        return self._new(_truncated_product(np.asarray(block), self.coeffs, self.param_cap))

    def diff_u(self) -> "PairFamily":
        out = np.zeros_like(self.coeffs)
        n = self.pair_cap + 1
        mult = np.arange(1, n).reshape(n - 1, 1, 1, 1)
        out[: n - 1] = self.coeffs[1:] * mult
        return self._new(out)

    def diff_ubar(self) -> "PairFamily":
        out = np.zeros_like(self.coeffs)
        n = self.pair_cap + 1
        mult = np.arange(1, n).reshape(1, n - 1, 1, 1)
        out[:, : n - 1] = self.coeffs[:, 1:] * mult
        return self._new(out)

    def evaluate_params(self, dx: complex, dz: complex) -> np.ndarray:
        """Contract the parameter axes at a numeric offset; (P+1, P+1) array."""
        M = self.param_cap
        pw1 = dx ** np.arange(M + 1)
        pw2 = dz ** np.arange(M + 1)
        return np.einsum("ijpq,p,q->ij", self.coeffs, pw1, pw2)


def _scrub_boundary(fam: PairFamily, tol: float) -> PairFamily:
    """Zero the u-degree-0 and ubar-degree-0 slabs, guarding the residue."""
    scale = max(1.0, fam.max_abs())
    worst = max(float(np.max(np.abs(fam.coeffs[0, :]))),
                float(np.max(np.abs(fam.coeffs[:, 0]))))
    if worst > tol * scale:
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
    equals ainv_block exactly.
    """

    iota_v: PairFamily
    iota_vbar: PairFamily
    jacobian: PairFamily
    a_block: np.ndarray
    ainv_block: np.ndarray
    ainv_powers: list  # PowerSeries ainv^i in the two offsets, i = 0..pair_cap
    vbar_powers: list

    @property
    def pair_cap(self) -> int:
        return self.iota_vbar.pair_cap

    @property
    def param_cap(self) -> int:
        return self.iota_vbar.param_cap

    def transport(self, fam: PairFamily) -> PairFamily:
        """Compose fam with (iota_v, iota_vbar); parameters pass through."""
        return _compose_grouped(fam, self.ainv_powers, self.vbar_powers)


def _compose_grouped(fam: PairFamily, ainv_powers: list, vbar_powers: list) -> PairFamily:
    """fam(iota_v, iota_vbar) with iota_v = u * ainv, grouped by vbar power.

    sum_j [ sum_i c_ij(params) ainv^i u^i ] * iota_vbar^j costs one pair
    convolution per live j instead of a full bivariate substitution.
    """
    P, M = fam.pair_cap, fam.param_cap
    acc = PairFamily.zeros(P, M)
    for j in range(P + 1):
        g = np.zeros_like(acc.coeffs)
        live = False
        for i in range(P + 1):
            blk = fam.coeffs[i, j]
            if not blk.any():
                continue
            g[i, 0] = blk if i == 0 else (PowerSeries(blk, M) * ainv_powers[i]).coeffs
            live = True
        if not live:
            continue
        gfam = PairFamily(g, P, M)
        acc = acc + (gfam if j == 0 else gfam * vbar_powers[j])
    return acc


def _pair_powers(base: PairFamily, top: int) -> list:
    out = [PairFamily.constant(1.0, base.pair_cap, base.param_cap), base]
    for _ in range(2, top + 1):
        out.append(out[-1] * base)
    return out[: top + 1]


def morse_normalize_family(phase: PairFamily, tol: float = 1e-9) -> MorseFamily:
    """Flatten a one-pair phase family to -u ubar, all offsets at once.

    Requires every phase monomial to carry both u and ubar (the
    recentred geometric phases do; the residue guard raises
    ArithmeticError otherwise), which pins the pair-degree-2 part to
    A(params) u ubar and keeps every correction divisible by u.
    """
    P, M = phase.pair_cap, phase.param_cap
    if P < 2:
        raise ValueError("pair cap must be at least 2")
    ser = _scrub_boundary(phase, tol)

    a_block = -ser.block(1, 1)
    if abs(a_block[0, 0]) <= 1e-12 * max(1.0, float(np.max(np.abs(a_block)))):
        raise ValueError("degenerate pairing form")
    ainv = PowerSeries(a_block, M).reciprocal()
    ainv_block = ainv.coeffs
    ainv_powers = [PowerSeries.constant(1, 2, M)]
    for _ in range(P):
        ainv_powers.append(ainv_powers[-1] * ainv)

    u, ubar, _, _ = PairFamily.variables(P, M)
    iota_v = u.param_scale(ainv_block)
    iota_vbar = ubar.copy()
    uub = PairFamily.zeros(P, M)
    uub.coeffs[1, 1, 0, 0] = 1.0

    for D in range(3, P + 1):
        vbar_powers = _pair_powers(iota_vbar, P)
        err = _compose_grouped(ser, ainv_powers, vbar_powers) + uub
        err_d = err.pair_homogeneous(D)
        if not err_d.coeffs.any():
            continue
        scale = max(1.0, err.max_abs())
        leak = float(np.max(np.abs(err_d.coeffs[0, :])))
        if leak > tol * scale:
            raise ArithmeticError(
                f"pair-degree-{D} correction not divisible by u (residue {leak:.3e})")
        shifted = np.zeros_like(err_d.coeffs)
        shifted[:P, :] = err_d.coeffs[1:, :]
        iota_vbar = iota_vbar + PairFamily(shifted, P, M)

    vbar_powers = _pair_powers(iota_vbar, P)
    jacobian = iota_vbar.diff_ubar().param_scale(ainv_block)
    return MorseFamily(
        iota_v=iota_v,
        iota_vbar=iota_vbar,
        jacobian=jacobian,
        a_block=a_block,
        ainv_block=ainv_block,
        ainv_powers=ainv_powers,
        vbar_powers=vbar_powers,
    )
