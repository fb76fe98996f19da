"""The two model spaces: flat complex plane and round sphere.

A model states five primitives, and everything else is derived from them:

* ``two_phi_tilde(x, wbar) = L``, the polarized potential doubled: plane
  ``x wbar``, sphere ``log(1 + x wbar)``.  The un-normalized kernel is
  ``Psi(x, ybar) = exp(L(x, ybar))``, so ``Psi^N`` is ``exp(N x ybar)`` on
  the plane and ``(1 + x ybar)^N`` on the sphere.
* ``density_rho(y, wbar)``, the polarized volume density against flat
  ``dA / pi``: plane 1, sphere ``(1 + y wbar)^{-2}`` (total mass one).  On
  a Kaehler model it is also the mixed Hessian of ``L``, so the metric is
  ``2 rho(z, zbar) |dz|^2``.
* ``geodesic_distance``; sphere injectivity radius ``pi / sqrt(2)``.
* ``level_moments`` (``||z^m||^2`` at levels N + s, integers over one
  denominator) and ``bergman_kernel``, the exact level-N oracles; the
  ``coordinates`` symbol polynomials are written in are integer tables over
  ``(1 + z zbar)^over_power``, which every evaluation and check reads.

Each formula is written once and takes numpy arrays or scalars (made
complex) and ring elements (``PowerSeries``, ``PairFamily``) alike: the
engine builds its phase and density from the same expressions the
quadratures evaluate.  The four-point phase combination

    Phi1(x, y, wbar, zbar) = L(x,wbar) - L(y,wbar) + L(y,zbar) - L(x,zbar)

vanishes on {y = x} and {wbar = zbar} and has non-positive real part on
the real locus; all oscillatory-integral machinery downstream expands
``exp(N Phi1)``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate

import numpy as np

from .series import PowerSeries, TruncatedRing


def _operands(*args):
    """Ring elements pass through; anything else becomes a complex array."""
    if any(isinstance(a, TruncatedRing) for a in args):
        return args
    return tuple(np.asarray(a, dtype=complex) for a in args)


def _log(t):
    """log of an array, or of a ring element with any nonzero constant term."""
    if not isinstance(t, TruncatedRing):
        return np.log(t)
    c = t.constant_term()
    if c == 0:
        raise ValueError("log needs a nonzero constant term")
    scaled = t * (1.0 / complex(c))
    scaled.coeffs[(0,) * scaled.nvars] = 1.0  # pin the one-ulp division residue
    return complex(np.log(complex(c))) + scaled.log()


def _inverse_square(t):
    return t.reciprocal() ** 2 if isinstance(t, TruncatedRing) else t ** (-2.0)


def _divider(d):
    """Division by d; a ring element divides through one reciprocal."""
    if isinstance(d, TruncatedRing):
        inv = d.reciprocal()
        return lambda t: t * inv
    return lambda t: t / d


class ModelGeometry:
    """Shared machinery; concrete models fill in the five primitives."""

    name: str
    compact: bool
    # the ambient coordinates, each a table {(p, q): (re, im)} of integer
    # multiples of z^p zbar^q over (1 + z zbar)^over_power
    coordinates: tuple
    over_power: int

    # -- primitives, overridden per model -----------------------------------

    def two_phi_tilde(self, x, wbar):
        """Polarized potential L = 2 phi_tilde."""
        raise NotImplementedError

    def density_rho(self, y, wbar):
        """Polarized volume density against flat dA/pi; the mixed Hessian of L."""
        raise NotImplementedError

    def geodesic_distance(self, x, y):
        raise NotImplementedError

    def level_moments(self, N: int, top_s: int, top_m: int) -> tuple:
        """Exact moments M_{N+s}(m) = ||z^m||^2 at levels N + s <= N + top_s.

        Returns ``(rows, den)``: ``rows[s][m]``, for m <= top_m within the
        level-(N+s) space, is the Python-int numerator of M_{N+s}(m) over den.
        """
        raise NotImplementedError

    def bergman_kernel(self, N: int, x, ybar):
        """Exact reproducing kernel S_N(x, ybar)."""
        raise NotImplementedError

    # -- shared derived quantities ------------------------------------------

    def norm_sq_monomial(self, N: int, j: int) -> Fraction:
        """Exact squared norm of z^j in the weighted space at level N."""
        (row,), den = self.level_moments(N, 0, j)
        if not 0 <= j < len(row):
            raise ValueError(f"monomial degree {j} outside the level-{N} space")
        return Fraction(row[j], den)

    def check_exponents(self, terms) -> dict:
        """An exponent -> coefficient mapping over the ``coordinates``, with
        int exponents; a key of anything but one non-negative integer per
        coordinate raises ValueError."""
        out = {}
        for key, cval in dict(terms).items():
            if not isinstance(key, tuple) or len(key) != len(self.coordinates) or not all(
                    isinstance(e, numbers.Integral) and e >= 0 for e in key):
                raise ValueError(f"exponents {key} need {len(self.coordinates)} entries, "
                                 "each a non-negative integer")
            out[tuple(map(int, key))] = cval
        return out

    def polarized_coordinates(self, y, wbar) -> tuple:
        """The ``coordinates`` at polarized points: each table's sum of
        (re + i im) y^p wbar^q over (1 + y wbar)^over_power, for arrays and
        ring elements alike; at wbar = conj y they are real."""
        y, wbar = _operands(y, wbar)
        over = _divider(1 + y * wbar) if self.over_power else None
        coords = []
        for table in self.coordinates:
            acc = sum(reduce(operator.mul, [y] * p + [wbar] * q, complex(re, im))
                      for (p, q), (re, im) in table.items())
            for _ in range(self.over_power):
                acc = over(acc)
            coords.append(acc)
        return tuple(coords)

    def monomial_expansion(self, exponents) -> tuple:
        """A monomial in the ``coordinates`` as (s, {(p, q): (re, im)}): the sum
        of (re + i im) z^p zbar^q (1 + z zbar)^{-s}; on the plane, z^p zbar^q."""
        terms = {(0, 0): (1, 0)}
        for coord, e in zip(self.coordinates, exponents):
            for _ in range(e):
                out = {}
                for (p, q), (re, im) in terms.items():
                    for (dp, dq), (cre, cim) in coord.items():
                        ore, oim = out.get((p + dp, q + dq), (0, 0))
                        out[p + dp, q + dq] = (ore + re * cre - im * cim, oim + re * cim + im * cre)
                terms = out
        return self.over_power * sum(exponents), terms

    def psi_pointwise_norm(self, x, y, N: int):
        """|Psi^N(x, conj y)| measured in the weighted norm at both points.

        Equals exp(N * (Re L(x, conj y) - (L(x, conj x) + L(y, conj y)) / 2)),
        which is <= 1 and encodes the off-diagonal kernel decay.
        """
        expo = (
            np.real(self.two_phi_tilde(x, np.conj(y)))
            - 0.5 * np.real(self.two_phi_tilde(x, np.conj(x)))
            - 0.5 * np.real(self.two_phi_tilde(y, np.conj(y)))
        )
        return np.exp(N * expo)

    def phase_phi1(self, x, y, wbar, zbar):
        """The four-point phase Phi1, for arrays and ring elements alike."""
        L = self.two_phi_tilde
        return L(x, wbar) - L(y, wbar) + L(y, zbar) - L(x, zbar)

    def phase_phi1_series(self, x0: complex, zbar0: complex, order: int) -> PowerSeries:
        """Jet of Phi1 in recentred variables (u, ubar, dx, dzbar).

        The four slots of Phi1 are taken at x = x0 + dx, y = x + u,
        wbar = zbar + ubar, zbar = zbar0 + dzbar, which puts the critical
        point of the oscillatory integral at u = ubar = 0 for every offset.
        Every monomial of the result carries u-degree >= 1 and
        ubar-degree >= 1.  A pointwise oracle for the engine's phase
        family, which is built at the origin from the same ``phase_phi1``.
        """
        u = PowerSeries.variable(0, 4, order)
        ubar = PowerSeries.variable(1, 4, order)
        dx = PowerSeries.variable(2, 4, order)
        dzbar = PowerSeries.variable(3, 4, order)
        x = complex(x0) + dx
        zbar = complex(zbar0) + dzbar
        phase = self.phase_phi1(x, x + u, zbar + ubar, zbar)
        # the telescoping kills every monomial missing a u or ubar factor;
        # scrub the float residue of that cancellation, it is load-bearing
        residue = max(
            np.max(np.abs(phase.coeffs[0, :, :, :])),
            np.max(np.abs(phase.coeffs[:, 0, :, :])),
        )
        scale = max(1.0, float(np.max(np.abs(phase.coeffs))))
        if residue > 1e-9 * scale:
            raise ArithmeticError(f"phase jet lost its pair valuation ({residue:.3e})")
        phase.coeffs[0, :, :, :] = 0.0
        phase.coeffs[:, 0, :, :] = 0.0
        return phase

    def density_rho_series(self, x0: complex, zbar0: complex, order: int) -> PowerSeries:
        """Jet of the density rho(y, wbar) in the same recentred variables."""
        u = PowerSeries.variable(0, 4, order)
        ubar = PowerSeries.variable(1, 4, order)
        dx = PowerSeries.variable(2, 4, order)
        dzbar = PowerSeries.variable(3, 4, order)
        return self.density_rho(complex(x0) + dx + u, complex(zbar0) + dzbar + ubar)

    def __repr__(self) -> str:
        return f"ModelGeometry({self.name})"


class BargmannModel(ModelGeometry):
    """Flat plane with Gaussian weight; everything Gaussian is exact here."""

    name = "bargmann"
    compact = False
    injectivity_radius = math.inf
    coordinates = ({(1, 0): (1, 0)}, {(0, 1): (1, 0)})  # z, zbar
    over_power = 0

    def two_phi_tilde(self, x, wbar):
        x, wbar = _operands(x, wbar)
        return x * wbar

    def density_rho(self, y, wbar):
        y, wbar = _operands(y, wbar)
        return (y * wbar) * 0 + 1

    def geodesic_distance(self, x, y):
        return math.sqrt(2.0) * np.abs(np.subtract(x, y))

    def level_moments(self, N: int, top_s: int, top_m: int) -> tuple:
        """m! / N^{m+1} over N^{T+1}, T = top_m; the Gaussian weight has no s."""
        if top_s:
            raise ValueError("plane moments carry no (1 + z zbar) power")
        fact = accumulate(range(1, top_m + 1), operator.mul, initial=1)
        powers = list(accumulate([N] * top_m, operator.mul, initial=1))[::-1]
        return [[f * pw for f, pw in zip(fact, powers)]], N ** (top_m + 1)

    def bergman_kernel(self, N: int, x, ybar):
        return N * np.exp(N * np.asarray(x, dtype=complex) * np.asarray(ybar, dtype=complex))


class SphereModel(ModelGeometry):
    """Round sphere in the standard affine chart."""

    name = "sphere"
    compact = True
    injectivity_radius = math.pi / math.sqrt(2.0)
    # the ambient x1, x2, x3: z + zbar, -i (z - zbar), 1 - z zbar
    coordinates = (
        {(1, 0): (1, 0), (0, 1): (1, 0)},
        {(1, 0): (0, -1), (0, 1): (0, 1)},
        {(0, 0): (1, 0), (1, 1): (-1, 0)},
    )
    over_power = 1

    def two_phi_tilde(self, x, wbar):
        x, wbar = _operands(x, wbar)
        return _log(1 + x * wbar)

    def density_rho(self, y, wbar):
        y, wbar = _operands(y, wbar)
        return _inverse_square(1 + y * wbar)

    def geodesic_distance(self, x, y):
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        num = np.abs(1.0 + x * np.conj(y)) ** 2
        den = (1.0 + np.abs(x) ** 2) * (1.0 + np.abs(y) ** 2)
        ratio = np.clip(num / den, 0.0, 1.0)
        return math.sqrt(2.0) * np.arccos(np.sqrt(ratio))

    def level_moments(self, N: int, top_s: int, top_m: int) -> tuple:
        """m! (N+s-m)! / (N+s+1)! over (N+S+1)!, S = top_s; a multiplier
        term's (1 + z zbar)^{-s} lifts its moments to level N + s."""
        fact = list(accumulate(range(1, N + top_s + 2), operator.mul, initial=1))
        rows = []
        for s in range(top_s + 1):
            lift = fact[N + top_s + 1] // fact[N + s + 1]
            rows.append([fact[m] * fact[N + s - m] * lift for m in range(min(top_m, N + s) + 1)])
        return rows, fact[N + top_s + 1]

    def bergman_kernel(self, N: int, x, ybar):
        return (N + 1) * (1.0 + np.asarray(x, dtype=complex) * np.asarray(ybar, dtype=complex)) ** N


def bargmann() -> BargmannModel:
    return BargmannModel()


def sphere() -> SphereModel:
    return SphereModel()


def model_by_name(name: str) -> ModelGeometry:
    table = {"bargmann": bargmann, "sphere": sphere}
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(table)}") from None


@dataclass
class MixedLogDerivative:
    """Exact vs series value of the mixed log-derivative diagnostic."""

    mixed_derivative: float
    remark_value: float
    closed_form: float
    series_value: float
    discrepancy: float


def mixed_log_derivative_check(t: float = 1.0, order: int = 4) -> MixedLogDerivative:
    """Mixed derivative of log Phi1 along the sphere distinguished slice.

    On the slice x = zbar = 0 the sphere phase is Phi1 = -log(1 + y wbar).
    The quantity computed is d^2/(dy dwbar) log(-Phi1) at y = wbar = sqrt(t),
    evaluated two ways: closed form F'(t) + t F''(t) with
    F(t) = log log(1+t), and the (1,1) jet coefficient of the composed
    series. The reported ``remark_value`` is -2 times the derivative, the
    normalization used by the kernel-expansion cross-checks downstream.
    """
    if t <= 0:
        raise ValueError("need t > 0")
    lg = math.log(1.0 + t)
    fp = 1.0 / ((1.0 + t) * lg)
    fpp = -(lg + 1.0) / ((1.0 + t) ** 2 * lg**2)
    closed = fp + t * fpp

    root = math.sqrt(t)
    dy = PowerSeries.variable(0, 2, order)
    dw = PowerSeries.variable(1, 2, order)
    y = root + dy
    wbar = root + dw
    minus_phi1 = _log(1 + y * wbar)
    g = _log(minus_phi1)
    series_val = float(np.real(g.coeff((1, 1))))

    mixed = closed
    return MixedLogDerivative(
        mixed_derivative=mixed,
        remark_value=-2.0 * mixed,
        closed_form=closed,
        series_value=series_val,
        discrepancy=abs(series_val - closed),
    )
