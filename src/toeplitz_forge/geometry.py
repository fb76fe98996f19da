"""The two model spaces: flat complex plane and round sphere.

Each model packages its polarized potential, reproducing kernel, volume
density, metric, and exact monomial norms. Conventions:

* polarized potential ``phi_tilde(x, wbar)``: plane ``x wbar / 2``,
  sphere ``log(1 + x wbar) / 2``; on the diagonal ``phi(z) =
  phi_tilde(z, conj z)`` is the real potential.
* un-normalized kernel ``Psi(x, ybar) = exp(2 phi_tilde(x, ybar))``,
  so ``Psi^N`` is ``exp(N x ybar)`` on the plane and ``(1 + x ybar)^N``
  on the sphere.
* volume: plane ``dA / pi``; sphere ``(1/pi)(1 + |z|^2)^{-2} dA``
  (total mass one).
* metric ``2 A(z, zbar) |dz|^2`` with ``A`` the mixed Hessian of
  ``2 phi``; sphere injectivity radius ``pi / sqrt(2)``.

The four-point phase combination

    Phi1(x, y, wbar, zbar) = L(x,wbar) - L(y,wbar) + L(y,zbar) - L(x,zbar),

with ``L = 2 phi_tilde``, vanishes on {y = x} and {wbar = zbar} and has
non-positive real part on the real locus; all oscillatory-integral
machinery downstream expands ``exp(N Phi1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .series import PowerSeries


def _ring_log_shifted(s: PowerSeries) -> PowerSeries:
    """log of a series with arbitrary nonzero constant term."""
    c = s.constant_term()
    if c == 0:
        raise ValueError("log needs a nonzero constant term")
    scaled = s * (1.0 / complex(c))
    scaled.coeffs[(0,) * scaled.nvars] = 1.0  # pin the one-ulp division residue
    return complex(np.log(complex(c))) + scaled.log()


class ModelGeometry:
    """Shared machinery; concrete models fill in the primitives."""

    name: str
    compact: bool

    # -- primitives, overridden per model -----------------------------------

    def two_phi_tilde(self, x, wbar):
        raise NotImplementedError

    def two_phi_tilde_ring(self, x, wbar):
        """Same quantity for ring elements (series) with +, *, log."""
        raise NotImplementedError

    def density_rho(self, y, wbar):
        """Polarized volume density against flat dA/pi."""
        raise NotImplementedError

    def density_rho_ring(self, y, wbar):
        raise NotImplementedError

    def hessian_pairing(self, x, zbar):
        """Mixed Hessian A of the polarized potential L = 2 phi_tilde."""
        raise NotImplementedError

    def geodesic_distance(self, x, y):
        raise NotImplementedError

    def norm_sq_monomial(self, N: int, j: int) -> Fraction:
        """Exact squared norm of z^j in the weighted space at level N."""
        raise NotImplementedError

    def bergman_kernel(self, N: int, x, ybar):
        """Exact reproducing kernel S_N(x, ybar)."""
        raise NotImplementedError

    def dim_h(self, N: int):
        """Dimension of the level-N space (None when infinite)."""
        raise NotImplementedError

    # -- shared derived quantities ------------------------------------------

    def phi_tilde(self, x, wbar):
        return 0.5 * self.two_phi_tilde(x, wbar)

    def phi(self, z):
        return np.real(self.phi_tilde(z, np.conj(z)))

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
        L = self.two_phi_tilde
        return L(x, wbar) - L(y, wbar) + L(y, zbar) - L(x, zbar)

    def phase_phi1_series(self, x0: complex, zbar0: complex, order: int) -> PowerSeries:
        """Jet of Phi1 in recentred variables (u, ubar, dx, dzbar).

        The four slots of Phi1 are taken at x = x0 + dx, y = x + u,
        wbar = zbar + ubar, zbar = zbar0 + dzbar, which puts the critical
        point of the oscillatory integral at u = ubar = 0 for every offset.
        Every monomial of the result carries u-degree >= 1 and
        ubar-degree >= 1.
        """
        u = PowerSeries.variable(0, 4, order)
        ubar = PowerSeries.variable(1, 4, order)
        dx = PowerSeries.variable(2, 4, order)
        dzbar = PowerSeries.variable(3, 4, order)
        x = complex(x0) + dx
        y = x + u
        zbar = complex(zbar0) + dzbar
        wbar = zbar + ubar
        L = self.two_phi_tilde_ring
        phase = L(x, wbar) - L(y, wbar) + L(y, zbar) - L(x, zbar)
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
        y = complex(x0) + dx + u
        wbar = complex(zbar0) + dzbar + ubar
        return self.density_rho_ring(y, wbar)

    def __repr__(self) -> str:
        return f"ModelGeometry({self.name})"


class BargmannModel(ModelGeometry):
    """Flat plane with Gaussian weight; everything Gaussian is exact here."""

    name = "bargmann"
    compact = False
    injectivity_radius = math.inf
    total_volume = math.inf

    def two_phi_tilde(self, x, wbar):
        return np.multiply(x, wbar)

    def two_phi_tilde_ring(self, x, wbar):
        return x * wbar

    def density_rho(self, y, wbar):
        return np.multiply(y, wbar) * 0.0 + 1.0

    def density_rho_ring(self, y, wbar):
        return (y * wbar) * 0 + 1

    def hessian_pairing(self, x, zbar):
        return np.multiply(x, zbar) * 0.0 + 1.0

    def geodesic_distance(self, x, y):
        return math.sqrt(2.0) * np.abs(np.subtract(x, y))

    def dm_weight(self, z):
        return np.abs(z) * 0.0 + 1.0

    def norm_sq_monomial(self, N: int, j: int) -> Fraction:
        return Fraction(math.factorial(j), N ** (j + 1))

    def bergman_kernel(self, N: int, x, ybar):
        return N * np.exp(N * np.asarray(x, dtype=complex) * np.asarray(ybar, dtype=complex))

    def dim_h(self, N: int):
        return None


class SphereModel(ModelGeometry):
    """Round sphere in the standard affine chart."""

    name = "sphere"
    compact = True
    injectivity_radius = math.pi / math.sqrt(2.0)
    total_volume = 1.0

    def two_phi_tilde(self, x, wbar):
        return np.log(1.0 + np.asarray(x, dtype=complex) * np.asarray(wbar, dtype=complex))

    def two_phi_tilde_ring(self, x, wbar):
        return _ring_log_shifted(1 + x * wbar)

    def density_rho(self, y, wbar):
        return (1.0 + np.asarray(y, dtype=complex) * np.asarray(wbar, dtype=complex)) ** (-2.0)

    def density_rho_ring(self, y, wbar):
        return (1 + y * wbar).reciprocal() ** 2

    def hessian_pairing(self, x, zbar):
        return (1.0 + np.asarray(x, dtype=complex) * np.asarray(zbar, dtype=complex)) ** (-2.0)

    def geodesic_distance(self, x, y):
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        num = np.abs(1.0 + x * np.conj(y)) ** 2
        den = (1.0 + np.abs(x) ** 2) * (1.0 + np.abs(y) ** 2)
        ratio = np.clip(num / den, 0.0, 1.0)
        return math.sqrt(2.0) * np.arccos(np.sqrt(ratio))

    def dm_weight(self, z):
        return (1.0 + np.abs(np.asarray(z, dtype=complex)) ** 2) ** (-2.0)

    def norm_sq_monomial(self, N: int, j: int) -> Fraction:
        if not 0 <= j <= N:
            raise ValueError(f"monomial degree {j} outside 0..{N}")
        return Fraction(math.factorial(j) * math.factorial(N - j), math.factorial(N + 1))

    def bergman_kernel(self, N: int, x, ybar):
        return (N + 1) * (1.0 + np.asarray(x, dtype=complex) * np.asarray(ybar, dtype=complex)) ** N

    def dim_h(self, N: int):
        return N + 1

    # -- sphere-specific helpers --------------------------------------------

    @staticmethod
    def euclid_coords(z):
        """Unit-sphere embedding (x1, x2, x3) of a chart point."""
        z = np.asarray(z, dtype=complex)
        d = 1.0 + np.abs(z) ** 2
        return 2.0 * z.real / d, 2.0 * z.imag / d, (1.0 - np.abs(z) ** 2) / d

    @staticmethod
    def euclid_polarized(y, wbar):
        """Analytic extensions of x1, x2, x3 off the real locus wbar = conj y."""
        y = np.asarray(y, dtype=complex)
        wbar = np.asarray(wbar, dtype=complex)
        d = 1.0 + y * wbar
        return (y + wbar) / d, -1j * (y - wbar) / d, (1.0 - y * wbar) / d

    @staticmethod
    def chart_flip(z):
        """Transition to the opposite affine chart."""
        return 1.0 / z


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
    minus_phi1 = _ring_log_shifted(1 + y * wbar)
    g = _ring_log_shifted(minus_phi1)
    series_val = float(np.real(g.coeff((1, 1))))

    mixed = closed
    return MixedLogDerivative(
        mixed_derivative=mixed,
        remark_value=-2.0 * mixed,
        closed_form=closed,
        series_value=series_val,
        discrepancy=abs(series_val - closed),
    )
