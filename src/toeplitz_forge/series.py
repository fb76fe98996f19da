"""Dense truncated power series in a few variables.

Coefficients live in a dense ndarray of shape ``(order + 1,) ** nvars``
indexed by exponent tuples, with every entry of total degree above
``order`` pinned to zero. Two coefficient domains are supported:

* ``complex128`` arrays, for the numerical routes, and
* ``object`` arrays of `fractions.Fraction`, for exact arithmetic in
  oracles and property tests.

Both domains and every number of variables share one product,
``_truncated_product``: each nonzero coefficient of the left operand adds
one shifted slice of the right operand, and the entries above the cap are
zeroed through one cached, read-only degree grid.  Truncation at a fixed
total degree is a ring quotient, so ring identities hold exactly, not just
approximately, for equal-order operands.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

Scalar = Union[int, float, complex, Fraction]


@lru_cache(maxsize=None)
def _degree_grid(nvars: int, order: int) -> np.ndarray:
    """Total degree of every entry of the dense box; shared, so read-only."""
    grid = np.sum(np.indices((order + 1,) * nvars), axis=0)
    grid.setflags(write=False)
    return grid


def _truncated_product(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Total-degree truncated product of two dense coefficient boxes.

    Walks the nonzeros of ``a`` in row-major order and adds, for each, one
    shifted slice of ``b``; the slices reach past the cap only into entries
    of the dense box above it, which are zeroed at the end.
    """
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


class PowerSeries:
    """A polynomial jet: power series truncated at a fixed total degree."""

    __slots__ = ("coeffs", "order", "nvars")

    def __init__(self, coeffs: np.ndarray, order: int):
        coeffs = np.asarray(coeffs)
        if coeffs.ndim < 1:
            raise ValueError("need at least one variable")
        if coeffs.shape != (order + 1,) * coeffs.ndim:
            raise ValueError(f"shape {coeffs.shape} does not match order {order}")
        self.coeffs = coeffs
        self.order = order
        self.nvars = coeffs.ndim

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, order: int, exact: bool = False) -> "PowerSeries":
        shape = (order + 1,) * nvars
        if exact:
            coeffs = np.full(shape, Fraction(0), dtype=object)
        else:
            coeffs = np.zeros(shape, dtype=np.complex128)
        return cls(coeffs, order)

    @classmethod
    def constant(cls, value: Scalar, nvars: int, order: int, exact: bool = False) -> "PowerSeries":
        out = cls.zero(nvars, order, exact)
        out.coeffs[(0,) * nvars] = Fraction(value) if exact else complex(value)
        return out

    @classmethod
    def variable(cls, index: int, nvars: int, order: int, exact: bool = False) -> "PowerSeries":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        if order < 1:
            raise ValueError("order must be >= 1 to hold a variable")
        out = cls.zero(nvars, order, exact)
        expo = [0] * nvars
        expo[index] = 1
        out.coeffs[tuple(expo)] = Fraction(1) if exact else 1.0
        return out

    @classmethod
    def from_terms(cls, terms: dict, nvars: int, order: int, exact: bool = False) -> "PowerSeries":
        """Series from a {exponent tuple: coefficient} mapping."""
        out = cls.zero(nvars, order, exact)
        for expo, coeff in terms.items():
            if len(expo) != nvars:
                raise ValueError(f"exponent {expo} has wrong length")
            if sum(expo) <= order:
                out.coeffs[tuple(expo)] = Fraction(coeff) if exact else complex(coeff)
        return out

    # -- bookkeeping -------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.coeffs.dtype == object

    def _new(self, coeffs: np.ndarray) -> "PowerSeries":
        return PowerSeries(coeffs, self.order)

    def copy(self) -> "PowerSeries":
        return self._new(self.coeffs.copy())

    def coeff(self, expo: Sequence[int]) -> Scalar:
        return self.coeffs[tuple(int(e) for e in expo)]

    def constant_term(self) -> Scalar:
        return self.coeffs[(0,) * self.nvars]

    def truncate(self, order: int) -> "PowerSeries":
        """Drop to a lower total degree (reshapes the backing array)."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        sl = (slice(0, order + 1),) * self.nvars
        coeffs = self.coeffs[sl].copy()
        coeffs[_degree_grid(self.nvars, order) > order] = 0
        return PowerSeries(coeffs, order)

    def homogeneous(self, degree: int) -> "PowerSeries":
        """Keep only the total-degree ``degree`` part."""
        out = self.coeffs.copy()
        out[_degree_grid(self.nvars, self.order) != degree] = 0
        return self._new(out)

    def max_abs(self) -> float:
        if self.is_exact:
            return float(max((abs(Fraction(c)) for c in self.coeffs.flat), default=0))
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def to_complex(self) -> "PowerSeries":
        if not self.is_exact:
            return self
        return self._new(self.coeffs.astype(np.complex128))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.order == other.order
            and bool(np.all(self.coeffs == other.coeffs))
        )

    __hash__ = None

    def __repr__(self) -> str:
        kind = "exact" if self.is_exact else "complex"
        nz = int(np.count_nonzero(self.coeffs != 0))
        return f"PowerSeries(nvars={self.nvars}, order={self.order}, {kind}, {nz} terms)"

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "PowerSeries") -> None:
        if self.nvars != other.nvars or self.order != other.order:
            raise ValueError("series shapes differ; truncate to a common order first")

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            self._check_compatible(other)
            return self._new(self.coeffs + other.coeffs)
        return self + PowerSeries.constant(other, self.nvars, self.order, self.is_exact)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.coeffs)

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            return self + (-other)
        return self + (-Fraction(other) if self.is_exact else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            if self.is_exact:
                return self._new(self.coeffs * Fraction(other))
            return self._new(self.coeffs * complex(other))
        self._check_compatible(other)
        if self.is_exact != other.is_exact:
            raise ValueError("cannot mix exact and complex series; convert first")
        return self._new(_truncated_product(self.coeffs, other.coeffs, self.order))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0 or n != int(n):
            raise ValueError("only non-negative integer powers")
        out = PowerSeries.constant(1, self.nvars, self.order, self.is_exact)
        base = self
        n = int(n)
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int) -> "PowerSeries":
        """Partial derivative with respect to variable ``axis``."""
        if not 0 <= axis < self.nvars:
            raise ValueError("axis out of range")
        n = self.order + 1
        if self.is_exact:
            out = np.full(self.coeffs.shape, Fraction(0), dtype=object)
        else:
            out = np.zeros_like(self.coeffs)
        mult_shape = [1] * self.nvars
        mult_shape[axis] = n - 1
        mult = np.arange(1, n).reshape(mult_shape)
        src = [slice(None)] * self.nvars
        dst = [slice(None)] * self.nvars
        src[axis] = slice(1, None)
        dst[axis] = slice(0, n - 1)
        out[tuple(dst)] = self.coeffs[tuple(src)] * mult
        return self._new(out)

    def __call__(self, *point: Scalar) -> Scalar:
        """Evaluate at a numeric point by nested Horner contraction."""
        if len(point) != self.nvars:
            raise ValueError(f"need {self.nvars} coordinates")
        vals = self.coeffs
        for x in point:
            acc = vals[-1]
            for k in range(vals.shape[0] - 2, -1, -1):
                acc = acc * x + vals[k]
            vals = acc
        return vals

    # -- composition and inverses ------------------------------------------

    def substitute(self, args: Sequence["PowerSeries"]) -> "PowerSeries":
        """Compose: plug a series (zero constant term) into each variable.

        All ``args`` must share one target variable set and order; the
        result is exact to that order because each argument has valuation
        at least one.
        """
        if len(args) != self.nvars:
            raise ValueError(f"need {self.nvars} substitution series")
        tgt = args[0]
        for g in args:
            if g.nvars != tgt.nvars or g.order != tgt.order or g.is_exact != tgt.is_exact:
                raise ValueError("substitution series must share a target space")
            if g.constant_term() != 0:
                raise ValueError("substitution series must have zero constant term")

        def horner(block, depth: int) -> PowerSeries:
            if depth == self.nvars:  # block is a bare coefficient now
                return PowerSeries.constant(block, tgt.nvars, tgt.order, tgt.is_exact)
            acc = horner(block[-1], depth + 1)
            for k in range(block.shape[0] - 2, -1, -1):
                acc = acc * args[depth] + horner(block[k], depth + 1)
            return acc

        return horner(self.coeffs, 0)

    def _geometric_apply(self, coeff_of_k: Callable[[int], Scalar]) -> "PowerSeries":
        """Horner sum over powers of self, sum_k coeff_of_k(k) * self^k."""
        top = self.order
        acc = PowerSeries.constant(coeff_of_k(top), self.nvars, self.order, self.is_exact)
        for k in range(top - 1, -1, -1):
            acc = acc * self + coeff_of_k(k)
        return acc

    def exp(self) -> "PowerSeries":
        """exp of a series with zero constant term."""
        if self.constant_term() != 0:
            raise ValueError("exp needs zero constant term")
        if self.is_exact:
            return self._geometric_apply(lambda k: Fraction(1, _fact(k)))
        return self._geometric_apply(lambda k: 1.0 / _fact(k))

    def log(self) -> "PowerSeries":
        """log of a series with constant term one."""
        if self.constant_term() != 1:
            raise ValueError("log needs constant term one")
        w = self - 1
        if self.is_exact:
            return w._geometric_apply(lambda k: Fraction((-1) ** (k + 1), k) if k else Fraction(0))
        return w._geometric_apply(lambda k: ((-1) ** (k + 1)) / k if k else 0.0)

    def reciprocal(self) -> "PowerSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        c = self.constant_term()
        if c == 0:
            raise ValueError("reciprocal needs nonzero constant term")
        if self.is_exact:
            c = Fraction(c)
            w = (self - c) * (Fraction(1) / c)
            return w._geometric_apply(lambda k: (Fraction(-1) ** k) / c)
        c = complex(c)
        w = (self - c) * (1.0 / c)
        return w._geometric_apply(lambda k: ((-1.0) ** k) / c)

    def __truediv__(self, other):
        if isinstance(other, PowerSeries):
            return self * other.reciprocal()
        if self.is_exact:
            return self * (Fraction(1) / Fraction(other))
        return self * (1.0 / complex(other))


def _fact(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out
