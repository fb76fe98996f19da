"""Dense truncated power series in a few variables.

Coefficients live in a dense ndarray of shape ``(order + 1,) ** nvars``
indexed by exponent tuples, with every entry of total degree above
``order`` pinned to zero. Two coefficient domains are supported:

* ``complex128`` arrays, for the numerical routes, and
* ``object`` arrays of `fractions.Fraction`, for exact arithmetic in
  oracles and property tests.

Both domains and every number of variables share one product,
``_truncated_product``: each nonzero coefficient of the sparser operand
adds one shifted slice of the other, cut to the entries that can land
inside the cap, and the few above it are zeroed through one cached,
read-only degree grid.  A sparse factor times a dense one, such as a
phase remainder times a running product, so costs one slice per nonzero
of the sparse factor whichever side it is on.  When the right operand
has more axes than the left, the left one is walked and multiplies its
trailing axes; that is how a parameter polynomial scales a
``stationary_phase.PairFamily``.  Truncation at a
fixed total degree is a ring quotient, so ring identities hold exactly,
not just approximately, for equal-order operands.

``TruncatedRing`` holds the ring algebra both truncated rings share:
subtraction, division, integer powers and the exp/log/reciprocal Horner
sums, derived from each ring's own sum, product and grading.

``PowerSeries.substitute`` composes by powers: it builds the powers of
the innermost argument once, then contracts the coefficient block
against them in one matmul; only the outer variables take Horner steps,
one series product each.
"""

from __future__ import annotations

import math
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

    Walks the nonzeros of the sparser operand (``a`` on a tie) in
    row-major order and adds, for each exponent of degree s, the first
    ``order + 1 - s`` entries of the other along every axis, shifted by
    that exponent: every entry that can land inside the cap, and a few
    above it, which are zeroed at the end.  The ring is commutative and
    each elementwise product is the same either way, so the choice moves
    complex results by the rounding of the sums only.  When ``b`` has more
    axes than ``a``, ``a`` is walked and multiplies the trailing ones; the
    leading axes of ``b`` pass through.
    """
    live = a != 0
    if a.ndim == b.ndim:
        live_b = b != 0
        if np.count_nonzero(live_b) < np.count_nonzero(live):
            a, b, live = b, a, live_b
    if a.dtype == object:
        out = np.full(b.shape, Fraction(0), dtype=object)
    else:
        out = np.zeros(b.shape, dtype=np.complex128)
    lead = (slice(None),) * (b.ndim - a.ndim)
    for expo in np.argwhere(live).tolist():
        room = order + 1 - sum(expo)
        if room <= 0:
            continue
        dst = lead + tuple(slice(e, e + room) for e in expo)
        src = lead + (slice(0, room),) * len(expo)
        out[dst] += a[tuple(expo)] * b[src]
    out[lead + (_degree_grid(a.ndim, order) > order,)] = 0
    return out


class TruncatedRing:
    """Ring algebra shared by the truncated rings.

    A subclass keeps the primitives: ``__add__``, ``__mul__`` and
    ``__neg__`` (each also with a scalar), ``is_exact``, ``constant_term()``,
    ``valuation()`` (lowest degree of a nonzero term, -1 for zero),
    ``_constant(value)`` (an element of the same shape) and
    ``_top_degree()`` (the highest degree a term can have).  Subtraction,
    division, integer powers, exp, log and reciprocal are derived here.
    """

    __slots__ = ()

    def _one(self):
        return Fraction(1) if self.is_exact else 1.0

    def _scalar(self, value):
        return Fraction(value) if self.is_exact else complex(value)

    def __sub__(self, other):
        if not isinstance(other, TruncatedRing):
            other = self._scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        if isinstance(other, TruncatedRing):
            return self * other.reciprocal()
        return self * (self._one() / self._scalar(other))

    def __pow__(self, n: int):
        if n < 0 or n != int(n):
            raise ValueError("only non-negative integer powers")
        out, base, n = self._constant(1), self, int(n)
        while n:
            if n & 1:
                out = out * base
            if n > 1:
                base = base * base
            n >>= 1
        return out

    def _geometric(self, coeff_of_k: Callable[[int], Scalar]):
        """Horner sum sum_k coeff_of_k(k) * self^k; self has no constant term.

        Powers past ``_top_degree() // valuation`` truncate to zero; the
        zero element (valuation -1) keeps only k = 0.
        """
        top = max(self._top_degree() // self.valuation(), 0)
        acc = self._constant(coeff_of_k(top))
        for k in range(top - 1, -1, -1):
            acc = acc * self + coeff_of_k(k)
        return acc

    def exp(self):
        """exp of an element with zero constant term."""
        if self.constant_term() != 0:
            raise ValueError("exp needs zero constant term")
        one = self._one()
        return self._geometric(lambda k: one / math.factorial(k))

    def log(self):
        """log of an element with constant term one."""
        if self.constant_term() != 1:
            raise ValueError("log needs constant term one")
        one = self._one()
        return (self - 1)._geometric(lambda k: (-one) ** (k + 1) / k if k else 0 * one)

    def reciprocal(self):
        """Multiplicative inverse; needs a nonzero constant term."""
        c = self.constant_term()
        if c == 0:
            raise ValueError("reciprocal needs nonzero constant term")
        c, one = self._scalar(c), self._one()
        return ((self - c) * (one / c))._geometric(lambda k: (-one) ** k / c)


class PowerSeries(TruncatedRing):
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

    def valuation(self) -> int:
        """Lowest total degree of a nonzero coefficient; -1 for zero."""
        nz = self.coeffs != 0
        if not nz.any():
            return -1
        return int(_degree_grid(self.nvars, self.order)[nz].min())

    def _constant(self, value: Scalar) -> "PowerSeries":
        return PowerSeries.constant(value, self.nvars, self.order, self.is_exact)

    def _top_degree(self) -> int:
        return self.order

    def truncate(self, order: int) -> "PowerSeries":
        """Drop to a lower total degree (reshapes the backing array)."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        sl = (slice(0, order + 1),) * self.nvars
        coeffs = self.coeffs[sl].copy()
        coeffs[_degree_grid(self.nvars, order) > order] = 0
        return PowerSeries(coeffs, order)

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
        return self + self._constant(other)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return self._new(self.coeffs * self._scalar(other))
        self._check_compatible(other)
        if self.is_exact != other.is_exact:
            raise ValueError("cannot mix exact and complex series; convert first")
        return self._new(_truncated_product(self.coeffs, other.coeffs, self.order))

    __rmul__ = __mul__

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

    # -- composition -------------------------------------------------------

    def substitute(self, args: Sequence["PowerSeries"]) -> "PowerSeries":
        """Compose: plug a series (zero constant term) into each variable.

        All ``args`` must share one target variable set and order; the
        result is exact to that order because each argument has valuation
        at least one.  The powers of the innermost argument are built once,
        and the innermost Horner level is one contraction of the
        coefficient block against them; the outer levels run Horner over
        stacks of target series.  With two variables that is about
        ``2 * order`` series products.
        """
        if len(args) != self.nvars:
            raise ValueError(f"need {self.nvars} substitution series")
        tgt = args[0]
        for g in args:
            if g.nvars != tgt.nvars or g.order != tgt.order or g.is_exact != tgt.is_exact:
                raise ValueError("substitution series must share a target space")
            if g.constant_term() != 0:
                raise ValueError("substitution series must have zero constant term")
        if tgt.is_exact and not self.is_exact:
            raise TypeError("cannot substitute exact arguments into complex coefficients")
        order, n = tgt.order, self.order + 1
        # powers g^0 .. g^top of the innermost argument; higher ones vanish
        inner = args[-1]
        top = min(n - 1, max(order // inner.valuation(), 0))
        powers = [tgt._constant(1).coeffs]
        for _ in range(top):
            powers.append(_truncated_product(inner.coeffs, powers[-1], order))
        table = np.stack(powers)
        coeffs = self.coeffs[..., : top + 1].astype(table.dtype, copy=False)
        acc = (coeffs @ table.reshape(top + 1, -1)).reshape(coeffs.shape[:-1] + table.shape[1:])
        # outer levels, innermost first: Horner along the last source axis
        for depth in range(self.nvars - 2, -1, -1):
            g, lead = args[depth], (slice(None),) * depth
            top = min(n - 1, max(order // g.valuation(), 0))
            out = acc[lead + (top,)]
            for k in range(top - 1, -1, -1):
                out = _truncated_product(g.coeffs, out, order) + acc[lead + (k,)]
            acc = out
        return PowerSeries(acc, order)
