"""Exact scalars of the form q0 + q1*sqrt(k1) + q2*sqrt(k2) + ... with rational q_i.

This is the small arithmetic layer that lets matrix entries like 1/81 or
sqrt(7)/8 survive the Laplacian / graph / edge-functional pipeline without
floating-point truncation.  Only the operations that pipeline needs are
implemented: +, -, *, division by a rational, absolute value, comparisons.

Radicands are kept square-free (sqrt(8) is normalised to 2*sqrt(2)); the
rational part is the radicand-1 term.  Signs of one- and two-term values are
decided exactly; values with three or more distinct radicals fall back to a
guarded float comparison (they never occur in the built-in state corpus).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def _square_free(k: int) -> tuple[int, int]:
    """Factor k = m**2 * r with r square-free; return (m, r)."""
    if k <= 0:
        raise ValueError(f"radicand must be positive, got {k}")
    m, n = 1, k
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            m *= d
            n //= d * d
        d += 1
    return m, n


class Exact:
    """Immutable element of Q(sqrt(k1), sqrt(k2), ...)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for k, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                m, r = _square_free(int(k))
                clean[r] = clean.get(r, Fraction(0)) + c * m
        object.__setattr__(self, "_terms", {k: c for k, c in sorted(clean.items()) if c != 0})

    def __setattr__(self, name, value):
        raise AttributeError("Exact is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, value: Rational) -> "Exact":
        return cls({1: Fraction(value)})

    @classmethod
    def radical(cls, coeff: Rational, k: int) -> "Exact":
        """coeff * sqrt(k)."""
        return cls({k: Fraction(coeff)})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(k == 1 for k in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self._terms.get(1, Fraction(0))

    def __float__(self) -> float:
        return float(sum(float(c) * math.sqrt(k) for k, c in self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Exact | None":
        if isinstance(other, Exact):
            return other
        if isinstance(other, (int, Fraction)):
            return Exact.of(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # zero sums return an operand, so row sums over zero-padded arrays build nothing
        if not o._terms:
            return self
        if not self._terms:
            return o
        terms = dict(self._terms)
        for k, c in o._terms.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        return Exact(terms)

    __radd__ = __add__

    def __neg__(self):
        if not self._terms:
            return self
        return Exact({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in o._terms.items():
                k = k1 * k2
                terms[k] = terms.get(k, Fraction(0)) + c1 * c2
        return Exact(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Exact):
            if not other.is_rational():
                raise ValueError("division only by rational values")
            other = other.as_fraction()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return Exact({k: c / Fraction(other) for k, c in self._terms.items()})
        return NotImplemented

    # -- ordering -----------------------------------------------------

    def sign(self) -> int:
        """Exact sign for <= 2 radical terms; guarded float otherwise."""
        items = list(self._terms.items())
        if not items:
            return 0
        if len(items) == 1:
            return 1 if items[0][1] > 0 else -1
        if len(items) == 2:
            (ka, a), (kb, b) = items
            if (a > 0) == (b > 0):
                return 1 if a > 0 else -1
            # a*sqrt(ka) + b*sqrt(kb) with opposite signs: compare a^2*ka vs b^2*kb
            left, right = a * a * ka, b * b * kb
            if left == right:
                return 0
            return (1 if a > 0 else -1) if left > right else (1 if b > 0 else -1)
        val = float(self)
        scale = max(abs(float(c)) for _, c in items)
        if abs(val) < 1e-12 * max(scale, 1.0):
            raise ValueError(f"cannot decide sign of {self!r} reliably")
        return 1 if val > 0 else -1

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    # -- formatting ---------------------------------------------------

    def format_literal(self) -> str | None:
        """Render as a single matrix-file literal, or None if not expressible.

        Expressible forms: "p/q" or "p" (rational), "sqrt(k)/q", "p*sqrt(k)/q"
        and their negations.  Multi-term values (e.g. 3/8 + sqrt(7)/8) return
        None and the caller falls back to a decimal rendering.
        """
        if not self._terms:
            return "0"
        if len(self._terms) > 1:
            return None
        k, c = next(iter(self._terms.items()))
        if k == 1:
            return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        sign = "-" if c < 0 else ""
        c = abs(c)
        head = f"sqrt({k})" if c.numerator == 1 else f"{c.numerator}*sqrt({k})"
        return f"{sign}{head}" + (f"/{c.denominator}" if c.denominator != 1 else "")

    def __repr__(self):
        lit = self.format_literal()
        if lit is not None:
            return f"Exact({lit})"
        parts = " + ".join(
            (str(c) if k == 1 else f"{c}*sqrt({k})") for k, c in self._terms.items()
        )
        return f"Exact({parts})"

