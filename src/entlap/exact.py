"""Exact scalars of the form q0 + q1*sqrt(k1) + q2*sqrt(k2) + ... with rational q_i.

This is the small arithmetic layer that lets matrix entries like 1/81 or
sqrt(7)/8 survive the Laplacian / graph / edge-functional pipeline without
floating-point truncation.  Only the operations that pipeline needs are
implemented: +, -, *, absolute value, comparisons.  `format_scalar` is the
one writer of a printed number (a matrix-file entry, a DOT label, a CLI
scalar): a matrix-file literal, else a 12-digit decimal, complex as re+imi.
`once_per_object` lets a reader of an object matrix (the exact Laplacian,
`emit`, `export_dot`) handle an Exact shared by several entries once.

Radicands are kept square-free (sqrt(8) is normalised to 2*sqrt(2)):
`_square_free` is the one factoring routine, called by `radical` and by the
matrix-file parser, once per distinct literal, before it builds any Exact.
`*` reduces a product of two square-free radicands by their gcd, and sums,
differences and negations keep their operands' radicands, so no sum factors
anything.  The rational part is the radicand-1 term.  Signs of one- and
two-term values are decided exactly; values with three or more distinct
radicals fall back to a guarded float comparison (they never occur in the
built-in state corpus).

A literal never holds more than MAX_DIGITS digits in a row, the parser's
limit: a longer numerator or denominator, found by integer comparison under
any int-to-str setting, has no literal and is printed as its decimal.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import total_ordering
from typing import Union

Rational = Union[int, Fraction]

# The longest run of digits a literal may hold: the most int() reads from a string
# under Python's default setting, so what parses and prints does not depend on that setting.
MAX_DIGITS = 4300
_LITERAL_BOUND = 10**MAX_DIGITS  # the least integer of more than MAX_DIGITS digits


def _writable(c: Fraction) -> bool:
    """Whether c's numerator and denominator each have at most MAX_DIGITS digits, by integer comparison."""
    return -_LITERAL_BOUND < c.numerator < _LITERAL_BOUND and c.denominator < _LITERAL_BOUND


def _coefficient(c: Fraction) -> str:
    """c as str() writes it, or its 12-significant-digit decimal when p or q has more than MAX_DIGITS digits."""
    return str(c) if _writable(c) else format(Decimal(c.numerator) / c.denominator, ".12g")


def _square_free(k: int) -> tuple[int, int]:
    """Factor k = m**2 * r with r square-free; return (m, r).

    Trial division runs only while d**3 <= n, about k**(1/3) steps, splitting
    each prime power it finds between m and r.  The cofactor n left over has
    no prime factor below d and n < d**3, so it is 1, p, p*q or p**2: an
    integer square root tells p**2 from the square-free rest.
    """
    if k <= 0:
        raise ValueError(f"radicand must be positive, got {k}")
    if k == 1:  # the rational term, the most common one: no search
        return 1, 1
    m, r, n = 1, 1, k
    d = 2
    while d * d * d <= n:
        while n % (d * d) == 0:
            m *= d
            n //= d * d
        if n % d == 0:
            r *= d
            n //= d
        d += 1
    s = math.isqrt(n)
    return (m * s, r) if s * s == n else (m, r * n)


@total_ordering
class Exact:
    """Immutable element of Q(sqrt(k1), sqrt(k2), ...)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Rational] | None = None):
        """The sum of c * sqrt(k) over `terms`, whose radicands k are square-free
        (`radical` and `*` reduce theirs); zero coefficients are dropped."""
        clean: dict[int, Fraction] = {}
        if terms:
            for k, c in terms.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    clean[k] = c
        object.__setattr__(self, "_terms", dict(sorted(clean.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Exact is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, value: Rational) -> "Exact":
        """The rational `value`, a Fraction kept as given; ZERO itself when it is zero."""
        return cls({1: value}) if value else ZERO

    @classmethod
    def radical(cls, coeff: Rational, k: int) -> "Exact":
        """coeff * sqrt(k), a Fraction coeff kept as given when k is square-free.

        The one constructor that factors a radicand; sums, differences and
        negations keep their operands' radicands.
        """
        m, r = _square_free(k)
        return cls({r: coeff * m if m != 1 else coeff})

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
        if len(self._terms) == 1:
            ((k, c),) = self._terms.items()
            return float(c) * math.sqrt(k)
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
        # k1 * k2 = g**2 * (k1/g) * (k2/g) with g = gcd(k1, k2), and for square-free
        # k1, k2 the cofactors are coprime and square-free: no trial division
        terms: dict[int, Fraction] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in o._terms.items():
                g = math.gcd(k1, k2)
                k = (k1 // g) * (k2 // g)
                terms[k] = terms.get(k, Fraction(0)) + c1 * c2 * g
        return Exact(terms)

    __rmul__ = __mul__

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

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    # -- formatting ---------------------------------------------------

    def format_literal(self) -> str | None:
        """Render as a single matrix-file literal, or None if not expressible.

        Expressible forms: "p/q" or "p" (rational), "sqrt(k)/q", "p*sqrt(k)/q"
        and their negations, with p and q of at most MAX_DIGITS digits.
        Multi-term values (e.g. 3/8 + sqrt(7)/8) and longer p or q return None
        and the caller falls back to a decimal rendering.
        """
        if not self._terms:
            return "0"
        if len(self._terms) > 1:
            return None
        k, c = next(iter(self._terms.items()))
        if not _writable(c):
            return None
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
            (_coefficient(c) if k == 1 else f"{_coefficient(c)}*sqrt({k})") for k, c in self._terms.items()
        )
        return f"Exact({parts})"


# The one zero: Exact is immutable, so every zero entry can share it.
ZERO = Exact()


def format_scalar(value: Exact | float | complex) -> str:
    """The one writer of a printed number: an Exact literal when expressible,
    else a 12-significant-digit decimal; a complex value with a non-zero
    imaginary part as re+imi or re-imi, each part such a decimal."""
    if isinstance(value, Exact):
        lit = value.format_literal()
        if lit is not None:
            return lit
        value = float(value)
    text = f"{value.real:.12g}"
    if not value.imag:
        return text
    return f"{text}{'+' if value.imag > 0 else '-'}{abs(value.imag):.12g}i"


def once_per_object(f):
    """f, computed once per distinct argument object: a per-call memo keyed on
    id(), for the entries of one object array, which keep their objects alive
    while it is read.  Corpus slots and parsed tokens share their Exact
    objects, so an exact matrix holds few distinct ones."""
    seen = {}

    def memo(v):
        key = id(v)
        if key not in seen:
            seen[key] = f(v)
        return seen[key]

    return memo
