"""Text matrix format with exact rational / radical literals.

Format:

    # comment lines start with '#'
    dims <n> <d1> <d2>
    <entry> <entry> ... <entry>     (n rows of n whitespace-separated entries)

Entry grammar (one token, no internal whitespace):

    real        := SIGN? core
    entry       := real (SIGN core 'i')?        # optional imaginary part
    core        := decimal | rational | radical
    decimal     := '0.25', '1e-3', '7', ...
    rational    := 'p/q'          (integers, q > 0)
    radical     := 'sqrt(k)' ['/q'] | 'p*sqrt(k)' ['/q']   (integer 1 <= k <= 10**12)

`parse` reads each distinct token of a file once, to its int form: (n, d, k)
for (n/d)*sqrt(k), one per real and imaginary part, with d > 0 and k
square-free, the form in which `corpus` gives its values.  A decimal's form
comes from its mantissa and exponent digits, read as ints, so every literal
the emitter writes reads back exactly.  A radicand is reduced to its
square-free part there, once per distinct literal, by trial division up to
its cube root, a few milliseconds for a prime near MAX_RADICAND (10**12); one
above MAX_RADICAND is a ParseError.  So is a zero denominator, a decimal
exponent above MAX_EXPONENT in magnitude, checked before 10**e is computed,
and a run of more than MAX_DIGITS (4300, from `exact`) digits anywhere in a
file, before int() reads it: Python refuses longer runs by default, and a
setting can lift that limit, so the check keeps the set of files that parse
the same under every setting.
An entry's float is n / d, times sqrt(k) when k > 1, and it is complex only
when its imaginary part's numerator is not 0: bit for bit the float or
complex of the entry's Exact parts, since int true division rounds
correctly, as float(Fraction) does, and an int zero gives +0.0.  An entry
beyond float range is a ParseError.
`parse` splits each row with str.split and finds a token's 1-based column
only to report a ParseError.  It builds no Exact: a real file's Exact
entries (`ParsedMatrix.array`) are built from the int forms when first read,
one per distinct token, shared by equal tokens (Exact is immutable), with no
radicand factored again; a file with an imaginary part gives its complex
array.  `ParsedMatrix.validate` hands `validate` the floats, and a real
file's Exact entries, built when the state's are first read and kept when
they are exactly symmetric, as the state's exact entries; so `classify` and
`validate` of a file build no Exact.
`emit` writes each entry, real, complex or Exact, with `exact.format_scalar`,
the package's one writer of a printed number, which never writes a run of
more than MAX_DIGITS digits, so what it writes parses; it writes an Exact
object shared by several entries once.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exact
from .errors import DimensionMismatch, EntlapError
from .exact import MAX_DIGITS, ZERO, Exact, format_scalar, once_per_object
from .matops import BipartiteDims
from .states import DEFAULT_TOL, DensityMatrix, exact_if_symmetric, validate

_DECIMAL = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RATIONAL = r"\d+/\d+"
_RADICAL = r"(?:\d+\*)?sqrt\(\d+\)(?:/\d+)?"
_CORE = rf"(?:{_RADICAL}|{_RATIONAL}|{_DECIMAL})"
_ENTRY_RE = re.compile(rf"^(?P<re_sign>[+-]?)(?P<re_core>{_CORE})(?:(?P<im_sign>[+-])(?P<im_core>{_CORE})i)?$")
_RADICAL_RE = re.compile(r"^(?:(?P<p>\d+)\*)?sqrt\((?P<k>\d+)\)(?:/(?P<q>\d+))?$")
MAX_RADICAND = 10**12
# Beyond float range, or below its least subnormal, for every decimal of at most MAX_DIGITS digits.
MAX_EXPONENT = 10_000
# An int form (n, d, k): the value (n/d)*sqrt(k), d > 0 and k square-free.
Form = tuple[int, int, int]


class ParseError(EntlapError):
    """Matrix-file syntax error with 1-based line / column location."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _check_digits(text: str) -> None:
    """ValueError when text has a run of more than MAX_DIGITS digits, before int() reads one."""
    if len(text) > MAX_DIGITS and max(map(len, re.findall(r"\d+", text))) > MAX_DIGITS:
        raise ValueError(f"more digits in a row than the limit {MAX_DIGITS}")


def _read_core(core: str) -> Form:
    """A core's int form, n/d not always in lowest terms; ValueError when it breaks a limit."""
    mantissa, _, exponent = core.lower().partition("e")  # a decimal's exponent; none elsewhere
    magnitude = exponent.lstrip("+-").lstrip("0")
    if len(magnitude) > len(str(MAX_EXPONENT)) or int(magnitude or 0) > MAX_EXPONENT:
        raise ValueError(f"exponent above the limit {MAX_EXPONENT}")
    _check_digits(core)
    if "(" in core:
        rad = _RADICAL_RE.match(core)
        p = int(rad.group("p") or 1)
        q = int(rad.group("q") or 1)
        k = int(rad.group("k"))
        if q == 0:
            raise ValueError("zero denominator")
        if k == 0:
            raise ValueError("radicand must be positive")
        if k > MAX_RADICAND:
            raise ValueError(f"radicand above the limit {MAX_RADICAND}")
        m, r = exact._square_free(k)  # the package's one factoring routine
        return p * m, q, r
    if "/" in core:
        num, den = core.split("/")
        q = int(den)
        if q == 0:
            raise ValueError("zero denominator")
        return int(num), q, 1
    whole, _, fraction = mantissa.partition(".")
    # the two runs of digits read apart: each has at most MAX_DIGITS, their join may have more
    n = int(whole or 0) * 10 ** len(fraction) + int(fraction or 0)
    shift = int(exponent or 0) - len(fraction)
    return (n * 10**shift, 1, 1) if shift >= 0 else (n, 10**-shift, 1)


def read_entry(token: str) -> tuple[Form, Form | None]:
    """One entry's int forms: its real part's, and its imaginary part's, or
    None when the token has none or its numerator is 0."""
    m = _ENTRY_RE.match(token)
    if not m:
        raise ValueError(f"malformed entry {token!r}")
    n, d, k = _read_core(m.group("re_core"))
    real = (-n if m.group("re_sign") == "-" else n, d, k)
    if m.group("im_core") is None:
        return real, None
    n, d, k = _read_core(m.group("im_core"))
    return real, (-n if m.group("im_sign") == "-" else n, d, k) if n else None


def _exact(form: Form) -> Exact:
    """The Exact of an int form, whose radicand is square-free already: nothing is factored again."""
    n, d, k = form
    return Exact({k: Fraction(n, d)}) if n else ZERO


def _float(n: int, d: int, k: int) -> float:
    """(n/d)*sqrt(k) as the float of its Exact, bit for bit: int true division
    rounds correctly, as float(Fraction) does; an int 0 gives +0.0."""
    return n / d * math.sqrt(k) if k > 1 else n / d


def _value(real: Form, imag: Form | None) -> float | complex:
    """An entry's floating-point value, complex only when it has an imaginary
    part; ValueError when it is beyond float range."""
    try:
        value = _float(*real) if imag is None else complex(_float(*real), _float(*imag))
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise ValueError("entry is outside the floating-point range")
    return value


@dataclass(frozen=True, eq=False)
class ParsedMatrix:
    dims: BipartiteDims
    floats: np.ndarray  # each entry's float (or complex) value
    rows: list[list[str]] = field(repr=False)  # the file's tokens, row by row
    forms: dict[str, Form] = field(repr=False)  # each distinct token's real part

    @cached_property
    def array(self) -> np.ndarray:
        """A real file's object matrix of Exact entries, one per distinct token,
        built from the int forms on first read; a complex file's complex array."""
        if self.floats.dtype == complex:
            return self.floats
        exacts = {token: _exact(form) for token, form in self.forms.items()}
        return np.array([[exacts[token] for token in row] for row in self.rows], dtype=object)

    def validate(self, tol: float = DEFAULT_TOL) -> DensityMatrix:
        """`states.validate` on the float values, keeping the Exact entries of a
        real file, built when the state's are first read, when they are exactly symmetric."""
        real = self.floats.dtype != complex  # a copy for the state, whose entries are read-only
        return validate(self.floats, self.dims, tol=tol,
                        exact_values=(lambda: exact_if_symmetric(self.array.copy())) if real else None)


def _column(line: str, index: int) -> int:
    """1-based column of the index-th whitespace-separated token of line."""
    return [match.start() for match in re.finditer(r"\S+", line)][index] + 1


def parse(text: str) -> ParsedMatrix:
    """Parse matrix-file text; raise ParseError with line/column on bad input."""
    header: tuple[int, int, int] | None = None
    rows: list[list[str]] = []
    forms: dict[str, Form] = {}  # a token's real part, read at its first occurrence
    values: dict[str, float | complex] = {}  # a token's float or complex value
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if header is None:
            m = re.match(r"^\s*dims\s+(\d+)\s+(\d+)\s+(\d+)\s*$", line)
            if not m:
                raise ParseError(lineno, 1, "expected header 'dims <n> <d1> <d2>'")
            try:
                _check_digits(line)
            except ValueError as exc:
                raise ParseError(lineno, 1, str(exc)) from None
            header = (int(m.group(1)), int(m.group(2)), int(m.group(3)))
            n, d1, d2 = header
            if d1 * d2 != n:
                raise ParseError(lineno, 1, f"d1*d2 = {d1 * d2} does not equal n = {n}")
            try:
                dims = BipartiteDims(d1, d2)
            except DimensionMismatch as exc:
                raise ParseError(lineno, 1, str(exc)) from None
            continue
        n = header[0]
        row = line.split()
        for tok in row:
            if tok not in values:
                try:
                    real, imag = read_entry(tok)
                    values[tok] = _value(real, imag)
                    forms[tok] = real
                except ValueError as exc:
                    raise ParseError(lineno, _column(line, row.index(tok)), str(exc)) from None
        if len(row) != n:
            raise ParseError(lineno, _column(line, -1), f"expected {n} entries per row, got {len(row)}")
        rows.append(row)
        if len(rows) > n:
            raise ParseError(lineno, 1, f"expected {n} rows, got more")
    if header is None:
        raise ParseError(1, 1, "empty input: missing 'dims' header")
    n, d1, d2 = header
    if len(rows) != n:
        raise ParseError(len(text.splitlines()) or 1, 1, f"expected {n} rows, got {len(rows)}")
    return ParsedMatrix(dims=dims, floats=np.array([[values[tok] for tok in row] for row in rows]), rows=rows,
                        forms=forms)


def emit(matrix, dims: BipartiteDims | None = None, header_comment: str | None = None) -> str:
    """Render a matrix in the file format, each entry as the type it holds.

    A DensityMatrix is rendered as its `literal` entries.  `format_scalar`
    writes each entry: an Exact one as a literal where expressible, a float or
    complex one as 12-significant-digit decimals.  An object matrix writes
    each distinct entry object once (`once_per_object`): corpus slots,
    parsed tokens and an exact Laplacian's entries share their objects.
    Anything but one square matrix, a stack among them, is a DimensionMismatch.
    """
    if isinstance(matrix, DensityMatrix):
        dims = matrix.dims
        matrix = matrix.literal
    if dims is None:
        raise ValueError("dims required when not passing a DensityMatrix")
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected one square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    dims.check_order(n)
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append(f"dims {n} {dims.d1} {dims.d2}")
    write = once_per_object(format_scalar) if arr.dtype == object else format_scalar
    lines.extend(" ".join(map(write, row)) for row in arr)
    return "\n".join(lines) + "\n"
