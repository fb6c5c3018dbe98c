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

A radicand is reduced to its square-free part by trial division up to its
cube root, a few milliseconds for a prime near MAX_RADICAND (10**12); one
above MAX_RADICAND is a ParseError.  Decimals are parsed exactly (via Fraction
of the decimal string), so emit -> parse round-trips are exact for every
literal the emitter produces.  Fraction computes 10**e for a decimal's
exponent e, so an exponent above MAX_EXPONENT in magnitude is a ParseError
before any Fraction is built.  So is a run of more than MAX_DIGITS (4300,
from `exact`) digits anywhere in a file, before int() or Fraction reads it:
Python refuses longer runs by default, and a setting can lift that limit, so
the check keeps the set of files that parse the same under every setting.
`emit` writes each entry, real, complex or Exact, with `exact.format_scalar`,
the package's one writer of a printed number, which never writes a longer
run, so what it writes parses; it writes an Exact object shared by several
entries once.  A zero denominator is a ParseError.
`parse` splits each row with str.split, parses each distinct token of a file
once, and equal tokens share one Exact (Exact is immutable); it finds a
token's 1-based column only to report a ParseError.  It returns a
real file as its object matrix of Exact entries and a file with an imaginary
part as a complex array, each with the entries' float values it computed for
its range check; `ParsedMatrix.validate` hands `validate` those floats, and
a real file's Exact entries, when they are exactly symmetric, as the state's
exact entries.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


class ParseError(EntlapError):
    """Matrix-file syntax error with 1-based line / column location."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _check_digits(text: str) -> None:
    """ValueError when text has a run of more than MAX_DIGITS digits, before int() or Fraction reads one."""
    if len(text) > MAX_DIGITS and max(map(len, re.findall(r"\d+", text))) > MAX_DIGITS:
        raise ValueError(f"more digits in a row than the limit {MAX_DIGITS}")


def _parse_core(core: str) -> Exact:
    exponent = core.lower().partition("e")[2].lstrip("+-").lstrip("0")  # a decimal's; none elsewhere
    if len(exponent) > len(str(MAX_EXPONENT)) or int(exponent or 0) > MAX_EXPONENT:
        raise ValueError(f"exponent above the limit {MAX_EXPONENT}")
    _check_digits(core)
    rad = _RADICAL_RE.match(core)
    if rad:
        p = int(rad.group("p") or 1)
        q = int(rad.group("q") or 1)
        k = int(rad.group("k"))
        if q == 0:
            raise ValueError("zero denominator")
        if k == 0:
            raise ValueError("radicand must be positive")
        if k > MAX_RADICAND:
            raise ValueError(f"radicand above the limit {MAX_RADICAND}")
        return Exact.radical(Fraction(p, q), k)
    if "/" in core:
        num, den = core.split("/")
        if int(den) == 0:
            raise ValueError("zero denominator")
        return Exact.of(Fraction(int(num), int(den)))
    return Exact.of(Fraction(core))


def parse_entry(token: str) -> tuple[Exact, Exact]:
    """Parse one entry into (real, imaginary) exact parts."""
    m = _ENTRY_RE.match(token)
    if not m:
        raise ValueError(f"malformed entry {token!r}")
    real = _parse_core(m.group("re_core"))
    if m.group("re_sign") == "-":
        real = -real
    imag = ZERO
    if m.group("im_core") is not None:
        imag = _parse_core(m.group("im_core"))
        if m.group("im_sign") == "-":
            imag = -imag
    return real, imag


def _float_value(real: Exact, imag: Exact) -> float | complex:
    """An entry's floating-point value, complex only when it has an imaginary
    part; ValueError when it is beyond float range."""
    try:
        value = float(real) if imag.is_zero() else complex(float(real), float(imag))
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise ValueError("entry is outside the floating-point range")
    return value


@dataclass(frozen=True)
class ParsedMatrix:
    array: np.ndarray  # object array of Exact entries, or a complex array when any entry has an imaginary part
    dims: BipartiteDims
    floats: np.ndarray  # each entry's float (or complex) value, as parse computed it for its range check

    def validate(self, tol: float = DEFAULT_TOL) -> DensityMatrix:
        """`states.validate` on the float values, keeping the Exact entries of a
        real file when they are exactly symmetric."""
        real = self.array.dtype == object  # a copy for the state, whose entries are read-only
        return validate(self.floats, self.dims, tol=tol,
                        exact_values=(lambda: exact_if_symmetric(self.array.copy())) if real else None)


def _column(line: str, index: int) -> int:
    """1-based column of the index-th whitespace-separated token of line."""
    return [match.start() for match in re.finditer(r"\S+", line)][index] + 1


def parse(text: str) -> ParsedMatrix:
    """Parse matrix-file text; raise ParseError with line/column on bad input."""
    header: tuple[int, int, int] | None = None
    rows: list[list[str]] = []
    seen: dict[str, tuple[Exact, float | complex]] = {}  # a token's real part and value, parsed at its first occurrence
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
            if tok not in seen:
                try:
                    real, imag = parse_entry(tok)
                    seen[tok] = (real, _float_value(real, imag))
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
    floats = np.array([[seen[tok][1] for tok in row] for row in rows])
    if floats.dtype == complex:
        return ParsedMatrix(array=floats, dims=dims, floats=floats)
    return ParsedMatrix(array=np.array([[seen[tok][0] for tok in row] for row in rows], dtype=object), dims=dims,
                        floats=floats)


def emit(matrix, dims: BipartiteDims | None = None, header_comment: str | None = None) -> str:
    """Render a matrix in the file format, each entry as the type it holds.

    A DensityMatrix is rendered as its `literal` entries.  `format_scalar`
    writes each entry: an Exact one as a literal where expressible, a float or
    complex one as 12-significant-digit decimals.  An object matrix writes
    each distinct entry object once (`once_per_object`): corpus slots,
    parsed tokens and an exact Laplacian's entries share their objects.
    """
    if isinstance(matrix, DensityMatrix):
        dims = matrix.dims
        matrix = matrix.literal
    if dims is None:
        raise ValueError("dims required when not passing a DensityMatrix")
    arr = np.asarray(matrix)
    n = arr.shape[0]
    dims.check_order(n)
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append(f"dims {n} {dims.d1} {dims.d2}")
    write = once_per_object(format_scalar) if arr.dtype == object else format_scalar
    lines.extend(" ".join(map(write, row)) for row in arr)
    return "\n".join(lines) + "\n"
