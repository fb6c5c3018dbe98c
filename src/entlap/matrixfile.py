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
    radical     := 'sqrt(k)' ['/q'] | 'p*sqrt(k)' ['/q']   (k positive integer)

Decimals are parsed exactly (via Fraction of the decimal string), so emit ->
parse round-trips are exact for every literal the emitter produces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, EntlapError
from .exact import Exact
from .matops import BipartiteDims
from .states import DensityMatrix

_DECIMAL = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RATIONAL = r"\d+/\d+"
_RADICAL = r"(?:\d+\*)?sqrt\(\d+\)(?:/\d+)?"
_CORE = rf"(?:{_RADICAL}|{_RATIONAL}|{_DECIMAL})"
_ENTRY_RE = re.compile(rf"^(?P<re_sign>[+-]?)(?P<re_core>{_CORE})(?:(?P<im_sign>[+-])(?P<im_core>{_CORE})i)?$")
_RADICAL_RE = re.compile(r"^(?:(?P<p>\d+)\*)?sqrt\((?P<k>\d+)\)(?:/(?P<q>\d+))?$")


class ParseError(EntlapError):
    """Matrix-file syntax error with 1-based line / column location."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _parse_core(core: str) -> Exact:
    rad = _RADICAL_RE.match(core)
    if rad:
        p = int(rad.group("p") or 1)
        q = int(rad.group("q") or 1)
        k = int(rad.group("k"))
        if k == 0:
            raise ValueError("radicand must be positive")
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
    imag = Exact()
    if m.group("im_core") is not None:
        imag = _parse_core(m.group("im_core"))
        if m.group("im_sign") == "-":
            imag = -imag
    return real, imag


@dataclass(frozen=True)
class ParsedMatrix:
    array: np.ndarray
    dims: BipartiteDims
    exact: np.ndarray | None  # object array of the exact real entries; None when any has an imaginary part


def parse(text: str) -> ParsedMatrix:
    """Parse matrix-file text; raise ParseError with line/column on bad input."""
    header: tuple[int, int, int] | None = None
    rows: list[list[tuple[Exact, Exact]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if header is None:
            m = re.match(r"^\s*dims\s+(\d+)\s+(\d+)\s+(\d+)\s*$", line)
            if not m:
                raise ParseError(lineno, 1, "expected header 'dims <n> <d1> <d2>'")
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
        row = []
        col = 1
        for tok in re.finditer(r"\S+", line):
            try:
                row.append(parse_entry(tok.group()))
            except ValueError as exc:
                raise ParseError(lineno, tok.start() + 1, str(exc)) from None
            col = tok.start() + 1
        if len(row) != n:
            raise ParseError(lineno, col, f"expected {n} entries per row, got {len(row)}")
        rows.append(row)
        if len(rows) > n:
            raise ParseError(lineno, 1, f"expected {n} rows, got more")
    if header is None:
        raise ParseError(1, 1, "empty input: missing 'dims' header")
    n, d1, d2 = header
    if len(rows) != n:
        raise ParseError(len(text.splitlines()) or 1, 1, f"expected {n} rows, got {len(rows)}")
    has_imag = any(not im.is_zero() for row in rows for _, im in row)
    if has_imag:
        arr = np.array([[complex(float(re_), float(im)) for re_, im in row] for row in rows])
        exact = None
    else:
        exact = np.array([[re_ for re_, _ in row] for row in rows], dtype=object)
        arr = exact.astype(float)
    return ParsedMatrix(array=arr, dims=dims, exact=exact)


def format_scalar(value: Exact | float) -> str:
    """Exact literal when expressible, else 12-significant-digit decimal."""
    if isinstance(value, Exact):
        lit = value.format_literal()
        if lit is not None:
            return lit
        value = float(value)
    return f"{value:.12g}"


def _format_complex(value: complex) -> str:
    re_ = f"{value.real:.12g}"
    if value.imag == 0:
        return re_
    sign = "+" if value.imag >= 0 else "-"
    return f"{re_}{sign}{abs(value.imag):.12g}i"


def emit(matrix, dims: BipartiteDims | None = None, header_comment: str | None = None) -> str:
    """Render a matrix in the file format, each entry as the type it holds.

    Exact entries (an object array, or a DensityMatrix's exact companion) are
    written as literals where expressible; float and complex ones as
    12-significant-digit decimals.
    """
    if isinstance(matrix, DensityMatrix):
        dims = matrix.dims
        matrix = matrix.array if matrix.exact is None else matrix.exact
    if dims is None:
        raise ValueError("dims required when not passing a DensityMatrix")
    arr = np.asarray(matrix)
    n = arr.shape[0]
    dims.check_order(n)
    fmt = _format_complex if np.iscomplexobj(arr) else format_scalar
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append(f"dims {n} {dims.d1} {dims.d2}")
    lines.extend(" ".join(fmt(v) for v in row) for row in arr)
    return "\n".join(lines) + "\n"
