import cmath
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entlap import matrixfile
from entlap.corpus import build, build_stack, list_entries
from entlap.errors import DimensionMismatch
from entlap.exact import ZERO, Exact
from entlap.matops import BipartiteDims
from entlap.matrixfile import (MAX_DIGITS, MAX_EXPONENT, MAX_RADICAND, ParseError, emit, format_scalar, parse,
                               parse_entry)
from entlap.states import validate


class TestEntryGrammar:
    def test_decimals(self):
        assert parse_entry("0.25") == (Exact.of(Fraction(1, 4)), Exact())
        assert parse_entry("-1e-3") == (Exact.of(Fraction(-1, 1000)), Exact())
        assert parse_entry("7") == (Exact.of(7), Exact())

    def test_rationals(self):
        assert parse_entry("1/81") == (Exact.of(Fraction(1, 81)), Exact())
        assert parse_entry("-65/648") == (Exact.of(Fraction(-65, 648)), Exact())

    def test_radicals(self):
        assert parse_entry("sqrt(7)/8") == (Exact.radical(Fraction(1, 8), 7), Exact())
        assert parse_entry("5*sqrt(7)/16") == (Exact.radical(Fraction(5, 16), 7), Exact())
        assert parse_entry("-sqrt(2)") == (Exact.radical(-1, 2), Exact())

    def test_radicand_limit(self):
        assert parse_entry(f"sqrt({MAX_RADICAND})/2") == (Exact.of(500000), Exact())  # 10**12 = (10**6)**2
        for bad in (f"sqrt({MAX_RADICAND + 1})", f"1/2+3*sqrt({10**30})i"):
            with pytest.raises(ValueError, match="radicand above the limit"):
                parse_entry(bad)

    def test_complex_suffix(self):
        re_, im = parse_entry("1/4+1/2i")
        assert re_ == Exact.of(Fraction(1, 4))
        assert im == Exact.of(Fraction(1, 2))
        re_, im = parse_entry("0.5-sqrt(2)/4i")
        assert im == Exact.radical(Fraction(-1, 4), 2)

    def test_rejects_garbage(self):
        for bad in ["", "1/", "/2", "sqrt()", "sqrt(-3)", "1+2", "i", "1.2.3", "--1", "1/0",
                    "sqrt(2)/0", "2*sqrt(3)/0", "1+sqrt(2)/0i"]:
            with pytest.raises(ValueError):
                parse_entry(bad)


    @pytest.mark.parametrize("token", ["sqrt(2)/0", "2*sqrt(3)/0", "-sqrt(2)/0", "1+sqrt(2)/0i", "1/4-2*sqrt(3)/0i"])
    def test_zero_denominator_in_a_radical_is_that_of_a_rational(self, token):
        with pytest.raises(ValueError, match="^zero denominator$"):
            parse_entry(token)
        errors = []
        for entry in (token, "1/0"):
            with pytest.raises(ParseError) as err:
                parse(f"dims 4 2 2\n1/4 0 0 0\n0 0 {entry} 0\n0 0 1/4 0\n0 0 0 1/4\n")
            errors.append(str(err.value))
        assert errors == ["line 3, column 5: zero denominator"] * 2

    def test_exponent_limit(self):
        assert parse_entry(f"1e-{MAX_EXPONENT}")[0] == Exact.of(Fraction(1, 10**MAX_EXPONENT))
        assert parse_entry(f"25e+000{MAX_EXPONENT - 2}")[0] == Exact.of(25 * 10**(MAX_EXPONENT - 2))
        assert parse_entry("1e-400") == (Exact.of(Fraction(1, 10**400)), ZERO)  # a tiny decimal, 0 as a float
        for bad in (f"1e{MAX_EXPONENT + 1}", f"0.5E-{MAX_EXPONENT + 1}", "1e10000000", "1/4+1e-10000000i",
                    "1e" + "9" * 5000):
            with pytest.raises(ValueError, match=f"^exponent above the limit {MAX_EXPONENT}$"):
                parse_entry(bad)


    def test_digit_limit(self):
        # Python reads at most 4300 digits from a string by default; the parser refuses
        # longer runs itself, before int() or Fraction sees them, under every setting
        assert MAX_DIGITS == 4300
        assert parse_entry("1" * MAX_DIGITS)[0] == Exact.of(int("1" * MAX_DIGITS))
        assert parse_entry(f"0.{'1' * MAX_DIGITS}e-5")[0] == Exact.of(Fraction(int("1" * MAX_DIGITS), 10**4305))
        for bad in ("1" * 5000, "1/" + "1" * 5000, "sqrt(2)/" + "3" * 5000, "0." + "1" * 5000,
                    "1e-" + "0" * 5000 + "5", "1/4+" + "2" * 5000 + "i"):
            with pytest.raises(ValueError, match=f"^more digits in a row than the limit {MAX_DIGITS}$"):
                parse_entry(bad)

    def test_digit_limit_in_a_file(self):
        rows = "\n".join(" ".join("1/4" if i == j else "0" for j in range(4)) for i in range(4))
        for text, where in [(f"dims {'0' * 5000}4 2 2\n{rows}\n", "line 1, column 1"),
                            (f"dims 4 2 2\n{rows}\n".replace("1/4", f"{'0' * 5000}1/4", 1), "line 2, column 1")]:
            with pytest.raises(ParseError, match=f"^{where}: more digits in a row than the limit {MAX_DIGITS}$"):
                parse(text)


class TestParse:
    def test_minimal_file(self):
        text = "# maximally mixed\ndims 4 2 2\n" + "\n".join(
            " ".join("1/4" if i == j else "0" for j in range(4)) for i in range(4)
        )
        parsed = parse(text)
        assert parsed.dims == BipartiteDims(2, 2)
        np.testing.assert_array_equal(parsed.array.astype(float), np.eye(4) / 4)
        assert all(isinstance(v, Exact) for v in parsed.array.flat)

    def test_complex_entries_disable_exact(self):
        text = "dims 4 2 2\n0.5 0 0 0+0.5i\n0 0 0 0\n0 0 0 0\n0-0.5i 0 0 0.5"
        parsed = parse(text)
        assert parsed.array.dtype == complex
        assert parsed.array[0, 3] == 0.5j

    def test_error_locations(self):
        with pytest.raises(ParseError) as err:
            parse("dims 4 2 2\n1 0 0 0\n0 nope 0 0\n")
        assert err.value.line == 3
        assert err.value.column == 3
        with pytest.raises(ParseError) as err:
            parse("hello\n")
        assert err.value.line == 1
        with pytest.raises(ParseError) as err:
            parse("dims 6 2 2\n")
        assert "d1*d2" in str(err.value)

    @pytest.mark.parametrize("text", ["", "\n  \n", "# a comment\n\n# and another\n"])
    def test_input_without_a_header_is_empty(self, text):
        with pytest.raises(ParseError, match="^line 1, column 1: empty input: missing 'dims' header$"):
            parse(text)

    def test_a_row_past_the_order_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^line 6, column 1: expected 4 rows, got more$"):
            parse("dims 4 2 2\n1/4 0 0 0\n0 1/4 0 0\n0 0 1/4 0\n0 0 0 1/4\n0 0 0 0\n")

    def test_a_zero_radicand_is_a_parse_error(self):
        with pytest.raises(ValueError, match="^radicand must be positive$"):
            parse_entry("sqrt(0)")
        with pytest.raises(ParseError, match="^line 2, column 1: radicand must be positive$"):
            parse("dims 4 2 2\nsqrt(0) 0 0 0\n0 1/4 0 0\n0 0 1/4 0\n0 0 0 1/4\n")

    def test_subsystem_dimension_below_two_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse("# header on line 2\ndims 2 1 2\n1 0\n0 0\n")
        assert err.value.line == 2
        assert "1x2" in str(err.value)

    @pytest.mark.parametrize("entry", ["1e400", "-1e400", "0+1e400i", "1/4-1e999i",
                                       pytest.param("15" + "0" * 307 + "*sqrt(2)", id="finite_times_radical")])
    def test_entry_beyond_float_range_is_a_parse_error(self, entry):
        with pytest.raises(ParseError) as err:
            parse(f"dims 4 2 2\n1 0 0 0\n0 {entry} 0 0\n0 0 0 0\n0 0 0 0\n")
        assert (err.value.line, err.value.column) == (3, 3)
        assert "floating-point range" in str(err.value)

    def test_builds_one_exact_per_distinct_nonzero_token(self, exact_created):
        # equal tokens share one Exact; every "0" token and every real token's imaginary part share one zero
        text = emit(build("rho6", 0.5))
        tokens = [tok for line in text.splitlines()[1:] for tok in line.split()]
        with exact_created() as created:
            parsed = parse(text)
        assert created == []  # parse reads each token to its int form; the Exact entries wait for a reader
        with exact_created() as created:
            parsed.array
        assert len(created) == 4 == len(set(tokens) - {"0"})
        assert sum(v is ZERO for v in parsed.array.flat) == 81 - 27 == tokens.count("0")

    def test_parses_each_distinct_token_once(self, monkeypatch):
        text = emit(build("rho6", 0.5))
        tokens = {tok for line in text.splitlines()[1:] for tok in line.split()}
        calls = []
        read_entry = matrixfile.read_entry
        monkeypatch.setattr(matrixfile, "read_entry", lambda token: calls.append(token) or read_entry(token))
        parse(text)
        assert len(calls) == 5 == len(set(calls)) == len(tokens)

    @pytest.mark.parametrize("bad, message", [("nope", "malformed entry 'nope'"),
                                              ("1e400", "entry is outside the floating-point range")])
    def test_a_repeated_bad_token_fails_at_its_first_occurrence(self, bad, message):
        with pytest.raises(ParseError) as err:
            parse(f"dims 4 2 2\n1/4 0 0 0\n0 1/4 {bad} 0\n0 {bad} 1/4 0\n0 0 0 1/4\n")
        assert (err.value.line, err.value.column) == (3, 7)
        assert str(err.value) == f"line 3, column 7: {message}"

    def test_equal_tokens_share_one_exact(self):
        a = parse("dims 4 2 2\n1/4 0 0 sqrt(2)/8\n0 1/4 0 0\n0 0 1/4 0\nsqrt(2)/8 0 0 1/4\n").array
        assert a[0, 0] is a[1, 1] is a[2, 2] is a[3, 3] and a[0, 3] is a[3, 0]
        assert a[0, 0] == Exact.of(Fraction(1, 4)) and a[0, 3] == Exact.radical(Fraction(1, 8), 2)

    def test_validate_reads_the_floats_parse_computed(self, monkeypatch):
        # the state of a parsed file is the state of its Exact entries, bit for bit,
        # with no entry converted to float again
        for rho in (build("rho6", 0.37), build("psi"), build("rho3")):
            parsed = parse(emit(rho))
            to_float, calls = Exact.__float__, []
            monkeypatch.setattr(Exact, "__float__", lambda e: calls.append(e) or to_float(e))
            state = parsed.validate()
            monkeypatch.setattr(Exact, "__float__", to_float)
            assert calls == []
            want = validate(parsed.array, parsed.dims)
            assert state.array.tobytes() == want.array.tobytes()
            assert state.spectrum.tobytes() == want.spectrum.tobytes()
            assert all(a is b for a, b in zip(state.exact.flat, parsed.array.flat))
            assert not state.exact.flags.writeable and parsed.array.flags.writeable

    def test_parsed_matrices_compare_and_hash_by_identity(self):
        # equal fields are ndarrays, which have no single truth value
        text = emit(build("rho3"))
        a, b = parse(text), parse(text)
        assert a == a and a != b and not (a == b)
        assert len({a, b, a}) == 2

    def test_validate_a_complex_file(self):
        parsed = parse("dims 4 2 2\n1/2 0 0 0+1/4i\n0 0 0 0\n0 0 0 0\n0-1/4i 0 0 1/2\n")
        state = parsed.validate()
        assert state.array.tobytes() == validate(parsed.array, parsed.dims).array.tobytes()
        assert state.exact is None

    def test_file_hermitian_only_within_tol_emits_its_state(self):
        # (1,2) and (2,1) differ by 1e-13: the state is their average, not the file's entries
        text = "dims 4 2 2\n1/4 1/10 0 0\n1000000000001/10000000000000 1/4 0 0\n0 0 1/4 0\n0 0 0 1/4\n"
        state = parse(text).validate()
        assert state.exact is None
        again = parse(emit(state)).array
        assert (again == again.T).all() and again[0, 1] == Exact.of(Fraction(1, 10))

    def test_row_length_checked(self):
        with pytest.raises(ParseError):
            parse("dims 4 2 2\n1 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")

    def test_row_count_checked(self):
        with pytest.raises(ParseError):
            parse("dims 4 2 2\n1 0 0 0\n")


_ROWS = ["1/4 0 0 0", "0 1/4 0 0", "0 0 1/4 0", "0 0 0 1/4"]


def _file(*rows, newline="\n"):
    return newline.join(["dims 4 2 2", *rows]) + newline


class TestParseErrorLocation:
    """Each malformed file's line, column and message, as the tokenizer of
    `re.finditer(r"\\S+")` reported them; `parse` splits rows with str.split and
    finds a column only for the error."""

    @pytest.mark.parametrize("text, line, column, message", [
        (_file("nope 0 0 0", *_ROWS[1:]), 2, 1, "malformed entry 'nope'"),
        (_file(_ROWS[0], "0 1/4 x 0", *_ROWS[2:]), 3, 7, "malformed entry 'x'"),
        (_file(*_ROWS[:3], "0 0 0 1/0"), 5, 7, "zero denominator"),
        (_file(_ROWS[0], "   0  1/4   0 sqrt(0)", *_ROWS[2:]), 3, 15, "radicand must be positive"),
        (_file("1/4 0 a b", *_ROWS[1:]), 2, 7, "malformed entry 'a'"),
        (_file(_ROWS[0], "0 1/4 0 zz # note", *_ROWS[2:]), 3, 9, "malformed entry 'zz'"),
        (_file(_ROWS[0], "0 1/4 1e400 0", *_ROWS[2:]), 3, 7, "entry is outside the floating-point range"),
        (_file("0 0 0 0", "0 1/4 0 1/4 0 1/4", *_ROWS[2:]), 3, 15, "expected 4 entries per row, got 6"),
        (_file(*_ROWS[:2], "0 0  1/4", _ROWS[3]), 4, 6, "expected 4 entries per row, got 3"),
        (_file("1/4 0 q", *_ROWS[1:]), 2, 7, "malformed entry 'q'"),
        (_file(*_ROWS, "0 0 0 0"), 6, 1, "expected 4 rows, got more"),
        (_file(*_ROWS[:3]), 4, 1, "expected 4 rows, got 3"),
        (_file(*_ROWS[:3], "# end"), 5, 1, "expected 4 rows, got 3"),
        (_file(_ROWS[0], "0\t1/4\t\tbad\t0", *_ROWS[2:]), 3, 8, "malformed entry 'bad'"),
        (_file("\t1/4\t0\t0\t0\t0", *_ROWS[1:]), 2, 12, "expected 4 entries per row, got 5"),
        (_file(_ROWS[0], "0\u00a01/4\u00a0\u00a0bad 0", *_ROWS[2:]), 3, 8, "malformed entry 'bad'"),
        (_file("1/4\u00a00 0", *_ROWS[1:]), 2, 7, "expected 4 entries per row, got 3"),
        (_file(_ROWS[0], "0\u30001/4 bad\u30000", *_ROWS[2:]), 3, 7, "malformed entry 'bad'"),
        (_file("1/4\u30000\u30000\u3000\u30000\u30000", *_ROWS[1:]), 2, 12, "expected 4 entries per row, got 5"),
        (_file(_ROWS[0], "0 1/4 0 bad", *_ROWS[2:], newline="\r\n"), 3, 9, "malformed entry 'bad'"),
        (_file(*_ROWS[:3], "0 0 1/4", newline="\r\n"), 5, 5, "expected 4 entries per row, got 3"),
        (_file(*_ROWS, "0 0 0 0", newline="\r\n"), 6, 1, "expected 4 rows, got more"),
    ], ids=["bad-first", "bad-middle", "bad-last", "bad-indented", "first-of-two-bad", "bad-before-comment",
            "out-of-range", "too-wide", "too-short", "bad-in-a-short-row", "extra-row", "missing-row",
            "missing-row-then-comment", "tabs", "tabs-too-wide", "nbsp", "nbsp-too-short", "ideographic-space",
            "ideographic-space-too-wide", "crlf-bad", "crlf-too-short", "crlf-extra-row"])
    def test_line_column_and_message(self, text, line, column, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column, str(err.value)) == (line, column,
                                                                       f"line {line}, column {column}: {message}")


class TestEmit:
    def test_a_bare_matrix_needs_dims(self):
        with pytest.raises(ValueError, match="^dims required when not passing a DensityMatrix$"):
            emit(np.eye(4) / 4)
        assert emit(np.eye(4) / 4, BipartiteDims(2, 2)).startswith("dims 4 2 2\n0.25 0 0 0\n")

    @pytest.mark.parametrize("matrix, dims, shape", [
        (build_stack("rho_ab", [0.1, 0.2, 0.15, 0.05]), None, (4, 4, 4)),
        (build_stack("rho_ab", [0.1, 0.2]), None, (2, 4, 4)),
        (np.zeros((4, 3)), BipartiteDims(2, 2), (4, 3)),
        (np.full(4, 0.25), BipartiteDims(2, 2), (4,)),
    ], ids=["stack-of-4", "stack-of-2", "not-square", "one-dimensional"])
    def test_only_one_square_matrix(self, matrix, dims, shape):
        # as export_dot refuses a stack: a stack of 2 would read as order 2, a
        # non-square matrix would write rows that parse rejects
        with pytest.raises(DimensionMismatch, match=re.escape(f"expected one square matrix, got shape {shape}")):
            emit(matrix, dims)

    def test_exact_rationals_preserved(self, rho2):
        text = emit(rho2)
        assert "1/81" in text
        assert "1/8" in text
        reparsed = parse(text)
        assert np.array_equal(reparsed.array.astype(float), rho2.array)
        assert np.array_equal(reparsed.array, rho2.exact)

    def test_radicals_preserved(self, psi):
        text = emit(psi)
        assert "sqrt(7)/8" in text
        assert "sqrt(7)/16" in text
        reparsed = parse(text)
        assert np.array_equal(reparsed.array, psi.exact)

    def test_round_trip_for_every_corpus_state(self):
        for entry in list_entries():
            if entry.parameter_name is None:
                rho = build(entry.name)
            else:
                rho = build(entry.name, entry.parameter_domain[0] or 0.1)
            reparsed = parse(emit(rho))
            assert np.array_equal(reparsed.array, rho.exact), entry.name
            assert np.array_equal(reparsed.array.astype(float), rho.array)

    def test_laplacian_mixed_entries_fall_back_to_decimal(self, psi):
        from entlap.laplacian import laplacian_of_density

        lap = laplacian_of_density(psi.exact)
        text = emit(lap, psi.dims)
        # pure-radical off-diagonals stay exact; the two-term diagonal cannot
        assert "-sqrt(7)/8" in text
        assert "0.705718913883" in text  # 3/8 + sqrt(7)/8 to 12 significant digits

    def test_format_scalar(self):
        assert format_scalar(Exact.of(Fraction(3, 10))) == "3/10"
        assert format_scalar(0.1) == "0.1"
        assert format_scalar(Exact.of(Fraction(3, 8)) + Exact.radical(Fraction(1, 8), 7)) == "0.705718913883"

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("value, want128, want64", [
        (complex(0.1, 0.2), "0.1+0.2i", "0.10000000149+0.20000000298i"),
        (complex(-0.1, -0.2), "-0.1-0.2i", "-0.10000000149-0.20000000298i"),
        (complex(0.25, 0.0), "0.25", "0.25"),
        (complex(0.25, -0.0), "0.25", "0.25"),
        (complex(0, -1e-20), "0-1e-20i", "0-9.99999968266e-21i"),
    ], ids=["imag-above-0", "imag-below-0", "imag-0", "imag-minus-0", "tiny-imag"])
    def test_format_scalar_complex(self, dtype, value, want128, want64):
        assert format_scalar(dtype(value)) == (want128 if dtype is np.complex128 else want64)

    def test_complex_state_round_trip(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = a @ a.conj().T
        rho = validate(a / np.trace(a).real, BipartiteDims(2, 3))
        text = emit(rho)
        assert "i " in text and "-" in text
        reparsed = parse(text)
        assert reparsed.array.dtype == complex
        np.testing.assert_allclose(reparsed.array, rho.array, rtol=1e-11, atol=0)
        assert emit(reparsed.validate()) == text


@given(
    st.lists(
        st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=999), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_rational_matrix_round_trip(rows):
    exact = np.array([[Exact.of(v) for v in row] for row in rows], dtype=object)
    text = emit(exact, BipartiteDims(2, 2))
    reparsed = parse(text)
    assert np.array_equal(reparsed.array, exact)


def _exact_parts(token: str) -> tuple[Exact, Exact]:
    """An entry's (real, imaginary) Exact parts by the exact route, apart from
    `read_entry`: Fraction of a part's text, or Exact.radical of its p/q and k;
    ValueError with the parser's message, each check in the parser's order."""
    m = matrixfile._ENTRY_RE.match(token)
    if not m:
        raise ValueError(f"malformed entry {token!r}")
    parts = []
    for sign, core in ((m["re_sign"], m["re_core"]), (m["im_sign"], m["im_core"])):
        if core is None:
            parts.append(ZERO)
            continue
        exponent = core.lower().partition("e")[2].lstrip("+-").lstrip("0")
        if len(exponent) > len(str(MAX_EXPONENT)) or int(exponent or 0) > MAX_EXPONENT:
            raise ValueError(f"exponent above the limit {MAX_EXPONENT}")
        if max(map(len, re.findall(r"\d+", core))) > MAX_DIGITS:
            raise ValueError(f"more digits in a row than the limit {MAX_DIGITS}")
        radical = re.fullmatch(r"(?:(\d+)\*)?sqrt\((\d+)\)(?:/(\d+))?", core)
        if radical:
            p, k, q = (1 if g is None else int(g) for g in radical.groups())
            if q == 0:
                raise ValueError("zero denominator")
            if k == 0:
                raise ValueError("radicand must be positive")
            if k > MAX_RADICAND:
                raise ValueError(f"radicand above the limit {MAX_RADICAND}")
            value = Exact.radical(Fraction(p, q), k)
        else:
            if "/" in core and int(core.partition("/")[2]) == 0:
                raise ValueError("zero denominator")
            value = Exact.of(Fraction(core))
        parts.append(-value if sign == "-" else value)
    return parts[0], parts[1]


def _exact_value(real: Exact, imag: Exact) -> float | complex:
    """float of the real part, or complex of both when the imaginary part is not
    zero; ValueError when that is beyond float range."""
    try:
        value = float(real) if imag.is_zero() else complex(float(real), float(imag))
    except OverflowError:
        value = complex(np.inf)
    if not cmath.isfinite(value):
        raise ValueError("entry is outside the floating-point range")
    return value


_digits = st.text("0123456789", min_size=1, max_size=20)
_ints = st.one_of(st.integers(0, 99), st.integers(0, 10**400)).map(str)
_exponents = st.one_of(st.integers(-30, 30), st.integers(-420, 420),
                       st.sampled_from([MAX_EXPONENT, -MAX_EXPONENT, MAX_EXPONENT + 1, -MAX_EXPONENT - 1]))


@st.composite
def _decimals(draw):
    whole = draw(st.one_of(st.just(""), _digits))
    point = not whole or draw(st.booleans())
    text = whole + ("." + draw(_digits if not whole else st.one_of(st.just(""), _digits)) if point else "")
    if draw(st.booleans()):
        e = draw(_exponents)
        sign = "-" if e < 0 else draw(st.sampled_from(["", "+"]))
        text += draw(st.sampled_from("eE")) + sign + draw(st.sampled_from(["", "0", "00"])) + str(abs(e))
    return text


_radicands = st.one_of(st.integers(0, 2000),
                       st.builds(lambda m, r: m * m * r, st.integers(1, 1000), st.integers(1, 100)),
                       st.sampled_from([MAX_RADICAND, MAX_RADICAND + 1, 999_999_999_989, 4 * 249_999_999_997]))
_radicals = st.builds(lambda p, k, q: f"{p}sqrt({k}){q}", st.one_of(st.just(""), _ints.map(lambda p: p + "*")),
                      _radicands, st.one_of(st.just(""), _ints.map(lambda q: "/" + q)))
_zeros = st.sampled_from(["0", "00", "0.0", ".0", "0.", "0e5", "0E-7", "0/3", "0*sqrt(2)", "0*sqrt(8)/5"])
_cores = st.one_of(_decimals(), st.builds(lambda p, q: f"{p}/{q}", _ints, _ints), _radicals, _zeros)
_entries = st.builds(lambda sign, real, imag: sign + real + imag, st.sampled_from(["", "+", "-"]), _cores,
                     st.one_of(st.just(""), st.builds(lambda sign, core: sign + core + "i", st.sampled_from("+-"),
                                                      _cores)))


def _check_token(token: str) -> None:
    """The int forms against the Fraction route: the same parts, the same float
    or complex bytes, the same real-or-complex decision, the same error text."""
    text = f"dims 4 2 2\n0 0 0 0\n0 {token} 0 0\n0 0 0 0\n0 0 0 0\n"
    try:
        parts = _exact_parts(token)
        assert parse_entry(token) == parts
        want = _exact_value(*parts)
    except ValueError as exc:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line 3, column 3: {exc}"
        return
    floats = parse(text).floats
    assert floats.dtype == (complex if isinstance(want, complex) else float)
    assert floats[1, 1].tobytes() == np.array(want, dtype=floats.dtype).tobytes()


@given(st.one_of(_entries, st.text("0123456789./*+-eEsqrti()", min_size=1, max_size=14)))
@settings(max_examples=400, deadline=None)
def test_a_token_parses_to_the_float_of_its_exact_parts(token):
    _check_token(token)


@pytest.mark.parametrize("token", [
    "-0", "-0.0", "-.0e-3", "-0/7", "-0*sqrt(12)/5", "0-0i", "-0+0i", "1/4-0.0i", "-1e-400", "1-1e-400i",
    "1e400", "0+1e400i", "15" + "0" * 307 + "*sqrt(2)", "sqrt(8)/4", "-12*sqrt(50)/7+sqrt(18)i",
    "\u0663/\u0664", "\u0661.\u0665e\u0662", f"sqrt({MAX_RADICAND})/2", f"25e+000{MAX_EXPONENT - 2}",
    f"0.{'1' * MAX_DIGITS}e-5", "0." + "1" * 5000, "sqrt(2)/0", "1/4-2*sqrt(3)/0i", "1e400+sqrt(0)i",
])
def test_a_token_at_an_edge_parses_to_the_float_of_its_exact_parts(token):
    _check_token(token)


@pytest.mark.parametrize("part", ["complex", "real"])
def test_seeded_dense_8x8_files_parse_to_the_floats_of_their_exact_parts(part):
    # the dense file CI classifies (4,096 distinct 12-digit decimals) and its real part (2,080)
    x, y = np.random.default_rng(24).standard_normal((2, 64, 128))
    a = (x + 1j * y) @ (x + 1j * y).conj().T
    a = a / np.trace(a).real
    text = emit(a if part == "complex" else a.real, BipartiteDims(8, 8))
    rows = [line.split() for line in text.splitlines()[1:]]
    assert len({token for row in rows for token in row}) == (4096 if part == "complex" else 2080)
    want = np.array([[_exact_value(*_exact_parts(token)) for token in row] for row in rows])
    parsed = parse(text)
    assert parsed.floats.dtype == want.dtype and parsed.floats.tobytes() == want.tobytes()
    if part == "real":
        assert np.array_equal(parsed.array, [[_exact_parts(token)[0] for token in row] for row in rows])
        assert parsed.validate().array.tobytes() == validate(parsed.array, parsed.dims).array.tobytes()
