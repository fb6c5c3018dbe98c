from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entlap.corpus import build, list_entries
from entlap.exact import Exact
from entlap.matops import BipartiteDims
from entlap.matrixfile import ParseError, emit, format_scalar, parse, parse_entry


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

    def test_complex_suffix(self):
        re_, im = parse_entry("1/4+1/2i")
        assert re_ == Exact.of(Fraction(1, 4))
        assert im == Exact.of(Fraction(1, 2))
        re_, im = parse_entry("0.5-sqrt(2)/4i")
        assert im == Exact.radical(Fraction(-1, 4), 2)

    def test_rejects_garbage(self):
        for bad in ["", "1/", "/2", "sqrt()", "sqrt(-3)", "1+2", "i", "1.2.3", "--1", "1/0"]:
            with pytest.raises(ValueError):
                parse_entry(bad)


class TestParse:
    def test_minimal_file(self):
        text = "# maximally mixed\ndims 4 2 2\n" + "\n".join(
            " ".join("1/4" if i == j else "0" for j in range(4)) for i in range(4)
        )
        parsed = parse(text)
        assert parsed.dims == BipartiteDims(2, 2)
        np.testing.assert_array_equal(parsed.array, np.eye(4) / 4)
        assert parsed.exact is not None

    def test_complex_entries_disable_exact(self):
        text = "dims 4 2 2\n0.5 0 0 0+0.5i\n0 0 0 0\n0 0 0 0\n0-0.5i 0 0 0.5"
        parsed = parse(text)
        assert parsed.exact is None
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

    def test_subsystem_dimension_below_two_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse("# header on line 2\ndims 2 1 2\n1 0\n0 0\n")
        assert err.value.line == 2
        assert "1x2" in str(err.value)

    def test_row_length_checked(self):
        with pytest.raises(ParseError):
            parse("dims 4 2 2\n1 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")

    def test_row_count_checked(self):
        with pytest.raises(ParseError):
            parse("dims 4 2 2\n1 0 0 0\n")


class TestEmit:
    def test_exact_rationals_preserved(self, rho2):
        text = emit(rho2)
        assert "1/81" in text
        assert "1/8" in text
        reparsed = parse(text)
        assert np.array_equal(reparsed.array, rho2.array)
        assert np.array_equal(reparsed.exact, rho2.exact)

    def test_radicals_preserved(self, psi):
        text = emit(psi)
        assert "sqrt(7)/8" in text
        assert "sqrt(7)/16" in text
        reparsed = parse(text)
        assert np.array_equal(reparsed.exact, psi.exact)

    def test_round_trip_for_every_corpus_state(self):
        for entry in list_entries():
            if entry.parameter_name is None:
                rho = build(entry.name)
            else:
                rho = build(entry.name, entry.parameter_domain[0] or 0.1)
            reparsed = parse(emit(rho))
            assert np.array_equal(reparsed.exact, rho.exact), entry.name
            assert np.array_equal(reparsed.array, rho.array)

    def test_laplacian_mixed_entries_fall_back_to_decimal(self, psi):
        from entlap.laplacian import laplacian_of_density

        lap = laplacian_of_density(psi)
        text = emit(lap.exact, psi.dims)
        # pure-radical off-diagonals stay exact; the two-term diagonal cannot
        assert "-sqrt(7)/8" in text
        assert "0.705718913883" in text  # 3/8 + sqrt(7)/8 to 12 significant digits

    def test_format_scalar(self):
        assert format_scalar(Exact.of(Fraction(3, 10))) == "3/10"
        assert format_scalar(0.1) == "0.1"
        assert format_scalar(Exact.of(Fraction(3, 8)) + Exact.radical(Fraction(1, 8), 7)) == "0.705718913883"


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
    assert np.array_equal(reparsed.exact, exact)
