from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entlap import corpus
from entlap.corpus import build, build_stack, get_entry, list_entries
from entlap.errors import ParameterOutOfDomain, UnknownState
from entlap.exact import ZERO, Exact
from entlap.matops import BipartiteDims, partial_transpose
from entlap.states import purity, rank, validate

from _sampling import corpus_points


class TestRegistry:
    def test_seven_entries(self):
        entries = list_entries()
        assert len(entries) == 7
        assert [e.name for e in entries] == ["psi", "rho1", "rho_ab", "rho2", "rho3", "rho5", "rho6"]

    def test_domains(self):
        assert get_entry("rho_ab").parameter_domain == (0.0, 0.283)
        assert get_entry("rho6").parameter_domain == (0.01, 1.0)
        assert get_entry("psi").parameter_name is None

    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            build("nosuch")

    def test_parameter_domain_enforced(self):
        with pytest.raises(ParameterOutOfDomain):
            build("rho6", 2.0)
        with pytest.raises(ParameterOutOfDomain):
            build("rho_ab", -0.1)
        with pytest.raises(ParameterOutOfDomain):
            build("rho6")  # parameter required
        with pytest.raises(ParameterOutOfDomain):
            build("psi", 0.5)  # no parameter accepted

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "abc"])
    def test_unreadable_parameter_is_out_of_domain(self, value):
        with pytest.raises(ParameterOutOfDomain, match="^a = .* is not a finite number"):
            build("rho6", value)


class TestStates:
    def test_all_fixed_states_validate(self):
        for name in ["psi", "rho1", "rho2", "rho3", "rho5"]:
            rho = build(name)
            assert abs(np.trace(rho.array) - 1) <= 1e-12
            assert rho.exact is not None

    def test_psi_exact_entries_and_rank(self, psi):
        assert psi.exact[0][0] == Exact.of(Fraction(1, 4))
        assert psi.exact[0][3] == Exact.radical(Fraction(1, 8), 7)
        assert psi.exact[3][3] == Exact.of(Fraction(7, 16))
        assert rank(psi) == 1
        assert purity(psi) == pytest.approx(1.0, abs=1e-12)

    def test_psi_is_the_outer_product_of_its_amplitudes(self, psi):
        # psi's pattern places seven slots; its floats, spectrum and literals are
        # those of the outer product of its Exact amplitudes, bit for bit
        amplitudes = np.array([Exact.of(Fraction(1, 2)), Exact.of(Fraction(1, 2)), Exact.of(Fraction(1, 4)),
                               Exact.radical(Fraction(1, 4), 7)], dtype=object)
        outer = np.multiply.outer(amplitudes, amplitudes)
        want = validate(outer.astype(float), psi.dims)
        assert psi.array.tobytes() == want.array.tobytes()
        assert psi.spectrum.tobytes() == want.spectrum.tobytes()
        assert [e.format_literal() for e in psi.exact.flat] == [e.format_literal() for e in outer.flat]
        assert np.array_equal(psi.exact, outer)

    def test_rho_ab_zero_is_diagonal(self):
        rho = build("rho_ab", 0.0)
        assert np.all(rho.array == np.diag(np.diag(rho.array)))

    def test_rho2_exact_spectrum(self, rho2):
        vals = np.sort(rho2.spectrum)
        expected = np.array([65 / 648] + [1 / 8] * 6 + [97 / 648])
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_rho2_partial_transpose_fixed_point(self, rho2):
        pt = partial_transpose(rho2.array, rho2.dims)
        assert np.array_equal(pt, rho2.array)
        pt_exact = partial_transpose(rho2.exact, rho2.dims)
        assert all(
            pt_exact[i][j] == rho2.exact[i][j] for i in range(8) for j in range(8)
        )

    def test_rho6_trace_one_and_psd_on_grid(self):
        for a in np.linspace(0.01, 1.0, 100):
            rho = build("rho6", float(a))
            exact_trace = sum((rho.exact[i][i] for i in range(9)), Exact())
            assert exact_trace == Exact.of(1)
            assert float(rho.spectrum[0]) > 1e-3

    def test_rho6_structure(self):
        rho = build("rho6", Fraction(1, 100))
        # N = 5, x = 1/2: first diagonal entry x/N = 1/10
        assert rho.exact[0][0] == Exact.of(Fraction(1, 10))
        assert rho.exact[8][8] == Exact.of(Fraction(3, 20))  # y/N = (3/2)/5

    @pytest.mark.parametrize("a", [0.01, 0.37, Fraction(2, 3), 1.0])
    def test_rho6_equals_all_81_entries_over_n(self, a):
        af = Fraction(str(a)) if isinstance(a, float) else a
        big_n = 400 * af + 1
        x, y, z = 50 * af, (50 * af + 1) / 2, Fraction(1, 100)
        diag = [x, x, x, x, x, x, y, x, y]
        rows = [[diag[i] if i == j else Fraction(0) for j in range(9)] for i in range(9)]
        for i, j, v in [(0, 1, z), (0, 8, af), (1, 4, z), (2, 3, z), (3, 7, z),
                        (4, 5, z), (4, 8, af), (5, 6, z), (6, 7, z)]:
            rows[i][j] = rows[j][i] = v
        want = validate([[v / big_n for v in row] for row in rows], BipartiteDims(3, 3))
        rho = build("rho6", a)
        assert rho.array.tobytes() == want.array.tobytes()
        assert np.array_equal(rho.exact, want.exact)

    def test_rho_ab_parameter_types(self):
        a = build("rho_ab", 0.1)
        b = build("rho_ab", Fraction(1, 10))
        assert np.array_equal(a.array, b.array)


class TestSlots:
    def test_entries_that_share_a_slot_share_one_exact(self, exact_created):
        # each distinct non-zero value is built once per state, the first time
        # its exact entries are read, and zeros are the one ZERO
        for name, param in corpus_points():
            entry, rho = get_entry(name), build(name, param)
            with exact_created() as created:
                exact = rho.exact
            by_slot = {}
            for slot, value in zip(entry.pattern.flat, exact.flat):
                assert by_slot.setdefault(slot, value) is value, (name, param, slot)
            assert all(v is ZERO for v in by_slot.values() if v.is_zero())
            assert sorted(map(id, created)) == sorted({id(v) for v in by_slot.values() if v}), (name, param)


class TestStack:
    @pytest.mark.parametrize("name, params", [("rho6", [0.01, 0.3, Fraction(1, 3), 1.0]),
                                              ("rho_ab", [0.0, 0.1, 0.283])])
    def test_rows_are_the_states_build_makes(self, name, params):
        stack = build_stack(name, params)
        for k, p in enumerate(params):
            rho = build(name, p)
            assert stack.array[k].tobytes() == rho.array.tobytes()
            assert stack.spectrum[k].tobytes() == rho.spectrum.tobytes()
            assert stack.validation_tolerance == rho.validation_tolerance
            assert np.array_equal(stack.exact[k], rho.exact)

    def test_first_parameter_out_of_domain_raises_its_error(self):
        with pytest.raises(ParameterOutOfDomain) as alone:
            build("rho6", 2.0)
        with pytest.raises(ParameterOutOfDomain) as stacked:
            build_stack("rho6", [0.5, 2.0, -1.0])
        assert str(stacked.value) == str(alone.value)


def _family_points():
    """(family, float parameter): in the family's domain, or anywhere."""
    def in_domain(name):
        return st.tuples(st.just(name), st.floats(*get_entry(name).parameter_domain))
    return st.sampled_from(["rho6", "rho_ab"]).flatmap(in_domain)


def _neighbours(x):
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


class TestIntPath:
    """A family's parameter is read as the ratio Fraction(str(v)) gives, and its
    float values by int division are the floats of its exact values, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_family_points())
    @example(("rho6", 0.01))
    @example(("rho6", 1.0))
    @example(("rho6", 0.123456789012345))
    @example(("rho_ab", 0.0))
    @example(("rho_ab", 0.283))
    @example(("rho_ab", 1e-05))
    @example(("rho_ab", 2.5e-300))
    @example(("rho_ab", 5e-324))
    def test_floats_are_the_exact_values_floats(self, point):
        name, v = point
        entry = get_entry(name)
        ratio = corpus._ratio_in_domain(entry, v)
        assert ratio == Fraction(str(v)).as_integer_ratio()
        exact = entry.exact_at(ratio)
        assert all(type(x) is Exact and x.is_rational() for x in exact)
        if name == "rho_ab":
            assert exact[-1] == Exact.of(Fraction(str(v)))  # the coherence x itself
        want = np.array(exact, dtype=object).astype(float)
        assert np.array(entry.floats_at(ratio)).tobytes() == want.tobytes()
        rho = build(name, v)
        assert rho.array.tobytes() == np.take(want, entry.pattern).tobytes()
        assert np.array_equal(rho.exact, np.take(np.array(exact, dtype=object), entry.pattern))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["rho6", "rho_ab"]), st.floats(allow_nan=False, allow_infinity=False))
    @example("rho6", 0.0)
    @example("rho_ab", -0.0)
    def test_domain_is_the_fraction_comparison(self, name, v):
        entry = get_entry(name)
        lo, hi = (Fraction(str(bound)) for bound in entry.parameter_domain)
        for x in [v, *_neighbours(entry.parameter_domain[0]), *_neighbours(entry.parameter_domain[1])]:
            if lo <= Fraction(str(x)) <= hi:
                assert corpus._ratio_in_domain(entry, x) == Fraction(str(x)).as_integer_ratio()
            else:
                with pytest.raises(ParameterOutOfDomain, match="outside"):
                    corpus._ratio_in_domain(entry, x)

    @pytest.mark.parametrize("name", ["rho6", "rho_ab"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "abc"])
    def test_not_a_finite_number_in_a_stack(self, name, value):
        with pytest.raises(ParameterOutOfDomain, match="is not a finite number"):
            build_stack(name, [get_entry(name).parameter_domain[1], value])

    def test_exact_values_are_built_when_first_read(self, monkeypatch):
        built = []
        exact_at = corpus.CorpusEntry.exact_at
        monkeypatch.setattr(corpus.CorpusEntry, "exact_at", lambda self, r: built.append(r) or exact_at(self, r))
        stack = build_stack("rho6", [0.01, 0.5, 1.0])
        rho = build("rho6", 0.37)
        assert built == []
        assert rho.exact[0][0] == Exact.of(Fraction(50 * 37, 400 * 37 + 100))  # 50p/m at a = p/q = 37/100
        assert stack.exact[2][0][0] == Exact.of(Fraction(50, 401))  # a = 1: 50/401
        assert built == [(37, 100), (1, 100), (1, 2), (1, 1)]
