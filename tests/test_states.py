import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from entlap import cli, corpus
from entlap.corpus import build, build_stack, get_entry
from entlap.errors import DimensionMismatch, ParameterOutOfDomain, StateValidationError
from entlap.exact import Exact
from entlap.laplacian import laplacian_of_density, phi
from entlap.matops import BipartiteDims, partial_transpose
from entlap import states
from entlap.states import linear_entropy, purity, rank, validate

from _bench import pool_keys, wl
from _oracles import random_psd
from _sampling import corpus_points


def _dm(arr, d1, d2, tol=1e-9):
    return validate(np.asarray(arr, dtype=complex), BipartiteDims(d1, d2), tol=tol)


class TestValidate:
    def test_maximally_mixed_is_valid(self):
        rho = _dm(np.eye(4) / 4, 2, 2)
        assert rho.n == 4
        assert purity(rho) == pytest.approx(0.25)

    def test_pure_corpus_state_is_rank_one(self, psi):
        assert rank(psi) == 1
        assert purity(psi) == pytest.approx(1.0, abs=1e-12)

    def test_non_psd_rejected_with_magnitude(self):
        # inner-block coherence 0.3 pushes the smallest eigenvalue to 0.3 - sqrt(0.1)
        m = np.diag([0.1, 0.2, 0.4, 0.3])
        m[1, 2] = m[2, 1] = 0.3
        with pytest.raises(StateValidationError) as err:
            _dm(m, 2, 2)
        axioms = {v.axiom: v.magnitude for v in err.value.violations}
        assert set(axioms) == {"NotPSD"}
        assert axioms["NotPSD"] == pytest.approx(0.3 - np.sqrt(0.1), abs=1e-12)

    def test_trace_violation_reported(self):
        with pytest.raises(StateValidationError) as err:
            _dm(np.eye(4) / 5, 2, 2)
        assert [v.axiom for v in err.value.violations] == ["TraceNotOne"]
        assert str(err.value.violations[0]) == "TraceNotOne (0.8)"

    def test_hermiticity_violation_reported(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.1
        with pytest.raises(StateValidationError) as err:
            _dm(m, 2, 2)
        assert [v.axiom for v in err.value.violations] == ["NotHermitian"]

    def test_dimension_mismatch_reported(self):
        with pytest.raises(StateValidationError) as err:
            _dm(np.eye(4) / 4, 2, 3)
        assert [v.axiom for v in err.value.violations] == ["DimensionMismatch"]

    def test_small_asymmetry_averaged_away(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e-12
        rho = _dm(m, 2, 2)
        assert np.max(np.abs(rho.array - rho.array.conj().T)) == 0.0

    def test_idempotent(self, rng):
        a = random_psd(rng, 6)
        a = a / np.trace(a).real
        first = validate(a, BipartiteDims(2, 3))
        second = validate(first.array, BipartiteDims(2, 3))
        np.testing.assert_array_equal(first.array, second.array)

    @pytest.mark.parametrize("bad", [
        np.nan, np.inf, complex(0.25, np.nan), complex(0.25, np.inf),
        pytest.param(Fraction(10**400), id="Fraction(10**400)"),  # exact, too large for a float
        pytest.param(Fraction(-10**400), id="Fraction(-10**400)"),
    ], ids=repr)
    def test_non_finite_entry_is_a_value_error(self, bad):
        one = np.diag([Fraction(1, 4)] * 4) if isinstance(bad, Fraction) else np.eye(4, dtype=complex) / 4
        m = one.copy()
        m[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            validate(m, BipartiteDims(2, 2))
        stack = np.stack([one] * 3)
        stack[1, 2, 3] = stack[1, 3, 2] = bad  # one bad state among valid ones
        with pytest.raises(ValueError, match="finite"):
            validate(stack, BipartiteDims(2, 2))

    def test_int_entries_are_accepted(self):
        rho = validate(np.diag([1, 0, 0, 0]), BipartiteDims(2, 2))
        assert rho.array.dtype == float and rank(rho) == 1

    def test_bool_entries_read_as_their_int_twin(self):
        # numpy's bool arithmetic is logical: True - True raises and True + True is True
        dims = BipartiteDims(2, 2)
        rho, twin = validate(np.diag([True, False, False, False]), dims), validate(np.diag([1, 0, 0, 0]), dims)
        assert rho.array.tobytes() == twin.array.tobytes()
        assert rho.spectrum.tobytes() == twin.spectrum.tobytes()
        assert rho.rank == twin.rank == 1


class TestExactCompanion:
    def test_every_corpus_state_revalidates_with_its_companion(self):
        for rho in (build(*point) for point in corpus_points()):
            again = validate(rho.exact, rho.dims, tol=rho.validation_tolerance)
            assert np.array_equal(again.exact, rho.exact)
            assert again.array.tobytes() == rho.array.tobytes()

    def test_float_matrix_is_read_off_the_exact_entries(self):
        # bit for bit: validate's float matrix is the exact entries' float values
        for rho in (build(*point) for point in corpus_points()):
            assert rho.exact.astype(float).tobytes() == rho.array.tobytes()
            assert not rho.exact.flags.writeable

    def test_entries_are_the_input_at_validation(self):
        # the Exact entries are made when first read, from validate's own copy of the input
        m = np.array([[Fraction(1, 4) if i == j else 0 for j in range(4)] for i in range(4)], dtype=object)
        rho = validate(m, BipartiteDims(2, 2))
        m[0, 0] = Fraction(1, 2)
        assert rho.exact[0, 0] == Exact.of(Fraction(1, 4)) and float(rho.exact[0, 0]) == rho.array[0, 0] == 0.25
        assert all(type(e) is Exact for e in rho.exact.flat)

    def test_builds_one_exact_per_distinct_value(self, exact_created):
        # rho6 at a = 1/2 as 81 Fractions: 27 non-zero entries, of 4 distinct values
        rho = build("rho6", 0.5)
        m = np.array([[e.as_fraction() for e in row] for row in rho.exact], dtype=object)
        state = validate(m, rho.dims)
        with exact_created() as created:
            exact = state.exact
        assert len(created) == len({v for v in m.flat if v}) == 4
        assert np.array_equal(exact, rho.exact) and exact[0, 0] is exact[1, 1]

    def test_float_input_has_no_exact_entries(self):
        rho = _dm(np.eye(4) / 4, 2, 2)
        assert rho.exact is None

    def test_entries_hermitian_only_within_tol_are_not_exact(self):
        # the state is the average of the entries, so they are not its entries
        m = np.diag([Fraction(1, 4)] * 4).astype(object)
        m[0, 1], m[1, 0] = Fraction(1, 10), Fraction(1000000000001, 10000000000000)
        rho = validate(m, BipartiteDims(2, 2))
        assert rho.exact is None and rho.literal is rho.array
        assert rho.array[0, 1] == rho.array[1, 0] != 0.1
        m[1, 0] = Fraction(1, 10)
        assert validate(m, BipartiteDims(2, 2)).exact[1, 0] == Exact.of(Fraction(1, 10))

    @pytest.mark.parametrize("entry", [0.25, 0.25 + 0j, "1/4", None])
    def test_object_entry_of_another_type_is_a_type_error(self, entry):
        m = np.array([[Fraction(1, 4) if i == j else 0 for j in range(4)] for i in range(4)], dtype=object)
        m[3, 3] = entry
        with pytest.raises(TypeError, match="int, Fraction or Exact"):
            validate(m, BipartiteDims(2, 2))

    def test_states_compare_by_identity(self):
        a, b = build("rho3"), build("rho3")
        assert a == a
        assert a != b
        assert not (a == b)


def _object_matrix(entry, values):
    """The object matrix that `entry`'s pattern makes of values (n, d), as Fractions,
    and (n, d, k), as Exact radicals."""
    return np.array([Exact.radical(Fraction(n, d), *k) if k else Fraction(n, d) for n, d, *k in values],
                    dtype=object)[..., entry.pattern]


def _violations(exc):
    return [(v.axiom, v.magnitude) for v in exc.violations]


class TestFactoredValidate:
    """`build` and `build_stack` validate a state as the object matrix its pattern makes does."""

    def _assert_same_state(self, built, matrix):
        assert built.array.tobytes() == matrix.array.tobytes()
        assert built.spectrum.tobytes() == matrix.spectrum.tobytes()
        assert built.exact.shape == matrix.exact.shape and not built.exact.flags.writeable
        assert [(type(a), a) for a in built.exact.flat] == [(type(b), b) for b in matrix.exact.flat]

    def test_every_patterned_corpus_state(self):
        for name, param in corpus_points():
            entry = get_entry(name)
            values = entry.values(*corpus._ratio_in_domain(entry, param) or ())
            matrix = validate(_object_matrix(entry, values), entry.dims, tol=entry.tol)
            self._assert_same_state(build(name, param), matrix)

    def test_a_stack_of_values(self):
        entry = get_entry("rho6")
        params = [Fraction(a, 100) for a in (1, 37, 50, 100)]
        matrices = [_object_matrix(entry, entry.values(*a.as_integer_ratio())) for a in params]
        built = build_stack("rho6", params)
        self._assert_same_state(built, validate(np.stack(matrices), entry.dims))
        assert built.array.shape == (4, 9, 9) and built.array.flags.c_contiguous

    @pytest.mark.parametrize("name, values, tol", [
        ("rho6", ((0, 1), (2, 9), (1, 9), (0, 1), (0, 1)), None),  # trace 2 * 6/9 + 2/9: TraceNotOne
        ("rho_ab", ((0, 1), (1, 10), (1, 5), (2, 5), (3, 10), (3, 10)), 1e-9),  # NotPSD
        ("rho5", ((0, 1), (1, 2), (1, 2)), None),  # TraceNotOne and NotPSD
    ])
    def test_violations(self, monkeypatch, name, values, tol):
        # the entry as a family over t whose state at t = 1/2 has `values`
        entry = get_entry(name)
        tol = entry.tol if tol is None else tol
        good = entry.values(1, 10) if entry.parameter_name else entry.values()
        family = replace(entry, parameter_name="t", parameter_domain=(0.0, 1.0), tol=tol,
                         values=lambda p, q: values if (p, q) == (1, 2) else good)
        monkeypatch.setattr(corpus, "get_entry", lambda _: family)
        with pytest.raises(StateValidationError) as matrix:
            validate(_object_matrix(entry, values), entry.dims, tol=tol)
        with pytest.raises(StateValidationError) as built:
            build(name, 0.5)
        assert _violations(built.value) == _violations(matrix.value)
        # the first failing state of a stack raises its own violations
        with pytest.raises(StateValidationError) as stacked:
            build_stack(name, [0.1, 0.5, 0.1])
        assert _violations(stacked.value) == _violations(matrix.value)

    def test_not_hermitian(self, monkeypatch):
        entry = get_entry("rho5")
        pattern = entry.pattern.copy()
        pattern[0, 1] = 0  # rho5's (1, 0) coherence has no mirror
        broken = replace(entry, pattern=pattern)
        monkeypatch.setattr(corpus, "get_entry", lambda _: broken)
        with pytest.raises(StateValidationError) as built:
            build("rho5")
        with pytest.raises(StateValidationError) as matrix:
            validate(_object_matrix(broken, entry.values()), entry.dims)
        assert _violations(built.value) == _violations(matrix.value) == [("NotHermitian", 0.05)]

    @pytest.mark.parametrize("bad", [0.25, 0.25 + 0j, "1/4", None])
    def test_value_of_another_type_is_a_type_error(self, bad):
        # the object matrix a pattern makes of a bad value holds it in many entries
        entry = get_entry("rho5")
        matrix = np.array((0, Fraction(1, 4), bad), dtype=object)[entry.pattern]
        with pytest.raises(TypeError) as err:
            validate(matrix, entry.dims)
        assert str(err.value) == f"exact entries must be int, Fraction or Exact, got {type(bad).__name__}"

    def test_invalid_state_before_an_out_of_domain_parameter(self, monkeypatch):
        # with rho_ab's tolerance at 1e-9, x = 0.283 (in the domain) is not PSD:
        # its validation error comes before the error of x = 1 after it
        tight = replace(get_entry("rho_ab"), tol=1e-9)
        monkeypatch.setattr(corpus, "get_entry", lambda name: tight)
        with pytest.raises(StateValidationError) as alone:
            corpus.build("rho_ab", 0.283)
        with pytest.raises(StateValidationError) as stacked:
            build_stack("rho_ab", [0.1, 0.283, 1.0])
        assert _violations(stacked.value) == _violations(alone.value)
        assert alone.value.violations[0].axiom == "NotPSD"
        with pytest.raises(ParameterOutOfDomain):
            build_stack("rho_ab", [0.1, 0.2, 1.0])


class TestPurityFunctionals:
    def test_purity_of_maximally_mixed(self):
        assert purity(_dm(np.eye(4) / 4, 2, 2)) == pytest.approx(0.25)

    def test_purity_rho5(self, rho5):
        # exact value 1/4 + 6/400
        assert purity(rho5) == pytest.approx(0.265, abs=1e-12)

    def test_linear_entropy_normalisations(self):
        mixed = _dm(np.eye(4) / 4, 2, 2)
        assert linear_entropy(mixed) == pytest.approx(1.0, abs=1e-12)

    def test_linear_entropy_zero_iff_pure(self, psi, rho5, rng):
        assert linear_entropy(psi) == pytest.approx(0.0, abs=1e-9)
        assert linear_entropy(rho5) == pytest.approx((4 / 3) * (1 - 0.265), abs=1e-12)
        for _ in range(500):
            a = random_psd(rng, 4)
            rho = validate(a / np.trace(a).real, BipartiteDims(2, 2))
            s = linear_entropy(rho)
            assert -1e-9 <= s <= 1 + 1e-9
            assert (s <= 1e-9) == (rank(rho) == 1)

    def test_purity_bounds_on_random_states(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 4)) * 2
            a = random_psd(rng, n)
            rho = validate(a / np.trace(a).real, BipartiteDims(2, n // 2))
            assert 1 / n - 1e-9 <= purity(rho) <= 1 + 1e-9

    def test_report(self, rho5):
        assert rank(rho5) == 4
        assert purity(rho5) == pytest.approx(0.265, abs=1e-12)
        assert linear_entropy(rho5) == pytest.approx(0.98, abs=1e-12)


class TestRhoAbFamily:
    def test_rank_profile(self):
        assert rank(build("rho_ab", 0.0)) == 4
        assert rank(build("rho_ab", 0.1)) == 4

    def test_psd_boundary(self):
        # sqrt(0.08) is the exact PSD boundary; the published endpoint 0.283
        # sits 1.5e-4 past it and is admitted only by the relaxed tolerance
        rho = build("rho_ab", 0.283)
        assert float(rho.spectrum[0]) == pytest.approx(-1.48e-4, abs=2e-6)
        with pytest.raises(StateValidationError):
            m = build("rho_ab", 0.283).array
            validate(m, BipartiteDims(2, 2), tol=1e-9)


# Every value a state derives, read the same way from a single state and from a slice of a stack's.
_DERIVED = ("laplacian", "ptb", "spec_ptb", "spec_lap", "spec_l_plus_ptb", "spec_lap_ptb", "spec_phi_minus_i",
            "total_degree", "rank", "connected", "max_w")


def _stack_members(rng, dims):
    """Dense, rank-deficient, sparse, disconnected and edgeless states of one dims."""
    n = dims.n
    a = random_psd(rng, n)
    v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    path = np.eye(n) + np.diag(np.full(n - 1, 0.3), 1) + np.diag(np.full(n - 1, 0.3), -1)
    split = path.copy()
    split[n // 2 - 1, n // 2] = split[n // 2, n // 2 - 1] = 0
    edgeless = np.diag(rng.random(n) + 0.1)
    return [m / np.trace(m).real for m in (a, v @ v.conj().T, path, split, edgeless)]


def _solved_alone(m, dims):
    """Each of the five derived spectra of one float matrix m, its matrix built
    by the package's kernels and solved in an eigvalsh call of its own."""
    lap, ptb = laplacian_of_density(m), partial_transpose(m, dims)
    matrices = {"spec_ptb": ptb, "spec_l_plus_ptb": lap + ptb, "spec_lap": lap,
                "spec_lap_ptb": partial_transpose(lap, dims), "spec_phi_minus_i": phi(m) - np.eye(dims.n, dtype=m.dtype)}
    return {name: np.linalg.eigvalsh(matrix) for name, matrix in matrices.items()}


class TestSpectraBitForBit:
    """Each derived spectrum is bit for bit an eigvalsh solve of its matrix alone."""

    def test_pool_states(self):
        keys = pool_keys()
        assert len(keys) == 640
        for d1, d2, kind, index in keys:
            dims = BipartiteDims(d1, d2)
            rho = validate(wl.make_state(d1, d2, kind, index), dims)
            for name, want in _solved_alone(rho.array, dims).items():
                assert np.array_equal(getattr(rho, name), want), (d1, d2, kind, index, name)

    @pytest.mark.parametrize("name, param", list(corpus_points()))
    def test_corpus_points(self, name, param):
        rho = build(name, param)
        for spectrum, want in _solved_alone(rho.array, rho.dims).items():
            assert np.array_equal(getattr(rho, spectrum), want), spectrum

    @pytest.mark.parametrize("state, start, stop, rows", [("rho6", 0.01, 1.0, 101), ("rho_ab", 0.0, 0.283, 200)])
    def test_sweep_stacks_row_by_row(self, state, start, stop, rows):
        # the first stack of each pinned 200-step sweep: 101 rows of rho6 (8192 // 81), all 200 of rho_ab
        stack = build_stack(state, cli._grid(start, stop, 200)[:rows])
        assert len(stack.array) == rows
        for k, m in enumerate(stack.array):
            for name, want in _solved_alone(m, stack.dims).items():
                assert np.array_equal(getattr(stack, name)[k], want), (k, name)

    def test_single_precision_stays_single(self, rng):
        # no spectrum is solved at another precision than its matrix's
        m = random_psd(rng, 6)
        rho = validate((m / np.trace(m).real).astype(np.complex64), BipartiteDims(2, 3), tol=1e-5)
        for name, want in _solved_alone(rho.array, rho.dims).items():
            assert getattr(rho, name).dtype == np.float32 and np.array_equal(getattr(rho, name), want), name


class TestKeptArraysAreReadOnly:
    """Every array a state keeps is shared by all its later readers, so writing
    into one raises: no caller changes what the criteria read next."""

    _KEPT = ["array", "spectrum", "exact", "laplacian", "ptb", "graph", "spec_ptb", "spec_lap",
             "spec_l_plus_ptb", "spec_lap_ptb", "spec_phi_minus_i"]

    @pytest.mark.parametrize("state", [lambda: build("rho5"), lambda: build_stack("rho6", [0.2, 0.5])],
                             ids=["rho5", "rho6-stack"])
    def test_writing_into_one_raises(self, state):
        rho = state()
        kept = [(name, getattr(rho, name)) for name in self._KEPT] + [("edges", a) for a in rho.edges]
        for name, a in kept:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]
                pytest.fail(f"{name} is writeable")

    @pytest.mark.parametrize("name", ["rank", "total_degree", "connected", "max_w"])
    def test_a_stacks_graph_scalars_are_read_only(self, name):
        # one state's are scalars; a stack's are arrays, one value per state
        assert not isinstance(getattr(build("rho5"), name), np.ndarray)
        values = getattr(build_stack("rho6", [0.2, 0.5]), name)
        assert values.shape == (2,)
        with pytest.raises(ValueError, match="read-only"):
            values[0] = values[1]


class TestStacks:
    @pytest.mark.parametrize("part", [np.asarray, np.real])  # complex states, and their real parts
    @pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_rows_derive_what_single_states_derive(self, rng, d1, d2, part):
        dims = BipartiteDims(d1, d2)
        members = [part(m.astype(complex)) for m in _stack_members(rng, dims) + _stack_members(rng, dims)]
        stack = validate(np.stack(members), dims)
        for k, m in enumerate(members):
            alone = validate(m, dims)
            assert stack.array[k].tobytes() == alone.array.tobytes()
            assert stack.spectrum[k].tobytes() == alone.spectrum.tobytes()
            for name in _DERIVED:  # max W without edges is NaN, alone as in a stack
                got, want = getattr(stack, name)[k], getattr(alone, name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (k, name)
            assert stack.graph[k].tobytes() == alone.graph.tobytes()
        assert np.isnan(stack.max_w).tolist() == [False, False, False, False, True] * 2

    def test_max_w_without_edges_is_its_stack_row(self):
        # rho_ab at a = 0 is diagonal, so its coherence graph has no edges
        alone, stack = build("rho_ab", 0.0), build_stack("rho_ab", [0.0, 0.1])
        assert math.isnan(alone.max_w) and math.isnan(stack.max_w[0])
        assert np.asarray(alone.max_w).tobytes() == stack.max_w[0].tobytes()

    def test_rows_share_one_kernel_call_per_value(self, monkeypatch, rng):
        dims = BipartiteDims(2, 3)
        stack = validate(np.stack(_stack_members(rng, dims)), dims)
        calls = []
        for name in ("eigvals_sym", "laplacian_of_density", "partial_transpose", "graph_from_laplacian",
                     "is_connected", "max_w"):
            monkeypatch.setattr(states, name,
                                lambda *a, _name=name, _f=getattr(states, name): calls.append(_name) or _f(*a))
        for k in range(5):
            stack.spec_ptb[k], stack.spec_l_plus_ptb[k], stack.connected[k], stack.max_w[k]
        assert sorted(calls) == ["eigvals_sym", "eigvals_sym", "graph_from_laplacian", "is_connected",
                                 "laplacian_of_density", "max_w", "partial_transpose"]

    @pytest.mark.parametrize("bad", [
        lambda m: m * 0.8,  # TraceNotOne
        lambda m: m + np.triu(np.full_like(m, 0.1), 1),  # NotHermitian
        lambda m: m - 0.6 * np.diag(np.diag(m)) + np.diag([0.3, 0, 0, 0]),  # TraceNotOne and NotPSD
        lambda m: np.diag([0.6, 0.5, -0.1, 0.0]),  # NotPSD
    ])
    def test_first_bad_state_raises_its_own_error(self, rng, bad):
        dims = BipartiteDims(2, 2)
        good = _stack_members(rng, dims)
        first, second = bad(good[0]), good[1] * 2
        with pytest.raises(StateValidationError) as alone:
            validate(first, dims)
        with pytest.raises(StateValidationError) as stacked:
            validate(np.stack([good[2], good[3], first, good[4], second]), dims)
        assert [(v.axiom, v.magnitude) for v in stacked.value.violations] == \
               [(v.axiom, v.magnitude) for v in alone.value.violations]

    def test_stack_of_stacks_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            validate(np.broadcast_to(np.eye(4) / 4, (2, 3, 4, 4)), BipartiteDims(2, 2))
