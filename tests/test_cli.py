import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entlap import cli, states
from entlap import exact as exact_module
from entlap.cli import main
from entlap.corpus import build, get_entry
from entlap.exact import Exact
from entlap.criteria import (ClassificationReport, CriterionId, CriterionResult, DecisionTolerance, Verdict, classify,
                             cor6_ppt, ppt_oracle, thm3_separability, thm5_ppt, thm6_ppt)
from entlap.laplacian import laplacian_of_density
from entlap.matops import BipartiteDims
from entlap.matrixfile import emit, parse
from entlap.states import validate
from entlap.wgraph import edges, export_dot, graph_from_laplacian

from _sampling import corpus_points


def _is_prime(n):
    """Miller-Rabin with the bases 2..13, deterministic for n < 3.4e12."""
    bases = (2, 3, 5, 7, 11, 13)
    if n in bases:
        return True
    if n < 2 or any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def mixed_file(tmp_path):
    path = tmp_path / "mixed.mat"
    text = "dims 4 2 2\n" + "\n".join(
        " ".join("1/4" if i == j else "0" for j in range(4)) for i in range(4)
    )
    path.write_text(text + "\n")
    return str(path)


class TestValidate:
    def test_valid_file(self, capsys, mixed_file):
        code, out, _ = run(capsys, "validate", mixed_file)
        assert code == 0
        assert out.startswith("VALID")
        assert "purity 0.25" in out

    def test_psi_file_with_radicals(self, capsys, tmp_path, psi):
        path = tmp_path / "psi.mat"
        path.write_text(emit(psi))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "rank 1" in out

    def test_trace_failure_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("dims 4 2 2\n" + "\n".join(
            " ".join("0.225" if i == j else "0" for j in range(4)) for i in range(4)) + "\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 2
        assert "TraceNotOne (0.9)" in out

    def test_parse_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("dims 4 2 2\n1 oops 0 0\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_entry_beyond_float_range_exit_1(self, capsys, tmp_path, command):
        path = tmp_path / "huge.mat"
        path.write_text("dims 4 2 2\n1e400 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0+1e400i\n")
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert err == "error: line 2, column 1: entry is outside the floating-point range\n"
        assert out == ""

    def test_zero_denominator_in_a_radical_exit_1(self, capsys, tmp_path):
        path = tmp_path / "radical.mat"
        path.write_text("dims 4 2 2\n1/4 0 0 0\n0 1/4 0 sqrt(2)/0\n0 0 1/4 0\n0 sqrt(2)/0 0 1/4\n")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (1, "", "error: line 3, column 9: zero denominator\n")

    @pytest.mark.parametrize("entry", ["1e10000000", "1e-10000000", "0+1e10000000i"])
    def test_decimal_exponent_above_the_limit_exit_1_in_time(self, tmp_path, entry):
        # Fraction computes 10**exponent: 1e10000000 took 13 s to parse, so the CLI
        # runs in a child process that a timeout stops if it does not exit
        path = tmp_path / "decimal.mat"
        path.write_text(f"dims 4 2 2\n1/4 0 0 0\n0 1/4 0 0\n0 0 1/4 0\n0 0 0 {entry}\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "entlap.cli", "validate", str(path)], env=env,
                              capture_output=True, text=True, timeout=5)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: line 5, column 7: exponent above the limit 10000\n"

    @pytest.mark.parametrize("max_str_digits", [None, "0"])  # Python's default limit, and none
    def test_digit_run_above_the_limit_exit_1_under_every_setting(self, tmp_path, max_str_digits):
        path = tmp_path / "digits.mat"
        path.write_text(f"dims 4 2 2\n1/4 0 0 0\n0 1/4 0 0\n0 0 1/4 0\n0 0 0 1/{'1' * 5000}\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if max_str_digits is not None:
            env["PYTHONINTMAXSTRDIGITS"] = max_str_digits
        done = subprocess.run([sys.executable, "-m", "entlap.cli", "validate", str(path)], env=env,
                              capture_output=True, text=True, timeout=20)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: line 5, column 7: more digits in a row than the limit 4300\n"

    def test_radicand_above_the_limit_exit_1(self, tmp_path):
        # trial division would take seconds to factor this radicand (~5e6 steps), so
        # the CLI runs in a child process that a timeout stops if it does not exit
        path = tmp_path / "radical.mat"
        path.write_text("dims 4 2 2\n1/4 0 0 0\n0 1/4 0 sqrt(100000000000000000039)/4\n0 0 1/4 0\n0 0 0 1/4\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "entlap.cli", "validate", str(path)], env=env,
                              capture_output=True, text=True, timeout=20)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: line 3, column 9: radicand above the limit 1000000000000\n"

    @pytest.mark.parametrize("distinct", [False, True])
    def test_prime_radicands_near_the_limit_parse_in_time(self, tmp_path, distinct):
        # factoring each prime near 10**12 up to its square root took 0.2 s: an 8x8 file of one such
        # radicand (a valid pure state) took 16 s, and a 16x16 file of 256 distinct ones 55 s
        primes = [k for k in range(10**12, 10**12 - 10**4, -1) if _is_prime(k)][:256]
        n, d, q = (16, 4, 16_000_000) if distinct else (8, 2, 8_000_000)
        path = tmp_path / "radicals.mat"
        path.write_text(f"dims {n} {d} {n // d}\n" + "".join(
            " ".join(f"sqrt({primes[i * n + j] if distinct else primes[0]})/{q}" for j in range(n)) + "\n"
            for i in range(n)))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "entlap.cli", "validate", str(path)], env=env,
                              capture_output=True, text=True, timeout=20)
        assert len(primes) == 256 and done.stderr == ""
        if distinct:  # parsed, then rejected: its trace is 1 - 1.8e-9
            assert (done.returncode, done.stdout) == (2, "TraceNotOne (0.999999998203)\n")
        else:
            assert (done.returncode, done.stdout) == (
                0, "VALID dims 2x4 purity 0.999999999989 linear_entropy 1.25715311177e-11 rank 1\n")

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "absent.mat"))
        assert code == 3


class TestClassify:
    def test_corpus_state_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--state", "rho_ab", "--param", "0.25")
        assert code == 0
        assert "oracle: NPT" in out
        assert "THM3_SEP_2x2" in out
        assert "ENTANGLED_NPT" in out

    def test_rho5_scalars(self, capsys):
        code, out, _ = run(capsys, "classify", "--state", "rho5")
        assert code == 0
        assert "COR6_PPT" in out
        assert "half_max_w=0.15" in out
        assert "lambda_min_rho=0.169098300563" in out

    def test_rho2_json_schema(self, capsys):
        code, out, _ = run(capsys, "classify", "--state", "rho2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["state_id", "dims", "oracle", "criteria", "consistency_flags"]
        assert doc["dims"] == {"d1": 2, "d2": 4}
        assert doc["oracle"]["verdict"] == "PPT"
        by_id = {c["id"]: c for c in doc["criteria"]}
        assert by_id["THM5_PPT"]["verdict"] == "PPT"
        assert by_id["THM5_PPT"]["scalars"]["lambda_min_rho"] == pytest.approx(65 / 648, abs=1e-10)

    def test_json_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "classify", "--state", "rho3", "--json")
        _, out2, _ = run(capsys, "classify", "--state", "rho3", "--json")
        assert out1 == out2

    def test_eps_sets_the_band(self, capsys):
        # rho3's margins are all far above 1e-6; a band of 0.1 swallows its lambda_min(rho^TB) = -0.0119
        default = run(capsys, "classify", "--state", "rho3")
        assert default[0] == 0 and "oracle: NPT" in default[1]
        assert run(capsys, "classify", "--state", "rho3", "--eps", "1e-6") == default
        code, out, _ = run(capsys, "classify", "--state", "rho3", "--eps", "0.1")
        assert code == 0 and "oracle: PPT" in out

    def test_unknown_state_exit_3(self, capsys):
        code, _, err = run(capsys, "classify", "--state", "nosuch")
        assert code == 3
        assert "unknown state" in err

    def test_file_input(self, capsys, mixed_file):
        code, out, _ = run(capsys, "classify", mixed_file)
        assert code == 0
        assert "oracle: PPT" in out


def _check_json_report(text, report):
    """`text` is json.dumps(..., indent=2)'s layout of `report`, each scalar at 12 significant digits."""
    doc = json.loads(text)
    assert json.dumps(doc, indent=2) + "\n" == text

    def same(a, b):
        return a == b or (math.isnan(a) and math.isnan(b))

    assert doc["state_id"] == report.state_id
    assert doc["dims"] == {"d1": report.dims.d1, "d2": report.dims.d2}
    assert doc["oracle"]["verdict"] == report.oracle_verdict
    assert same(doc["oracle"]["lambda_min_ptb"], float(f"{report.oracle_lambda_min_ptb:.12g}"))
    assert [(c["id"], c["verdict"], c["caveat"]) for c in doc["criteria"]] == [
        (r.criterion_id.value, r.verdict.value, r.caveat) for r in report.results]
    for c, r in zip(doc["criteria"], report.results):
        assert list(c["scalars"]) == list(r.scalars)
        assert all(same(c["scalars"][k], float(f"{v:.12g}")) for k, v in r.scalars.items())
    assert doc["consistency_flags"] == [f.value for f in report.consistency_flags]
    return doc


def _file_points():
    """The corpus points whose state a matrix file gives: those valid at the
    default tolerance a file is read with (rho_ab at x = 0.283 needs 5e-4)."""
    return [(name, param) for name, param in corpus_points() if get_entry(name).tol == states.DEFAULT_TOL
            or param < get_entry(name).parameter_domain[1]]


class TestMatrixFileExact:
    """A matrix file's Exact entries are built only for a command that prints them."""

    @pytest.mark.parametrize("name, param", _file_points())
    def test_classify_and_validate_build_no_exact(self, capsys, tmp_path, exact_created, name, param):
        path = tmp_path / "state.mat"
        path.write_text(emit(build(name, param)))
        for argv in (("classify", str(path), "--json"), ("validate", str(path))):
            with exact_created() as created:
                code, _, _ = run(capsys, *argv)
            assert code == 0 and created == [], argv

    @pytest.mark.parametrize("name, param", _file_points() + [("rho6", 0.5)])
    def test_laplacian_of_a_file_builds_what_its_corpus_state_builds(self, capsys, tmp_path, exact_created,
                                                                     name, param):
        path = tmp_path / "state.mat"
        path.write_text(emit(build(name, param)))
        args = ("--state", name) + (() if param is None else ("--param", str(param)))
        counts, outs = [], []
        for argv in (("laplacian", str(path)), ("laplacian", *args)):
            with exact_created() as created:
                code, out, _ = run(capsys, *argv)
            assert code == 0
            counts.append(len(created))
            outs.append(out.split("\n", 1)[1])  # less the header comment, which names the source
        # one Exact per distinct token: a file shares what equal corpus slots do not (rho6 at a = 0.01: z = w)
        assert counts[0] <= counts[1] and outs[0] == outs[1]
        if (name, param) == ("rho6", 0.5):
            assert counts == [15, 15]


class TestJsonReport:
    """classify --json writes its report in json.dumps(indent=2)'s layout, one pass over a fixed schema."""

    @pytest.mark.parametrize("name, param", list(corpus_points()))
    def test_corpus_point(self, capsys, name, param):
        argv = ["classify", "--state", name, "--json"] + ([] if param is None else ["--param", repr(param)])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        label = name if param is None else f"{name}({float(param)})"
        _check_json_report(out, classify(build(name, param), DecisionTolerance(), state_id=label))

    def test_corpus_has_empty_and_filled_blocks(self):
        reports = {name: classify(build(name, param), DecisionTolerance()) for name, param in corpus_points()}
        assert reports["rho2"].consistency_flags == () and reports["rho3"].consistency_flags
        for name in ("rho1", "rho2"):
            assert any(not r.scalars for r in reports[name].results)

    def test_dense_8x8_file(self, capsys, tmp_path):
        x, y = np.random.default_rng(24).standard_normal((2, 64, 128))
        a = (x + 1j * y) @ (x + 1j * y).conj().T
        path = tmp_path / "dense8x8.txt"
        path.write_text(emit(a / np.trace(a).real, BipartiteDims(8, 8)))
        code, out, _ = run(capsys, "classify", str(path), "--json")
        assert code == 0
        rho = parse(path.read_text()).validate()
        _check_json_report(out, classify(rho, DecisionTolerance(), state_id=str(path)))

    @pytest.mark.parametrize("name", ['quote"d', "back\\slash", "bell\x07tab\t", "caf\u00e9", os.fsdecode(b"\xff")])
    def test_path_is_escaped_as_json_escapes_it(self, capsys, tmp_path, rho5, name):
        path = tmp_path / name
        path.write_text(emit(rho5))
        code, out, _ = run(capsys, "classify", str(path), "--json")
        assert code == 0
        assert out.isascii()
        doc = _check_json_report(out, classify(rho5, DecisionTolerance(), state_id=str(path)))
        assert doc["state_id"] == str(path)

    def test_non_finite_and_exponent_scalars(self):
        inf = math.inf
        report = ClassificationReport(
            state_id="overflow", dims=BipartiteDims(32, 32), oracle_verdict="NPT", oracle_lambda_min_ptb=-inf,
            results=(CriterionResult(CriterionId.THM1_PURITY, Verdict.MIXED,
                                     {"det": np.float64(inf), "purity": math.nan, "neg": -inf, "tiny": 5e-324,
                                      "small": 1.234567890123456e-7, "large": -1.5e16}),
                     CriterionResult(CriterionId.COR6_PPT, Verdict.PRECONDITION_FAILED, {}, "a \"caveat\"")),
            consistency_flags=(CriterionId.COR6_PPT,))
        text = cli._report_json(report) + "\n"
        _check_json_report(text, report)
        assert '"det": Infinity,' in text and '"purity": NaN,' in text and '"lambda_min_ptb": -Infinity' in text
        assert '"small": 1.23456789012e-07,' in text and '"large": -1.5e+16\n' in text


def _number_oracle(x):
    """A scalar as the writer first spelled it: the repr of the float of its .12g text, or json's name for it."""
    text = repr(float(f"{float(x):.12g}"))
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


class TestNumber:
    """cli._number writes the .12g text itself where it is already the float repr."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=2000)
    def test_finite_floats(self, x):
        assert cli._number(x) == _number_oracle(x)

    @pytest.mark.parametrize("x", [
        0.0, -0.0, 1.0, -1.0, 123.0, -123.456, 0.1, 1 / 3, -2 / 3, 0.1 + 0.2, np.float64(0.1), np.float64(-7.0),
        5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
        1e-4, -1e-4, 9.99999999999e-5, 9.999999999995e-5, 9.9999999999949e-5, 1.00000000000001e-4, 1e-5,
        1e12, -1e12, 999999999999.0, 999999999999.4, 999999999999.5, 1e12 + 1, 1.5e12,
        1e16, -1e16, 9999999999999998.0, 1e16 + 2, 1.23456789012345e16, 1e15, 123456789012345.0,
        math.nan, -math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)])
    def test_edge_cases(self, x):
        assert cli._number(x) == _number_oracle(x)


class TestLaplacian:
    def test_rho2_exact_entries(self, capsys, tmp_path):
        out_path = tmp_path / "lap.mat"
        code, _, _ = run(capsys, "laplacian", "--state", "rho2", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert "-1/81" in text and "2/81" in text
        parsed = parse(text)
        # exact zero row sums for rational input
        from entlap.exact import Exact

        for row in parsed.array:
            assert sum(row, Exact()).is_zero()

    def test_diagonal_state_zero_matrix(self, capsys, mixed_file):
        code, out, _ = run(capsys, "laplacian", mixed_file)
        assert code == 0
        body = [line for line in out.splitlines() if not line.startswith(("#", "dims"))]
        assert all(set(line.split()) == {"0"} for line in body)

    def test_psi_matches_reference_laplacian(self, capsys, psi):
        code, out, _ = run(capsys, "laplacian", "--state", "psi")
        assert code == 0
        parsed = parse(out)
        from entlap.laplacian import laplacian_of_density

        np.testing.assert_allclose(parsed.array.astype(float), laplacian_of_density(psi), atol=1e-11)

    def test_file_hermitian_only_within_tol_prints_a_laplacian(self, capsys, tmp_path):
        # the state averages (1,2) and (2,1); its Laplacian is symmetric with zero row sums
        path = tmp_path / "near.mat"
        path.write_text("dims 4 2 2\n1/4 1/10 0 0\n1000000000001/10000000000000 1/4 0 0\n"
                        "0 0 1/4 0\n0 0 0 1/4\n")
        code, out, _ = run(capsys, "laplacian", str(path))
        assert code == 0
        lap = parse(out).array
        assert (lap == lap.T).all()
        assert all(sum(row, Exact()).is_zero() for row in lap)
        assert lap[0, 1] == Exact.of(Fraction(-1, 10))

    @pytest.mark.parametrize("n, d1", [(8, 2), (16, 4)])
    def test_factors_a_radicand_once(self, capsys, tmp_path, monkeypatch, n, d1):
        # (1/n - c) I + c J with c = sqrt(k)/10**9: its Laplacian's entries all have radicand k,
        # which the file's one distinct token factors; no sum factors it again
        k = 999_999_999_989
        assert _is_prime(k)
        c = f"sqrt({k})/1000000000"
        path = tmp_path / "radicals.mat"
        path.write_text(f"dims {n} {d1} {n // d1}\n" + "".join(
            " ".join(f"1/{n}" if i == j else c for j in range(n)) + "\n" for i in range(n)))
        factored = []
        square_free = exact_module._square_free
        monkeypatch.setattr(exact_module, "_square_free", lambda r: factored.append(r) or square_free(r))
        code, out, _ = run(capsys, "laplacian", str(path))
        assert code == 0 and factored == [k]
        degree = Fraction(n - 1, 10**9)  # each diagonal entry is (n - 1) c
        degree = f"{degree.numerator}*sqrt({k})/{degree.denominator}"
        assert out == f"# laplacian of {path}\ndims {n} {d1} {n // d1}\n" + "".join(
            " ".join(degree if i == j else f"-{c}" for j in range(n)) + "\n" for i in range(n))

    def test_unwritable_out_path_exit_3(self, capsys, tmp_path):
        out_path = tmp_path / "no_such_dir" / "x.txt"
        code, out, err = run(capsys, "laplacian", "--state", "rho3", "--out", str(out_path))
        assert code == 3
        assert err.startswith("error:")
        assert out == ""


class TestGraph:
    def test_rho2_summary_and_dot(self, capsys, tmp_path):
        dot_path = tmp_path / "g.dot"
        code, out, _ = run(capsys, "graph", "--state", "rho2", "--dot", str(dot_path))
        assert code == 0
        assert "disconnected" in out
        dot = dot_path.read_text()
        assert dot.count('label="1/81"') == 4

    def test_rho3_connected_max_w(self, capsys):
        code, out, _ = run(capsys, "graph", "--state", "rho3")
        assert code == 0
        assert "connected" in out and "disconnected" not in out
        assert "max_w 1" in out
        assert out.count("--") == 6  # complete graph on 4 vertices

    def test_rho6_edge_count(self, capsys):
        code, out, _ = run(capsys, "graph", "--state", "rho6", "--param", "0.5")
        assert code == 0
        assert out.count("--") == 9
        assert "connected" in out

    @staticmethod
    def _stats(capsys, tmp_path, *argv):
        """(edges, connected, total degree, max W or None) as `graph` prints them."""
        code, out, _ = run(capsys, "graph", *argv, "--dot", str(tmp_path / "g.dot"))
        assert code == 0
        counts, degree, max_w = out.splitlines()
        _, _, _, edges, conn = counts.split()
        max_w = None if max_w == "max_w undefined (no edges)" else float(max_w.split()[1])
        return int(edges), conn == "connected", float(degree.split()[1]), max_w

    @staticmethod
    def _record(rho):
        max_w = None if math.isnan(rho.max_w) else rho.max_w
        return len(edges(rho.graph)[0]), rho.connected, rho.total_degree, max_w

    @pytest.mark.parametrize("name, param", list(corpus_points()))
    def test_prints_the_states_record(self, capsys, tmp_path, name, param):
        args = ("--state", name) + (() if param is None else ("--param", str(param)))
        assert self._stats(capsys, tmp_path, *args) == pytest.approx(self._record(build(name, param)), rel=1e-11)

    def test_complex_file_prints_the_states_record(self, capsys, tmp_path):
        path = tmp_path / "complex.mat"
        path.write_text("dims 4 2 2\n"
                        "1/4 0.05+0.05i 0 0\n"
                        "0.05-0.05i 1/4 0-0.1i 0\n"
                        "0 0+0.1i 1/4 0.05\n"
                        "0 0 0.05 1/4\n")
        parsed = parse(path.read_text())
        assert parsed.array.dtype == complex
        rho = validate(parsed.array, parsed.dims)
        stats = self._stats(capsys, tmp_path, str(path))
        assert stats == pytest.approx(self._record(rho), rel=1e-11)
        assert stats[:2] == (3, True)

    @staticmethod
    def _kernel_calls(capsys, monkeypatch, *argv):
        """Calls of laplacian_of_density and graph_from_laplacian while `graph` runs argv,
        counted in every entlap module that binds them."""
        calls = Counter()
        for kernel in (laplacian_of_density, graph_from_laplacian):
            def counting(*args, _kernel=kernel):
                calls[_kernel.__name__] += 1
                return _kernel(*args)
            for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "entlap"]:
                if vars(module).get(kernel.__name__) is kernel:
                    monkeypatch.setattr(module, kernel.__name__, counting)
        code, out, _ = run(capsys, "graph", *argv)
        assert code == 0
        return calls, out

    def test_complex_file_builds_one_graph(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "complex.mat"
        path.write_text("dims 4 2 2\n"
                        "1/4 0.05+0.05i 0 0\n"
                        "0.05-0.05i 1/4 0-0.1i 0\n"
                        "0 0+0.1i 1/4 0.05\n"
                        "0 0 0.05 1/4\n")
        calls, out = self._kernel_calls(capsys, monkeypatch, str(path))
        assert out.count("--") == 3
        assert calls == {"laplacian_of_density": 1, "graph_from_laplacian": 1}

    @pytest.mark.parametrize("name, param", list(corpus_points()))
    def test_an_exact_state_builds_one_graph(self, capsys, monkeypatch, name, param):
        # the exact labels are read off the state's exact entries at the float graph's edges
        args = ("--state", name) + (() if param is None else ("--param", str(param)))
        calls, _ = self._kernel_calls(capsys, monkeypatch, *args)
        assert calls == {"laplacian_of_density": 1, "graph_from_laplacian": 1}

    @pytest.mark.parametrize("name, param, slots", [("psi", None, 6), ("rho1", None, 2), ("rho6", 0.5, 4)])
    def test_builds_only_the_states_slot_values(self, capsys, tmp_path, exact_created, name, param, slots):
        args = ("--state", name) + (() if param is None else ("--param", str(param)))
        with exact_created() as created:
            code, _, _ = run(capsys, "graph", *args, "--dot", str(tmp_path / "g.dot"))
        assert code == 0 and len(created) == slots
        rho = build(name, param)
        assert {e for e in rho.exact.flat if e} == set(created)

    def test_makes_no_exact_bool_call(self, capsys, tmp_path, monkeypatch):
        # the DOT writer is handed the float graph's edges, so no Exact entry is
        # tested for being non-zero to find them again
        tested = Counter()
        to_bool = Exact.__bool__
        monkeypatch.setattr(Exact, "__bool__", lambda e: tested.update(["bool"]) or to_bool(e))
        code, out, _ = run(capsys, "graph", "--state", "rho6", "--param", "0.5", "--dot", str(tmp_path / "g.dot"))
        assert code == 0 and out.startswith("vertices 9 edges 9 ")
        assert tested["bool"] == 0

    @pytest.mark.parametrize("name, param", list(corpus_points()))
    def test_exact_dot_is_the_exact_laplacians_graph(self, capsys, tmp_path, name, param):
        args = ("--state", name) + (() if param is None else ("--param", str(param)))
        run(capsys, "graph", *args, "--dot", str(tmp_path / "g.dot"))
        g = graph_from_laplacian(laplacian_of_density(build(name, param).exact))
        want = export_dot(g, edges(g))
        assert (tmp_path / "g.dot").read_text() == want


class TestLongLiterals:
    """Valid files whose exact Laplacian has an entry of 10**4300 or more in a
    numerator or denominator: that entry is printed as its decimal, under every
    int-to-str digit setting."""

    ENTRIES = {"tiny": "1e-5000", "ones": "0." + "1" * 4300}

    @pytest.fixture(params=sorted(ENTRIES))
    def path(self, request, tmp_path):
        entry = self.ENTRIES[request.param]
        path = tmp_path / f"{request.param}.mat"
        path.write_text(f"dims 4 2 2\n1/2 {entry} 0 0\n{entry} 1/2 0 0\n0 0 0 0\n0 0 0 0\n")
        return str(path)

    def test_laplacian_prints_a_file_that_parses(self, capsys, path):
        code, out, err = run(capsys, "laplacian", path)
        assert (code, err) == (0, "")
        want = laplacian_of_density(parse(Path(path).read_text()).validate().array)
        assert parse(out).array.astype(float) == pytest.approx(want, rel=1e-11)  # 12-digit decimals

    def test_graph_exit_0(self, capsys, path):
        code, out, err = run(capsys, "graph", path)
        assert (code, err) == (0, "")
        assert out.startswith("graph G {\n")

    @pytest.mark.parametrize("command", ["laplacian", "graph"])
    def test_output_is_the_same_under_every_setting(self, path, command):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outputs = []
        for max_str_digits in [None, "0"]:  # Python's default limit, and none
            env.pop("PYTHONINTMAXSTRDIGITS", None)
            if max_str_digits is not None:
                env["PYTHONINTMAXSTRDIGITS"] = max_str_digits
            done = subprocess.run([sys.executable, "-m", "entlap.cli", command, path], env=env,
                                  capture_output=True, text=True, timeout=20)
            assert (done.returncode, done.stderr) == (0, ""), max_str_digits
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


class TestSweep:
    def test_family_verdict_flip(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--state", "rho_ab", "--param-name", "x",
                         "--from", "0", "--to", "0.283", "--steps", "284",
                         "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "param,lambda_min_rho,lambda_min_ptb,half_max_w,oracle,thm3,thm5,thm6,cor6"
        assert len(lines) == 285
        rows = {float(line.split(",")[0]): line.split(",") for line in lines[1:]}
        assert rows[0.173][5] == "SEPARABLE"
        assert rows[0.174][5] == "ENTANGLED_NPT"
        assert rows[0.173][4] == "PPT"
        assert rows[0.174][4] == "NPT"

    def test_rho6_margin_columns(self, capsys, tmp_path):
        csv_path = tmp_path / "r6.csv"
        code, _, _ = run(capsys, "sweep", "--state", "rho6", "--param-name", "a",
                         "--from", "0.01", "--to", "1", "--steps", "100",
                         "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()[1:]
        assert len(lines) == 100
        for line in lines:
            cells = line.split(",")
            assert float(cells[1]) > float(cells[3])  # lambda_min above half max W

    def test_two_point_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--state", "rho6", "--param-name", "a",
                           "--from", "0.01", "--to", "1", "--steps", "2")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_grid_ends_exactly_at_upper_bound(self, capsys, tmp_path):
        # a float grid start + k*(stop-start)/(steps-1) ends at 0.28300000000000003
        # here, just outside rho_ab's domain
        csv_path = tmp_path / "ab.csv"
        code, _, _ = run(capsys, "sweep", "--state", "rho_ab", "--param-name", "x",
                         "--from", "0", "--to", "0.283", "--steps", "58", "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()[1:]
        assert len(lines) == 58
        assert lines[-1].split(",")[0] == "0.283"

    def test_usage_errors(self, capsys):
        code, _, _ = run(capsys, "sweep", "--state", "psi", "--param-name", "x",
                         "--from", "0", "--to", "1", "--steps", "5")
        assert code == 3
        code, _, _ = run(capsys, "sweep", "--state", "rho6", "--param-name", "b",
                         "--from", "0.01", "--to", "1", "--steps", "5")
        assert code == 3
        code, _, _ = run(capsys, "sweep", "--state", "rho6", "--param-name", "a",
                         "--from", "0.5", "--to", "0.1", "--steps", "5")
        assert code == 3

    @pytest.mark.parametrize("criterion", ["thm5", "thm6"])
    def test_each_criterion_writes_its_own_column(self, capsys, monkeypatch, criterion):
        # the corpus sweeps give THM5 and THM6 the same verdict on every row, so a
        # stub that moves each row to another outcome of the criterion's table
        # shows which column it writes
        argv = ["sweep", "--state", "rho6", "--param-name", "a", "--from", "0.01", "--to", "1", "--steps", "200"]
        entry = next(entry for entry in cli._SWEPT if entry.column == criterion)

        def moved(rho, eps):
            table, codes, scalars = entry.test(rho, eps)
            return table, (codes + 1) % len(table.outcomes), scalars

        _, before, _ = run(capsys, *argv)
        monkeypatch.setattr(cli, "_SWEPT", tuple(e._replace(test=moved) if e is entry else e for e in cli._SWEPT))
        _, after, _ = run(capsys, *argv)
        before, after = ([row.split(",") for row in out.splitlines()] for out in (before, after))
        column = before[0].index(criterion)
        assert len(after) == len(before) == 201
        for b, a in zip(before[1:], after[1:]):
            assert [i for i, (x, y) in enumerate(zip(b, a)) if x != y] == [column]

    @pytest.mark.parametrize("state, name, stop", [("rho6", "a", "1"), ("rho_ab", "x", "0.283")])
    def test_sweep_builds_no_exact(self, capsys, monkeypatch, exact_created, state, name, stop):
        # no sweep column reads an exact entry, so no grid point builds an Exact or a
        # Fraction, nor converts one to float: the grid and the family's values are
        # int quotients; and the grid is solved as stacks of at most 8192 // n^2
        # states, one kernel call per stack
        calls = Counter()
        for kernel in ("eigvals_sym", "laplacian_of_density", "graph_from_laplacian"):
            monkeypatch.setattr(states, kernel, lambda *a, _k=kernel, _f=getattr(states, kernel):
                                calls.update([_k]) or _f(*a))
        to_float, new = Fraction.__float__, Fraction.__new__
        monkeypatch.setattr(Fraction, "__float__", lambda f: calls.update(["float"]) or to_float(f))
        monkeypatch.setattr(Fraction, "__new__", lambda *a, **k: calls.update(["fraction"]) or new(*a, **k))
        entry = get_entry(state)
        fractions = {}
        for steps in (200, 2000):
            calls.clear()
            with exact_created() as created:
                code, out, _ = run(capsys, "sweep", "--state", state, "--param-name", name,
                                   "--from", "0.01", "--to", stop, "--steps", str(steps))
            assert code == 0 and len(out.splitlines()) == steps + 1
            assert not created
            assert calls["float"] == 0
            fractions[steps] = calls["fraction"]
            stacks = -(-steps // (8192 // entry.dims.n ** 2))
            assert calls["eigvals_sym"] == 5 * stacks  # rho in validate, then rho^TB, L, L + rho^TB and L^TB
            assert calls["laplacian_of_density"] == calls["graph_from_laplacian"] == stacks
        assert fractions[2000] == fractions[200]


class TestGrid:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2, unique=True),
           st.integers(2, 5000))
    @example([0.0, 0.283], 58)
    @example([0.01, 1.0], 200)
    @example([-1e308, 1e308], 5000)
    @example([5e-324, 1e-323], 3)
    def test_int_grid_is_the_fraction_grid(self, ends, steps):
        start, stop = sorted(ends)
        lo, hi = Fraction(start), Fraction(stop)
        want = [float(lo + k * (hi - lo) / (steps - 1)) for k in range(steps)]
        grid = cli._grid(start, stop, steps)
        assert [x.hex() for x in grid] == [x.hex() for x in want]  # bit for bit, the sign of zero too
        assert grid[-1] == stop


def _reference_sweep(state: str, start: str, stop: str, steps: int) -> list[str]:
    """The sweep's CSV rows built point by point: one `build` per grid value and the scalar criteria."""
    tol = DecisionTolerance(1e-9)
    lo, hi = Fraction(float(start)), Fraction(float(stop))
    rows = []
    for k in range(steps):
        value = float(lo + k * (hi - lo) / (steps - 1))
        rho = build(state, value)
        verdict, lam = ppt_oracle(rho, tol)
        half = "" if math.isnan(rho.max_w) else f"{rho.max_w / 2.0:.12g}"
        cells = [f"{value:.12g}", f"{float(rho.spectrum[0]):.12g}", f"{lam:.12g}", half, verdict]
        cells += [check(rho, tol).verdict.value for check in (thm3_separability, thm5_ppt, thm6_ppt, cor6_ppt)]
        rows.append(",".join(cells))
    return rows


def _stacked_sweep(state: str, start: str, stop: str, steps: int) -> list[str]:
    name = get_entry(state).parameter_name
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", "--state", state, "--param-name", name, "--from", start, "--to", stop,
                     "--steps", str(steps)])
    assert code == 0
    return out.getvalue().splitlines()[1:]


@st.composite
def _grids(draw):
    state = draw(st.sampled_from(["rho6", "rho_ab"]))
    lo, hi = get_entry(state).parameter_domain
    ends = draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True))
    return state, repr(min(ends)), repr(max(ends)), draw(st.integers(2, 300))


class TestStackedSweep:
    """Each row of the stacked sweep is the row the point-by-point loop builds."""

    @settings(max_examples=20, deadline=None)
    @given(_grids())
    @example(("rho_ab", "0", "0.283", 2))
    @example(("rho6", "0.01", "1", 250))  # three stacks of at most 101 states
    def test_rows_equal_the_point_by_point_rows(self, grid):
        assert _stacked_sweep(*grid) == _reference_sweep(*grid)

    @pytest.mark.parametrize("grid", [("rho_ab", "0", "0.283", 58), ("rho_ab", "0", "0.283", 1100),
                                      ("rho6", "0.01", "1", 2)])
    def test_explicit_grids(self, grid):
        rows = _stacked_sweep(*grid)
        assert rows == _reference_sweep(*grid)
        assert len(rows) == grid[3]
        if grid[0] == "rho_ab":
            assert rows[-1].split(",")[0] == "0.283"
            first = rows[0].split(",")  # x = 0: no edges, so no max W and COR6 lacks its precondition
            assert first[3] == "" and first[-1] == "PRECONDITION_FAILED"


_REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json").read_text())


@pytest.mark.parametrize("key", [key for key in _REFERENCE["cli"] if key.startswith("sweep ")])
def test_sweep_output_matches_the_benchmark_reference(key):
    # the benchmark checks every sweep's CSV by its digest; so does tier-1, without a benchmark run
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(key.split())
    text = out.getvalue()
    assert code == _REFERENCE["cli"][key]["rc"] and len(text.encode()) == _REFERENCE["cli"][key]["bytes"]
    assert hashlib.sha256(text.encode()).hexdigest() == _REFERENCE["cli"][key]["sha256"]


@pytest.mark.parametrize("argv, code, message", [
    (["classify", "--state", "nosuch"], 3,
     "unknown state 'nosuch'; known: psi, rho1, rho_ab, rho2, rho3, rho5, rho6"),
    (["classify", "--state", "rho6", "--param", "2"], 2, "a = 2.0 outside [0.01, 1.0] for state 'rho6'"),
    (["classify", "--state", "rho6"], 2, "state 'rho6' requires parameter 'a'"),
    (["sweep", "--state", "nosuch", "--param-name", "a", "--from", "0", "--to", "1", "--steps", "2"], 3,
     "unknown state 'nosuch'; known: psi, rho1, rho_ab, rho2, rho3, rho5, rho6"),
    (["sweep", "--state", "rho6", "--param-name", "a", "--from", "0.5", "--to", "2", "--steps", "2"], 2,
     "a = 2.0 outside [0.01, 1.0] for state 'rho6'"),
    (["corpus", "emit", "psi", "--param", "0.5"], 2, "state 'psi' takes no parameter"),
    (["corpus", "emit"], 3, "corpus emit requires a state name"),
])
def test_corpus_errors_exit_code_and_message(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", f"error: {message}\n")


class TestCorpus:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "corpus", "list")
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 7
        assert any("rho_ab" in line and "[0.0, 0.283]" in line for line in lines)
        assert any("rho6" in line and "[0.01, 1.0]" in line for line in lines)

    def test_emit_round_trip(self, capsys, tmp_path):
        path = tmp_path / "rho2.mat"
        code, _, _ = run(capsys, "corpus", "emit", "rho2", "--out", str(path))
        assert code == 0
        reparsed = parse(path.read_text())
        assert np.array_equal(reparsed.array.astype(float), build("rho2").array)
        assert np.array_equal(reparsed.array, build("rho2").exact)

    def test_emit_out_of_domain_exit_2(self, capsys):
        code, _, err = run(capsys, "corpus", "emit", "rho6", "--param", "2")
        assert code == 2
        assert "outside" in err

    def test_emit_unknown_exit_3(self, capsys):
        code, _, _ = run(capsys, "corpus", "emit", "nosuch")
        assert code == 3


class TestBrokenPipe:
    @pytest.mark.parametrize("argv", [
        ("corpus", "list"),
        ("classify", "--state", "rho3", "--json"),
        ("sweep", "--state", "rho6", "--param-name", "a", "--from", "0.01", "--to", "1", "--steps", "200"),
    ])
    def test_a_closed_reader_exits_141_quietly(self, argv):
        # stdout is a pipe whose read end is closed before the command writes: a short
        # output meets it at main's flush, the sweep's (beyond one buffer) at its write
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "entlap.cli", *argv], env=env, stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, "")


_SWEEP = ["sweep", "--state", "rho6", "--param-name", "a", "--from", "0.01", "--to", "1", "--steps", "200"]


@pytest.fixture()
def dispatched():
    """The namespace each command is called with: a fresh parser whose every command records its args."""
    cli.build_parser.cache_clear()
    seen = []
    for command in cli.build_parser().commands.choices.values():
        command.set_defaults(func=lambda args: seen.append(args) or 0)
    yield seen
    cli.build_parser.cache_clear()


def _outcome(capsys, call):
    """Exit code, stdout and stderr of a call that ends in SystemExit, as argparse ends a usage error or help."""
    with pytest.raises(SystemExit) as exc:
        call()
    return (exc.value.code, *capsys.readouterr())


class TestDispatch:
    """main hands argv after a subcommand's name to that subcommand's parser; the result
    is what the full parser's parse_args gives, namespace or usage error alike."""

    @pytest.mark.parametrize("argv", [
        ["validate", "f.mat"], ["validate", "f.mat", "--tol", "0"], ["validate", "--tol=1e-6", "f.mat"],
        ["validate", "--to", "0", "f.mat"], ["validate", "--", "f.mat"], ["validate", "--tol", "0", "--", "-f.mat"],
        ["classify", "--state", "rho3"], ["classify", "--state=rho6", "--param=0.5", "--json"],
        ["classify", "--st", "rho3", "--js"], ["classify", "--eps", "1e-6", "f.mat"], ["classify", "f.mat", "--json"],
        ["classify", "--", "f.mat"], ["classify", "--json", "--", "--odd.mat"], ["classify", "--param", "-1", "f"],
        ["laplacian", "--state", "psi"], ["laplacian", "--state", "rho6", "--param", "0.5", "--out=x.mat"],
        ["laplacian", "--o", "x.mat", "f.mat"],
        ["graph", "--state", "rho3", "--dot", "g.dot"], ["graph", "--d=g.dot", "f.mat"],
        _SWEEP, ["sweep", "--state=rho6", "--param-name=a", "--from=-1", "--to=1", "--steps=3", "--csv=o.csv",
                 "--eps=1e-3"],
        ["sweep", "--sta", "rho6", "--param", "a", "--fr", "-1", "--t", "1", "--ste", "2", "--c", "o.csv"],
        ["corpus", "list"], ["corpus", "emit", "rho6", "--param", "0.5", "--out", "x.mat"],
        ["corpus", "emit", "--", "rho3"], ["corpus", "emit", "rho3", "--o=x.mat"]])
    def test_valid_argv_gives_the_full_parsers_namespace(self, dispatched, argv):
        assert main(list(argv)) == 0
        assert dispatched == [cli.build_parser().parse_args(argv)]

    @pytest.mark.parametrize("argv", [
        ["classify", "--bogus"], ["classify", "--state", "rho3", "f.mat", "extra", "more"],
        ["laplacian", "--bogus=1", "--state", "psi"], ["corpus", "list", "rho3", "extra"],
        ["classify", "--", "f.mat", "extra"],
        ["classify", "--eps", "-1", "--state", "rho3"], ["classify", "--eps", "x"], ["classify", "--eps"],
        ["classify", "--js=1"], ["classify", "-x"], ["validate", "f.mat", "--tol", "nan"],
        ["sweep", "--state", "rho6", "--steps", "two"], ["corpus", "frob"],
        ["validate"], ["sweep", "--state", "rho6"], ["corpus"], ["sweep", "--st", "rho6"],
        ["frobnicate"], ["frobnicate", "--state", "rho3"], ["--state", "rho3"], ["--", "classify"], [],
        ["-h"], ["--help"], ["-h", "classify"], ["classify", "-h"], ["classify", "--h"], ["sweep", "--help"],
        ["classify", "--state", "rho3", "-h"], ["corpus", "emit", "rho3", "--he"]])
    def test_usage_errors_and_help_are_the_full_parsers(self, capsys, argv):
        assert _outcome(capsys, lambda: main(list(argv))) == _outcome(
            capsys, lambda: cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [_SWEEP, ["classify", "--st=rho3", "--", "f.mat"], ["corpus", "list"]])
    def test_sys_argv_when_no_argv_is_given(self, monkeypatch, dispatched, argv):
        monkeypatch.setattr(sys, "argv", ["entlap", *argv])
        assert main() == 0
        assert dispatched == [cli.build_parser().parse_args()]

    @pytest.mark.parametrize("argv", [["classify", "--bogus"], ["classify", "--eps", "-1"], ["bogus"], [],
                                      ["classify", "-h"]])
    def test_sys_argv_usage_errors_and_help(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["entlap", *argv])
        assert _outcome(capsys, main) == _outcome(capsys, cli.build_parser().parse_args)


class TestUsage:
    def test_a_byte_order_mark_is_not_part_of_the_file(self, capsys, monkeypatch, tmp_path):
        # each file is read by the same relative name, so the label classify prints is the same
        text = emit(build("rho6", 0.5))
        outputs = {}
        for folder, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "s.mat").write_bytes(data)
            monkeypatch.chdir(tmp_path / folder)
            outputs[folder] = [run(capsys, *argv) for argv in (("validate", "s.mat"), ("classify", "s.mat"),
                                                                 ("classify", "s.mat", "--json"), ("graph", "s.mat"))]
        assert outputs["bom"] == outputs["plain"]
        assert [code for code, _, _ in outputs["plain"]] == [0] * 4

    def test_one_parser_serves_consecutive_calls(self, capsys, mixed_file):
        calls = [("classify", "--state", "rho3", "--json"),
                 ("classify", "--state", "rho3", "--eps", "-1"),  # argparse usage error
                 ("graph", "--state", "rho6", "--param", "0.5"),
                 ("sweep", "--state", "rho6", "--param-name", "a", "--from", "0.01", "--to", "1", "--steps", "1"),
                 ("validate", mixed_file),
                 ("frobnicate",),
                 ("corpus", "list"),
                 ("classify", "--state", "rho5")]

        def outcome(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        first = []
        for argv in calls:
            cli.build_parser.cache_clear()
            first.append(outcome(argv))
        cli.build_parser.cache_clear()
        assert [outcome(argv) for argv in calls] == first
        assert [code for code, _, _ in first] == [0, 3, 0, 3, 0, 3, 0, 0]

    def test_unknown_subcommand_exit_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 3

    def test_no_input_exit_3(self, capsys):
        code, _, _ = run(capsys, "classify")
        assert code == 3

    @pytest.mark.parametrize("command", ["classify", "laplacian", "graph"])
    @pytest.mark.parametrize("given", [
        ("/nonexistent", "--state", "rho3"),  # neither is read
        ("{file}", "--state", "rho3"),
        ("{file}", "--param", "0.5"),  # --param names a corpus state's parameter
        ("{file}", "--state", "rho6", "--param", "0.5"),
    ], ids=["missing-file-and-state", "file-and-state", "file-and-param", "file-state-and-param"])
    def test_a_file_with_a_corpus_option_exit_3(self, capsys, mixed_file, command, given):
        code, out, err = run(capsys, command, *(arg.format(file=mixed_file) for arg in given))
        assert code == 3 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("given", [("rho3",), ("--param", "0.5"), ("--out", "{out}"),
                                       ("rho3", "--param", "0.5", "--out", "{out}")],
                             ids=["name", "param", "out", "name-param-and-out"])
    def test_corpus_list_takes_no_name_param_or_out_exit_3(self, capsys, tmp_path, given):
        out_path = tmp_path / "x.txt"
        code, out, err = run(capsys, "corpus", "list", *(arg.format(out=out_path) for arg in given))
        assert code == 3 and out == "" and not out_path.exists()
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_tolerance_defaults_are_the_librarys(self):
        parse_args = cli.build_parser().parse_args
        assert parse_args(["validate", "any.mat"]).tol == states.DEFAULT_TOL
        for argv in (["classify", "--state", "rho3"],
                     ["sweep", "--state", "rho6", "--param-name", "a", "--from", "0", "--to", "1", "--steps", "2"]):
            assert parse_args(argv).eps == DecisionTolerance().eps

    def test_zero_tol_is_legal(self, capsys, mixed_file):
        code, out, _ = run(capsys, "validate", mixed_file, "--tol", "0")
        assert code == 0
        assert out.startswith("VALID")

    def test_undecodable_input_exit_3(self, capsys, tmp_path):
        path = tmp_path / "binary.mat"
        path.write_bytes(b"dims 4 2 2\n\xff\xfe\n")
        for command in ("validate", "classify"):
            code, _, err = run(capsys, command, str(path))
            assert code == 3
            assert err.startswith("error:")

    def test_bad_option_values_exit_3(self, capsys):
        for argv in (("classify", "--state", "rho3", "--eps", "-1"),
                     ("validate", "any.mat", "--tol", "nan"),
                     ("validate", "any.mat", "--tol", "-1"),
                     ("classify", "--state", "rho6", "--param", "nan"),
                     ("sweep", "--state", "rho6", "--param-name", "a", "--from", "0.01", "--to", "inf",
                      "--steps", "3")):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 3
            assert "error:" in capsys.readouterr().err

    def test_subsystem_dimension_below_two_exit_1(self, capsys, tmp_path):
        path = tmp_path / "d.mat"
        path.write_text("dims 2 1 2\n1 0\n0 0\n")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1
        assert err.startswith("error: line 1")
