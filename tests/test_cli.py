import json

import numpy as np
import pytest

from entlap.cli import main
from entlap.corpus import build
from entlap.matrixfile import emit, parse


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

    def test_unknown_state_exit_3(self, capsys):
        code, _, err = run(capsys, "classify", "--state", "nosuch")
        assert code == 3
        assert "unknown state" in err

    def test_file_input(self, capsys, mixed_file):
        code, out, _ = run(capsys, "classify", mixed_file)
        assert code == 0
        assert "oracle: PPT" in out


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

        for row in parsed.exact:
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

        np.testing.assert_allclose(parsed.array, laplacian_of_density(psi).array, atol=1e-11)

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
        assert np.array_equal(reparsed.array, build("rho2").array)
        assert np.array_equal(reparsed.exact, build("rho2").exact)

    def test_emit_out_of_domain_exit_2(self, capsys):
        code, _, err = run(capsys, "corpus", "emit", "rho6", "--param", "2")
        assert code == 2
        assert "outside" in err

    def test_emit_unknown_exit_3(self, capsys):
        code, _, _ = run(capsys, "corpus", "emit", "nosuch")
        assert code == 3


class TestUsage:
    def test_unknown_subcommand_exit_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 3

    def test_no_input_exit_3(self, capsys):
        code, _, _ = run(capsys, "classify")
        assert code == 3

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
                     ("graph", "--state", "rho3", "--edge-threshold", "inf"),
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
