import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from dualframes import cli, sparsity
from dualframes.cli import main
from dualframes.frames import Frame, is_dual
from dualframes.matrixio import read_matrix, write_matrix
from dualframes.sparsity import enumerate_sparsest_duals

from conftest import NEAR_DEPENDENT_FRAMES, rows_off_by, seeded_frames

SPARSE_CSV = "1,-1,0\n1,2,-1\n"
SPECTRAL_CSV = "# field=real\n1.8,-0.24,-0.32\n2.4,0.18,0.24\n"
INT_3X7_CSV = "1,2,3,4,5,6,7\n2,-1,5,3,-4,1,6\n3,1,-2,7,2,-5,4\n"
# columns 0 and 1 are equal: a threshold <= 0 takes them as independent
TWIN_2X3_CSV = "# field=real\n1,1,0\n0,0,1\n"
# m = 2n, so any sigma above the floor is admissible and goes to the build
WIDE_2X4_CSV = "1,0,1,0.5\n0,2,1,-0.5\n"


@pytest.fixture
def sparse_file(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text(SPARSE_CSV)
    return str(path)


@pytest.fixture
def spectral_file(tmp_path):
    path = tmp_path / "spectral.csv"
    path.write_text(SPECTRAL_CSV)
    return str(path)


@pytest.fixture
def wide_file(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(WIDE_2X4_CSV)
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalyze:
    def test_report(self, capsys, sparse_file):
        code, rep = run_json(capsys, ["analyze", sparse_file])
        assert code == 0
        assert rep["schema_version"] == 1
        assert rep["command"] == "analyze"
        r = rep["results"]
        assert (r["n"], r["m"]) == (2, 3)
        assert r["field"] == "rational"
        assert r["dual_set_dimension"] == 2
        assert r["canonical_dual"][0] == ["7/11", "-4/11", "-1/11"]
        assert rep["inputs_digest"]
        assert rep["timing_s"] >= 0

    def test_output_file(self, capsys, sparse_file, tmp_path):
        out = str(tmp_path / "dual.csv")
        code = main(["analyze", sparse_file, "-o", out])
        assert code == 0
        dual = read_matrix(out)
        assert str(dual[0, 0]) == "7/11"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.csv")]) == 2

    def test_rank_deficient(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n2,4\n")
        assert main(["analyze", str(path)]) == 2
        assert "not a frame" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan", "1e999"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_non_finite_entry(self, tmp_path, capsys, field, entry):
        path = tmp_path / "bad.csv"
        path.write_text(f"# field={field}\n1.0,{entry},1.0\n0.0,2.0,1.0\n")
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line 2: non-finite entry in the {field} field" in captured.err


class TestSparsest:
    def test_exact_enumeration(self, capsys, sparse_file):
        code, rep = run_json(
            capsys, ["sparsest", sparse_file, "--all", "--exact"]
        )
        assert code == 0
        r = rep["results"]
        assert r["sparsity"] == 3
        assert r["count"] == 3
        assert not rep["tolerance_dependent"]
        assert [c["spark_j"] for c in r["certificate"]] == [2, 1]

    def test_degenerate_flag(self, capsys, sparse_file, tmp_path):
        code, rep = run_json(capsys, ["sparsest", sparse_file])
        # the reported dual touches every column here
        assert rep["results"]["degenerate"] is False
        assert rep["results"]["zero_columns"] == []
        # a frame with a repeated column: the sparsest dual must drop one
        path = tmp_path / "repeated.csv"
        path.write_text("1,1,0\n0,0,1\n")
        code, rep = run_json(capsys, ["sparsest", str(path)])
        assert rep["results"]["degenerate"] is True

    def test_budget_exit(self, capsys, sparse_file):
        assert main(["sparsest", sparse_file, "--budget", "1"]) == 3

    def test_budget_error_says_how_far(self, capsys, sparse_file):
        # cardinality 1 costs 2 rows x 3 subsets; row 0 is still open at 2
        assert main(["sparsest", sparse_file, "--budget", "8"]) == 3
        err = capsys.readouterr().err
        assert "cardinality 2" in err
        assert "rows [0] still open" in err

    def test_integer_file_takes_exact_path(self, capsys, sparse_file):
        code, rep = run_json(capsys, ["sparsest", sparse_file])
        assert code == 0
        assert rep["tolerance_dependent"] is False
        entries = [x for row in rep["results"]["dual"] for x in row]
        assert all("." not in x for x in entries)
        assert rep["results"]["dual"] == [["2/3", "-1/3", "0"], ["0", "0", "-1"]]

    @pytest.mark.parametrize("budget", ["0", "-5", "abc"])
    def test_budget_must_be_positive(self, capsys, sparse_file, budget):
        with pytest.raises(SystemExit) as exc:
            main(["sparsest", sparse_file, "--budget", budget])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget" in captured.err

    def test_budget_one_is_passed(self, capsys, tmp_path):
        path = tmp_path / "int37.csv"
        path.write_text(INT_3X7_CSV)
        assert main(["sparsest", str(path), "--budget", "1"]) == 3

    def test_near_duplicate_columns(self, capsys, tmp_path):
        # columns 0 and 1 are 4.3e-14 apart; the reported dual must pass
        frame = np.array(NEAR_DEPENDENT_FRAMES[19])
        path, out = str(tmp_path / "f19.csv"), str(tmp_path / "dual.csv")
        write_matrix(frame, path)
        code, rep = run_json(capsys, ["sparsest", path, "-o", out])
        assert code == 0
        assert is_dual(frame, read_matrix(out), 1e-9)[0]
        assert rep["tolerances"]["rank"] == pytest.approx(
            1e-10 * np.linalg.norm(frame))

    def test_exact_dual_skips_check(self, capsys, monkeypatch, sparse_file):
        monkeypatch.setattr(cli, "is_dual", lambda phi, psi, tol: (False, 0.5))
        code, rep = run_json(capsys, ["sparsest", sparse_file])
        assert code == 0
        assert rep["tolerances"]["rank"] is None

    def test_truncated_enumeration(self, capsys, tmp_path):
        path = tmp_path / "int37.csv"
        path.write_text(INT_3X7_CSV)
        code = main(["sparsest", str(path), "--all", "--limit", "5", "--json"])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        assert code == 8
        # 34^3: columns (0, 1, 3) are dependent, so each row has 34 of the
        # C(7, 3) = 35 supports
        assert ("enumeration truncated at limit 5 of 39304 sparsest duals"
                in captured.err)
        r = rep["results"]
        assert r["count"] == 5
        assert r["truncated"] is True
        assert len(r["all_duals"]) == 5
        assert rep["tolerance_dependent"] is False

    @pytest.mark.parametrize("limit", ["-1", "abc"])
    def test_limit_must_be_a_count(self, capsys, sparse_file, limit):
        with pytest.raises(SystemExit) as exc:
            main(["sparsest", sparse_file, "--all", "--limit", limit])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--limit" in captured.err

    def test_limit_zero_reports_no_dual(self, capsys, sparse_file):
        code, rep = run_json(
            capsys, ["sparsest", sparse_file, "--all", "--limit", "0"]
        )
        assert code == 8
        assert rep["results"]["all_duals"] == []
        assert rep["results"]["truncated"] is True

    def test_exact_on_float_input(self, capsys, spectral_file):
        assert main(["sparsest", spectral_file, "--exact"]) == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0", "abc"])
    def test_tol_must_be_finite_positive(self, capsys, tmp_path, tol):
        path = tmp_path / "f.csv"
        path.write_text(TWIN_2X3_CSV)
        with pytest.raises(SystemExit) as exc:
            main(["sparsest", str(path), f"--tol={tol}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_small_tol_is_taken(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(TWIN_2X3_CSV)
        code, rep = run_json(capsys, ["sparsest", str(path), "--tol", "1e-8"])
        assert code == 0
        assert rep["tolerances"]["rank"] == 1e-8

    @pytest.mark.parametrize("kind", ["integer", "rational", "real", "complex"])
    def test_all_duals_formatted_per_row(self, capsys, tmp_path, kind):
        # formatting each candidate row once gives the per-dual formatting
        path = str(tmp_path / "f.csv")
        write_matrix(seeded_frames()[kind].matrix, path)
        code, rep = run_json(capsys, ["sparsest", path, "--all"])
        assert code == 0
        duals = enumerate_sparsest_duals(Frame(read_matrix(path)))
        assert rep["results"]["all_duals"] == [
            cli._matrix_json(d.matrix) for d in duals]
        assert rep["results"]["count"] == len(duals) > 5

    def test_failing_candidate_row_exit(self, capsys, monkeypatch, tmp_path):
        # the sparsest dual's own check is skipped, so exit 9 comes from the
        # enumeration's row certification
        path = str(tmp_path / "f.csv")
        write_matrix(seeded_frames()["real"].matrix, path)
        monkeypatch.setattr(sparsity, "_row_vector", rows_off_by(1e-6))
        monkeypatch.setattr(cli, "_verified_residual", lambda frame, dual: 0.0)
        assert main(["sparsest", path, "--all"]) == 9
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fails its duality check" in captured.err


class TestSpectralCommands:
    def test_tight(self, capsys, spectral_file):
        code, rep = run_json(capsys, ["tight", spectral_file])
        assert code == 0
        r = rep["results"]
        assert r["sigma_psi"] == pytest.approx(2.0, abs=1e-10)
        assert r["frame_bound"] == pytest.approx(4.0, abs=1e-9)
        assert r["duality_residual"] <= 1e-9
        np.testing.assert_allclose(
            r["measured_spectrum"], [2.0, 2.0], atol=1e-9
        )

    def test_tight_infeasible_sigma(self, capsys, spectral_file):
        assert main(["tight", spectral_file, "--sigma", "3.0"]) == 5

    def test_prescribe(self, capsys, spectral_file):
        code, rep = run_json(
            capsys, ["prescribe", spectral_file, "--picks", "1=1"]
        )
        assert code == 0
        np.testing.assert_allclose(
            rep["results"]["measured_spectrum"], [2.0, 1.0], atol=1e-8
        )

    @pytest.mark.parametrize(
        "argv", [["tight"], ["prescribe", "--picks", "1=1"], ["sparsest"]])
    def test_unverified_dual_exit(self, capsys, monkeypatch, spectral_file, argv):
        monkeypatch.setattr(cli, "is_dual", lambda phi, psi, tol: (False, 0.5))
        assert main([argv[0], spectral_file, *argv[1:]]) == 9
        assert "duality residual 5.000e-01" in capsys.readouterr().err

    def test_prescribe_below_floor(self, capsys, spectral_file):
        assert main(["prescribe", spectral_file, "--picks", "2=1"]) == 5

    def test_prescribe_bad_pick(self, capsys, spectral_file):
        assert main(["prescribe", spectral_file, "--picks", "1=x"]) == 6

    def test_feasible(self, capsys, spectral_file):
        code, rep = run_json(
            capsys, ["feasible", spectral_file, "--spectrum", "2,0.1"]
        )
        assert code == 0
        assert rep["results"]["feasible"] is False
        assert rep["results"]["violated"][0]["side"] == "lower"

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_tight_non_finite_sigma(self, capsys, wide_file, sigma):
        assert main(["tight", wide_file, "--sigma", sigma]) == 5
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("pick", ["nan", "inf"])
    def test_prescribe_non_finite_pick(self, capsys, wide_file, pick):
        assert main(["prescribe", wide_file, "--picks", f"1={pick}"]) == 6
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("spectrum", ["nan,1", "inf,1"])
    def test_feasible_non_finite_target(self, capsys, wide_file, spectrum):
        assert main(["feasible", wide_file, "--spectrum", spectrum]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite and positive" in captured.err


class TestTetris:
    def test_plan_and_dual(self, capsys, tmp_path):
        out = str(tmp_path / "stf.csv")
        dual_out = str(tmp_path / "stf_dual.csv")
        code, rep = run_json(capsys, [
            "tetris", "--eigs", "2.5,2.5,2", "--dual",
            "-o", out, "--dual-output", dual_out,
        ])
        assert code == 0
        r = rep["results"]
        assert r["k_hat"] == 3
        assert r["sparsity"] == 3
        frame = read_matrix(out)
        dual = read_matrix(dual_out)
        np.testing.assert_allclose(
            dual @ frame.T, np.eye(3), atol=1e-12
        )

    def test_invalid_spectrum_exit(self, capsys):
        assert main(["tetris", "--eigs", "1.5,2"]) == 7
        assert main(["tetris", "--eigs", "2.5,2.25"]) == 7


def test_random_command(capsys):
    code, rep = run_json(
        capsys, ["random", "-n", "2", "-m", "3", "--trials", "5", "--seed", "1"]
    )
    assert code == 0
    assert rep["results"]["count_sparsity_n2"] == 5
    assert rep["tolerance_dependent"] is True


def test_surface_command(capsys, spectral_file, tmp_path):
    out = str(tmp_path / "surface.csv")
    code, rep = run_json(capsys, [
        "surface", spectral_file, "--range=-1,1", "--step", "0.5",
        "-o", out,
    ])
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "s1,s2,lambda1,lambda2"
    assert len(lines) == 1 + 25
    assert rep["results"]["rows"] == 25


def test_surface_failed_write_leaves_no_temp_file(
    capsys, monkeypatch, spectral_file, tmp_path
):
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    out = str(out_dir / "surface.csv")
    assert main(["surface", spectral_file, "--range=-1,1", "--step", "0.5",
                 "-o", out]) == 10
    assert f"cannot write {out}: rename failed" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("argv, code", [
    (["feasible", "FRAME", "--spectrum", "1,abc"], 6),
    (["tetris", "--eigs", "2.5,x"], 7),
    (["surface", "FRAME", "--range", "a,b"], 6),
    (["surface", "FRAME", "--range", "1"], 6),
    (["generate", "vandermonde", "--xs", "1,q", "--ys", "1,2"], 6),
])
def test_malformed_number_list_exit(
    capsys, monkeypatch, spectral_file, tmp_path, argv, code
):
    monkeypatch.chdir(tmp_path)
    assert main([spectral_file if a == "FRAME" else a for a in argv]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.glob("*.csv")) == [tmp_path / "spectral.csv"]


@pytest.mark.parametrize("argv, named", [
    (["generate", "vandermonde", "--ys", "1,2"], "--xs"),
    (["generate", "dft"], "-n and -m"),
    (["generate", "gaussian", "-n", "2"], "-m"),
    (["surface", "FRAME", "--step", "0"], "step"),
    (["surface", "FRAME", "--step=-0.5"], "step"),
    (["surface", "FRAME", "--step", "nan"], "step"),
    (["surface", "FRAME", "--range=1,-1"], "range"),
])
def test_bad_argument_exit(capsys, monkeypatch, spectral_file, tmp_path,
                           argv, named):
    monkeypatch.chdir(tmp_path)
    assert main([spectral_file if a == "FRAME" else a for a in argv]) == 6
    assert named in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == [tmp_path / "spectral.csv"]


@pytest.mark.parametrize("argv, named", [
    (["surface", "FRAME35"], "2x3"),
    (["generate", "dft", "-n", "5", "-m", "3"], "m >= n"),
    (["generate", "vandermonde", "--xs", "1,1", "--ys", "1"], "distinct"),
    (["generate", "gabor", "-n", "0"], "nonzero"),
    (["random", "-n", "0", "-m", "3"], "0 < n <= m"),
])
def test_unusable_shape_exit(capsys, monkeypatch, tmp_path, argv, named):
    monkeypatch.chdir(tmp_path)
    frame35 = tmp_path / "f35.csv"
    frame35.write_text("# field=real\n1,0,0,1,2\n0,1,0,1,3\n0,0,1,1,4\n")
    assert main([str(frame35) if a == "FRAME35" else a for a in argv]) == 6
    assert named in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == [frame35]


def test_negative_gabor_size_exit(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "gabor", "-n", "-1"]) == 6
    assert "-1" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("trials", ["-1", "0", "abc"])
def test_trials_must_be_positive(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["random", "-n", "2", "-m", "3", "--trials", trials])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials" in captured.err


@pytest.mark.parametrize("argv", [
    ["random", "-n", "2", "-m", "3", "--trials", "1"],
    ["generate", "gaussian", "-n", "2", "-m", "3"],
], ids=["random", "generate"])
@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_seed_must_be_non_negative(capsys, monkeypatch, tmp_path, argv, seed):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err
    assert list(tmp_path.iterdir()) == []


class TestIOErrors:
    def test_unwritable_output_names_requested_path(
        self, capsys, sparse_file, tmp_path
    ):
        out = str(tmp_path / "missing_dir" / "x.csv")
        assert main(["analyze", sparse_file, "-o", out]) == 10
        err = capsys.readouterr().err
        assert f"cannot write {out}:" in err
        assert ".tmp" not in err

    def test_directory_input(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path)]) == 2
        assert f"cannot read {tmp_path}:" in capsys.readouterr().err

    def test_binary_input(self, capsys, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"1,2\n\xff\xfe,3\n")
        assert main(["analyze", str(path)]) == 2
        assert f"cannot read {path}:" in capsys.readouterr().err


class TestTightSummary:
    def test_nonzero_entries_only(self, capsys, spectral_file):
        assert main(["tight", spectral_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        # sigma = (3, 1/2) and sigma_psi = 2: only s_11 = sqrt(4 - 1/9) != 0
        assert re.fullmatch(
            r"s block: 2x1, nonzero \(row, col, value\): \(0, 0, 1\.972\d*\)",
            lines[1],
        )

    def test_zero_block(self, capsys, tmp_path):
        path = tmp_path / "parseval.csv"
        path.write_text("# field=real\n1,0,0\n0,1,0\n")
        assert main(["tight", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "s block: 2x1, nonzero (row, col, value): none"
        )


class TestGenerate:
    def test_vandermonde(self, capsys, tmp_path):
        out = str(tmp_path / "v.csv")
        code = main([
            "generate", "vandermonde", "--xs", "1,2,3,4", "--ys", "1,2",
            "-o", out,
        ])
        assert code == 0
        assert read_matrix(out).shape == (2, 4)

    def test_dft(self, capsys, tmp_path):
        out = str(tmp_path / "d.csv")
        assert main(["generate", "dft", "-n", "2", "-m", "5", "-o", out]) == 0
        mat = read_matrix(out)
        assert mat.dtype == complex
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12)

    def test_gaussian_seeded(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["generate", "gaussian", "-n", "2", "-m", "4", "--seed", "9",
              "-o", a])
        main(["generate", "gaussian", "-n", "2", "-m", "4", "--seed", "9",
              "-o", b])
        np.testing.assert_array_equal(read_matrix(a), read_matrix(b))


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


ENVELOPE_KEYS = ["schema_version", "command", "args", "inputs_digest",
                 "results", "tolerances", "tolerance_dependent", "timing_s"]


# (argv, reads FRAME, tolerance_dependent, first summary line's prefix)
@pytest.mark.parametrize("argv, reads, dependent, summary", [
    (["analyze", "FRAME"], True, False, "frame: n=2 m=3"),
    (["sparsest", "FRAME"], True, True, "sparsity: "),
    (["sparsest", "EXACT", "--all"], True, False, "sparsity: 3"),
    (["tight", "FRAME"], True, False, "tight dual with sigma_psi"),
    (["prescribe", "FRAME", "--picks", "1=1"], True, False,
     "measured spectrum: "),
    (["feasible", "FRAME", "--spectrum", "2,0.1"], True, False,
     "feasible=false"),
    (["tetris", "--eigs", "2.5,2.5,2"], False, False, "tetris frame 3x"),
    (["random", "-n", "2", "-m", "3", "--trials", "2"], False, True,
     "2/2 trials"),
    (["surface", "FRAME", "--step", "1"], True, False, "wrote 49 rows"),
    (["generate", "dft", "-n", "2", "-m", "3"], False, False,
     "wrote 2x3 frame"),
], ids=["analyze", "sparsest-float", "sparsest-exact", "tight", "prescribe",
        "feasible", "tetris", "random", "surface", "generate"])
class TestReportEnvelope:
    def _argv(self, argv, spectral_file, sparse_file):
        names = {"FRAME": spectral_file, "EXACT": sparse_file}
        return [names.get(a, a) for a in argv]

    def test_json(self, capsys, monkeypatch, tmp_path, spectral_file,
                  sparse_file, argv, reads, dependent, summary):
        monkeypatch.chdir(tmp_path)
        argv = self._argv(argv, spectral_file, sparse_file)
        code, rep = run_json(capsys, argv)
        assert code == 0
        assert list(rep) == ENVELOPE_KEYS
        assert rep["schema_version"] == 1
        assert rep["command"] == argv[0]
        assert rep["args"]["subcommand"] == argv[0]
        path = argv[1] if reads else None
        assert rep["inputs_digest"] == (
            hashlib.sha256(Path(path).read_bytes()).hexdigest()
            if path else None)
        assert rep["tolerance_dependent"] is dependent
        assert isinstance(rep["tolerances"], dict)
        assert rep["timing_s"] >= 0

    def test_text(self, capsys, monkeypatch, tmp_path, spectral_file,
                  sparse_file, argv, reads, dependent, summary):
        monkeypatch.chdir(tmp_path)
        assert main(self._argv(argv, spectral_file, sparse_file)) == 0
        out = capsys.readouterr().out
        assert out.startswith(summary)
        assert "{" not in out and "schema_version" not in out


class TestOverflowingValues:
    @pytest.mark.parametrize("sigma", ["1e308", "1e200"])
    def test_tight_sigma_without_finite_square(self, capsys, wide_file, sigma):
        assert main(["tight", wide_file, "--sigma", sigma]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has no finite square" in captured.err

    def test_prescribe_pick_without_finite_square(self, capsys, wide_file):
        assert main(["prescribe", wide_file, "--picks", "1=1e200"]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has no finite square" in captured.err

    def test_built_dual_below_its_threshold(self, capsys, wide_file):
        # singular values about 1e12 and 0.69: the input is a frame, the
        # built dual is none at 1e-10 of its own norm
        assert main(["prescribe", wide_file, "--picks", "1=1e12"]) == 9
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "built dual" in captured.err
        assert "not a frame:" not in captured.err


class TestPickIndices:
    def test_repeated_index(self, capsys, wide_file):
        assert main(["prescribe", wide_file, "--picks", "1=2,1=3"]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pick index 1 given twice" in captured.err

    @pytest.mark.parametrize("index", ["0", "3", "-2"])
    def test_index_outside_range_is_named_one_based(
        self, capsys, wide_file, index
    ):
        assert main(["prescribe", wide_file, f"--picks={index}=2"]) == 6
        assert (f"pick index {index} outside [1, 2]"
                in capsys.readouterr().err)

    def test_distinct_indices_are_kept(self, capsys, wide_file):
        code, rep = run_json(
            capsys, ["prescribe", wide_file, "--picks", "2=3,1=2"])
        assert code == 0
        assert rep["results"]["requested"] == {"1": 2.0, "2": 3.0}
