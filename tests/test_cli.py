import numpy as np
import pytest

from adgd import trace_io
from adgd.cli import EXPERIMENTS, main

HEADER = "k,phi,grad_norm,alpha,theta,ell,fn_evals,exp_evals,expensive_ops,dist_to_opt,clamped"


def run_cli(*argv):
    return main(list(argv))


def read_bytes(path):
    return path.read_bytes()


class TestRun:
    def test_single_iteration_row_accounting(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "run", "--experiment", "rayleigh", "--n", "4", "--seed", "7",
            "--max-iters", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# experiment=rayleigh")
        assert lines[1] == HEADER
        assert len(lines) == 4  # meta + header + rows k=0,1
        assert lines[2].split(",")[0] == "0"
        assert lines[3].split(",")[0] == "1"

    def test_deterministic_bytes(self, tmp_path):
        args = ("run", "--experiment", "lyapunov", "--n", "6", "--seed", "3",
                "--max-iters", "40", "--alpha0", "0.1")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_seed_changes_trace(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("run", "--experiment", "rayleigh", "--n", "6", "--seed", "1",
                "--max-iters", "20", "--out", str(a))
        run_cli("run", "--experiment", "rayleigh", "--n", "6", "--seed", "2",
                "--max-iters", "20", "--out", str(b))
        assert read_bytes(a) != read_bytes(b)

    def test_unix_line_endings_and_constant_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("run", "--experiment", "center-of-mass", "--n", "6", "--seed", "5",
                "--max-iters", "30", "--alpha0", "0.05", "--out", str(out))
        raw = read_bytes(out)
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        widths = {len(line.split(",")) for line in lines[1:]}
        assert widths == {len(HEADER.split(","))}
        for line in lines[2:]:
            for field in line.split(","):
                if field:
                    assert np.isfinite(float(field))

    def test_orthant_equivalence_deviation_column(self, tmp_path):
        out = tmp_path / "eq.csv"
        code = run_cli("run", "--experiment", "orthant-equivalence", "--n", "10",
                       "--seed", "3", "--max-iters", "100", "--tol", "0",
                       "--alpha0", "0.5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].endswith(",deviation")
        deviations = [float(line.split(",")[-1]) for line in lines[2:]]
        assert max(deviations) <= 1e-8

    def test_armijo_and_fixed_paths(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run_cli("run", "--experiment", "rayleigh", "--n", "6", "--seed", "2",
                       "--optimizer", "armijo", "--armijo-lambda", "2",
                       "--max-iters", "30", "--alpha0", "0.05", "--out", str(out)) == 0
        meta, rows, error = trace_io.read_trace(out)
        assert meta["optimizer"] == "armijo"
        assert error is None
        assert run_cli("run", "--experiment", "rayleigh", "--n", "6", "--seed", "2",
                       "--optimizer", "fixed", "--fixed-alpha", "0.05",
                       "--max-iters", "30", "--out", str(out)) == 0

    def test_numerical_abort_exit_code_and_marker(self, tmp_path):
        out = tmp_path / "abort.csv"
        code = run_cli("run", "--experiment", "orthant-equivalence", "--n", "4",
                       "--seed", "0", "--alpha0", "1e9", "--max-iters", "50",
                       "--out", str(out))
        assert code == 3
        meta, rows, error = trace_io.read_trace(out)
        assert meta["status"] == "aborted"
        assert error is not None
        lines = out.read_text().splitlines()
        assert len(lines[-1].split(",")) == len(lines[1].split(","))

    def test_config_file_equivalent_to_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "experiment = rayleigh\nn = 5\nseed = 9\nmax-iters = 15\nalpha0 = 0.05\n"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("run", "--config", str(cfg), "--out", str(a)) == 0
        assert run_cli("run", "--experiment", "rayleigh", "--n", "5", "--seed", "9",
                       "--max-iters", "15", "--alpha0", "0.05", "--out", str(b)) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_config_file_store_true_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = rayleigh\nn = 5\nseed = 9\nmax-iters = 15\nfirst-ls = yes\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("run", "--config", str(cfg), "--out", str(a)) == 0
        assert run_cli("run", "--experiment", "rayleigh", "--n", "5", "--seed", "9",
                       "--max-iters", "15", "--first-ls", "--out", str(b)) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_explicit_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = rayleigh\nn = 5\nseed = 9\nmax-iters = 15\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("run", "--config", str(cfg), "--seed", "4", "--out", str(a)) == 0
        assert run_cli("run", "--experiment", "rayleigh", "--n", "5", "--seed", "4",
                       "--max-iters", "15", "--out", str(b)) == 0
        assert read_bytes(a) == read_bytes(b)


class TestUsageErrors:
    def test_fixed_requires_alpha(self, tmp_path):
        code = run_cli("run", "--experiment", "rayleigh", "--optimizer", "fixed",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_fixed_alpha_only_with_fixed(self, tmp_path):
        code = run_cli("run", "--experiment", "rayleigh", "--fixed-alpha", "0.1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_orthant_equivalence_rejects_armijo(self, tmp_path):
        code = run_cli("run", "--experiment", "orthant-equivalence",
                       "--optimizer", "armijo", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_config_file_invalid_choice(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = rayleigh\noptimizer = bogus\n")
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert err.value.code == 2

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = rayleigh\nconfig = other.cfg\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2

    def test_missing_out(self):
        assert run_cli("run", "--experiment", "rayleigh") == 2

    def test_compare_needs_two_traces(self, tmp_path):
        out = tmp_path / "one.csv"
        run_cli("run", "--experiment", "rayleigh", "--n", "4", "--seed", "0",
                "--max-iters", "5", "--out", str(out))
        assert run_cli("compare", str(out)) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--optimizer", "fixed", "--fixed-alpha", "nan"),
            ("--optimizer", "fixed", "--fixed-alpha", "inf"),
            ("--alpha0", "inf"),
            ("--optimizer", "armijo", "--armijo-lambda", "inf"),
        ],
        ids=["fixed-alpha-nan", "fixed-alpha-inf", "alpha0-inf", "armijo-lambda-inf"],
    )
    def test_non_finite_step_size(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        code = run_cli("run", "--experiment", "center-of-mass", *flags, "--out", str(out))
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_rejects_misspelt_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = rayleigh\nfirst-ls = ture\n")
        out = tmp_path / "x.csv"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
        assert "'ture'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-2"])
    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_n_below_one(self, tmp_path, capsys, experiment, n):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--experiment", experiment, "--n", n, "--max-iters", "3",
                    "--out", str(out))
        assert err.value.code == 2
        assert f"argument --n: must be at least 1, got {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--experiment", "rayleigh", "--seed", "-1", "--out", str(out))
        assert err.value.code == 2
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,flag,value",
        [("optimizer", "--optimizer", "bogus"), ("n", "--n", "abc"), ("n", "--n", "0")],
    )
    def test_config_file_error_is_the_flag_error(self, tmp_path, capsys, key, flag, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"experiment = rayleigh\n{key} = {value}\n")
        out = tmp_path / "x.csv"
        errors = []
        for argv in (("--config", str(cfg)), ("--experiment", "rayleigh", flag, value)):
            with pytest.raises(SystemExit) as err:
                run_cli("run", *argv, "--out", str(out))
            assert err.value.code == 2
            errors.append(capsys.readouterr().err.splitlines()[-1])
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"adgd-bench run: error: argument {flag}: ")
        assert not out.exists()

    def test_bad_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


class TestCompare:
    def _two_traces(self, tmp_path):
        a, b = tmp_path / "adgd.csv", tmp_path / "armijo.csv"
        base = ("--experiment", "rayleigh", "--n", "8", "--seed", "4",
                "--max-iters", "50", "--alpha0", "0.05")
        run_cli("run", *base, "--out", str(a))
        run_cli("run", *base, "--optimizer", "armijo", "--armijo-lambda", "1",
                "--out", str(b))
        return a, b

    def test_summary_lists_both_optimizers(self, tmp_path, capsys):
        a, b = self._two_traces(tmp_path)
        assert run_cli("compare", str(a), str(b)) == 0
        output = capsys.readouterr().out
        assert "adgd" in output
        assert "armijo(1)" in output
        assert output.startswith("experiment=rayleigh n=8 seed=4")

    def test_identical_specs_identical_lines(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ("run", "--experiment", "lyapunov", "--n", "5", "--seed", "1",
                "--max-iters", "25", "--alpha0", "0.1")
        run_cli(*base, "--out", str(a))
        run_cli(*base, "--out", str(b))
        run_cli("compare", str(a), str(b))
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == lines[-2]

    def test_mismatched_instances_rejected(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("run", "--experiment", "rayleigh", "--n", "4", "--seed", "0",
                "--max-iters", "5", "--out", str(a))
        run_cli("run", "--experiment", "rayleigh", "--n", "4", "--seed", "1",
                "--max-iters", "5", "--out", str(b))
        assert run_cli("compare", str(a), str(b)) == 2

    def test_fixed_step_comparison_converges(self, tmp_path, capsys):
        from adgd import linalg, problems

        prob = problems.rayleigh(8, 4)
        w = linalg.sym_eig(prob.extras["A"]).eigenvalues
        alpha = 1.0 / (2.0 * max(abs(w[0]), abs(w[-1])))
        a, b = tmp_path / "adgd.csv", tmp_path / "fixed.csv"
        base = ("--experiment", "rayleigh", "--n", "8", "--seed", "4",
                "--max-iters", "400", "--tol", "1e-9")
        assert run_cli("run", *base, "--alpha0", "0.05", "--out", str(a)) == 0
        assert run_cli("run", *base, "--optimizer", "fixed", "--fixed-alpha",
                       str(alpha), "--out", str(b)) == 0
        meta_a, _, _ = trace_io.read_trace(a)
        meta_b, _, _ = trace_io.read_trace(b)
        assert meta_a["status"] == "converged"
        assert meta_b["status"] == "converged"
        assert run_cli("compare", str(a), str(b)) == 0
        assert "fixed" in capsys.readouterr().out

    def test_trace_without_a_step_prints_nan_step_statistics(self, tmp_path, capsys):
        a, b = tmp_path / "adgd.csv", tmp_path / "armijo.csv"
        base = ("--experiment", "rayleigh", "--n", "4", "--seed", "0", "--max-iters", "0")
        assert run_cli("run", *base, "--out", str(a)) == 0
        assert run_cli("run", *base, "--optimizer", "armijo", "--out", str(b)) == 0
        assert run_cli("compare", str(a), str(b)) == 0
        armijo_line = capsys.readouterr().out.splitlines()[-1]
        assert armijo_line.startswith("armijo(1)")
        assert armijo_line.split()[4:7] == ["nan", "nan", "nan"]


class TestMalformedTrace:
    """``read_trace`` rejects a file that breaks the format contract with a
    ``ValueError`` naming it, and ``compare`` exits 2."""

    def _check(self, tmp_path, capsys, text):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        assert run_cli("run", "--experiment", "rayleigh", "--n", "4", "--seed", "0",
                       "--max-iters", "5", "--out", str(good)) == 0
        bad.write_text(text(good.read_text()))
        with pytest.raises(ValueError, match=str(bad)):
            trace_io.read_trace(bad)
        capsys.readouterr()
        assert run_cli("compare", str(good), str(bad)) == 2
        assert str(bad) in capsys.readouterr().err

    def test_metadata_line_only(self, tmp_path, capsys):
        self._check(tmp_path, capsys, lambda text: text.splitlines(keepends=True)[0])

    def test_metadata_key_missing(self, tmp_path, capsys):
        self._check(tmp_path, capsys, lambda text: text.replace("# experiment=rayleigh ", "# "))

    def test_truncated_last_row(self, tmp_path, capsys):
        self._check(tmp_path, capsys, lambda text: text.rstrip("\n").rsplit(",", 3)[0] + "\n")

    def test_non_numeric_field(self, tmp_path, capsys):
        self._check(tmp_path, capsys, lambda text: text.replace("\n2,", "\n2,abc,", 1))


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("run", "--experiment", "lyapunov", "--n", "5", "--seed", "2",
                "--max-iters", "20", "--out", str(out))
        meta, rows, error = trace_io.read_trace(out)
        assert error is None
        assert meta["experiment"] == "lyapunov"
        assert rows[0]["k"] == 0
        assert isinstance(rows[0]["phi"], float)
        assert rows[0]["dist_to_opt"] is not None
        k_values = [r["k"] for r in rows]
        assert k_values == list(range(len(rows)))

    def test_float_rendering_is_lossless(self):
        values = [0.1, 1.0 / 3.0, 1e-300, 123456.789e12, np.pi]
        for v in values:
            assert float(trace_io.fmt(v)) == v

    def test_round_trip_with_deviation_column(self, tmp_path):
        out = tmp_path / "eq.csv"
        run_cli("run", "--experiment", "orthant-equivalence", "--n", "6", "--seed", "2",
                "--max-iters", "40", "--alpha0", "0.5", "--out", str(out))
        meta, rows, error = trace_io.read_trace(out)
        assert error is None
        assert all(isinstance(r["deviation"], float) for r in rows)
        assert max(r["deviation"] for r in rows) <= 1e-8
