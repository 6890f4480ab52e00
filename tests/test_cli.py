import csv
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from adgd import linalg, problems, trace_io
from adgd.cli import EXPERIMENTS, main
from adgd.errors import DomainError
from adgd.manifolds import Euclidean
from adgd.optimizers import STATUS_ABORTED, RunConfig, Trace, TraceRow, adgd_run

from conftest import bits

GOLDEN = Path(__file__).parent / "golden"

HEADER = "k,phi,grad_norm,alpha,theta,ell,fn_evals,exp_evals,expensive_ops,dist_to_opt,clamped"


def run_cli(*argv):
    return main(list(argv))


RAYLEIGH = "experiment = rayleigh\nn = 5\nseed = 9\nmax-iters = 15\n"
RAYLEIGH_FLAGS = "--experiment rayleigh --n 5 --seed 9 --max-iters 15"

# case -> (config text, flags given next to --config, the flags alone that
# write the same bytes)
CONFIG_EQUIVALENCE = {
    "flags": (RAYLEIGH + "alpha0 = 0.05\n", "", RAYLEIGH_FLAGS + " --alpha0 0.05"),
    "true-boolean": (RAYLEIGH + "first-ls = yes\n", "", RAYLEIGH_FLAGS + " --first-ls"),
    # A false boolean adds no flag.
    **{
        f"false-boolean-{word}": (RAYLEIGH + f"first-ls = {word}\n", "", RAYLEIGH_FLAGS)
        for word in ("no", "0", "False")
    },
    "blank-and-comment-lines": (
        "# a comment\n\nexperiment = rayleigh\n   \nn = 4\n", "--max-iters 5", "--experiment rayleigh --n 4 --max-iters 5"
    ),
    "explicit-flag-beats-config-file": (RAYLEIGH, "--seed 4", "--experiment rayleigh --n 5 --seed 4 --max-iters 15"),
}


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
        assert a.read_bytes() == b.read_bytes()

    def test_unix_line_endings_and_constant_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("run", "--experiment", "center-of-mass", "--n", "6", "--seed", "5",
                "--max-iters", "30", "--alpha0", "0.05", "--out", str(out))
        raw = out.read_bytes()
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
        meta, trace, _ = trace_io.read_trace(out)
        assert meta["optimizer"] == "armijo"
        assert trace.status != STATUS_ABORTED and trace.message == ""
        assert run_cli("run", "--experiment", "rayleigh", "--n", "6", "--seed", "2",
                       "--optimizer", "fixed", "--fixed-alpha", "0.05",
                       "--max-iters", "30", "--out", str(out)) == 0

    def test_numerical_abort_exit_code_and_marker(self, tmp_path):
        out = tmp_path / "abort.csv"
        code = run_cli("run", "--experiment", "orthant-equivalence", "--n", "4",
                       "--seed", "0", "--alpha0", "1e9", "--max-iters", "50",
                       "--out", str(out))
        assert code == 3
        meta, trace, _ = trace_io.read_trace(out)
        assert meta["status"] == "aborted"
        assert trace.status == STATUS_ABORTED and trace.message
        lines = out.read_text().splitlines()
        assert len(lines[-1].split(",")) == len(lines[1].split(","))

    def test_seed_changes_trace(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("run", "--experiment", "rayleigh", "--n", "6", "--seed", "1",
                "--max-iters", "20", "--out", str(a))
        run_cli("run", "--experiment", "rayleigh", "--n", "6", "--seed", "2",
                "--max-iters", "20", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ("--experiment", "rayleigh", "--n", "5", "--alpha0", "1e300"),
            ("--experiment", "center-of-mass", "--optimizer", "fixed", "--fixed-alpha", "1e300"),
            ("--experiment", "center-of-mass", "--alpha0", "1e300", "--first-ls"),
            ("--experiment", "rayleigh", "--n", "5", "--optimizer", "armijo", "--alpha0", "1e300"),
        ],
        ids=["adgd", "fixed", "first-ls", "armijo"],
    )
    def test_overflowing_sphere_step_exits_3_with_a_trace(self, tmp_path, capsys, argv):
        out = tmp_path / "overflow.csv"
        assert run_cli("run", *argv, "--out", str(out)) == 3
        # ||alpha0 g_0||^2 overflows, so the first exponential cannot be taken.
        message = "sphere step norm overflowed (||v|| = inf)"
        assert capsys.readouterr().err == f"run aborted: {message}\n"
        meta, trace, _ = trace_io.read_trace(out)
        assert meta["status"] == trace.status == STATUS_ABORTED
        assert trace.message == message and trace.rows == []

    def test_eigensolver_cap_exits_4_without_a_trace(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 0)
        out = tmp_path / "cap.csv"
        code = run_cli("run", "--experiment", "lyapunov", "--n", "3", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: Jacobi eigensolver did not converge in 0 sweeps")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("case", CONFIG_EQUIVALENCE)
    def test_config_file_equivalent_to_flags(self, tmp_path, case):
        text, extra, flags = CONFIG_EQUIVALENCE[case]
        cfg, a, b = tmp_path / "run.cfg", tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text(text)
        assert run_cli("run", "--config", str(cfg), *extra.split(), "--out", str(a)) == 0
        assert run_cli("run", *flags.split(), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


def _usage_error(capsys, *argv):
    """``main(argv)``'s stderr, once it has exited 2, by returning 2 or by
    argparse's ``SystemExit(2)``, and written nothing to ``x.csv``, the one
    output path the usage tests name."""
    capsys.readouterr()
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not Path("x.csv").exists()
    return capsys.readouterr().err


OUT = ("--out", "x.csv")

# case -> (``adgd-bench`` argv, or the text of a ``run.cfg`` that ``run
# --config run.cfg --out x.csv`` reads; a fragment of the error on stderr)
USAGE_ERRORS = {
    "fixed-requires-alpha": (
        ("run", "--experiment", "rayleigh", "--optimizer", "fixed", *OUT),
        "error: --fixed-alpha is required with --optimizer fixed",
    ),
    "fixed-alpha-only-with-fixed": (
        ("run", "--experiment", "rayleigh", "--fixed-alpha", "0.1", *OUT),
        "error: --fixed-alpha only applies to --optimizer fixed",
    ),
    **{
        f"{flag[2:]}-not-with-{optimizer}": (
            ("run", "--experiment", "rayleigh", "--optimizer", optimizer, *flags, *OUT),
            f"error: {flag} only applies to --optimizer {applies}",
        )
        for optimizer, flags, flag, applies in [
            ("armijo", ("--first-ls",), "--first-ls", "adgd"),
            ("adgd", ("--armijo-c", "0.1"), "--armijo-c", "armijo"),
            ("fixed", ("--fixed-alpha", "0.05", "--armijo-beta", "0.5"), "--armijo-beta", "armijo"),
            ("adgd", ("--armijo-lambda", "3"), "--armijo-lambda", "armijo"),
            ("fixed", ("--fixed-alpha", "0.05", "--alpha0", "7"), "--alpha0", "adgd or armijo"),
        ]
    },
    "config-first-ls-not-with-armijo": (
        "experiment = rayleigh\noptimizer = armijo\nfirst-ls = yes\n",
        "error: --first-ls only applies to --optimizer adgd",
    ),
    "orthant-equivalence-rejects-armijo": (
        ("run", "--experiment", "orthant-equivalence", "--optimizer", "armijo", *OUT),
        "error: orthant-equivalence supports only --optimizer adgd",
    ),
    "missing-out": (("run", "--experiment", "rayleigh"), "error: --out is required (flag or config file)"),
    "missing-experiment": (("run", *OUT), "error: --experiment is required (flag or config file)"),
    "negative-seed": (
        ("run", "--experiment", "rayleigh", "--seed", "-1", *OUT),
        "error: argument --seed: must be at least 0, got -1",
    ),
    **{
        f"n-{word}-{experiment}": (
            ("run", "--experiment", experiment, "--n", n, "--max-iters", "3", *OUT),
            f"error: argument --n: must be at least 1, got {n}",
        )
        for experiment in sorted(EXPERIMENTS)
        for word, n in (("zero", "0"), ("negative", "-2"))
    },
    **{
        name: (("run", "--experiment", "center-of-mass", *flags, *OUT), message)
        for name, flags, message in [
            ("fixed-alpha-nan", ("--optimizer", "fixed", "--fixed-alpha", "nan"),
             "error: fixed step size must be finite and nonnegative"),
            ("fixed-alpha-inf", ("--optimizer", "fixed", "--fixed-alpha", "inf"),
             "error: fixed step size must be finite and nonnegative"),
            ("alpha0-inf", ("--alpha0", "inf"), "error: alpha0 must be positive and finite"),
            ("armijo-lambda-inf", ("--optimizer", "armijo", "--armijo-lambda", "inf"),
             "error: armijo_lambda must be finite and >= 1"),
        ]
    },
    "config-unknown-key": ("experiment = rayleigh\nconfig = other.cfg\n", "error: unknown config key 'config'"),
    "config-line-without-equals": (
        "experiment = rayleigh\nfirst-ls\n",
        "error: run.cfg:2: expected key=value, got 'first-ls'",
    ),
    "config-misspelt-boolean": (
        "experiment = rayleigh\nfirst-ls = ture\n",
        "error: config key 'first_ls': expected 1/true/yes or 0/false/no, got 'ture'",
    ),
    "compare-needs-two-traces": (("compare", "one.csv"), "error: compare needs at least two trace files"),
    "bad-subcommand": (("frobnicate",), "error: argument command: invalid choice: 'frobnicate'"),
}


class TestUsageErrors:
    @pytest.fixture(autouse=True)
    def _in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("case", USAGE_ERRORS)
    def test_exits_2_without_a_trace(self, capsys, case):
        argv, fragment = USAGE_ERRORS[case]
        if isinstance(argv, str):
            Path("run.cfg").write_text(argv)
            argv = ("run", "--config", "run.cfg", *OUT)
        assert fragment in _usage_error(capsys, *argv)

    @pytest.mark.parametrize(
        "key,flag,value",
        [("optimizer", "--optimizer", "bogus"), ("n", "--n", "abc"), ("n", "--n", "0")],
    )
    def test_config_file_error_is_the_flag_error(self, capsys, key, flag, value):
        Path("run.cfg").write_text(f"experiment = rayleigh\n{key} = {value}\n")
        errors = [
            _usage_error(capsys, "run", *argv, *OUT).splitlines()[-1]
            for argv in (("--config", "run.cfg"), ("--experiment", "rayleigh", flag, value))
        ]
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"adgd-bench run: error: argument {flag}: ")


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

    def test_empty_trace_rejected(self, tmp_path, capsys):
        a, b = self._two_traces(tmp_path)
        b.write_text("".join(b.read_text().splitlines(keepends=True)[:2]))
        assert run_cli("compare", str(a), str(b)) == 2
        assert f"{b}: empty trace" in capsys.readouterr().err

    def test_unknown_optimum_measures_gap_from_best_phi(self, tmp_path, capsys):
        # Without phi_star in the metadata the gap is taken from the lowest
        # phi over all traces, so the better trace's final gap is zero.
        a, b = self._two_traces(tmp_path)
        finals = []
        for path in (a, b):
            text = path.read_text()
            path.write_text(re.sub(r" phi_star=\S+ ", " phi_star=- ", text, count=1))
            meta, trace, _ = trace_io.read_trace(path)
            assert meta["phi_star"] is None
            finals.append(trace.rows[-1].phi)
        assert run_cli("compare", str(a), str(b)) == 0
        gaps = [float(line.split()[3]) for line in capsys.readouterr().out.splitlines()[2:]]
        assert len(gaps) == 2
        assert min(gaps) == 0.0
        assert max(gaps) == pytest.approx(abs(finals[0] - finals[1]), rel=1e-6)

    def test_trace_without_a_step_prints_nan_step_statistics(self, tmp_path, capsys):
        a, b = tmp_path / "adgd.csv", tmp_path / "armijo.csv"
        base = ("--experiment", "rayleigh", "--n", "4", "--seed", "0", "--max-iters", "0")
        assert run_cli("run", *base, "--out", str(a)) == 0
        assert run_cli("run", *base, "--optimizer", "armijo", "--out", str(b)) == 0
        assert run_cli("compare", str(a), str(b)) == 0
        armijo_line = capsys.readouterr().out.splitlines()[-1]
        assert armijo_line.startswith("armijo(1)")
        assert armijo_line.split()[4:7] == ["nan", "nan", "nan"]


# ``compare``'s stdout on golden traces, recorded before it read through
# ``Trace``; the lyapunov set holds an aborted run and a max-iters 0 run.
COMPARE_GOLDEN_STDOUT = {
    ("adgd-lyapunov", "armijo-lyapunov", "fixed-lyapunov", "fixed-lyapunov-domain-abort",
     "adgd-lyapunov-clamped", "adgd-lyapunov-max-iters-0"): """\
experiment=lyapunov n=5 seed=1
optimizer   iters  expensive     final_gap     alpha_min     alpha_med     alpha_max    status
adgd           22        135  8.881784e-16  6.261451e-02  1.210652e-01  1.727234e-01 converged
armijo(2)      18        141  4.440892e-16  1.000000e-01  1.000000e-01  2.000000e-01 converged
fixed          64        387  8.881784e-16  5.000000e-02  5.000000e-02  5.000000e-02 converged
fixed          14         89  4.740134e+01  1.703665e-03  1.249253e-01  5.000000e+00   aborted
adgd           26        159  2.220446e-15  8.718889e-02  1.394303e-01  3.397406e-01 converged
adgd            0          3  2.723422e+00  5.000000e+01  5.000000e+01  5.000000e+01 max-iters
""",
    ("adgd-rayleigh", "armijo-rayleigh", "fixed-rayleigh"): """\
experiment=rayleigh n=6 seed=2
optimizer   iters  expensive     final_gap     alpha_min     alpha_med     alpha_max    status
adgd           31         96 -8.881784e-16  5.000000e-02  1.583290e-01  2.755397e-01 converged
armijo(2)      80        320  5.636495e-08  5.000000e-02  2.000000e-01  2.000000e-01 max-iters
fixed         140        423 -4.440892e-16  5.000000e-02  5.000000e-02  5.000000e-02 converged
""",
}


@pytest.mark.parametrize("names", COMPARE_GOLDEN_STDOUT, ids=lambda names: names[0])
def test_compare_stdout_on_goldens(names, capsys):
    assert run_cli("compare", *(str(GOLDEN / f"{name}.csv") for name in names)) == 0
    assert capsys.readouterr().out == COMPARE_GOLDEN_STDOUT[names]


class TestMalformedTrace:
    """``read_trace`` rejects a file that breaks the format contract with a
    ``ValueError`` naming it, and ``compare`` exits 2."""

    def _check(self, tmp_path, capsys, text, fragment=""):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        assert run_cli("run", "--experiment", "rayleigh", "--n", "4", "--seed", "0",
                       "--max-iters", "5", "--out", str(good)) == 0
        bad.write_text(text(good.read_text()))
        with pytest.raises(ValueError, match=re.escape(f"{bad}{fragment}")):
            trace_io.read_trace(bad)
        capsys.readouterr()
        assert run_cli("compare", str(good), str(bad)) == 2
        assert str(bad) in capsys.readouterr().err

    def test_missing_metadata_line(self, tmp_path, capsys):
        self._check(tmp_path, capsys, lambda text: text.split("\n", 1)[1], ": missing metadata line")

    def test_metadata_line_only(self, tmp_path, capsys):
        self._check(tmp_path, capsys, lambda text: text.splitlines(keepends=True)[0])

    def test_metadata_key_missing(self, tmp_path, capsys):
        self._check(tmp_path, capsys, lambda text: text.replace("# experiment=rayleigh ", "# "))

    def test_truncated_last_row(self, tmp_path, capsys):
        self._check(tmp_path, capsys, lambda text: text.rstrip("\n").rsplit(",", 3)[0] + "\n")

    def test_wrong_field_count(self, tmp_path, capsys):
        self._check(tmp_path, capsys, lambda text: text.replace("\n2,", "\n2,abc,", 1),
                    ":5: 12 fields where the header has 11")

    def test_non_numeric_field(self, tmp_path, capsys):
        # Row k = 2 is line 5; its phi field becomes a word.
        self._check(tmp_path, capsys, lambda text: re.sub(r"\n2,[^,]*,", "\n2,abc,", text, count=1),
                    ":5: could not convert string to float: 'abc'")

    def test_empty_phi(self, tmp_path, capsys):
        # Only dist_to_opt may be empty: the other floats are never None.
        self._check(tmp_path, capsys, lambda text: re.sub(r"\n2,[^,]*,", "\n2,,", text, count=1),
                    ":5: could not convert string to float: ''")

    def test_unknown_extra_column(self, tmp_path, capsys):
        self._check(tmp_path, capsys, lambda text: re.sub(r"\n(\S*)", r"\n\1,0", text),
                    ": missing or malformed header row")


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("run", "--experiment", "lyapunov", "--n", "5", "--seed", "2",
                "--max-iters", "20", "--out", str(out))
        meta, trace, deviations = trace_io.read_trace(out)
        rows = trace.rows
        assert trace.status != STATUS_ABORTED and trace.message == ""
        assert trace.status == meta["status"] and trace.points == []
        assert deviations is None
        assert meta["experiment"] == "lyapunov"
        assert rows[0].k == 0
        assert isinstance(rows[0].phi, float)
        assert isinstance(rows[0].fn_evals, int) and isinstance(rows[0].clamped, bool)
        assert rows[0].dist_to_opt is not None
        k_values = [r.k for r in rows]
        assert k_values == list(range(len(rows)))

    def test_deviation_count_must_match_rows(self):
        trace = Trace(rows=[], points=[], status="converged")
        with pytest.raises(ValueError, match="one deviation value per trace row"):
            trace_io.render_trace(trace, {}, deviations=[0.0])

    def test_float_rendering_is_lossless(self, tmp_path):
        # Every float field, the deviation column and the metadata's
        # phi_star read back bit for bit, signed zero included.
        values = [0.1, 1.0 / 3.0, 1e-300, 123456.789e12, np.pi, *TestRenderAgainstCsvWriter.EDGE]
        rows = [
            TraceRow(k=k, phi=v, grad_norm=v, alpha=v, theta=v, ell=v, fn_evals=k, exp_evals=k,
                     expensive_ops=k, dist_to_opt=v, clamped=False)
            for k, v in enumerate(values)
        ]
        out = tmp_path / "t.csv"
        for v in values:
            trace_io.write_trace(out, Trace(rows, [], "converged"), {"phi_star": v}, values)
            meta, trace, deviations = trace_io.read_trace(out)
            assert bits(float(meta["phi_star"])) == bits(v)
        assert bits(deviations) == bits(values)
        assert bits(trace.rows) == bits(rows)
        for r in trace.rows:
            assert all(type(x) is float for x in (r.phi, r.grad_norm, r.alpha, r.theta, r.ell, r.dist_to_opt))

    def test_aborted_trace_reads_back_aborted(self, tmp_path):
        row = TraceRow(k=0, phi=1.0, grad_norm=2.0, alpha=0.5, theta=0.0, ell=0.0, fn_evals=1,
                       exp_evals=1, expensive_ops=3, dist_to_opt=None, clamped=True)
        out = tmp_path / "t.csv"
        message = 'domain error, "pivot 4" at x, y'
        # No status in the metadata: the error marker alone says aborted.
        trace_io.write_trace(out, Trace([row], [], STATUS_ABORTED, message), {})
        meta, trace, deviations = trace_io.read_trace(out)
        assert meta["status"] is None
        assert trace == Trace([row], [], STATUS_ABORTED, message.replace(",", ";"))
        assert deviations is None

    def test_abort_message_with_line_breaks_stays_one_marker_row(self, tmp_path):
        calls = []

        def value(x):
            calls.append(1)
            if len(calls) == 4:
                raise DomainError('a\nb "q", c\r\nd')
            return 0.5 * float(x @ x)

        problem = problems.Problem(value, lambda x: x.copy(), np.ones(3))
        run = adgd_run(RunConfig(max_iters=10, alpha0=0.1), Euclidean(), problem)
        assert run.status == STATUS_ABORTED and len(run.rows) == 3
        out = tmp_path / "t.csv"
        trace_io.write_trace(out, run, {})
        data = out.read_bytes()
        assert b"\r" not in data and data.count(b"\n") == 2 + len(run.rows) + 1
        _, trace, _ = trace_io.read_trace(out)
        assert trace == Trace(run.rows, [], STATUS_ABORTED, 'a b "q"; c d')

    def test_golden_abort_reads_back_aborted(self):
        meta, trace, _ = trace_io.read_trace(GOLDEN / "fixed-lyapunov-domain-abort.csv")
        assert meta["status"] == trace.status == STATUS_ABORTED
        assert trace.message == "matrix is not positive definite (pivot 4)"
        assert len(trace.rows) == 15

    def test_round_trip_with_deviation_column(self, tmp_path):
        out = tmp_path / "eq.csv"
        run_cli("run", "--experiment", "orthant-equivalence", "--n", "6", "--seed", "2",
                "--max-iters", "40", "--alpha0", "0.5", "--out", str(out))
        meta, trace, deviations = trace_io.read_trace(out)
        assert trace.status != STATUS_ABORTED and trace.message == ""
        assert len(deviations) == len(trace.rows)
        assert all(isinstance(d, float) for d in deviations)
        assert max(deviations) <= 1e-8


def _csv_writer_reference(trace, meta, deviations=None):
    """The csv.writer rendering that ``render_trace`` replaced; its byte oracle."""

    def fmt(x):
        return format(float(x), ".17g")

    buf = io.StringIO()
    buf.write(trace_io._meta_line(meta) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    header = trace_io.HEADER + ([] if deviations is None else ["deviation"])
    writer.writerow(header)
    for i, r in enumerate(trace.rows):
        fields = [
            str(r.k), fmt(r.phi), fmt(r.grad_norm), fmt(r.alpha), fmt(r.theta), fmt(r.ell),
            str(r.fn_evals), str(r.exp_evals), str(r.expensive_ops),
            "" if r.dist_to_opt is None else fmt(r.dist_to_opt), str(int(r.clamped)),
        ]
        if deviations is not None:
            fields.append(fmt(deviations[i]))
        writer.writerow(fields)
    if trace.status == "aborted":
        marker = [str(len(trace.rows)), "error", trace.message.replace(",", ";")]
        writer.writerow(marker + [""] * (len(header) - len(marker)))
    return buf.getvalue()


class TestRenderAgainstCsvWriter:
    EDGE = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456.789e12)

    def rows(self):
        out = []
        for k, x in enumerate(self.EDGE):
            out.append(TraceRow(
                k=k, phi=x, grad_norm=np.float64(abs(x)), alpha=-x, theta=x * 0.5, ell=x,
                fn_evals=k + 1, exp_evals=k, expensive_ops=3 * k,
                dist_to_opt=None if k % 3 == 0 else x, clamped=k % 2 == 1,
            ))
        # Where a % conversion could part from an f-string's: an infinite
        # theta and ell (a normal number over a subnormal one overflows),
        # numpy counters and flag, a count past 2**63 and a float k.
        for sign in (1.0, -1.0):
            k = len(out)
            out.append(TraceRow(
                k=float(k) if sign < 0 else k, phi=0.5, grad_norm=0.25, alpha=0.125,
                theta=sign * math.inf, ell=-sign * math.inf,
                fn_evals=np.int64(k + 1), exp_evals=np.int64(k), expensive_ops=2**64 + k,
                dist_to_opt=None if sign < 0 else 0.5, clamped=np.bool_(sign > 0),
            ))
        return out

    @pytest.mark.parametrize("with_deviation", [False, True])
    @pytest.mark.parametrize("status, message", [
        ("converged", ""),
        ("aborted", 'domain error, "pivot 4" at x, y'),
        ("aborted", 'say "hi"'),
    ])
    def test_byte_equal(self, with_deviation, status, message):
        rows = self.rows()
        trace = Trace(rows=rows, points=[], status=status, message=message)
        meta = {"experiment": "rayleigh", "n": 3, "tol": 1e-8, "phi_star": -0.0, "status": status}
        edge = self.EDGE[::-1] + (math.inf, -math.inf)
        deviations = [np.float64(x) for x in edge] if with_deviation else None
        text = trace_io.render_trace(trace, meta, deviations)
        assert text == _csv_writer_reference(trace, meta, deviations)
        assert ",-0," in text and "4.9406564584124654e-324" in text
        assert "1.7976931348623157e+308" in text
        lines = text.splitlines()[2 + len(self.EDGE):][:2]
        assert lines[0].startswith(f"{len(self.EDGE)},0.5,0.25,0.125,inf,-inf,")
        assert lines[1].startswith(f"{len(self.EDGE) + 1}.0,0.5,0.25,0.125,-inf,inf,")
        assert f",{2**64 + len(self.EDGE)},0.5,1" in lines[0] and f",{2**64 + len(self.EDGE) + 1},,0" in lines[1]
        if status == "aborted":
            assert text.splitlines()[-1].startswith(f'{len(rows)},error,"')

    def test_empty_aborted_trace(self):
        trace = Trace(rows=[], points=[], status="aborted", message="a, b")
        assert trace_io.render_trace(trace, {}) == _csv_writer_reference(trace, {})


class TestCompareMissingMetadata:
    """A metadata value that ``compare`` prints, written as ``-``, is a
    usage error naming the file."""

    @pytest.mark.parametrize(
        "optimizer, key",
        [("adgd", key) for key in ("experiment", "n", "seed", "optimizer", "status")]
        + [("armijo", "armijo_lambda")],
    )
    def test_exits_2_naming_the_file(self, tmp_path, capsys, optimizer, key):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        base = ("run", "--experiment", "rayleigh", "--n", "4", "--seed", "0", "--max-iters", "5")
        assert run_cli(*base, "--out", str(good)) == 0
        assert run_cli(*base, "--optimizer", optimizer, "--out", str(bad)) == 0
        text = bad.read_text()
        bad.write_text(re.sub(rf" {key}=\S+", f" {key}=-", text, count=1))
        capsys.readouterr()
        assert run_cli("compare", str(good), str(bad)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: metadata has no {key} value\n"

    def test_error_marker_supplies_a_missing_status(self, tmp_path, capsys):
        names = ("fixed-lyapunov", "fixed-lyapunov-domain-abort")
        paths = [tmp_path / f"{name}.csv" for name in names]
        for name, path in zip(names, paths):
            path.write_text((GOLDEN / f"{name}.csv").read_text())
        paths[1].write_text(re.sub(r" status=\S+", " status=-", paths[1].read_text(), count=1))
        assert run_cli("compare", *map(str, paths)) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(" aborted")
