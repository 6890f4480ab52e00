"""Golden CLI traces: every (experiment, optimizer) path, compared byte for byte.

Each case runs ``adgd-bench run`` in-process and checks its exit status and
the CSV it writes against ``tests/golden/<case>.csv``.  The goldens pin the
descent loops' arithmetic, stopping rules, abort handling and work
counters, so a refactor of the loops must leave every byte in place.
``test_trace_matches_golden`` is the one test that compares against a
golden's bytes; the invariance tests below compare two runs made under
the same BLAS kernel, so that they hold on any kernel.  Only a change
that deliberately moves the numbers (new problem instances or new
linear-algebra kernels) re-records the goldens, with::

    PYTHONPATH=src python tests/test_golden_traces.py --record
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from adgd.cli import EXPERIMENTS, main
from adgd.manifolds import BuresWasserstein, bures_wasserstein

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

# case -> (exit status, ``run`` flags without --out).  Center-of-mass runs
# pay for a reference solve, so there is one per optimizer.
CASES = {
    "adgd-center-of-mass": (0, "--experiment center-of-mass --n 5 --seed 3 --max-iters 200 --tol 1e-8 --alpha0 0.05"),
    "adgd-rayleigh": (0, "--experiment rayleigh --n 6 --seed 2 --max-iters 200 --tol 1e-8 --alpha0 0.05"),
    "adgd-lyapunov": (0, "--experiment lyapunov --n 5 --seed 1 --max-iters 200 --tol 1e-8 --alpha0 0.1"),
    "adgd-wls-dense-max-iters": (0, "--experiment wls-dense --n 5 --seed 1 --max-iters 40 --tol 1e-8 --alpha0 0.1"),
    "adgd-wls-sparse": (0, "--experiment wls-sparse --n 6 --seed 1 --max-iters 200 --tol 1e-8 --alpha0 0.1"),
    "adgd-orthant-equivalence": (0, "--experiment orthant-equivalence --n 6 --seed 2 --max-iters 200 --tol 1e-8 --alpha0 0.5"),
    "adgd-lyapunov-clamped": (0, "--experiment lyapunov --n 5 --seed 1 --max-iters 200 --tol 1e-8 --alpha0 50"),
    "adgd-lyapunov-max-iters-0": (0, "--experiment lyapunov --n 5 --seed 1 --max-iters 0 --alpha0 50"),
    "adgd-first-ls-rayleigh": (0, "--experiment rayleigh --n 6 --seed 2 --max-iters 200 --tol 1e-8 --alpha0 0.05 --first-ls"),
    "adgd-first-ls-lyapunov": (0, "--experiment lyapunov --n 5 --seed 1 --max-iters 200 --tol 1e-8 --alpha0 0.001 --first-ls"),
    "adgd-orthant-abort": (3, "--experiment orthant-equivalence --n 4 --seed 0 --alpha0 1e9 --max-iters 50"),
    "armijo-center-of-mass": (0, "--experiment center-of-mass --n 5 --seed 3 --max-iters 200 --tol 1e-8 --alpha0 0.05 --optimizer armijo --armijo-lambda 2"),
    "armijo-rayleigh": (0, "--experiment rayleigh --n 6 --seed 2 --max-iters 80 --tol 1e-8 --alpha0 0.05 --optimizer armijo --armijo-lambda 2"),
    "armijo-lyapunov": (0, "--experiment lyapunov --n 5 --seed 1 --max-iters 200 --tol 1e-8 --alpha0 0.1 --optimizer armijo --armijo-lambda 2"),
    "armijo-wls-dense": (0, "--experiment wls-dense --n 5 --seed 1 --max-iters 40 --tol 1e-8 --alpha0 0.1 --optimizer armijo --armijo-lambda 2"),
    "armijo-wls-sparse": (0, "--experiment wls-sparse --n 6 --seed 1 --max-iters 200 --tol 1e-8 --alpha0 0.1 --optimizer armijo --armijo-lambda 2"),
    "fixed-center-of-mass": (0, "--experiment center-of-mass --n 5 --seed 3 --max-iters 200 --tol 1e-8 --optimizer fixed --fixed-alpha 0.05"),
    "fixed-rayleigh": (0, "--experiment rayleigh --n 6 --seed 2 --max-iters 200 --tol 1e-8 --optimizer fixed --fixed-alpha 0.05"),
    "fixed-lyapunov": (0, "--experiment lyapunov --n 5 --seed 1 --max-iters 200 --tol 1e-8 --optimizer fixed --fixed-alpha 0.05"),
    "fixed-wls-dense": (0, "--experiment wls-dense --n 5 --seed 1 --max-iters 40 --tol 1e-8 --optimizer fixed --fixed-alpha 0.05"),
    "fixed-wls-sparse": (0, "--experiment wls-sparse --n 6 --seed 1 --max-iters 60 --tol 1e-8 --optimizer fixed --fixed-alpha 0.05"),
    "fixed-lyapunov-domain-abort": (3, "--experiment lyapunov --n 5 --seed 1 --max-iters 200 --tol 1e-8 --optimizer fixed --fixed-alpha 5"),
}


def run_case(name, out):
    return main(["run", *CASES[name][1].split(), "--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert run_case(name, out) == CASES[name][0]
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize(
    "name",
    sorted(name for name, (_, flags) in CASES.items() if EXPERIMENTS[flags.split()[1]][1] is BuresWasserstein),
)
def test_trace_without_the_norm_fast_paths(name, tmp_path, monkeypatch):
    # A step with ||L||_F <= 1/2 skips two LAPACK certificates; with the
    # bound at -1 every step takes them, and the bytes stay the same.
    base, out = tmp_path / "base.csv", tmp_path / "certified.csv"
    status = run_case(name, base)
    monkeypatch.setattr(bures_wasserstein, "_SMALL_FACTOR_NORM", -1.0)
    assert run_case(name, out) == status
    assert out.read_bytes() == base.read_bytes()


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")

# Seeded 100x100 product: with OpenBLAS threaded, its low bits depend on
# the thread count, so its hash shows whether BLAS ran at one thread.
PRODUCT = (
    "import hashlib, numpy as np; rng = np.random.default_rng(0); "
    "a = rng.standard_normal((100, 100)); b = rng.standard_normal((100, 100)); "
    "print(hashlib.sha256((a @ b.T).tobytes()).hexdigest())"
)


def fresh_python(code, *argv, **blas):
    """Run code with ``argv`` in a new interpreter with only the given BLAS
    variables set; its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.update(blas)
    cmd = [sys.executable, "-c", code, *argv]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# The thread variables ``import adgd`` must beat when OpenBLAS's own count
# is unset: none (OpenBLAS then takes every core), and each one OpenBLAS
# or another BLAS reads in its place.
@pytest.mark.parametrize(
    "blas",
    [{}, {"OMP_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}, {"MKL_NUM_THREADS": "2"}],
    ids=["unset", "omp-2", "goto-2", "mkl-2"],
)
def test_import_pins_blas_to_one_thread(blas):
    pinned = fresh_python(PRODUCT, OPENBLAS_NUM_THREADS="1")
    assert fresh_python("import adgd; " + PRODUCT, **blas) == pinned


def test_trace_independent_of_blas_threads(tmp_path):
    # A whole CLI run large enough for threaded BLAS to move a written
    # byte (n = 5 runs write the same bytes at any thread count): two
    # threads asked through OpenMP's variable, which the pin must win,
    # against an explicit OpenBLAS count of one.
    run = "import sys; from adgd.cli import main; sys.exit(main(sys.argv[1:]))"
    flags = "run --experiment lyapunov --n 100 --max-iters 0 --out".split()
    omp, pinned = tmp_path / "omp.csv", tmp_path / "pinned.csv"
    fresh_python(run, *flags, str(omp), OMP_NUM_THREADS="2")
    fresh_python(run, *flags, str(pinned), OPENBLAS_NUM_THREADS="1")
    assert omp.read_bytes() == pinned.read_bytes()


def test_explicit_blas_thread_count_wins():
    code = "import os, adgd; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    assert fresh_python(code, OPENBLAS_NUM_THREADS="2") == "2 1"


def test_golden_directory_holds_exactly_the_cases():
    # A stale or unrecorded golden would otherwise go unchecked.
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(f"{c}.csv" for c in CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        status = run_case(case, GOLDEN / f"{case}.csv")
        print(f"{case}: exit {status}")
