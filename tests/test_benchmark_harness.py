"""The benchmark harness still runs against the library.

``benchmarks/tracing.py`` patches library functions by name, so a change
that renames or deletes one of them breaks the traced benchmark without
failing any library test.  This runs the harness's own self-test on a
copy of the checkout, so nothing is written under ``benchmarks/``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
