#!/usr/bin/env python3
"""Write the outputs that a byte-identity check compares into one directory.

Usage (from any directory)::

    python3 tools/fingerprint.py OUT

fingerprints the checkout this script lives in.  OUT receives

* ``cli/<experiment>.{csv,stdout,stderr,exit}``: ``adgd-bench run
  --experiment E --seed 0`` with default flags, for each of the six
  experiments;
* ``demos/<script>.stdout``: the standard output of every demo;
* ``bench/<workload>/seed<S>-inst<I>-<optimizer>.csv``: the rendered CSV
  of every benchmark op at seeds 7 and 977, built and run (untimed) with
  ``benchmarks/run.py``'s ``WORKLOADS``, ``instance_seeds``,
  ``Workload.build`` and ``run_op``.

A change keeps every output byte when ``diff -r`` finds no difference
between the OUT of the parent checkout and the OUT of the change.  Every
subprocess runs with BLAS pinned to one thread, as the benchmark is.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_SEEDS = (7, 977)

# Importing benchmarks/run.py pins BLAS threads in the environment before
# numpy loads, for this process and every subprocess; no bytecode is
# written, so nothing under benchmarks/ changes.
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "benchmarks"))
import run as bench  # noqa: E402

from adgd.cli import EXPERIMENTS  # noqa: E402  (run.py put src/ on the path)

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


def cli_outputs(out):
    out.mkdir(parents=True)
    for experiment in EXPERIMENTS:
        result = subprocess.run(
            [sys.executable, "-m", "adgd.cli", "run", "--experiment", experiment,
             "--seed", "0", "--out", f"{experiment}.csv"],
            cwd=out, env=ENV, capture_output=True, text=True,
        )
        (out / f"{experiment}.stdout").write_text(result.stdout)
        (out / f"{experiment}.stderr").write_text(result.stderr)
        (out / f"{experiment}.exit").write_text(f"{result.returncode}\n")


def demo_outputs(out):
    out.mkdir(parents=True)
    for script in sorted((ROOT / "demos").glob("*.py")):
        result = subprocess.run(
            [sys.executable, str(script)], env=ENV, capture_output=True, text=True, check=True
        )
        (out / f"{script.stem}.stdout").write_text(result.stdout)


def bench_outputs(out):
    for workload in bench.WORKLOADS.values():
        wdir = out / workload.name
        wdir.mkdir(parents=True)
        for seed in BENCH_SEEDS:
            for i, inst_seed in enumerate(bench.instance_seeds(workload, seed)):
                manifold, problem = workload.build(inst_seed)
                inst = bench.Instance(inst_seed, manifold, problem, problem.optimum_value, 0.0, 0.0)
                for spec in workload.ops:
                    text = bench.run_op(workload, spec, inst)[2]
                    path = wdir / f"seed{seed}-inst{i}-{spec.optimizer}.csv"
                    path.write_text(text, encoding="utf-8", newline="")


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python3 tools/fingerprint.py OUT")
    out = Path(argv[0])
    if out.exists():
        sys.exit(f"error: {out} already exists")
    cli_outputs(out / "cli")
    demo_outputs(out / "demos")
    bench_outputs(out / "bench")


if __name__ == "__main__":
    main(sys.argv[1:])
