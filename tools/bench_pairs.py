#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent commit against this checkout.

Usage (from any directory)::

    python3 tools/bench_pairs.py PARENT --first-seed 1811 \
        --claim sphere-com adgd.op_s.p50 --out BENCH.json

exports the commit PARENT (``git archive``) into one temporary directory
and copies the files git tracks in this checkout, as its working tree
stands (uncommitted edits included), into another, so that neither side
runs from the checkout itself.  Both directories are removed however the
tool exits.  A file git does not track yet is not copied: ``git add`` it
first.  The tool then runs the command of ``BENCHMARK.json`` with
``--trace 0`` and its ``run_seconds`` in both trees: 10 pairs, pair ``i``
on workload seed ``FIRST_SEED + i``, and per pair one run of every
workload on each side.  The parent goes first in even pairs, the change
in odd ones.

The JSON written to ``--out`` (or printed) holds, per workload and
end-to-end metric of ``BENCHMARK.json``, both sides' runs, medians and
quartiles (``statistics.quantiles(n=4, method="inclusive")``), the change's
wins (better than the parent in the same pair, in the metric's ``better``
direction), ``vs_parent_iqr`` (``"better"`` or ``"worse"`` when the change
median differs from the parent's by more than the parent's ``q3 - q1`` in
that direction, else ``"inside"``), each side's median of the
uncalibrated value the run prints on its ``raw NAME VALUE UNIT`` line
(``raw_median``; the calibrated times are scaled by the benchmark's
calibration kernel, so this checks a gain against wall-clock time) and
the failed and attempted op counts.
With ``--claim WORKLOAD METRIC`` it also reports whether that metric's
gain is resolved: at least 9 of the 10 pairs won, ``vs_parent_iqr``
``"better"``, and no more failed ops than the parent's on that workload;
it exits 1 when it is not.  ``regressions`` lists every workload and
metric whose change median is worse than the parent median by more than
the metric's ``BENCHMARK.json`` ``bound``, relative to the parent median
and in its ``better`` direction: the rule a no-regression check applies.
The parent's IQR is no such rule, as two runs of the same two trees can
drift apart by more than it (``BENCH_aa_b02acd0.json`` ran a tree against
itself), so ``vs_parent_iqr`` says only where a median lies.  The exit
code does not depend on ``regressions``.

Byte identity (``tools/fingerprint.py``) and the test suite's timings are
separate commands.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
WINS_NEEDED = 9  # of the PAIRS pairs, for a claimed gain


def pair_order(index):
    """The sides in the order pair ``index`` runs them."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize_metric(spec, parent, change):
    """Summary of one end-to-end metric over paired runs; ``spec`` is its
    ``BENCHMARK.json`` entry, ``parent[i]`` and ``change[i]`` pair ``i``."""
    if len(parent) != len(change):
        raise ValueError("one parent run per change run required")
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(sign * (pv - cv) > 0 for pv, cv in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (p["median"] - c["median"])  # > 0 when the change is better
    iqr = p["q3"] - p["q1"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "runs": {"parent": list(parent), "change": list(change)},
        "change_over_parent_median": c["median"] / p["median"] if p["median"] else None,
        "change_wins": f"{wins}/{len(parent)}",
        "vs_parent_iqr": "better" if gain > iqr else "worse" if -gain > iqr else "inside",
    }


def raw_medians(results, name):
    """``{side: median}`` of metric ``name``'s uncalibrated values, or None
    when a run printed none."""
    try:
        return {side: statistics.median(r["raw"][name] for r in results[side]) for side in SIDES}
    except KeyError:
        return None


def summarize_workload(specs, seeds, results):
    """``results[side]`` is the list of parsed ``benchmarks/run.py`` results
    (:func:`parse_output`), one per pair, in pair order."""
    return {
        "pairs": len(seeds),
        "seeds": list(seeds),
        "failed_ops": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "metrics": {
            spec["name"]: {
                **summarize_metric(spec, *([r["metrics"][spec["name"]]["value"]
                                            for r in results[side]] for side in SIDES)),
                "raw_median": raw_medians(results, spec["name"]),
            }
            for spec in specs
        },
    }


def claim_verdict(summary, workload, metric):
    """``{workload, metric, wins, pairs, vs_parent_iqr, failed_ops, met}``:
    ``met`` when the change won at least ``WINS_NEEDED`` of ``PAIRS`` pairs,
    its median is better than the parent's by more than the parent's
    interquartile range, and it failed no more ops than the parent."""
    data = summary[workload]
    m = data["metrics"][metric]
    wins, pairs = map(int, m["change_wins"].split("/"))
    failed = data["failed_ops"]
    return {"workload": workload, "metric": metric, "wins": wins, "pairs": pairs,
            "vs_parent_iqr": m["vs_parent_iqr"], "failed_ops": failed,
            "met": (wins >= WINS_NEEDED and m["vs_parent_iqr"] == "better"
                    and failed["change"] <= failed["parent"])}


def regressions(summary):
    """``[{workload, metric}, ...]`` for every end-to-end metric whose
    change median is worse than the parent median by more than its
    ``bound`` times the parent median, in the summary's order."""
    def worse(m):
        sign = 1.0 if m["better"] == "lower" else -1.0
        loss = sign * (m["change"]["median"] - m["parent"]["median"])
        return loss > m["bound"] * abs(m["parent"]["median"])

    return [{"workload": workload, "metric": name}
            for workload, data in summary.items()
            for name, m in data["metrics"].items() if worse(m)]


def parse_output(stdout):
    """``(environment, result)`` from ``benchmarks/run.py``'s output: its
    ``env {...}`` line and its last line, plus, when it printed any, its
    ``raw NAME VALUE UNIT`` lines as ``result["raw"] = {NAME: VALUE}``."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    result = json.loads(lines[-1])
    raw = {name: float(value) for _, name, value, _ in
           (line.split() for line in lines if line.startswith("raw "))}
    if raw:
        result["raw"] = raw
    return env, result


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha, dest):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_checkout(root, dest):
    """Copy the files git tracks in the checkout at ``root`` into ``dest``
    as they stand in its working tree; a tracked file deleted from the
    working tree is left out."""
    names = subprocess.run(["git", "-C", str(root), "ls-files", "-z"], check=True,
                           capture_output=True).stdout.split(b"\0")
    for name in filter(None, map(os.fsdecode, names)):
        source = Path(root) / name
        if source.is_file():
            target = Path(dest) / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


@contextlib.contextmanager
def side_roots(parent_sha):
    """``{side: root}``: the commit ``parent_sha`` exported and this
    checkout copied (:func:`copy_checkout`), each into its own temporary
    directory; both are removed however the block exits."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-parent-") as parent, \
            tempfile.TemporaryDirectory(prefix="bench-pairs-change-") as change:
        export(parent_sha, parent)
        copy_checkout(ROOT, change)
        yield {"parent": Path(parent), "change": Path(change)}


def run_benchmark(command, root, workload, seed, seconds):
    result = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True,
    )
    return parse_output(result.stdout)


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent commit (any git revision)")
    parser.add_argument("--first-seed", type=int, required=True,
                        help="pair i runs workload seed FIRST_SEED + i")
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"), default=None)
    parser.add_argument("--out", default=None, help="JSON path (default: standard output)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"]
    if args.claim and (args.claim[0] not in workloads
                       or args.claim[1] not in [s["name"] for s in specs]):
        sys.exit(f"error: --claim {' '.join(args.claim)} names no workload or no metric")
    seconds = bench["run_seconds"]
    seeds = [args.first_seed + i for i in range(PAIRS)]
    parent_sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")

    # SIGTERM unwinds like an exception, so both copies are removed then too.
    signal.signal(signal.SIGTERM, _raise_exit)
    results = {w: {side: [] for side in SIDES} for w in workloads}
    machine = {}
    with side_roots(parent_sha) as roots:
        for index, seed in enumerate(seeds):
            for side in pair_order(index):
                for workload in workloads:
                    try:
                        env, result = run_benchmark(bench["command"], roots[side], workload,
                                                    seed, seconds)
                    except subprocess.CalledProcessError as exc:
                        sys.exit(f"error: {side} {workload} seed {seed} exited "
                                 f"{exc.returncode}:\n{exc.stderr}")
                    results[workload][side].append(result)
                    if side == "change" and not machine:
                        machine = {k: v for k, v in env.items()
                                   if k not in ("git_sha", "workload_seed")}
                    print(f"pair {index + 1}/{len(seeds)} seed {seed} {side} {workload}: "
                          f"{result['failed']} of {result['attempted']} ops failed",
                          file=sys.stderr)

    summary = {w: summarize_workload(specs, seeds, results[w]) for w in workloads}
    report = {
        "command": " ".join(bench["command"]) + " --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": f"{len(seeds)} alternating pairs, seeds {seeds[0]}-{seeds[-1]} (one per "
                    "pair); each side runs from its own temporary directory, the parent "
                    "exported with git archive and the change copied from the checkout's "
                    "tracked files; parent first in even pairs, change first in odd "
                    "pairs; within a pair each side runs the workloads one after another. "
                    "Quartiles: "
                    "statistics.quantiles(n=4, method=\"inclusive\") over each side's runs. "
                    "A win is the change being better than the parent in the same pair; "
                    "vs_parent_iqr is better (worse) when the change median is better "
                    "(worse) than the parent median by more than parent q3 - q1, else "
                    "inside. A claim is met with at least 9 wins of 10, vs_parent_iqr "
                    "better and no more failed ops than the parent. regressions lists every "
                    "workload and metric whose change median is worse than the parent "
                    "median by more than its BENCHMARK.json bound, relative to the "
                    "parent median.",
        "parent": parent_sha,
        "change": {"head": _git("rev-parse", "HEAD"),
                   "uncommitted_edits": bool(_git("status", "--porcelain"))},
        "machine": machine,
        "claimed": claim_verdict(summary, *args.claim) if args.claim else None,
        "regressions": regressions(summary),
        "workloads": summary,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)

    for workload, data in summary.items():
        for name, m in data["metrics"].items():
            ratio = m["change_over_parent_median"]
            raw = m["raw_median"]
            raw = "" if raw is None else f" (raw {raw['parent']:.6g} -> {raw['change']:.6g})"
            print(f"{workload} {name}: parent {m['parent']['median']:.6g}, change "
                  f"{m['change']['median']:.6g} ({'-' if ratio is None else f'{ratio:.3f}'}x)"
                  f"{raw}, wins {m['change_wins']}, {m['vs_parent_iqr']} vs the parent's IQR",
                  file=sys.stderr)
    worse = ", ".join(f"{r['workload']} {r['metric']}" for r in report["regressions"])
    print(f"regressions: {worse or 'none'}", file=sys.stderr)
    claim = report["claimed"]
    if claim:
        verdict = "met" if claim["met"] else "NOT met"
        print(f"claim {claim['workload']} {claim['metric']}: {claim['wins']}/{claim['pairs']} "
              f"wins, {claim['vs_parent_iqr']} vs the parent's IQR, failed ops "
              f"{claim['failed_ops']['change']} (parent {claim['failed_ops']['parent']}): "
              f"{verdict}", file=sys.stderr)
        return 0 if claim["met"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
